"""``python -m gridcalc``: the command-line interface (:mod:`gridcalc.cli`),
with its exit code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
