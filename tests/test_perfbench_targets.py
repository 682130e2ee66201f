"""The benchmark's tracer wraps engine functions by name; keep those names."""

from __future__ import annotations

import ast
from pathlib import Path

from gridcalc import Engine, formula, gwb, tables

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# the owners perfbench/run.py hands to Tracer.install
OWNERS = {"gwb": gwb, "formula": formula, "tables": tables, "Engine": Engine}


def _targets() -> list:
    # read, not imported: the test leaves perfbench/ untouched
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_every_traced_function_still_resolves():
    targets = _targets()
    assert targets
    missing = [(name, owner, attr) for name, owner, attr in targets if not callable(getattr(OWNERS[owner], attr, None))]
    assert missing == []
