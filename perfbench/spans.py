"""Spans around the engine's public entry points, recorded from outside.

:meth:`Tracer.install` replaces each traced function with a wrapper that
records a span ``(name, start, end, parent, sample)`` in memory;
:meth:`Tracer.uninstall` puts the originals back. A function that no longer exists under its name
is listed in ``Tracer.missing`` and the metrics built on it are reported as
missing; the untraced benchmark never touches this module.
"""

from __future__ import annotations

import json
from time import perf_counter

# (span name, module attribute holding the owner, attribute name)
TARGETS = [
    ("gwb.load", "gwb", "load_workspace"),
    ("gwb.dump", "gwb", "dump_workbook_source"),
    ("formula.parse", "formula", "parse_formula"),
    ("formula.parse", "gwb", "parse_formula"),  # the loader's own binding
    ("formula.deps", "formula", "static_dependencies"),
    ("tables.declare", "tables", "declare_table"),
    ("tables.schedule", "tables", "schedule_tables"),
    ("engine.build_graph", "Engine", "build_graph"),
    ("engine.full_recalc", "Engine", "full_recalc"),
    ("engine.set_cell", "Engine", "set_cell"),
    ("tables.plan_build", "Engine", "dependents_plan"),
    ("tables.run_plan", "Engine", "run_plan"),
]

NAME, START, END, PARENT, SAMPLE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.closed: list = []  # (index, name, start, end, parent, sample) as spans end
        self.stack: list = []  # indexes of the open spans
        self._opened = 0
        self.sample = -1  # index of the timing sample being recorded
        self.missing: set = set()  # span names with no function left to wrap
        self._saved: list = []

    def _wrap(self, name: str, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            index = self._opened
            self._opened += 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                # tuples of atomic values drop out of the cyclic GC's work
                self.closed.append((index, name, start, end, parent, self.sample))

        return traced

    def install(self, owners: dict) -> None:
        installed = set()
        for name, owner_key, attr in TARGETS:
            owner = owners[owner_key]
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            installed.add(name)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        self.missing = {name for name, _, _ in TARGETS} - installed

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    @property
    def spans(self) -> list:
        """Finished spans ``(name, start, end, parent, sample)`` in opening order."""
        return [s[1:] for s in sorted(self.closed)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    @staticmethod
    def self_times(spans: list) -> list:
        """Each span's duration minus the time its direct children cover."""
        out = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out
