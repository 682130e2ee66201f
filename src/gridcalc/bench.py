"""Benchmark harness: many small call tables versus one large data table.

Both modes evaluate the same seeded candidate list against the same
function body, so their result values must be identical; what differs is
the table overhead. ``small`` declares N separate 2x2 call tables sharing
one input cell (N restores per recalc), ``large`` declares a single
(N+1)-row table (one restore). Results are emitted as CSV rows, one per
repeated recalculation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

from . import gwb, isbn, tables
from .engine import Engine, EvalStats
from .formula import shared_formula
from .model import MAX_ROWS, CellAddress, Literal, RangeRef, Workspace

CSV_HEADER = "mode,calls,seconds,cell_evaluations,body_passes,table_restores"

BODY_ASSET = "bench_body.gwb"
_WORKBOOK = "bench_body"
_SHEET = "Bench"
_FIRST_TABLE_ROW = 4


def asset_path(name: str) -> Path:
    """Filesystem path of a shipped workbook asset."""
    return Path(str(files("gridcalc").joinpath("assets", name)))


def candidates(n: int, seed: int) -> list[str]:
    """Seeded, reproducible candidate list: roughly half valid ISBN-10s."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        digits = "".join(rng.choice("0123456789") for _ in range(9))
        check = isbn.isbn10_check_char(digits)
        if rng.random() < 0.5:
            out.append(digits + check)
        else:
            pool = [c for c in "0123456789X" if c != check]
            out.append(digits + rng.choice(pool))
    return out


def _addr(col: int, row: int) -> CellAddress:
    return CellAddress(_WORKBOOK, _SHEET, col, row)


def build_workspace(n: int, mode: str, seed: int) -> Workspace:
    """Load the function body and append N call tables below it."""
    if mode not in ("small", "large"):
        raise ValueError(f"unknown bench mode {mode!r}")
    max_row = _FIRST_TABLE_ROW + (2 * n if mode == "small" else n)
    if n < 1 or max_row > MAX_ROWS:
        raise ValueError(f"call count {n} does not fit the grid")
    ws = gwb.load_workspace([asset_path(BODY_ASSET)])
    sheet = ws.workbook(_WORKBOOK).sheet(_SHEET)
    input_cell = _addr(1, 2)
    args = candidates(n, seed)
    if mode == "large":
        top = _FIRST_TABLE_ROW
        link = _addr(2, top)
        sheet.set_content(top, 2, shared_formula("D2", link, ws.templates))
        for i, text in enumerate(args):
            sheet.set_content(top + 1 + i, 1, Literal(text))
        region = RangeRef(_addr(1, top), _addr(2, top + n))
        tables.declare_table(ws, region, tables.COLUMN_INPUT, input_cell)
    else:
        for i, text in enumerate(args):
            top = _FIRST_TABLE_ROW + 2 * i
            link = _addr(2, top)
            sheet.set_content(top, 2, shared_formula("D2", link, ws.templates))
            sheet.set_content(top + 1, 1, Literal(text))
            region = RangeRef(_addr(1, top), _addr(2, top + 1))
            tables.declare_table(ws, region, tables.COLUMN_INPUT, input_cell)
    return ws


def result_addresses(n: int, mode: str) -> list[CellAddress]:
    if mode == "large":
        return [_addr(2, _FIRST_TABLE_ROW + 1 + i) for i in range(n)]
    return [_addr(2, _FIRST_TABLE_ROW + 1 + 2 * i) for i in range(n)]


@dataclass
class BenchRow:
    mode: str
    calls: int
    stats: EvalStats

    def csv(self) -> str:
        s = self.stats
        return (
            f"{self.mode},{self.calls},{s.wall_time:.6f},"
            f"{s.cell_evaluations},{s.body_passes},{s.table_restores}"
        )


def run(n: int, mode: str, repeat: int = 1, seed: int = 1234):
    """Time *repeat* full recalcs, at least one; returns (rows, final result values)."""
    if repeat < 1:
        raise ValueError(f"repeat count {repeat} is not >= 1")
    ws = build_workspace(n, mode, seed)
    engine = Engine(ws)
    rows = []
    for _ in range(repeat):
        stats = engine.full_recalc()
        rows.append(BenchRow(mode, n, stats))
    values = [ws.value(a) for a in result_addresses(n, mode)]
    return rows, values


def format_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"
