"""One-input what-if data tables and the function-call convention they carry.

A declared table region holds result formulas along one edge, candidate
input values along the other, and a body of locked cells. Evaluating the
table substitutes each candidate into the input cell, re-runs the table's
function body (the cells between the input cell and the result formulas),
collects the result formulas' values into the body row, and finally
restores the input cell's original content.

Body cells of *every* table are frozen during any table's evaluation (they
carry no formulas, so no recomputation can reach them). That one rule makes
scheduling sequential-and-isolated and means calls can neither nest nor
recurse: an inner table read by an outer function body keeps its stale
values for the whole outer evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    CellAddress,
    Literal,
    RangeRef,
    TableBody,
    Workspace,
    values_equal,
)

COLUMN_INPUT = "col"
ROW_INPUT = "row"


class TableError(ValueError):
    """A data-table declaration violates the region rules."""


class TableIntegrityError(ValueError):
    """An edit tried to change part of a data table's body."""


@dataclass(frozen=True)
class DataTableRegion:
    """A declared one-input data table.

    ``col`` orientation: result formulas in the region's first row (columns
    2..C), input values in its first column (rows 2..R), body in between,
    rendered ``{=TABLE(,A2)}``. ``row`` orientation is the transpose,
    rendered ``{=TABLE(A2,)}``. A 2x2 region is a single function call:
    one result link, one argument cell, one result cell.

    Its cells are computed once, when it is made: ``results`` (the result
    formulas), ``arguments`` (the input values) and ``grid``, where
    ``grid[i][j]`` receives result ``j`` for argument ``i``.
    """

    table_id: int
    region: RangeRef
    orientation: str
    input_cell: CellAddress
    results: tuple = field(init=False, repr=False, compare=False)
    arguments: tuple = field(init=False, repr=False, compare=False)
    grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tl = self.region.top_left
        # A row table is a col table transposed: for a col table, argument i
        # is i rows and result j is j columns from the anchor.
        step = 1 if self.orientation == COLUMN_INPUT else -1
        n_arguments, n_results = (self.region.n_rows, self.region.n_cols)[::step]

        def at(i: int, j: int) -> CellAddress:
            rows, cols = (i, j)[::step]
            return CellAddress(tl.workbook, tl.sheet, tl.column + cols, tl.row + rows)

        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "results", tuple(at(0, j) for j in range(1, n_results)))
        set_field(self, "arguments", tuple(at(i, 0) for i in range(1, n_arguments)))
        set_field(
            self,
            "grid",
            tuple(tuple(at(i, j) for j in range(1, n_results)) for i in range(1, n_arguments)),
        )

    @property
    def anchor(self) -> CellAddress:
        return self.region.top_left

    def formula_cells(self) -> list[CellAddress]:
        return list(self.results)

    def value_cells(self) -> list[CellAddress]:
        return list(self.arguments)

    def body_address(self, value_index: int, formula_index: int) -> CellAddress:
        return self.grid[value_index][formula_index]

    def is_body_cell(self, addr: CellAddress) -> bool:
        """Whether *addr*, a cell of this region, is a body cell."""
        tl = self.region.top_left
        return addr.row > tl.row and addr.column > tl.column

    def body_cells(self) -> list[CellAddress]:
        """The body, row by row."""
        return sorted((a for row in self.grid for a in row), key=lambda a: a.sort_key)

    def marker_text(self) -> str:
        """Body-cell display text, e.g. ``{=TABLE(,A2)}`` for column input."""
        local = self.input_cell.local_text()
        if self.orientation == COLUMN_INPUT:
            return "{=TABLE(," + local + ")}"
        return "{=TABLE(" + local + ",)}"


def declare_table(
    ws: Workspace, region: RangeRef, orientation: str, input_cell: CellAddress
) -> DataTableRegion:
    """Register a data table and convert its body cells to locked cells.

    The result formulas and input values must already be in place; body
    cells must be empty. Rejected: regions smaller than 2x2, overlap with
    an existing table, an input cell inside the region or on another sheet.
    """
    if orientation not in (COLUMN_INPUT, ROW_INPUT):
        raise TableError(f"unknown orientation {orientation!r}")
    if region.n_rows < 2 or region.n_cols < 2:
        raise TableError(f"table region {region!r} must be at least 2x2")
    tl = region.top_left
    sheet = ws.resolve_sheet(tl)
    if sheet is None:
        raise TableError(f"table region {region!r} names a missing sheet")
    if (input_cell.workbook.casefold(), input_cell.sheet.casefold()) != (
        tl.workbook.casefold(),
        tl.sheet.casefold(),
    ):
        raise TableError("the input cell must be on the same sheet as the table")
    if region.contains(input_cell):
        raise TableError("the input cell cannot lie inside the table region")
    br = region.bottom_right
    book, sheet_name = tl.workbook.casefold(), tl.sheet.casefold()
    keys = [
        (book, sheet_name, r, c)
        for r in range(tl.row, br.row + 1)
        for c in range(tl.column, br.column + 1)
    ]
    overlapped = {ws.table_index[k].table_id for k in keys if k in ws.table_index}
    if overlapped:
        other = ws.table(min(overlapped))
        raise TableError(f"table region {region!r} overlaps {other.region!r}")
    input_existing = ws.cell(input_cell)
    if input_existing is not None and isinstance(input_existing.content, TableBody):
        raise TableError("the input cell is part of another table's body")
    table = DataTableRegion(len(ws.tables), region, orientation, input_cell)
    body = table.body_cells()
    for addr in body:
        cell = sheet.cell(addr.row, addr.column)
        if cell is not None and cell.content is not None:
            raise TableError(f"table body cell {addr!r} is not empty")
    for addr in body:
        sheet.set_content(addr.row, addr.column, TableBody(table.table_id))
    ws.tables.append(table)
    ws.table_index.update(dict.fromkeys(keys, table))
    return table


def _write_input(ws: Workspace, addr: CellAddress, value) -> None:
    sheet = ws.resolve_sheet(addr)
    if value is None:
        sheet.set_content(addr.row, addr.column, None)
    else:
        sheet.set_content(addr.row, addr.column, Literal(value))


def evaluate_table(engine, table: DataTableRegion, stats) -> set:
    """Run the substitute/recompute/collect/restore cycle for one table.

    For each candidate value, in order: write it into the input cell as a
    literal, run the table's plan (:meth:`Engine.dependents_plan`: its
    function body only, all table bodies frozen), and copy each result
    formula's value into the matching body cell. Afterwards, on every exit
    path including an exception, the input cell's original content and
    cached value are restored and the plan runs once more, so nothing
    outside table bodies keeps any trace of the passes. Returns the body
    cells whose value changed.
    """
    ws = engine.workspace
    plan = engine.dependents_plan(table)
    sheet = ws.resolve_sheet(table.input_cell)
    key = (table.input_cell.row, table.input_cell.column)
    saved_cell = sheet.cells.get(key)
    saved = None if saved_cell is None else (saved_cell.content, saved_cell.cached)
    values = [ws.value(a) for a in table.arguments]  # snapshot before any pass
    changed: set = set()
    try:
        for v, body_row in zip(values, table.grid):
            _write_input(ws, table.input_cell, v)
            engine.run_plan(plan, stats)
            for faddr, addr in zip(table.results, body_row):
                result = ws.value(faddr)
                body = ws.cell(addr)
                if not values_equal(body.cached, result):
                    changed.add(addr)
                body.cached = result
            stats.body_passes += 1
    finally:
        # put the very same Cell back: plans hold references to cell objects
        if saved_cell is None:
            sheet.cells.pop(key, None)
        else:
            sheet.cells[key] = saved_cell
            saved_cell.content, saved_cell.cached = saved
        engine.run_plan(plan, stats)
        stats.table_restores += 1
    return changed


def schedule_tables(engine, stats) -> set:
    """Evaluate every table, strictly one after another, in position order:
    workbook name, sheet position, anchor row, anchor column. Each table
    restores the shared input cell before the next one starts, so the final
    state does not depend on how many tables share an input."""
    ws = engine.workspace

    def key(table: DataTableRegion):
        tl = table.region.top_left
        wb = ws.workbook(tl.workbook)
        return (tl.workbook.casefold(), wb.sheet_index(tl.sheet), tl.row, tl.column)

    changed: set = set()
    for table in sorted(ws.tables, key=key):
        changed |= evaluate_table(engine, table, stats)
    return changed
