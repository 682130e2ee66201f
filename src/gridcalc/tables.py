"""One-input what-if data tables: their regions, their declaration and
their schedule.

A declared table region holds result formulas along one edge, candidate
input values along the other, and a body of locked cells. Evaluating the
table is one call, which the engine runs (:meth:`Engine.evaluate_table`
beside the plan it reads): bind each candidate to the input cell, re-run
the table's function body (the cells between the input cell and the result
formulas), collect the result formulas' values into the body row, and
finally restore the input cell and the function body's values as they were
before the first pass.

Body cells of *every* table are frozen during any table's evaluation (they
carry no formulas, so no recomputation can reach them). That one rule makes
scheduling sequential-and-isolated and means calls can neither nest nor
recurse: an inner table read by an outer function body runs first and keeps
its values for the whole outer evaluation, and a table that reads its own
body, directly or through other cells and tables, is a ``#CYCLE!``.
"""

from __future__ import annotations

from .model import CellAddress, RangeRef, TableBody, Workspace

COLUMN_INPUT = "col"
ROW_INPUT = "row"


class TableError(ValueError):
    """A data-table declaration violates the region rules."""


class TableIntegrityError(ValueError):
    """An edit tried to change part of a data table's body."""


class DataTableRegion:
    """A declared one-input data table.

    ``col`` orientation: result formulas in the region's first row (columns
    2..C), input values in its first column (rows 2..R), body in between,
    rendered ``{=TABLE(,A2)}``. ``row`` orientation is the transpose,
    rendered ``{=TABLE(A2,)}``. A 2x2 region is a single function call:
    one result link, one argument cell, one result cell.

    Its cells are computed once, when it is made: ``results`` (the result
    formulas), ``arguments`` (the input values) and ``grid``, where
    ``grid[i][j]`` receives result ``j`` for argument ``i``. A table is a
    value: its fields are never reassigned, equality and ``repr`` read the
    four it is made from, and hashing reads its id. ``sort_key`` is its first
    body cell's, which no formula holds: tables sort as their anchors do.
    """

    __slots__ = (
        "table_id", "region", "orientation", "input_cell", "results", "arguments", "grid", "sort_key"
    )

    def __init__(self, table_id: int, region: RangeRef, orientation: str, input_cell: CellAddress) -> None:
        self.table_id = table_id
        self.region = region
        self.orientation = orientation
        self.input_cell = input_cell
        tl, br = region.top_left, region.bottom_right
        rows, cols = range(tl.row + 1, br.row + 1), range(tl.column + 1, br.column + 1)
        if orientation == COLUMN_INPUT:  # an argument per row, a result per column
            self.results = tuple([tl.moved(c, tl.row) for c in cols])
            self.arguments = tuple([tl.moved(tl.column, r) for r in rows])
            self.grid = tuple([tuple([tl.moved(c, r) for c in cols]) for r in rows])
        else:  # the transpose
            self.results = tuple([tl.moved(tl.column, r) for r in rows])
            self.arguments = tuple([tl.moved(c, tl.row) for c in cols])
            self.grid = tuple([tuple([tl.moved(c, r) for r in rows]) for c in cols])
        self.sort_key = self.grid[0][0].sort_key

    def _fields(self) -> tuple:
        return (self.table_id, self.region, self.orientation, self.input_cell)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DataTableRegion):
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.table_id)

    def __repr__(self) -> str:
        return (
            f"DataTableRegion(table_id={self.table_id!r}, region={self.region!r}, "
            f"orientation={self.orientation!r}, input_cell={self.input_cell!r})"
        )

    @property
    def anchor(self) -> CellAddress:
        return self.region.top_left

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
    if input_cell.sheet_key != tl.sheet_key:
        raise TableError("the input cell must be on the same sheet as the table")
    if region.contains(input_cell):
        raise TableError("the input cell cannot lie inside the table region")
    keys = [a.sort_key for a in region.cells()]
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


def schedule_tables(engine, stats, needs: set, rng=None) -> None:
    """Run every table, strictly one after another, in one walk
    (:meth:`Engine.walk`) with the cells in *needs* and what their changes
    reach: each table runs after the cells and tables it reads, and a
    formula that reads a table body after that table. Each table restores
    the shared input cell before the next one starts, so the final state
    does not depend on how many tables share an input."""
    engine.walk(needs, engine.workspace.tables, stats, rng)
