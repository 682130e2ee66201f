"""Plain-text workbook (.gwb) and workspace (.gws) files.

A ``.gwb`` file is one workbook: one directive per line, full-line ``#``
comments, blank lines ignored.

::

    sheet Sheet1              # switch/create the current sheet
    A1 : 42                   # number literal
    A2 : "some text"          # text literal; a doubled quote escapes one
    B2 = IF(A1=42,"y","n")    # formula (no leading = inside)
    B5 = {=TABLE(,A2)}        # table-body placeholder (validated)
    name Answer = Sheet1!B2   # defined name
    table A4:B9 colinput=A2   # data-table declaration

Table declarations are applied after all cell directives regardless of
their position in the file. A ``.gws`` workspace file lists workbooks as
``workbook <Name> <path.gwb>`` lines, paths relative to the ``.gws`` file.

Loading then dumping a workbook as source is a fixed point: the dump loads
back into an identical workspace and dumps to identical text.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import tables
from .model import (
    CELL_RE,
    AddressError,
    CalcConfig,
    CellAddress,
    Error,
    Formula,
    Literal,
    RangeRef,
    Sheet,
    TableBody,
    Workbook,
    Workspace,
    column_to_letters,
    parse_address,
    to_number,
    to_text,
    top_left,
)
from .formula import TEXT_RE, FormulaError, parse_formula, unquote, value_text

DEFAULT_SHEET = "Sheet1"


class LoadError(Exception):
    """A file could not be loaded; carries file and line information."""

    def __init__(self, path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no
        self.message = message


_CELL_DIRECTIVE_RE = re.compile(rf"^(?P<cell>{CELL_RE.pattern})\s*(?P<op>[:=])\s*(?P<rest>.*)$")
_SHEET_RE = re.compile(r"^sheet\s+(\S+)\s*$")
_NAME_RE = re.compile(r"^name\s+(\S+)\s*=\s*(\S+)\s*$")
_TABLE_RE = re.compile(r"^table\s+(\S+)((?:\s+\w+=\S+)+)\s*$")
_TABLE_OPT_RE = re.compile(r"(\w+)=(\S+)")
_BODY_MARKER_RE = re.compile(r"^\{=TABLE\(\s*([^(),]*?)\s*,\s*([^(),]*?)\s*\)\}$")
_WORKBOOK_RE = re.compile(r"^workbook\s+(\S+)\s+(.+?)\s*$")


def _at_line(path, line_no: int, fn, *args):
    """``fn(*args)``, with an AddressError (a bad reference or name) reported
    as a LoadError at *path*:*line_no*."""
    try:
        return fn(*args)
    except AddressError as exc:
        raise LoadError(path, line_no, str(exc)) from exc


def _lines(path: Path):
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise LoadError(path, 0, f"cannot read file: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; "?" stands in for the bad one
        line_no = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise LoadError(path, line_no, f"not UTF-8 text ({exc.reason} 0x{data[exc.start]:02x})") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped


def load_workspace(paths, config: CalcConfig | None = None) -> Workspace:
    """Load a workspace from one ``.gws`` file or one or more ``.gwb`` files.

    Workbook names come from the ``.gws`` listing, or from file stems when
    ``.gwb`` paths are given directly.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValueError("no input files")
    if len(paths) == 1 and paths[0].suffix == ".gws":
        return _load_gws(paths[0], config)
    ws = Workspace(config)
    for path in paths:
        _add_workbook(ws, path.stem, path)
    return ws


def _load_gws(path: Path, config: CalcConfig | None) -> Workspace:
    ws = Workspace(config)
    for line_no, line in _lines(path):
        m = _WORKBOOK_RE.match(line)
        if m is None:
            raise LoadError(path, line_no, f"bad workspace directive: {line!r}")
        name, rel = m.group(1), m.group(2)
        try:
            _add_workbook(ws, name, path.parent / rel)
        except ValueError as exc:
            raise LoadError(path, line_no, str(exc)) from exc
    return ws


def _add_workbook(ws: Workspace, name: str, path: Path) -> None:
    try:
        wb = ws.add_workbook(name)
    except ValueError as exc:  # a duplicate or malformed workbook name
        raise LoadError(path, 0, str(exc)) from exc
    _load_workbook_file(ws, wb, path)


def _load_workbook_file(ws: Workspace, wb: Workbook, path: Path) -> None:
    current: Sheet | None = None
    seen: set[tuple[str, int, int]] = set()
    placeholders: list[tuple[int, CellAddress, str, CellAddress]] = []
    pending_tables: list[tuple[int, RangeRef, str, CellAddress]] = []

    def current_sheet() -> Sheet:
        nonlocal current
        if current is None:
            current = wb.ensure_sheet(DEFAULT_SHEET)
        return current

    for line_no, line in _lines(path):
        m = _SHEET_RE.match(line)
        if m is not None:
            current = _at_line(path, line_no, wb.ensure_sheet, m.group(1))
            continue
        m = _NAME_RE.match(line)
        if m is not None:
            _apply_name(ws, wb, path, line_no, m.group(1), m.group(2))
            continue
        m = _TABLE_RE.match(line)
        if m is not None:
            pending_tables.append(
                _parse_table_directive(wb, current_sheet(), path, line_no, m)
            )
            continue
        m = _CELL_DIRECTIVE_RE.match(line)
        if m is not None:
            sheet = current_sheet()
            addr = _parse_local_cell(wb, sheet, path, line_no, m["cell"])
            key = (sheet.name.casefold(), addr.row, addr.column)
            if key in seen:
                raise LoadError(path, line_no, f"cell {m['cell']} defined twice")
            seen.add(key)
            if m["op"] == ":":
                _apply_literal(sheet, addr, path, line_no, m["rest"])
            else:
                marker = _BODY_MARKER_RE.match(m["rest"])
                if marker is not None:
                    placeholders.append(
                        (line_no, addr)
                        + _parse_body_marker(wb, sheet, path, line_no, marker)
                    )
                else:
                    _apply_formula(sheet, addr, path, line_no, m["rest"])
            continue
        raise LoadError(path, line_no, f"unrecognized directive: {line!r}")

    for line_no, region, orientation, input_cell in pending_tables:
        try:
            tables.declare_table(ws, region, orientation, input_cell)
        except tables.TableError as exc:
            raise LoadError(path, line_no, str(exc)) from exc

    for line_no, addr, orientation, input_cell in placeholders:
        owner = ws.table_at(addr)
        if owner is None or not owner.is_body_cell(addr):
            raise LoadError(path, line_no, f"{addr.local_text()}: TABLE cell outside any declared table")
        if owner.orientation != orientation or owner.input_cell != input_cell:
            raise LoadError(
                path, line_no, f"{addr.local_text()}: TABLE cell does not match its table declaration"
            )


def _parse_local_cell(wb: Workbook, sheet: Sheet, path, line_no: int, text: str) -> CellAddress:
    ref = _at_line(path, line_no, parse_address, text, CellAddress(wb.name, sheet.name, 1, 1))
    if not isinstance(ref, CellAddress):
        raise LoadError(path, line_no, f"expected a single cell, got {text!r}")
    if ref.sheet.casefold() != sheet.name.casefold() or ref.workbook.casefold() != wb.name.casefold():
        raise LoadError(path, line_no, "cell directives use local addresses")
    return ref


def _apply_literal(sheet: Sheet, addr: CellAddress, path, line_no: int, rest: str) -> None:
    if TEXT_RE.fullmatch(rest):
        sheet.set_content(addr.row, addr.column, Literal(unquote(rest)))
        return
    n = to_number(rest)
    if isinstance(n, Error):
        raise LoadError(path, line_no, f"bad literal {rest!r}")
    sheet.set_content(addr.row, addr.column, Literal(n))


def _apply_formula(sheet: Sheet, addr: CellAddress, path, line_no: int, source: str) -> None:
    if not source:
        raise LoadError(path, line_no, "empty formula")
    try:
        ast = parse_formula(source, addr)
    except FormulaError as exc:
        raise LoadError(path, line_no, f"{addr.local_text()}: {exc}") from exc
    sheet.set_content(addr.row, addr.column, Formula(source, ast))


def _apply_name(ws: Workspace, wb: Workbook, path, line_no: int, name: str, target_text: str) -> None:
    if "!" not in target_text or "[" in target_text:
        raise LoadError(path, line_no, "name targets are written Sheet!A1 or Sheet!A1:B2")
    context = CellAddress(wb.name, DEFAULT_SHEET, 1, 1)
    target = _at_line(path, line_no, parse_address, target_text, context)
    try:
        ws.define_name(name, target)
    except ValueError as exc:
        raise LoadError(path, line_no, str(exc)) from exc


def _parse_table_directive(wb: Workbook, sheet: Sheet, path, line_no: int, m: re.Match):
    context = CellAddress(wb.name, sheet.name, 1, 1)
    region = _at_line(path, line_no, parse_address, m.group(1), context)
    if isinstance(region, CellAddress):
        region = RangeRef(region, region)
    opts = dict(_TABLE_OPT_RE.findall(m.group(2)))
    if "colinput" in opts and "rowinput" in opts:
        raise LoadError(path, line_no, "two-input data tables are not supported")
    if "colinput" in opts:
        orientation, ref_text = tables.COLUMN_INPUT, opts.pop("colinput")
    elif "rowinput" in opts:
        orientation, ref_text = tables.ROW_INPUT, opts.pop("rowinput")
    else:
        raise LoadError(path, line_no, "table needs colinput=<ref> or rowinput=<ref>")
    if opts:
        raise LoadError(path, line_no, f"unknown table option {next(iter(opts))!r}")
    return line_no, region, orientation, _input_cell(ref_text, context, path, line_no)


def _parse_body_marker(wb: Workbook, sheet: Sheet, path, line_no: int, m: re.Match):
    row_part, col_part = m.group(1), m.group(2)
    if bool(row_part) == bool(col_part):
        raise LoadError(path, line_no, "TABLE takes exactly one input cell")
    orientation = tables.COLUMN_INPUT if col_part else tables.ROW_INPUT
    context = CellAddress(wb.name, sheet.name, 1, 1)
    return orientation, _input_cell(col_part or row_part, context, path, line_no)


def _input_cell(text: str, context: CellAddress, path, line_no: int) -> CellAddress:
    """The input cell of a ``table`` directive or a ``{=TABLE(...)}`` marker."""
    ref = _at_line(path, line_no, parse_address, text, context)
    if not isinstance(ref, CellAddress):
        raise LoadError(path, line_no, "the table input must be a single cell")
    return ref


# ---------------------------------------------------------------------------
# Dumping
# ---------------------------------------------------------------------------


def render_value(v) -> str:
    """Display text for a cached value: blank and "" are both empty, and an
    array shows its top-left element."""
    v = top_left(v)
    return v.code if isinstance(v, Error) else to_text(v)


def _cell_directive(ws: Workspace, addr_text: str, cell) -> str:
    content = cell.content
    if isinstance(content, Literal):
        # numbers and text load as literals; TRUE, FALSE and error codes as formulas
        v = content.value
        return f"{addr_text} {'=' if isinstance(v, (bool, Error)) else ':'} {value_text(v)}"
    if isinstance(content, Formula):
        return f"{addr_text} = {content.source}"
    if isinstance(content, TableBody):
        return f"{addr_text} = {ws.table(content.table_id).marker_text()}"
    raise TypeError(f"cannot dump content {content!r}")


def _sheet_tables(ws: Workspace, wb: Workbook, sheet: Sheet):
    out = [
        t
        for t in ws.tables
        if t.region.top_left.workbook.casefold() == wb.name.casefold()
        and t.region.top_left.sheet.casefold() == sheet.name.casefold()
    ]
    out.sort(key=lambda t: (t.region.top_left.row, t.region.top_left.column))
    return out


def _sheet_source_lines(ws: Workspace, wb: Workbook, sheet: Sheet) -> list[str]:
    lines = [f"sheet {sheet.name}"]
    for (row, col) in sorted(sheet.cells):
        addr_text = f"{column_to_letters(col)}{row}"
        lines.append(_cell_directive(ws, addr_text, sheet.cells[(row, col)]))
    for t in _sheet_tables(ws, wb, sheet):
        key = "colinput" if t.orientation == tables.COLUMN_INPUT else "rowinput"
        lines.append(f"table {t.region.local_text()} {key}={t.input_cell.local_text()}")
    return lines


def dump_sheet(ws: Workspace, workbook: str, sheet: str, fmt: str = "tsv") -> str:
    """Render one sheet as ``tsv`` (cached values) or ``source`` directives."""
    wb = ws.workbook(workbook)
    if wb is None:
        raise KeyError(f"unknown workbook {workbook!r}")
    sh = wb.sheet(sheet)
    if sh is None:
        raise KeyError(f"unknown sheet {sheet!r}")
    if fmt == "source":
        return "\n".join(_sheet_source_lines(ws, wb, sh)) + "\n"
    if fmt != "tsv":
        raise ValueError(f"unknown dump format {fmt!r}")
    bounds = sh.bounds()
    if bounds is None:
        return ""
    max_row, max_col = bounds
    lines = []
    for row in range(1, max_row + 1):
        lines.append("\t".join(render_value(sh.value(row, col)) for col in range(1, max_col + 1)))
    return "\n".join(lines) + "\n"


def dump_workbook_source(ws: Workspace, workbook: str) -> str:
    """Render a whole workbook as directives that reload identically."""
    wb = ws.workbook(workbook)
    if wb is None:
        raise KeyError(f"unknown workbook {workbook!r}")
    lines: list[str] = []
    for sheet in wb.sheets():
        lines.extend(_sheet_source_lines(ws, wb, sheet))
    named = [
        (orig, target)
        for orig, target in ws.defined_names.values()
        if (target.top_left.workbook if isinstance(target, RangeRef) else target.workbook).casefold()
        == wb.name.casefold()
    ]
    for orig, target in sorted(named, key=lambda item: item[0].casefold()):
        head = target.top_left if isinstance(target, RangeRef) else target
        local = target.local_text()
        lines.append(f"name {orig} = {head.sheet}!{local}")
    return "\n".join(lines) + "\n" if lines else ""
