"""Plain-text workbook (.gwb) and workspace (.gws) files.

A ``.gwb`` file is one workbook: one directive per line, full-line ``#``
comments, blank lines ignored.

::

    sheet Sheet1              # switch/create the current sheet
    A1 : 42                   # number literal
    A2 : "some text"          # text literal; a doubled quote escapes one
    A3 :: "two\\nlines"        # text holding line breaks, as a JSON string
    B2 = IF(A1=42,"y","n")    # formula (no leading = inside)
    B5 = {=TABLE(,A2)}        # table-body placeholder (validated)
    name Answer = Sheet1!B2   # defined name
    table A4:B9 colinput=A2   # data-table declaration

Table declarations are applied after all cell directives regardless of
their position in the file. A ``.gws`` workspace file lists workbooks as
``workbook <Name> <path.gwb>`` lines, paths relative to the ``.gws`` file.

Loading then dumping a workbook as source is a fixed point: the dump loads
back into an identical workspace and dumps to identical text.

Malformed input is a :class:`LoadError` with the file and line it is at.
Each directive handler raises a plain ``ValueError`` (``AddressError``,
``TableError`` and ``FormulaError`` are ones), and the loop over a file's
lines, in ``_load_gws`` or ``_load_workbook_file``, makes it a
``LoadError`` at its own line: a bad ``.gws`` line is reported at that
line of the ``.gws`` file. Line 0 means the file as a whole: a file that
cannot be read, or a ``.gwb`` given directly whose stem is not a new,
valid workbook name.
"""

from __future__ import annotations

import json
import re
from functools import partial
from pathlib import Path

from . import tables
from .model import (
    CELL_RE,
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
    grid_coordinates,
    parse_address,
    to_number,
    to_text,
    top_left,
)
from .formula import TEXT_RE, FormulaError, shared_formula, unquote, value_text
from .formula import parse_formula  # noqa: F401  (kept importable here: tracers wrap the loader's binding)

DEFAULT_SHEET = "Sheet1"


class LoadError(Exception):
    """A file could not be loaded; carries file and line information."""

    def __init__(self, path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no
        self.message = message


_CELL_DIRECTIVE_RE = re.compile(rf"^(?P<cell>{CELL_RE.pattern})\s*(?P<op>::|[:=])\s*(?P<rest>.*)$")
_LETTERS = _CELL_DIRECTIVE_RE.groupindex["cell"] + 1  # CELL_RE's groups: column letters, then row digits
_SHEET_RE = re.compile(r"^sheet\s+(\S+)\s*$")
_NAME_RE = re.compile(r"^name\s+(\S+)\s*=\s*(\S+)\s*$")
_TABLE_RE = re.compile(r"^table\s+(\S+)((?:\s+\w+=\S+)+)\s*$")
_TABLE_OPT_RE = re.compile(r"(\w+)=(\S+)")
_BODY_MARKER_RE = re.compile(r"^\{=TABLE\(\s*([^(),]*?)\s*,\s*([^(),]*?)\s*\)\}$")
_WORKBOOK_RE = re.compile(r"^workbook\s+(\S+)\s+(.+?)\s*$")


def _lines(path: Path):
    try:
        data = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
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
        try:
            wb = ws.add_workbook(path.stem)
        except ValueError as exc:  # a duplicate or malformed workbook name
            raise LoadError(path, 0, str(exc)) from exc
        _load_workbook_file(ws, wb, path)
    return ws


def _load_gws(path: Path, config: CalcConfig | None) -> Workspace:
    ws = Workspace(config)
    for line_no, line in _lines(path):
        m = _WORKBOOK_RE.match(line)
        try:
            if m is None:
                raise ValueError(f"bad workspace directive: {line!r}")
            wb = ws.add_workbook(m.group(1))
        except ValueError as exc:
            raise LoadError(path, line_no, str(exc)) from exc
        _load_workbook_file(ws, wb, path.parent / m.group(2))
    return ws


def _load_workbook_file(ws: Workspace, wb: Workbook, path: Path) -> None:
    current: Sheet | None = None
    context: CellAddress | None = None  # A1 of the current sheet
    seen: set[tuple] = set()
    # what runs once every cell is in, with the line it came from: each
    # table declaration, then each {=TABLE} marker's check against its table
    declarations: list[tuple[int, partial]] = []
    markers: list[tuple[int, partial]] = []

    def enter(sheet: Sheet) -> None:
        nonlocal current, context
        current, context = sheet, CellAddress(wb.name, sheet.name, 1, 1)

    def home() -> CellAddress:
        """A1 of the current sheet, which is the default sheet until one is named."""
        if current is None:
            enter(wb.ensure_sheet(DEFAULT_SHEET))
        return context

    for line_no, line in _lines(path):
        try:
            if m := _SHEET_RE.match(line):
                enter(wb.ensure_sheet(m.group(1)))
            elif m := _NAME_RE.match(line):
                _apply_name(ws, wb, m.group(1), m.group(2))
            elif m := _TABLE_RE.match(line):
                declarations.append((line_no, _table_directive(ws, home(), m)))
            elif m := _CELL_DIRECTIVE_RE.match(line):
                # the directive's cell is local, so it lies on the current sheet
                coords = grid_coordinates(m[_LETTERS], m[_LETTERS + 1])
                if coords is None:
                    raise ValueError(f"reference {m['cell']!r} is outside the grid")
                addr = home().moved(*coords)
                if addr.sort_key in seen:
                    raise ValueError(f"cell {m['cell']} defined twice")
                seen.add(addr.sort_key)
                if m["op"] != "=":
                    _apply_literal(current, addr, m["op"], m["rest"])
                elif marker := _BODY_MARKER_RE.match(m["rest"]):
                    markers.append((line_no, _body_marker(ws, addr, context, marker)))
                else:
                    _apply_formula(ws, current, addr, m["rest"])
            else:
                raise ValueError(f"unrecognized directive: {line!r}")
        except ValueError as exc:
            raise LoadError(path, line_no, str(exc)) from exc

    for line_no, finish in declarations + markers:
        try:
            finish()
        except ValueError as exc:
            raise LoadError(path, line_no, str(exc)) from exc


def _apply_literal(sheet: Sheet, addr: CellAddress, op: str, rest: str) -> None:
    if op == "::":  # text holding line breaks, as a JSON string
        try:
            value = json.loads(rest)
        except (ValueError, RecursionError):  # RecursionError: arrays nested too deep
            value = None
        if not isinstance(value, str):
            value = Error.VALUE  # as for number text that is not a number
    elif TEXT_RE.fullmatch(rest):
        value = unquote(rest)
    else:
        value = to_number(rest)
    if isinstance(value, Error):
        raise ValueError(f"bad literal {rest!r}")
    sheet.set_content(addr.row, addr.column, Literal(value))


def _apply_formula(ws: Workspace, sheet: Sheet, addr: CellAddress, source: str) -> None:
    if not source:
        raise ValueError("empty formula")
    above = sheet.cells.get((addr.row - 1, addr.column))
    try:
        content = shared_formula(source, addr, ws.templates, above and above.content)
    except FormulaError as exc:
        raise ValueError(f"{addr.local_text()}: {exc}") from exc
    sheet.set_content(addr.row, addr.column, content)


def _apply_name(ws: Workspace, wb: Workbook, name: str, target_text: str) -> None:
    if "!" not in target_text or "[" in target_text:
        raise ValueError("name targets are written Sheet!A1 or Sheet!A1:B2")
    ws.define_name(name, parse_address(target_text, CellAddress(wb.name, DEFAULT_SHEET, 1, 1)))


def _table_directive(ws: Workspace, context: CellAddress, m: re.Match) -> partial:
    """The declaration a ``table`` directive makes, to run once every cell is in."""
    region = parse_address(m.group(1), context)
    if isinstance(region, CellAddress):
        region = RangeRef(region, region)
    opts: dict[str, str] = {}
    for key, value in _TABLE_OPT_RE.findall(m.group(2)):
        if key in opts:
            raise ValueError(f"table option {key!r} given twice")
        opts[key] = value
    if "colinput" in opts and "rowinput" in opts:
        raise ValueError("two-input data tables are not supported")
    if "colinput" in opts:
        orientation, ref_text = tables.COLUMN_INPUT, opts.pop("colinput")
    elif "rowinput" in opts:
        orientation, ref_text = tables.ROW_INPUT, opts.pop("rowinput")
    else:
        raise ValueError("table needs colinput=<ref> or rowinput=<ref>")
    if opts:
        raise ValueError(f"unknown table option {next(iter(opts))!r}")
    return partial(tables.declare_table, ws, region, orientation, _input_cell(ref_text, context))


def _body_marker(ws: Workspace, addr: CellAddress, context: CellAddress, m: re.Match) -> partial:
    """The check of a ``{=TABLE(...)}`` marker at *addr* against its table,
    to run once the tables are declared."""
    row_part, col_part = m.group(1), m.group(2)
    if bool(row_part) == bool(col_part):
        raise ValueError("TABLE takes exactly one input cell")
    orientation = tables.COLUMN_INPUT if col_part else tables.ROW_INPUT
    return partial(_check_marker, ws, addr, orientation, _input_cell(col_part or row_part, context))


def _check_marker(ws: Workspace, addr: CellAddress, orientation: str, input_cell: CellAddress) -> None:
    owner = ws.table_at(addr)
    if owner is None or not owner.is_body_cell(addr):
        raise ValueError(f"{addr.local_text()}: TABLE cell outside any declared table")
    if owner.orientation != orientation or owner.input_cell != input_cell:
        raise ValueError(f"{addr.local_text()}: TABLE cell does not match its table declaration")


def _input_cell(text: str, context: CellAddress) -> CellAddress:
    """The input cell of a ``table`` directive or a ``{=TABLE(...)}`` marker."""
    ref = parse_address(text, context)
    if not isinstance(ref, CellAddress):
        raise ValueError("the table input must be a single cell")
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
        if isinstance(v, str) and "".join(v.splitlines()) != v:  # a line break
            return f"{addr_text} :: {json.dumps(v)}"
        return f"{addr_text} {'=' if isinstance(v, (bool, Error)) else ':'} {value_text(v)}"
    if isinstance(content, Formula):
        return f"{addr_text} = {content.source}"
    if isinstance(content, TableBody):
        return f"{addr_text} = {ws.table(content.table_id).marker_text()}"
    raise TypeError(f"cannot dump content {content!r}")


def _sheet_source_lines(ws: Workspace, sheet: Sheet) -> list[str]:
    lines = [f"sheet {sheet.name}"]
    for (row, col) in sorted(sheet.cells):
        addr_text = f"{column_to_letters(col)}{row}"
        lines.append(_cell_directive(ws, addr_text, sheet.cells[(row, col)]))
    on_sheet = [t for t in ws.tables if ws.resolve_sheet(t.anchor) is sheet]
    for t in sorted(on_sheet, key=lambda t: (t.anchor.row, t.anchor.column)):
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
        return "\n".join(_sheet_source_lines(ws, sh)) + "\n"
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
        lines.extend(_sheet_source_lines(ws, sheet))
    named = [
        (orig, target)
        for orig, target in ws.defined_names.values()
        if ws.workbook((target.top_left if isinstance(target, RangeRef) else target).workbook) is wb
    ]
    for orig, target in sorted(named, key=lambda item: item[0].casefold()):
        head = target.top_left if isinstance(target, RangeRef) else target
        local = target.local_text()
        lines.append(f"name {orig} = {head.sheet}!{local}")
    return "\n".join(lines) + "\n" if lines else ""
