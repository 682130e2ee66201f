"""Core workbook model: addresses, values, cells, sheets, and workspaces.

Every other module operates on the types defined here. A value is one of:

* number  -- Python ``float``
* text    -- Python ``str``
* boolean -- Python ``bool``
* blank   -- ``None`` (an empty cell; deliberately distinct from ``""``)
* error   -- :class:`Error` (interned, one instance per code)
* array   -- :class:`Array`, a rectangle of the scalar kinds above

A :class:`CellAddress` carries its sheet's identity, ``sheet_key``: the
casefolded workbook and sheet names, so names match case-insensitively and
no other module compares them. A name must be non-empty and free of
``[]!:``; it is checked where it enters the program, when a
:class:`Workbook`, a :class:`Sheet` or a :class:`CellAddress` is made (and
so when reference text is parsed). :meth:`CellAddress.moved` derives
another cell of an already-checked sheet without checking its names again.

A :class:`Workspace` is a plain value: it may be moved freely between
threads, and all mutation goes through the engine under a single-writer
contract. The only sharing inside it is immutable: formulas of one shape
share one AST, their template's.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from typing import Any, Iterator, Union

# Grid limits, enforced when references are parsed.
MAX_COLUMNS = 16_384
MAX_ROWS = 1_048_576

_NAME_FORBIDDEN = frozenset("[]!:")


class AddressError(ValueError):
    """Raised for malformed or out-of-grid reference text."""


# ---------------------------------------------------------------------------
# Error values
# ---------------------------------------------------------------------------


class Error:
    """A spreadsheet error value that propagates through evaluation.

    Instances are interned: ``Error.of(code)`` returns the same object for
    the same code, so identity and equality coincide.
    """

    __slots__ = ("code",)
    _interned: dict[str, "Error"] = {}

    VALUE: "Error"
    REF: "Error"
    NA: "Error"
    NAME: "Error"
    DIV0: "Error"
    NUM: "Error"
    CYCLE: "Error"

    def __init__(self, code: str) -> None:
        self.code = code

    @classmethod
    def of(cls, code: str) -> "Error":
        err = cls._interned.get(code)
        if err is None:
            err = cls._interned[code] = cls(code)
        return err

    def __repr__(self) -> str:
        return self.code

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Error):
            return self.code == other.code
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.code)


Error.VALUE = Error.of("#VALUE!")
Error.REF = Error.of("#REF!")
Error.NA = Error.of("#N/A")
Error.NAME = Error.of("#NAME?")
Error.DIV0 = Error.of("#DIV/0!")
Error.NUM = Error.of("#NUM!")
Error.CYCLE = Error.of("#CYCLE!")

ERROR_CODES = tuple(Error._interned)

Scalar = Union[float, str, bool, None, Error]


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------


class Array:
    """A rectangular block of scalar values (never nested arrays)."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("array must be at least 1x1")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("array rows must all have the same length")
            for v in r:
                if isinstance(v, Array):
                    raise ValueError("arrays cannot contain arrays")
        self.rows = rows

    @classmethod
    def trusted(cls, rows: tuple) -> "Array":
        """An array of *rows*, taken as they are: a non-empty tuple of
        equally long non-empty tuples of scalars, which the caller vouches for."""
        array = cls.__new__(cls)
        array.rows = rows
        return array

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def get(self, row: int, col: int) -> Scalar:
        """Element at 1-based (row, col)."""
        return self.rows[row - 1][col - 1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Array):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Array({self.rows!r})"


Value = Union[Scalar, Array]


def top_left(v: Value) -> Scalar:
    """Collapse an array to its top-left element (scalar context rule)."""
    if isinstance(v, Array):
        return v.rows[0][0]
    return v


def values_equal(a: Value, b: Value) -> bool:
    """Type-aware value equality: 0.0, FALSE and blank are all distinct."""
    if a is b:
        return True
    return type(a) is type(b) and a == b


# ---------------------------------------------------------------------------
# Column letters (bijective base 26: A=1, Z=26, AA=27)
# ---------------------------------------------------------------------------


def column_to_letters(col: int) -> str:
    if col < 1:
        raise ValueError(f"column must be >= 1, got {col}")
    out = []
    while col:
        col, rem = divmod(col - 1, 26)
        out.append(chr(ord("A") + rem))
    return "".join(reversed(out))


def letters_to_column(letters: str) -> int:
    col = 0
    for ch in letters.upper():
        if not "A" <= ch <= "Z":
            raise ValueError(f"bad column letters {letters!r}")
        col = col * 26 + (ord(ch) - ord("A") + 1)
    return col


# ---------------------------------------------------------------------------
# Addresses and ranges
# ---------------------------------------------------------------------------


def _check_name(kind: str, name: str) -> None:
    if not name:
        raise AddressError(f"{kind} name must be non-empty")
    if not _NAME_FORBIDDEN.isdisjoint(name):
        raise AddressError(f"{kind} name {name!r} contains a forbidden character")


def _check_position(column: int, row: int) -> None:
    if column < 1 or row < 1:
        raise AddressError(f"column and row must be >= 1, got {column}, {row}")


class CellAddress:
    """A fully qualified cell coordinate: workbook, sheet, column, row.

    ``sheet_key``, the casefolded ``(workbook, sheet)`` pair, is the
    sheet's identity: two addresses name the same sheet exactly when their
    keys are equal. ``sort_key`` is ``(*sheet_key, row, column)``;
    equality, hashing and order read it. The stored names keep their
    original case for display. An address is a value: its fields are never
    reassigned.
    """

    __slots__ = ("workbook", "sheet", "column", "row", "sheet_key", "sort_key")

    def __init__(self, workbook: str, sheet: str, column: int, row: int) -> None:
        _check_name("workbook", workbook)
        _check_name("sheet", sheet)
        _check_position(column, row)
        self.workbook = workbook
        self.sheet = sheet
        self.column = column
        self.row = row
        self.sheet_key = key = (workbook.casefold(), sheet.casefold())
        self.sort_key = (key[0], key[1], row, column)

    def moved(self, column: int, row: int) -> "CellAddress":
        """The cell at *column*, *row* on this address's sheet. The names
        were checked when this address was made, so only the position is."""
        _check_position(column, row)
        new = object.__new__(CellAddress)
        new.workbook = self.workbook
        new.sheet = self.sheet
        new.column = column
        new.row = row
        new.sheet_key = key = self.sheet_key
        new.sort_key = (key[0], key[1], row, column)
        return new

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CellAddress):
            return self.sort_key == other.sort_key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.sort_key)

    def local_text(self) -> str:
        return f"{column_to_letters(self.column)}{self.row}"

    def __repr__(self) -> str:
        return f"<[{self.workbook}]{self.sheet}!{self.local_text()}>"


@dataclass(frozen=True, eq=False)
class RangeRef:
    """A rectangular range; both corners share one workbook and sheet."""

    top_left: CellAddress
    bottom_right: CellAddress

    def __post_init__(self) -> None:
        a, b = self.top_left, self.bottom_right
        if a.sheet_key != b.sheet_key:
            raise AddressError("range corners must share workbook and sheet")
        if a.column > b.column or a.row > b.row:
            raise AddressError("range corners out of order")

    @classmethod
    def normalized(cls, a: CellAddress, b: CellAddress) -> "RangeRef":
        """The range spanned by corners *a* and *b* in any order."""
        tl = a.moved(min(a.column, b.column), min(a.row, b.row))
        br = b.moved(max(a.column, b.column), max(a.row, b.row))
        return cls(tl, br)

    @property
    def n_rows(self) -> int:
        return self.bottom_right.row - self.top_left.row + 1

    @property
    def n_cols(self) -> int:
        return self.bottom_right.column - self.top_left.column + 1

    def contains(self, addr: CellAddress) -> bool:
        tl, br = self.top_left, self.bottom_right
        if addr.sheet_key != tl.sheet_key:
            return False
        return tl.row <= addr.row <= br.row and tl.column <= addr.column <= br.column

    def cells(self) -> Iterator[CellAddress]:
        tl, br = self.top_left, self.bottom_right
        for row in range(tl.row, br.row + 1):
            for col in range(tl.column, br.column + 1):
                yield tl.moved(col, row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RangeRef):
            return (self.top_left, self.bottom_right) == (other.top_left, other.bottom_right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.top_left, self.bottom_right))

    def local_text(self) -> str:
        return f"{self.top_left.local_text()}:{self.bottom_right.local_text()}"

    def __repr__(self) -> str:
        tl = self.top_left
        return f"<[{tl.workbook}]{tl.sheet}!{self.local_text()}>"


Reference = Union[CellAddress, RangeRef]

# A1-style cell text; the one pattern for it. Absolute markers ($) are
# accepted and discarded.
CELL_RE = re.compile(r"\$?([A-Za-z]{1,3})\$?([0-9]+)")

# A1-style reference text, optionally sheet- and workbook-qualified.
_ADDR_RE = re.compile(
    rf"""^\s*
        (?:\[(?P<book>[^\[\]!:]+)\])?
        (?:(?P<sheet>[^\[\]!:]+)!)?
        (?P<a>{CELL_RE.pattern})
        (?::(?P<b>{CELL_RE.pattern}))?
        \s*$""",
    re.VERBOSE,
)


def cell_coordinates(text: str) -> tuple[int, int] | None:
    """``(column, row)`` of cell text such as ``$B$7`` inside the grid, else None."""
    m = CELL_RE.fullmatch(text)
    return None if m is None else grid_coordinates(*m.groups())


def grid_coordinates(letters: str, digits: str) -> tuple[int, int] | None:
    """``(column, row)`` of the column *letters* and row *digits* of a
    :data:`CELL_RE` match, if that cell is inside the grid, else None."""
    col = letters_to_column(letters)
    row = int(digits)
    if row < 1 or row > MAX_ROWS or col > MAX_COLUMNS:
        return None
    return col, row


def _cell_part(part: str) -> tuple[int, int]:
    coords = cell_coordinates(part)  # *part* matched CELL_RE inside _ADDR_RE
    if coords is None:
        raise AddressError(f"reference {part!r} is outside the grid")
    return coords


def parse_address(text: str, context: CellAddress) -> Reference:
    """Parse A1-style reference text into a fully qualified address or range.

    Unqualified parts inherit the workbook and sheet of *context*. Accepts
    ``A1``, ``A1:B2``, ``Sheet1!A1`` and ``[Book2]Sheet1!A1:A5`` forms.
    """
    m = _ADDR_RE.match(text)
    if m is None:
        raise AddressError(f"cannot parse reference {text!r}")
    book = m.group("book")
    sheet = m.group("sheet")
    if book is not None and sheet is None:
        raise AddressError(f"workbook-qualified reference {text!r} needs a sheet")
    coords = _cell_part(m.group("a"))
    if sheet is None:
        a = context.moved(*coords)
    else:
        a = CellAddress(context.workbook if book is None else book, sheet, *coords)
    if m.group("b") is None:
        return a
    return RangeRef.normalized(a, a.moved(*_cell_part(m.group("b"))))


def format_reference(target: Reference, style: str = "qualified") -> str:
    """Render an address or range as text; inverse of :func:`parse_address`.

    ``qualified`` emits ``[Workbook]Sheet!A1``; ``local`` emits ``A1``.
    Single-cell ranges collapse to one address.
    """
    if style not in ("qualified", "local"):
        raise ValueError(f"unknown style {style!r}")
    if isinstance(target, RangeRef):
        if target.top_left == target.bottom_right:
            return format_reference(target.top_left, style)
        local = target.local_text()
        head = target.top_left
    else:
        local = target.local_text()
        head = target
    if style == "local":
        return local
    return f"[{head.workbook}]{head.sheet}!{local}"


# ---------------------------------------------------------------------------
# Scalar coercion
# ---------------------------------------------------------------------------

# Unsigned decimal number text, the one pattern for it (formula number
# tokens use it too). Deliberately rejects inf/nan spellings and underscores
# that Python's float() would accept.
NUMBER_RE = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_SIGNED_NUMBER_RE = re.compile(rf"[+-]?{NUMBER_RE.pattern}")


def number_to_text(x: float) -> str:
    """Canonical text for a number: integers bare, else shortest round-trip."""
    if x == int(x) and abs(x) <= 2**53:
        return str(int(x))
    return repr(x)


def to_number(v: Scalar) -> Union[float, Error]:
    t = type(v)
    if t is float or t is Error:
        return v
    if t is str:
        if v.isascii() and v.isdigit():  # plain digits need no pattern match
            n = float(v)
        else:
            text = v.strip()
            if not _SIGNED_NUMBER_RE.fullmatch(text):
                return Error.VALUE
            n = float(text)
        return n if math.isfinite(n) else Error.VALUE
    if t is bool:
        return 1.0 if v else 0.0
    if v is None:
        return 0.0
    raise TypeError(f"not a scalar: {v!r}")


def to_integer(v: Scalar) -> Union[int, Error]:
    """:func:`to_number`, truncated toward zero."""
    n = to_number(v)
    return n if type(n) is Error else int(n)


def to_text(v: Scalar) -> Union[str, Error]:
    t = type(v)
    if t is str or t is Error:
        return v
    if t is float:
        return number_to_text(v)
    if t is bool:
        return "TRUE" if v else "FALSE"
    if v is None:
        return ""
    raise TypeError(f"not a scalar: {v!r}")


def to_boolean(v: Scalar) -> Union[bool, Error]:
    t = type(v)
    if t is bool or t is Error:
        return v
    if t is float:
        return v != 0.0
    if v is None:
        return False
    if t is str:
        folded = v.strip().casefold()
        if folded == "true":
            return True
        if folded == "false":
            return False
        return Error.VALUE
    raise TypeError(f"not a scalar: {v!r}")


# The one table from a kind to its coercer: a builtin's declared parameter
# kinds (``functions.Builtin.kinds``) and :func:`coerce` read it. A coercer
# passes an error through and gives ``#VALUE!`` when a value has no such
# reading; ``any`` takes every value as it is.
COERCERS: dict = {
    "number": to_number,
    "integer": to_integer,
    "text": to_text,
    "boolean": to_boolean,
    "any": None,
}


def coerce(value: Scalar, target: str) -> Scalar:
    """Coerce a scalar to a kind of :data:`COERCERS`: ``number``,
    ``integer`` (truncated toward zero), ``text``, ``boolean`` or ``any``.

    Errors pass through unchanged; failed coercions yield ``#VALUE!``.
    """
    if isinstance(value, Array):
        raise TypeError("coerce takes a scalar; collapse arrays first")
    if target not in COERCERS:
        raise ValueError(f"unknown coercion target {target!r}")
    coercer = COERCERS[target]
    return value if coercer is None else coercer(value)


# ---------------------------------------------------------------------------
# Cell contents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    """A typed-in value: a cell's literal content and a formula's constant
    (an Array for a ``{...}`` array constant, built once when parsed)."""

    value: Value


class Formula:
    """A formula's source text (written back by dumps as is), its shape's
    template, ``refs``, the coordinates its text names in source order, and
    ``cell``, the address of the cell it was made in, where ``refs`` were
    read: a cell's ``(row, column)``, its key in its sheet's ``cells``, and
    a range's corners ``((top, left), (bottom, right))``.

    A formula is made only by :func:`gridcalc.formula.shared_formula`, from
    its source in its own cell: the template (kept cached while the formula
    lives) holds the shape's only tree and each reference's sheet, and
    ``refs`` put this cell's references into it. The engine evaluates a
    formula at ``cell`` (ROW(), COLUMN() and INDIRECT's relative text read
    it) and reports its cell by it, so it makes no address of its own.

    Formulas are equal when their source, ``refs`` and the sheet of each
    reference (``Template.sheet_keys``) are: the source fixes the tree but
    for the sheet and cell it is read in, which those fix. One source on
    two sheets makes two formulas.
    """

    __slots__ = ("source", "template", "refs", "cell")

    def __init__(self, source: str, template: Any, refs: tuple, cell: CellAddress) -> None:
        self.source, self.template, self.refs, self.cell = source, template, refs, cell

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        mine = self.source, self.refs, self.template.sheet_keys
        return mine == (other.source, other.refs, other.template.sheet_keys)

    def __repr__(self) -> str:
        return f"Formula({self.source!r}, refs={self.refs!r})"


@dataclass
class TableBody:
    """Body cell owned by a data table; written only by table evaluation."""

    table_id: int


Content = Union[Literal, Formula, TableBody, None]


@dataclass
class Cell:
    content: Content
    cached: Value = None


BLANK = Cell(None)  # what a read of a cell no sheet holds finds


# ---------------------------------------------------------------------------
# Sheets, workbooks, workspaces
# ---------------------------------------------------------------------------


class Sheet:
    """A sparse grid of cells, keyed by (row, column)."""

    def __init__(self, name: str) -> None:
        _check_name("sheet", name)
        self.name = name
        self.cells: dict[tuple[int, int], Cell] = {}

    def cell(self, row: int, col: int) -> Cell | None:
        return self.cells.get((row, col))

    def value(self, row: int, col: int) -> Value:
        cell = self.cells.get((row, col))
        return None if cell is None else cell.cached

    def set_content(self, row: int, col: int, content: Content) -> Cell:
        """Replace a cell's content; ``None`` clears the cell."""
        if content is None:
            self.cells.pop((row, col), None)
            return Cell(None)
        cell = self.cells.get((row, col))
        if cell is None:
            cell = self.cells[(row, col)] = Cell(content)
        else:
            cell.content = content
            cell.cached = None
        if isinstance(content, Literal):
            cell.cached = content.value
        return cell

    def bounds(self) -> tuple[int, int] | None:
        """(max_row, max_col) over populated cells, or None when empty."""
        if not self.cells:
            return None
        rows = max(r for r, _ in self.cells)
        cols = max(c for _, c in self.cells)
        return rows, cols


class Workbook:
    def __init__(self, name: str) -> None:
        _check_name("workbook", name)
        self.name = name
        self._sheets: dict[str, Sheet] = {}

    def sheets(self) -> list[Sheet]:
        return list(self._sheets.values())

    def sheet(self, name: str) -> Sheet | None:
        return self._sheets.get(name.casefold())

    def ensure_sheet(self, name: str) -> Sheet:
        sheet = self._sheets.get(name.casefold())
        if sheet is None:
            sheet = self._sheets[name.casefold()] = Sheet(name)
        return sheet


def range_values(cells: dict, corners: tuple) -> Array:
    """The cached values of the range *corners*, ``((top, left), (bottom,
    right))``, read from *cells*, its sheet's. No cell caches an array (a
    formula keeps its value's top left), so the rows are taken as they are."""
    (top, left), (bottom, right) = corners
    columns = range(left, right + 1)
    rows = range(top, bottom + 1)
    return Array.trusted(tuple([tuple([cells.get((r, c), BLANK).cached for c in columns]) for r in rows]))


def reference_at(target: Reference, coordinates: tuple) -> Reference:
    """The address or range that *coordinates*, an entry of ``Formula.refs``,
    name on the sheet of *target*, the template's reference in that place."""
    if type(target) is CellAddress:
        return target.moved(coordinates[1], coordinates[0])
    return RangeRef(*[target.top_left.moved(column, row) for row, column in coordinates])


class Reader:
    """The dynamic read path of one workspace: it holds the workspace's
    workbooks and its defined names, and nothing that holds a compiled
    function, so a function's namespace may hold it strongly. Each read
    resolves its sheet (:meth:`sheet`): a defined name's, INDIRECT's or
    OFFSET's target, and a reference whose sheet did not exist when its
    formula compiled, which reads ``#REF!`` until it does."""

    __slots__ = ("workbooks", "names")

    def __init__(self, workbooks: dict, names: dict) -> None:
        self.workbooks, self.names = workbooks, names

    def sheet(self, key: tuple) -> Sheet | None:
        """The sheet whose ``sheet_key`` is *key*, or None if the workspace has none."""
        book, sheet = key
        wb = self.workbooks.get(book)
        return None if wb is None else wb._sheets.get(sheet)

    def read(self, target: Reference) -> Value:
        """An address's cached value or a range's values (:func:`range_values`);
        ``#REF!`` if its sheet does not exist."""
        if type(target) is CellAddress:
            sheet = self.sheet(target.sheet_key)
            return Error.REF if sheet is None else sheet.cells.get((target.row, target.column), BLANK).cached
        tl, br = target.top_left, target.bottom_right
        sheet = self.sheet(tl.sheet_key)
        return Error.REF if sheet is None else range_values(sheet.cells, ((tl.row, tl.column), (br.row, br.column)))


@dataclass
class CalcConfig:
    """Calculation options.

    ``table_recalc`` controls whether data tables run on every recalc
    (``auto``) or only on an explicit trigger (``manual``). ``iterative``
    enables bounded fixed-point evaluation of circular references.
    """

    table_recalc: str = "auto"
    iterative: bool = False
    max_iterations: int = 100
    max_change: float = 0.001

    def __post_init__(self) -> None:
        if self.table_recalc not in ("auto", "manual"):
            raise ValueError(f"table_recalc must be 'auto' or 'manual', got {self.table_recalc!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.max_change >= 0:  # NaN too: no change would ever be within it
            raise ValueError("max_change must be >= 0")


# Names that can never be defined names: boolean literals and error codes.
_RESERVED_WORDS = {"true", "false"} | {c.casefold() for c in ERROR_CODES}

_DEFINED_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


class Workspace:
    """A set of named workbooks plus defined names, tables, and config, and
    the formula templates its formulas share with their compiled functions."""

    def __init__(self, config: CalcConfig | None = None) -> None:
        self._workbooks: dict[str, Workbook] = {}
        self.defined_names: dict[str, tuple[str, Reference]] = {}
        self.tables: list[Any] = []
        # every cell of every table region, by address sort key -> its table
        self.table_index: dict[tuple, Any] = {}
        # the address sort key of every table's input cell
        self.table_inputs: set[tuple] = set()
        # formula templates by (sheet_key, shape), each kept while a formula uses it
        self.templates: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        # the function each template compiled to, kept while the template
        # lives, and each function's code object by its source text: shapes
        # that differ only in references, names and constants share one (see
        # gridcalc.engine.compile_template)
        self.compiled: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.codes: dict = {}
        self.config = config if config is not None else CalcConfig()
        self.reader = Reader(self._workbooks, self.defined_names)  # both dicts are never replaced

    # -- workbooks / sheets -------------------------------------------------

    def workbooks(self) -> list[Workbook]:
        return list(self._workbooks.values())

    def workbook(self, name: str) -> Workbook | None:
        return self._workbooks.get(name.casefold())

    def add_workbook(self, name: str) -> Workbook:
        key = name.casefold()
        if key in self._workbooks:
            raise ValueError(f"workbook {name!r} already exists")
        wb = self._workbooks[key] = Workbook(name)
        return wb

    def resolve_sheet(self, addr: CellAddress) -> Sheet | None:
        return self.reader.sheet(addr.sheet_key)

    def cell(self, addr: CellAddress) -> Cell | None:
        sheet = self.resolve_sheet(addr)
        return None if sheet is None else sheet.cell(addr.row, addr.column)

    def value(self, addr: CellAddress) -> Value:
        cell = self.cell(addr)
        return None if cell is None else cell.cached

    # -- defined names ------------------------------------------------------

    def define_name(self, name: str, target: Reference) -> None:
        """Register a defined name for a cell or range.

        Names are unique case-insensitively, must not look like cell
        references, and must not collide with builtin function names.
        """
        if not _DEFINED_NAME_RE.fullmatch(name):
            raise ValueError(f"invalid defined name {name!r}")
        if CELL_RE.fullmatch(name):
            raise ValueError(f"defined name {name!r} looks like a cell reference")
        key = name.casefold()
        if key in _RESERVED_WORDS:
            raise ValueError(f"defined name {name!r} is reserved")
        from . import functions  # local import: functions depends on this module

        if key in functions.BUILTIN_NAME_KEYS:
            raise ValueError(f"defined name {name!r} collides with a builtin function")
        if key in self.defined_names:
            raise ValueError(f"defined name {name!r} already exists")
        self.defined_names[key] = (name, target)

    # -- tables -------------------------------------------------------------

    def table(self, table_id: int):
        return self.tables[table_id]

    def table_at(self, addr: CellAddress):
        """The table whose region holds *addr*, or None."""
        return self.table_index.get(addr.sort_key)
