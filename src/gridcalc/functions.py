"""Builtin spreadsheet functions and operator semantics.

Four calling conventions, recorded per function in the registry:

* ``scalar``    -- a scalar implementation, lifted element-wise over array
  arguments by :func:`array_lift` (as is every operator).
* ``value``     -- receives only its fully evaluated arguments, as a list;
  a scalar error among them is the result.
* ``special``   -- called as ``fn(f, args, ref)`` with the formula being
  evaluated (ROW and COLUMN read its cell), each argument's value
  (``OMITTED`` for an omitted one), and *ref*: for a builtin that reads a
  reference (``Builtin.reads_reference``), the address, range or error its
  first argument denotes, whose value is then None; else None. The engine
  emits the arguments in line, before the call. IF has no function: the
  engine compiles it to an ``if`` statement, which evaluates only the
  branch taken.
* ``reference`` -- like ``special``, but returns a reference (OFFSET,
  INDIRECT): the engine reads its value, or takes the reference itself where
  one is wanted.

Each scalar builtin and operator declares the kind of each parameter once,
in ``Builtin.kinds``: ``text``, ``integer``, ``number`` or ``any``. The
coercer of each kind lives in one table, :data:`gridcalc.model.COERCERS`,
which :func:`gridcalc.model.coerce` reads too. One coercion step,
:func:`array_lift`, applies the kinds before the body runs, so a body sees
only values of its kinds and holds only its own logic. The order is fixed:
raw errors first, in argument order (``MOD("x",#N/A)`` is ``#N/A``), then
the first coercion error, in argument order, and only then the body.

The lifting rule: a call with no array argument is a plain strict call.
With one array, the function runs once per element, each element coerced
once and the other arguments held and coerced once per call; per element,
a raw error held before the array wins, then the element's own raw error,
then one held after it, then the first coercion error. That one-array rule
is written once, in :func:`lift_elements`, which maps it over a list of
elements: :func:`array_lift` applies it to an array argument, and the
engine's element kernels apply it link by link to a chain of scalar calls
around one ``{...}`` constant, with no array between the links and none
among the arguments each link holds. A kernel runs each link in line, as
one comprehension, unless a held argument is or gives an error (then this
rule runs). Several arrays must share one shape, else the result is a
``#VALUE!``-filled rectangle of the largest extent.

Each rule about values is written once: ``BINARY_FNS`` maps every operator
to its scalar function, and ``Builtin.python``, beside the function, names
the Python operator that computes it on two floats (``%`` for MOD), which
the engine runs in line; ``_order_key`` orders values for comparisons,
``_finite`` turns a number result that is not a finite real into
``#NUM!``, :func:`sum_of_products` is SUMPRODUCT's product rule over flat
element lists, and :func:`match_key` is what an exact MATCH compares (text
casefolded, other values only within their type, as ``=`` does), indexed
by :func:`match_index`. The SUMPRODUCT and MATCH builtins apply these
after their shape checks; the engine's reductions over constants apply
them with no array built (see :mod:`gridcalc.engine`). INDEX picks its
position by one rule, ``_index_position``, over an array and, in
:func:`index_reference`, over a reference, where only that cell is read.
For the engine's kernels, :func:`mid_slices` makes MID's slices at constant
positions from the one slice rule ``_fn_mid`` applies, and
:func:`digit_table` a one-operand function's values at the digit texts by
calling it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Callable, Iterator

from . import formula
from .model import (
    BLANK,
    COERCERS,
    MAX_COLUMNS,
    MAX_ROWS,
    AddressError,
    Array,
    CellAddress,
    Error,
    RangeRef,
    column_to_letters,
    format_reference,
    parse_address,
    range_values,
    to_boolean,
    to_integer,
    to_number,
    to_text,
    top_left,
)

OMITTED = formula.OMITTED


# ---------------------------------------------------------------------------
# Element-wise lifting
# ---------------------------------------------------------------------------


def array_lift(fn: Callable, coercers, args) -> object:
    """Apply a scalar function element-wise across array arguments, each
    argument coerced by its parameter's coercer (``None`` takes it as is).

    With no array among *args* this is a strict call: the first error in
    argument order is the result, then the first coercion error, and only
    then does *fn* run. With one array, *fn* runs once per element, the
    other arguments held and coerced once; per element, a raw error held
    before the array wins, then the element's own raw error, then one held
    after it, then the first coercion error. Several arrays must share one
    shape; otherwise the result is a ``#VALUE!``-filled rectangle of the
    largest extent.
    """
    err = None
    for a in args:
        t = type(a)
        if t is Array:
            return _lift(fn, coercers, args, list(map(type, args)))
        if t is Error and err is None:
            err = a
    if err is None:
        err = _coerced(args, coercers)
        if type(err) is not Error:
            return fn(*err)
    return err


def _lift(fn: Callable, coercers, args, types: list) -> Array:
    k = types.index(Array)
    if types.count(Array) > 1:
        return _lift_arrays(fn, coercers, args)
    array = args[k]
    held = [*args[:k], *args[k + 1 :]]
    return shaped(lift_elements(fn, coercers, held, k, list(chain.from_iterable(array.rows))), array.n_cols)


def lift_elements(fn: Callable, coercers, held: list, k: int, elements: list) -> list:
    """The one-array lifting rule, written once: *fn*'s value at each of
    *elements*, the elements of the one array argument, at position *k*; the
    other arguments are *held*, in order, and the same for every element.
    Each element is coerced by ``coercers[k]``, each held argument by its
    own, once.

    A raw error held before the array wins for every element, then the
    element's own raw error, then a raw error held after it, then the first
    coercion error. Every coercer fails with ``#VALUE!``, so a held one that
    fails gives what every element but a raw error gives, first or not.
    """
    args, failed = [], None
    for i, a in enumerate(held):
        if type(a) is Error:
            if i < k:
                return [a] * len(elements)
            return [e if type(e) is Error else a for e in elements]
        coerce = coercers[i + (i >= k)]
        if coerce is not None and failed is None:
            a = coerce(a)
            if type(a) is Error:
                failed = a
        args.append(a)
    if failed is not None:
        return [e if type(e) is Error else failed for e in elements]
    coerce = coercers[k]
    if coerce is not None:
        elements = [coerce(e) for e in elements]  # a raw error stays itself
    head, tail = args[:k], args[k:]
    return [e if type(e) is Error else fn(*head, e, *tail) for e in elements]


def _lift_arrays(fn: Callable, coercers, args) -> Array:
    shapes = {(a.n_rows, a.n_cols) for a in args if type(a) is Array}
    n_rows = max(r for r, _ in shapes)
    n_cols = max(c for _, c in shapes)
    if len(shapes) > 1:
        return Array.trusted(((Error.VALUE,) * n_cols,) * n_rows)
    # each held argument coerced once, each element where it is read
    held = [a if type(a) is Array or c is None else c(a) for a, c in zip(args, coercers)]
    typed = [c if type(a) is Array else None for a, c in zip(args, coercers)]
    out = []
    for elems, values in zip(_elements(args), _elements(held)):
        err = next((e for e in elems if type(e) is Error), None)
        if err is None:
            err = _coerced(values, typed)
            if type(err) is not Error:
                err = fn(*err)
        out.append(err)
    return shaped(out, n_cols)


def _elements(args) -> Iterator[tuple]:
    """The arguments at each element of the arrays among *args*, which
    share one shape, row by row; a scalar is held at every element."""
    return zip(*[chain.from_iterable(a.rows) if type(a) is Array else repeat(a) for a in args])


def shaped(values: list, n_cols: int) -> Array:
    """*values*, row by row, as an array *n_cols* wide."""
    return Array.trusted(tuple(zip(*[iter(values)] * n_cols)))


def _coerced(values, coercers):
    """*values*, which hold no raw error, each coerced by its coercer: a
    list, or the first coercion error in argument order."""
    out = []
    for a, c in zip(values, coercers):
        if c is not None:
            a = c(a)
        if type(a) is Error:
            return a
        out.append(a)
    return out


def _as_array(v) -> Array:
    return v if type(v) is Array else Array([[v]])


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _finite(r):
    """*r* if it is a finite real number, else ``#NUM!``: the one rule for a
    number result (an overflow, an infinity, a complex power)."""
    return r if type(r) is float and math.isfinite(r) else Error.NUM


def _divide(a: float, b: float):
    return Error.DIV0 if b == 0.0 else a / b


def _modulo(a: float, b: float):
    return Error.DIV0 if b == 0.0 else a % b  # sign follows the divisor


def _power(a: float, b: float):
    if a == 0.0 and b <= 0.0:
        return Error.NUM if b == 0.0 else Error.DIV0
    try:
        return a**b  # complex for a negative base and a fractional exponent
    except OverflowError:
        return Error.NUM


def _arithmetic(op: Callable) -> Callable:
    """Scalar function of two numbers: apply *op*, check the result."""

    def apply(a: float, b: float):
        r = op(a, b)
        return r if type(r) is Error else _finite(r)

    return apply


def _order_key(v) -> tuple:
    """Rank, then value: numbers < text (case-insensitive) < booleans."""
    t = type(v)
    if t is str:
        return (1, v.casefold())
    return (2, v) if t is bool else (0, v)


def _blank_as(other):
    """What a blank compares as beside *other*: the zero of *other*'s kind."""
    if isinstance(other, str):
        return ""
    return False if isinstance(other, bool) else 0.0


def _comparison(op: Callable) -> Callable:
    """Scalar comparison: *op* applied to the operands' order keys."""

    def apply(a, b):
        if a is None:
            a = _blank_as(b)
        if b is None:
            b = _blank_as(a)
        return op(_order_key(a), _order_key(b))

    return apply


# ---------------------------------------------------------------------------
# Scalar builtins (lifted element-wise, their arguments coerced by kind)
# ---------------------------------------------------------------------------


def _fn_value(v):
    t = type(v)
    if t is float:
        return v
    if t is str:
        return to_number(v)
    return Error.VALUE  # blanks and booleans are not numeric text


_DIGITS = tuple("0123456789")


def digit_table(fn: Callable, coerce) -> dict | None:
    """One-operand scalar *fn*'s value at each one-character digit text, by
    that text, where *coerce*, its parameter's own coercer (None for
    ``any``), keeps a digit text as it is; else None, as no element *fn*
    receives could then be one."""
    if coerce is not None and tuple(map(coerce, _DIGITS)) != _DIGITS:
        return None
    return {d: fn(d) for d in _DIGITS}


def _mid_span(start: int, count: int):
    """The slice of its text MID takes, or ``#VALUE!``."""
    if start < 1 or count < 0:
        return Error.VALUE
    return slice(start - 1, start - 1 + count)


def _fn_mid(text: str, start: int, count: int):
    span = _mid_span(start, count)
    return span if type(span) is Error else text[span]


def mid_slices(starts, count) -> tuple | None:
    """MID's slices at each of *starts*, a kernel's constant positions, for
    a constant *count*: ``text[s]`` is ``_fn_mid(text, start, count)``.
    None unless the count and every start are integers that MID takes
    (not an element to be coerced at run time, or one MID gives an error)."""
    if type(count) is not int or type(starts) is not tuple or {type(s) for s in starts} != {int}:
        return None
    spans = [_mid_span(s, count) for s in starts]
    return None if Error in map(type, spans) else tuple(spans)


def _fn_right(text: str, count=None):
    # "any", not "integer": an omitted or blank count means 1, not 0
    count = 1 if count is None else to_integer(count)
    if type(count) is Error:
        return count
    if count < 0:
        return Error.VALUE
    return text[-count:] if count else ""


def _fn_len(text: str):
    return float(len(text))


# ---------------------------------------------------------------------------
# Value builtins
# ---------------------------------------------------------------------------


def _fn_sum(args):
    total = 0.0
    for a in args:
        if type(a) is Array:
            for row in a.rows:
                for e in row:
                    t = type(e)
                    if t is float:
                        total += e
                    elif t is Error:
                        return e
        else:
            n = to_number(a)
            if type(n) is Error:
                return n
            total += n
    return _finite(total)


def _fn_sumproduct(args):
    arrays = [_as_array(a) for a in args]
    shape = (arrays[0].n_rows, arrays[0].n_cols)
    for a in arrays[1:]:
        if (a.n_rows, a.n_cols) != shape:
            return Error.VALUE
    return sum_of_products([chain.from_iterable(a.rows) for a in arrays])


def sum_of_products(sequences: list):
    """SUMPRODUCT's rule, written once: the sum, over each position, of the
    product of the elements that *sequences*, flat element lists of one
    length, hold there. The first error in element-then-argument order is the result; a
    non-number multiplies by 0.0; the total must be finite (:func:`_finite`).
    """
    total = 0.0
    for elems in zip(*sequences):
        product = 1.0
        for e in elems:
            t = type(e)
            if t is float:
                product *= e
            elif t is Error:
                return e
            else:
                product *= 0.0  # multiplied, not set: an overflowed product stays #NUM!
        total += product
    return _finite(total)


def _fn_match(args):
    needle = top_left(args[0])
    if type(needle) is Error:
        return needle
    # 1 is the spreadsheet default; only exact match (0) is supported
    mode = to_integer(top_left(args[2])) if len(args) == 3 else 1
    if mode != 0:
        return mode if type(mode) is Error else Error.VALUE
    rows = _as_array(args[1]).rows
    if len(rows) == 1:
        elems = rows[0]
    elif len(rows[0]) == 1:
        elems = map(operator.itemgetter(0), rows)
    else:
        return Error.NA
    # a scan, not match_index: it stops at the first match, and builds
    # nothing for a lookup it makes once. The needle's match_key is taken
    # once; an element's is equal only if the element has the needle's type,
    # and then it is its casefold (text) or itself, compared in line.
    key, t = match_key(needle), type(needle)
    if t is str:
        for i, e in enumerate(elems, start=1):
            if type(e) is str and e.casefold() == key:
                return float(i)
    elif key is not None:
        for i, e in enumerate(elems, start=1):
            if type(e) is t and e == needle:
                return float(i)
    return Error.NA


def match_key(v):
    """What an exact MATCH compares *v* by: text casefolded, a number or a
    boolean tagged with its type (1 never matches TRUE); None for a blank or
    an error, which match nothing."""
    t = type(v)
    if t is str:
        return v.casefold()
    if t is float or t is bool:
        return (t, v)
    return None


def match_index(elements) -> dict:
    """The exact-MATCH index of *elements*: each :func:`match_key` among
    them to the first 1-based position that has it, as a number; an exact
    MATCH gives the needle's key's position, as its scan does."""
    index: dict = {}
    for i, key in enumerate(map(match_key, elements), start=1):
        if key is not None:
            index.setdefault(key, float(i))
    return index


def _index_position(n_rows: int, n_cols: int, n, m=None):
    """The 1-based ``(row, column)`` INDEX picks at the values *n* and *m*
    (None: omitted) in a block of *n_rows* by *n_cols*, the column None for
    a whole row, or the error it gives: INDEX's one position rule, over an
    array and over a reference (:func:`index_reference`)."""
    n = to_integer(top_left(n))
    if type(n) is Error:
        return n
    if m is not None:
        m = to_integer(top_left(m))
        if type(m) is Error:
            return m
    if n < 1 or (m is not None and m < 1):
        return Error.REF
    if m is None and n_cols == 1:
        m = 1
    elif m is None and n_rows == 1:
        n, m = 1, n
    if n > n_rows or (m is not None and m > n_cols):
        return Error.REF
    return n, m


def _fn_index(args):
    arr = _as_array(args[0])
    at = _index_position(arr.n_rows, arr.n_cols, args[1], args[2] if len(args) == 3 else None)
    if type(at) is Error:
        return at
    row, column = at
    return Array.trusted((arr.rows[row - 1],)) if column is None else arr.get(row, column)


def index_reference(reader, ref, n, m=None):
    """INDEX over the reference *ref* (an address, a range or an error) at
    the values *n* and *m*, through *reader* (:class:`gridcalc.model.Reader`):
    what ``_fn_index`` gives over *ref*'s values, reading only the cell it
    picks, or the row of a range with no column. The errors come in the
    value rule's order: an error *ref*, a missing sheet (``#REF!``), an error
    in the cell an address names, then the first error among *n* and *m*."""
    if type(ref) is Error:
        return ref
    tl, br = (ref, ref) if type(ref) is CellAddress else (ref.top_left, ref.bottom_right)
    sheet = reader.sheet(tl.sheet_key)
    if sheet is None:
        return Error.REF
    cells = sheet.cells
    if ref is tl and type(v := cells.get((tl.row, tl.column), BLANK).cached) is Error:
        return v
    for x in (n, m):
        if type(x) is Error:
            return x
    at = _index_position(br.row - tl.row + 1, br.column - tl.column + 1, n, m)
    if type(at) is Error:
        return at
    row, column = tl.row + at[0] - 1, at[1]
    if column is None:
        return range_values(cells, ((row, tl.column), (row, br.column)))
    return cells.get((row, tl.column + column - 1), BLANK).cached


def _fn_address(args):
    row = to_integer(top_left(args[0]))
    if isinstance(row, Error):
        return row
    col = to_integer(top_left(args[1]))
    if isinstance(col, Error):
        return col
    if not (1 <= row <= MAX_ROWS and 1 <= col <= MAX_COLUMNS):
        return Error.VALUE
    abs_mode = 1
    if len(args) >= 3 and args[2] is not None:
        abs_mode = to_integer(top_left(args[2]))
        if isinstance(abs_mode, Error):
            return abs_mode
    if abs_mode not in (1, 2, 3, 4):
        return Error.VALUE
    if len(args) >= 4 and args[3] is not None:
        a1 = to_boolean(top_left(args[3]))
        if isinstance(a1, Error):
            return a1
        if not a1:
            return Error.VALUE  # only A1 style is supported
    prefix = ""
    if len(args) == 5 and args[4] is not None:
        sheet = to_text(top_left(args[4]))
        if isinstance(sheet, Error):
            return sheet
        prefix = f"{sheet}!"
    letters = column_to_letters(col)
    col_dollar = "$" if abs_mode in (1, 3) else ""
    row_dollar = "$" if abs_mode in (1, 2) else ""
    return f"{prefix}{col_dollar}{letters}{row_dollar}{row}"


# ---------------------------------------------------------------------------
# Special builtins (lazy arguments / reference arguments)
# ---------------------------------------------------------------------------


def _fn_isblank(f, args, ref):
    # an error argument is not blank
    return args[0] is OMITTED or top_left(args[0]) is None


def indirect_ref(f, args, ref):
    """Reference named by INDIRECT's text argument, or an error value."""
    v = None if args[0] is OMITTED else top_left(args[0])
    if isinstance(v, Error):
        return v
    if len(args) == 2 and args[1] is not OMITTED:
        a1 = to_boolean(top_left(args[1]))
        if isinstance(a1, Error):
            return a1
        if not a1:
            return Error.VALUE
    cell = f.cell
    return _indirect_target(to_text(v), cell.workbook, cell.sheet)


# INDIRECT is volatile, so it runs on every recalc, and a workbook's texts
# are few: each parse is kept, up to a fixed number of texts and contexts.
# Only immutable addresses and ranges are kept, never a sheet or a cell: the
# sheet a target names is resolved on every read, and a dropped workspace
# leaves nothing here that holds it.
@lru_cache(maxsize=4096)
def _indirect_target(text: str, workbook: str, sheet: str):
    """The reference *text* names from a cell of *workbook*'s *sheet*, or
    ``#REF!``. Unqualified parts keep the context names' own spelling."""
    try:
        return parse_address(text, CellAddress(workbook, sheet, 1, 1))
    except AddressError:
        return Error.REF


def offset_ref(f, args, base):
    """Reference produced by OFFSET's reference arithmetic, or an error."""
    if isinstance(base, Error):
        return base
    if base is None:
        return Error.VALUE
    if isinstance(base, CellAddress):
        base = RangeRef(base, base)
    drow = to_integer(None if args[1] is OMITTED else top_left(args[1]))
    if isinstance(drow, Error):
        return drow
    dcol = to_integer(None if args[2] is OMITTED else top_left(args[2]))
    if isinstance(dcol, Error):
        return dcol
    height = base.n_rows
    width = base.n_cols
    if len(args) >= 4 and args[3] is not OMITTED:
        height = to_integer(top_left(args[3]))
        if isinstance(height, Error):
            return height
    if len(args) == 5 and args[4] is not OMITTED:
        width = to_integer(top_left(args[4]))
        if isinstance(width, Error):
            return width
    if height < 1 or width < 1:
        return Error.REF
    tl = base.top_left
    row = tl.row + drow
    col = tl.column + dcol
    if row < 1 or col < 1 or row + height - 1 > MAX_ROWS or col + width - 1 > MAX_COLUMNS:
        return Error.REF
    a = tl.moved(col, row)
    if height == 1 and width == 1:
        return a
    return RangeRef(a, a.moved(col + width - 1, row + height - 1))


def _fn_position(axis: str, f, args, ref):
    """ROW or COLUMN (*axis* ``row`` or ``column``): the numbers of the
    reference's rows or columns, or of the formula's own cell."""
    if not args or args[0] is OMITTED:
        return float(getattr(f.cell, axis))
    if isinstance(ref, Error):
        return ref
    if ref is None:
        return Error.VALUE
    if isinstance(ref, CellAddress):
        ref = RangeRef(ref, ref)
    first, last = getattr(ref.top_left, axis), getattr(ref.bottom_right, axis)
    if first == last:
        return float(first)
    nums = [float(n) for n in range(first, last + 1)]
    return Array([[n] for n in nums]) if axis == "row" else Array([nums])


def _fn_extent(size: str, f, args, ref):
    """ROWS or COLUMNS (*size* ``n_rows`` or ``n_cols``) of a reference or array."""
    if args[0] is OMITTED:
        return Error.VALUE
    if isinstance(ref, Error):
        return ref
    if ref is not None:
        return 1.0 if isinstance(ref, CellAddress) else float(getattr(ref, size))
    v = args[0]
    if isinstance(v, Error):
        return v
    return float(getattr(v, size)) if isinstance(v, Array) else 1.0


def _fn_xadr(f, args, ref):
    if args[0] is OMITTED:
        return Error.VALUE
    if isinstance(ref, Error):
        return ref
    if ref is None:
        return Error.VALUE  # computed arrays are not references
    return format_reference(ref, "qualified")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Builtin:
    """A builtin function, or an operator's scalar function.

    A ``scalar`` builtin declares the kind of each parameter in ``kinds``
    (``text``, ``integer``, ``number`` or ``any``, keys of
    :data:`gridcalc.model.COERCERS`); :func:`array_lift` coerces each
    argument by it before ``fn`` runs. A ``special`` or ``reference``
    builtin whose ``fn`` reads the reference its first argument denotes
    (its last parameter) says so in ``reads_reference``. A two-operand
    builtin whose value on two floats a Python operator gives names it in
    ``python``: ``a OP b`` is ``fn(a, b)`` unless the divisor of ``/`` or
    ``%`` is zero or a number result is infinite.
    """

    name: str
    min_args: int
    max_args: int
    kind: str  # "scalar" | "value" | "special" | "reference"
    fn: Callable | None  # None for IF, which the engine compiles in line
    volatile: bool = False
    kinds: tuple = ()
    reads_reference: bool = False
    python: str = ""

    @property
    def coercers(self) -> tuple:
        """The coercer of each parameter, ``None`` for ``any``."""
        return tuple(COERCERS[k] for k in self.kinds)


def _operator(token: str, fn: Callable, kind: str, python: str = "") -> Builtin:
    return Builtin(token, 2, 2, "scalar", fn, kinds=(kind, kind), python=python)


# The one map from an operator token to its scalar function.
BINARY_FNS = {
    b.name: b
    for b in (
        _operator("+", _arithmetic(operator.add), "number", "+"),
        _operator("-", _arithmetic(operator.sub), "number", "-"),
        _operator("*", _arithmetic(operator.mul), "number", "*"),
        _operator("/", _arithmetic(_divide), "number", "/"),
        _operator("^", _arithmetic(_power), "number"),
        _operator("&", operator.add, "text"),
        _operator("=", _comparison(operator.eq), "any", "=="),
        _operator("<>", _comparison(operator.ne), "any", "!="),
        _operator("<", _comparison(operator.lt), "any", "<"),
        _operator("<=", _comparison(operator.le), "any", "<="),
        _operator(">", _comparison(operator.gt), "any", ">"),
        _operator(">=", _comparison(operator.ge), "any", ">="),
    )
}

NEGATE = Builtin("-", 1, 1, "scalar", operator.neg, kinds=("number",))

REGISTRY: dict[str, Builtin] = {
    b.name: b
    for b in (
        Builtin("IF", 2, 3, "special", None),  # an if statement in the emitted code (see engine)
        Builtin("MOD", 2, 2, "scalar", _arithmetic(_modulo), kinds=("number", "number"), python="%"),
        Builtin("SUMPRODUCT", 1, 255, "value", _fn_sumproduct),
        Builtin("VALUE", 1, 1, "scalar", _fn_value, kinds=("any",)),
        Builtin("MID", 3, 3, "scalar", _fn_mid, kinds=("text", "integer", "integer")),
        Builtin("MATCH", 2, 3, "value", _fn_match),
        Builtin("RIGHT", 1, 2, "scalar", _fn_right, kinds=("text", "any")),
        Builtin("LEN", 1, 1, "scalar", _fn_len, kinds=("text",)),
        Builtin("ISBLANK", 1, 1, "special", _fn_isblank),
        Builtin("INDEX", 2, 3, "value", _fn_index),
        Builtin("INDIRECT", 1, 2, "reference", indirect_ref, volatile=True),
        Builtin("OFFSET", 3, 5, "reference", offset_ref, volatile=True, reads_reference=True),
        Builtin("ADDRESS", 2, 5, "value", _fn_address),
        Builtin("ROW", 0, 1, "special", partial(_fn_position, "row"), reads_reference=True),
        Builtin("COLUMN", 0, 1, "special", partial(_fn_position, "column"), reads_reference=True),
        Builtin("ROWS", 1, 1, "special", partial(_fn_extent, "n_rows"), reads_reference=True),
        Builtin("COLUMNS", 1, 1, "special", partial(_fn_extent, "n_cols"), reads_reference=True),
        Builtin("XADR", 1, 1, "special", _fn_xadr, reads_reference=True),
        Builtin("SUM", 1, 255, "value", _fn_sum),
    )
}

BUILTIN_NAME_KEYS = {name.casefold() for name in REGISTRY}
