"""Builtin spreadsheet functions and operator semantics.

Four calling conventions, recorded per function in the registry:

* ``scalar``    -- a scalar implementation that the engine lifts element-wise
  over array arguments (scalars broadcast, mismatched shapes fill the result
  with ``#VALUE!``, error elements propagate element-wise).
* ``value``     -- receives fully evaluated arguments; a scalar error among
  them is the result.
* ``special``   -- receives unevaluated argument nodes plus the evaluation
  context, for lazy evaluation (IF, ISBLANK) and reference arguments (XADR).
* ``reference`` -- like ``special``, but returns a reference (OFFSET,
  INDIRECT): the engine reads its value, or takes the reference itself where
  one is wanted.

Each rule about values is written once: ``_BINARY_FNS`` maps every operator
to its scalar function, ``_order_key`` orders values for comparisons and
MATCH, and ``_finite`` turns a number result that is not a finite real into
``#NUM!``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import formula
from .model import (
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
    to_boolean,
    to_number,
    to_text,
    top_left,
)

OMITTED = formula.OMITTED


# ---------------------------------------------------------------------------
# Element-wise lifting
# ---------------------------------------------------------------------------


def array_lift(fn: Callable, args: list) -> object:
    """Apply a scalar function element-wise across array arguments.

    With no arrays present this is a plain strict call. Arrays must share
    one shape; otherwise the result is a ``#VALUE!``-filled rectangle of the
    maximum shape. Scalars broadcast; error elements short-circuit per cell.
    """
    arrays = [a for a in args if isinstance(a, Array)]
    if not arrays:
        for a in args:
            if isinstance(a, Error):
                return a
        return fn(*args)
    shapes = {(a.n_rows, a.n_cols) for a in arrays}
    n_rows = max(r for r, _ in shapes)
    n_cols = max(c for _, c in shapes)
    if len(shapes) > 1:
        return Array([[Error.VALUE] * n_cols for _ in range(n_rows)])
    out = []
    for i in range(1, n_rows + 1):
        row = []
        for j in range(1, n_cols + 1):
            elems = []
            err = None
            for a in args:
                e = a.get(i, j) if isinstance(a, Array) else a
                if err is None and isinstance(e, Error):
                    err = e
                elems.append(e)
            row.append(err if err is not None else fn(*elems))
        out.append(row)
    return Array(out)


def _as_array(v) -> Array:
    return v if isinstance(v, Array) else Array([[v]])


def _is_number(v) -> bool:
    return isinstance(v, float) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _finite(r):
    """*r* if it is a finite real number, else ``#NUM!``: the one rule for a
    number result (an overflow, an infinity, a complex power)."""
    return r if isinstance(r, float) and math.isfinite(r) else Error.NUM


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
    """Scalar function of two numbers: coerce both operands, apply *op*,
    check the result."""

    def apply(a, b):
        a = to_number(a)
        if isinstance(a, Error):
            return a
        b = to_number(b)
        if isinstance(b, Error):
            return b
        r = op(a, b)
        return r if isinstance(r, Error) else _finite(r)

    return apply


def _order_key(v) -> tuple:
    """Rank, then value: numbers < text (case-insensitive) < booleans."""
    if isinstance(v, str):
        return (1, v.casefold())
    return (2, v) if isinstance(v, bool) else (0, v)


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


def _concat(a, b):
    ta = to_text(a)
    if isinstance(ta, Error):
        return ta
    tb = to_text(b)
    return tb if isinstance(tb, Error) else ta + tb


# The one map from an operator token to its scalar function.
_BINARY_FNS = {
    "+": _arithmetic(operator.add),
    "-": _arithmetic(operator.sub),
    "*": _arithmetic(operator.mul),
    "/": _arithmetic(_divide),
    "^": _arithmetic(_power),
    "&": _concat,
    "=": _comparison(operator.eq),
    "<>": _comparison(operator.ne),
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
}


def apply_binary(op: str, a, b):
    return array_lift(_BINARY_FNS[op], [a, b])


def _negate(v):
    n = to_number(v)
    return n if isinstance(n, Error) else -n


def apply_unary(op: str, v):
    if op == "+":
        return v  # identity, no coercion
    return array_lift(_negate, [v])


# ---------------------------------------------------------------------------
# Scalar builtins (lifted element-wise)
# ---------------------------------------------------------------------------


def _fn_value(v):
    if _is_number(v):
        return v
    if isinstance(v, str):
        return to_number(v)
    return Error.VALUE  # blanks and booleans are not numeric text


def _int_of(v):
    n = to_number(v)
    return n if isinstance(n, Error) else int(n)


def _fn_mid(text, start, count):
    t = to_text(text)
    if isinstance(t, Error):
        return t
    s = _int_of(start)
    if isinstance(s, Error):
        return s
    c = _int_of(count)
    if isinstance(c, Error):
        return c
    if s < 1 or c < 0:
        return Error.VALUE
    return t[s - 1 : s - 1 + c]


def _fn_right(text, count=None):
    t = to_text(text)
    if isinstance(t, Error):
        return t
    if count is None:
        c = 1
    else:
        c = _int_of(count)
        if isinstance(c, Error):
            return c
        if c < 0:
            return Error.VALUE
    return t[-c:] if c else ""


def _fn_len(v):
    t = to_text(v)
    return t if isinstance(t, Error) else float(len(t))


# ---------------------------------------------------------------------------
# Value builtins
# ---------------------------------------------------------------------------


def _fn_sum(ctx, args):
    total = 0.0
    for a in args:
        if isinstance(a, Array):
            for row in a.rows:
                for e in row:
                    if isinstance(e, Error):
                        return e
                    if _is_number(e):
                        total += e
        else:
            n = to_number(a)
            if isinstance(n, Error):
                return n
            total += n
    return _finite(total)


def _fn_sumproduct(ctx, args):
    arrays = [_as_array(a) for a in args]
    shape = (arrays[0].n_rows, arrays[0].n_cols)
    for a in arrays[1:]:
        if (a.n_rows, a.n_cols) != shape:
            return Error.VALUE
    total = 0.0
    for i in range(shape[0]):
        for j in range(shape[1]):
            product = 1.0
            for a in arrays:
                e = a.rows[i][j]
                if isinstance(e, Error):
                    return e
                product *= e if _is_number(e) else 0.0
            total += product
    return _finite(total)


def _fn_match(ctx, args):
    needle = top_left(args[0])
    if isinstance(needle, Error):
        return needle
    if len(args) == 3:
        mode = _int_of(top_left(args[2])) if args[2] is not None else 0
        if isinstance(mode, Error):
            return mode
    else:
        mode = 1  # spreadsheet default; only exact match is supported
    if mode != 0:
        return Error.VALUE
    arr = _as_array(args[1])
    if arr.n_rows > 1 and arr.n_cols > 1:
        return Error.NA
    elems = [arr.rows[0][j] for j in range(arr.n_cols)] if arr.n_rows == 1 else [
        arr.rows[i][0] for i in range(arr.n_rows)
    ]
    if needle is not None:  # a blank matches nothing, nor does a blank or error element
        key = _order_key(needle)
        for idx, e in enumerate(elems, start=1):
            if e is not None and not isinstance(e, Error) and _order_key(e) == key:
                return float(idx)
    return Error.NA


def _fn_index(ctx, args):
    arr = _as_array(args[0])
    n = _int_of(top_left(args[1]))
    if isinstance(n, Error):
        return n
    m = None
    if len(args) == 3 and args[2] is not None:
        m = _int_of(top_left(args[2]))
        if isinstance(m, Error):
            return m
    if n < 1 or (m is not None and m < 1):
        return Error.REF
    if m is not None:
        if n > arr.n_rows or m > arr.n_cols:
            return Error.REF
        return arr.get(n, m)
    if arr.n_rows == 1 and arr.n_cols > 1:
        return arr.get(1, n) if n <= arr.n_cols else Error.REF
    if arr.n_cols == 1:
        return arr.get(n, 1) if n <= arr.n_rows else Error.REF
    if n > arr.n_rows:
        return Error.REF
    return Array([arr.rows[n - 1]])


def _fn_address(ctx, args):
    row = _int_of(top_left(args[0]))
    if isinstance(row, Error):
        return row
    col = _int_of(top_left(args[1]))
    if isinstance(col, Error):
        return col
    if not (1 <= row <= MAX_ROWS and 1 <= col <= MAX_COLUMNS):
        return Error.VALUE
    abs_mode = 1
    if len(args) >= 3 and args[2] is not None:
        abs_mode = _int_of(top_left(args[2]))
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


def _fn_if(ctx, nodes):
    cond = None if nodes[0] is OMITTED else top_left(ctx.eval(nodes[0]))
    if isinstance(cond, Error):
        return cond
    b = to_boolean(cond)
    if isinstance(b, Error):
        return b
    if b:
        branch = nodes[1]
    else:
        branch = nodes[2] if len(nodes) == 3 else None
    if branch is None:
        return False
    if branch is OMITTED:
        return 0.0
    return ctx.eval(branch)


def _fn_isblank(ctx, nodes):
    # evaluated here, not before the call: an error argument is not blank
    return nodes[0] is OMITTED or top_left(ctx.eval(nodes[0])) is None


def indirect_ref(ctx, nodes):
    """Reference named by INDIRECT's text argument, or an error value."""
    v = None if nodes[0] is OMITTED else top_left(ctx.eval(nodes[0]))
    if isinstance(v, Error):
        return v
    if len(nodes) == 2 and nodes[1] is not OMITTED:
        a1 = to_boolean(top_left(ctx.eval(nodes[1])))
        if isinstance(a1, Error):
            return a1
        if not a1:
            return Error.VALUE
    text = to_text(v)
    try:
        return parse_address(text, ctx.cell)
    except AddressError:
        return Error.REF


def offset_ref(ctx, nodes):
    """Reference produced by OFFSET's reference arithmetic, or an error."""
    base = ctx.as_reference(nodes[0]) if nodes[0] is not OMITTED else None
    if isinstance(base, Error):
        return base
    if base is None:
        return Error.VALUE
    if isinstance(base, CellAddress):
        base = RangeRef(base, base)
    drow = _int_of(None if nodes[1] is OMITTED else top_left(ctx.eval(nodes[1])))
    if isinstance(drow, Error):
        return drow
    dcol = _int_of(None if nodes[2] is OMITTED else top_left(ctx.eval(nodes[2])))
    if isinstance(dcol, Error):
        return dcol
    height = base.n_rows
    width = base.n_cols
    if len(nodes) >= 4 and nodes[3] is not OMITTED:
        height = _int_of(top_left(ctx.eval(nodes[3])))
        if isinstance(height, Error):
            return height
    if len(nodes) == 5 and nodes[4] is not OMITTED:
        width = _int_of(top_left(ctx.eval(nodes[4])))
        if isinstance(width, Error):
            return width
    if height < 1 or width < 1:
        return Error.REF
    tl = base.top_left
    row = tl.row + drow
    col = tl.column + dcol
    if row < 1 or col < 1 or row + height - 1 > MAX_ROWS or col + width - 1 > MAX_COLUMNS:
        return Error.REF
    a = CellAddress(tl.workbook, tl.sheet, col, row)
    if height == 1 and width == 1:
        return a
    b = CellAddress(tl.workbook, tl.sheet, col + width - 1, row + height - 1)
    return RangeRef(a, b)


def _fn_position(axis: str, ctx, nodes):
    """ROW or COLUMN (*axis* ``row`` or ``column``): the numbers of the
    reference's rows or columns, or of the formula's own cell."""
    if not nodes or nodes[0] is OMITTED:
        return float(getattr(ctx.cell, axis))
    ref = ctx.as_reference(nodes[0])
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


def _fn_extent(size: str, ctx, nodes):
    """ROWS or COLUMNS (*size* ``n_rows`` or ``n_cols``) of a reference or array."""
    if nodes[0] is OMITTED:
        return Error.VALUE
    ref = ctx.as_reference(nodes[0])
    if isinstance(ref, Error):
        return ref
    if ref is not None:
        return 1.0 if isinstance(ref, CellAddress) else float(getattr(ref, size))
    v = ctx.eval(nodes[0])
    if isinstance(v, Error):
        return v
    return float(getattr(v, size)) if isinstance(v, Array) else 1.0


def _fn_xadr(ctx, nodes):
    if nodes[0] is OMITTED:
        return Error.VALUE
    ref = ctx.as_reference(nodes[0])
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
    name: str
    min_args: int
    max_args: int
    kind: str  # "scalar" | "value" | "special" | "reference"
    fn: Callable
    volatile: bool = False


REGISTRY: dict[str, Builtin] = {
    b.name: b
    for b in (
        Builtin("IF", 2, 3, "special", _fn_if),
        Builtin("MOD", 2, 2, "scalar", _arithmetic(_modulo)),
        Builtin("SUMPRODUCT", 1, 255, "value", _fn_sumproduct),
        Builtin("VALUE", 1, 1, "scalar", _fn_value),
        Builtin("MID", 3, 3, "scalar", _fn_mid),
        Builtin("MATCH", 2, 3, "value", _fn_match),
        Builtin("RIGHT", 1, 2, "scalar", _fn_right),
        Builtin("LEN", 1, 1, "scalar", _fn_len),
        Builtin("ISBLANK", 1, 1, "special", _fn_isblank),
        Builtin("INDEX", 2, 3, "value", _fn_index),
        Builtin("INDIRECT", 1, 2, "reference", indirect_ref, volatile=True),
        Builtin("OFFSET", 3, 5, "reference", offset_ref, volatile=True),
        Builtin("ADDRESS", 2, 5, "value", _fn_address),
        Builtin("ROW", 0, 1, "special", partial(_fn_position, "row")),
        Builtin("COLUMN", 0, 1, "special", partial(_fn_position, "column")),
        Builtin("ROWS", 1, 1, "special", partial(_fn_extent, "n_rows")),
        Builtin("COLUMNS", 1, 1, "special", partial(_fn_extent, "n_cols")),
        Builtin("XADR", 1, 1, "special", _fn_xadr),
        Builtin("SUM", 1, 255, "value", _fn_sum),
    )
}

BUILTIN_NAME_KEYS = {name.casefold() for name in REGISTRY}
