"""A tree-walking formula interpreter, the reference for the engine's
compiled evaluator: :class:`EvalContext` walks an AST node by node,
counting its depth as it goes, and the special and reference builtins below
take AST nodes. The scalar builtins and the operators' scalar functions
below take their arguments as they come and coerce them by hand, so they
share nothing with the engine's declared kinds and its coercion step.
SUMPRODUCT and MATCH have their own bodies below too, as the engine
compiles both to reductions over constants; the other value builtins are
the engine's own (``functions.REGISTRY``).
"""

from __future__ import annotations

import math
import operator
import re
from functools import partial
from typing import Callable

from gridcalc import formula, functions
from gridcalc.functions import _divide, _modulo, _power
from gridcalc.model import (
    MAX_COLUMNS,
    MAX_ROWS,
    AddressError,
    Array,
    CellAddress,
    Error,
    RangeRef,
    Workspace,
    column_to_letters,
    format_reference,
    letters_to_column,
    parse_address,
    to_boolean,
    to_number,
    to_text,
    top_left,
    values_equal,
)

DEFAULT_MAX_DEPTH = 64
OMITTED = formula.OMITTED


# ---------------------------------------------------------------------------
# Element-wise lifting and operators
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


def _int_of(v):
    n = to_number(v)
    return n if isinstance(n, Error) else int(n)


def _finite(r):
    return r if isinstance(r, float) and math.isfinite(r) else Error.NUM


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
    if isinstance(v, str):
        return (1, v.casefold())
    return (2, v) if isinstance(v, bool) else (0, v)


def _blank_as(other):
    if isinstance(other, str):
        return ""
    return False if isinstance(other, bool) else 0.0


def _comparison(op: Callable) -> Callable:
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


def negate(v):
    n = to_number(v)
    return n if isinstance(n, Error) else -n


BINARY = {
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


def _fn_value(v):
    if isinstance(v, float) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        return to_number(v)
    return Error.VALUE  # blanks and booleans are not numeric text


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


SCALARS = {
    "MOD": _arithmetic(_modulo),
    "VALUE": _fn_value,
    "MID": _fn_mid,
    "RIGHT": _fn_right,
    "LEN": _fn_len,
}


# ---------------------------------------------------------------------------
# Value builtins the engine specialises
# ---------------------------------------------------------------------------


def _as_array(v) -> Array:
    return v if isinstance(v, Array) else Array([[v]])


def _fn_sumproduct(args):
    arrays = [_as_array(a) for a in args]
    shape = (arrays[0].n_rows, arrays[0].n_cols)
    for a in arrays[1:]:
        if (a.n_rows, a.n_cols) != shape:
            return Error.VALUE
    total = 0.0
    for rows in zip(*[a.rows for a in arrays]):
        for elems in zip(*rows):
            product = 1.0
            for e in elems:
                if isinstance(e, Error):
                    return e
                # a non-number is multiplied by 0.0, so an overflowed product stays #NUM!
                product *= e if type(e) is float else 0.0
            total += product
    return _finite(total)


def _fn_match(args):
    needle = top_left(args[0])
    if isinstance(needle, Error):
        return needle
    # 1 is the spreadsheet default; only exact match (0) is supported
    mode = _int_of(top_left(args[2])) if len(args) == 3 else 1
    if mode != 0:
        return mode if isinstance(mode, Error) else Error.VALUE
    rows = _as_array(args[1]).rows
    if len(rows) == 1:
        elems = rows[0]
    elif len(rows[0]) == 1:
        elems = [row[0] for row in rows]
    else:
        return Error.NA
    # a blank matches nothing, nor does a blank or error element; text
    # matches text case-insensitively, other values only their own type
    if needle is None:
        return Error.NA
    for idx, e in enumerate(elems, start=1):
        if type(e) is type(needle) and (e.casefold() == needle.casefold() if type(e) is str else e == needle):
            return float(idx)
    return Error.NA


VALUES = {"SUMPRODUCT": _fn_sumproduct, "MATCH": _fn_match}


def apply_binary(op: str, a, b):
    return array_lift(BINARY[op], [a, b])


def apply_unary(op: str, v):
    if op == "+":
        return v  # identity, no coercion
    return array_lift(negate, [v])


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------


class EvalContext:
    """Per-evaluation view of the workspace, passed to builtin functions."""

    __slots__ = ("workspace", "cell", "depth", "max_depth")

    def __init__(self, workspace: Workspace, cell: CellAddress, max_depth: int = DEFAULT_MAX_DEPTH):
        self.workspace = workspace
        self.cell = cell
        self.depth = 0
        self.max_depth = max_depth

    # -- evaluation ----------------------------------------------------------

    def eval(self, node):
        self.depth += 1
        if self.depth > self.max_depth:
            self.depth -= 1
            return Error.VALUE
        try:
            t = type(node)
            if t is formula.Ref:
                target = node.target
                if isinstance(target, str):
                    target = self.resolve_name(target)
                    if target is None:
                        return Error.NAME
                return self.ref_value(target)
            if t is formula.Literal:
                return node.value
            if t is formula.Binary:
                return apply_binary(node.op, self.eval(node.left), self.eval(node.right))
            if t is formula.Call:
                return self._call(node)
            if t is formula.Unary:
                return apply_unary(node.op, self.eval(node.operand))
            raise TypeError(f"cannot evaluate {node!r}")
        finally:
            self.depth -= 1

    def _call(self, node):
        spec = functions.REGISTRY.get(node.name.upper())
        if spec is None:
            return Error.NAME
        if not spec.min_args <= len(node.args) <= spec.max_args:
            return Error.VALUE
        if spec.kind == "special":
            return SPECIALS[spec.name](self, node.args)
        if spec.kind == "reference":
            ref = SPECIALS[spec.name](self, node.args)
            return ref if isinstance(ref, Error) else self.ref_value(ref)
        args = [None if a is formula.OMITTED else self.eval(a) for a in node.args]
        if spec.kind == "scalar":
            return array_lift(SCALARS[spec.name], args)
        for a in args:
            if isinstance(a, Error):
                return a
        return VALUES.get(spec.name, spec.fn)(args)

    # -- references ----------------------------------------------------------

    def resolve_name(self, name: str):
        """The reference defined name *name* (any case) stands for, or None."""
        entry = self.workspace.defined_names.get(name.casefold())
        return None if entry is None else entry[1]

    def ref_value(self, target):
        """Dereference an address (cached value) or range (array of values)."""
        if isinstance(target, CellAddress):
            sheet = self.workspace.resolve_sheet(target)
            if sheet is None:
                return Error.REF
            return sheet.value(target.row, target.column)
        sheet = self.workspace.resolve_sheet(target.top_left)
        if sheet is None:
            return Error.REF
        tl, br = target.top_left, target.bottom_right
        return Array(
            [
                [sheet.value(r, c) for c in range(tl.column, br.column + 1)]
                for r in range(tl.row, br.row + 1)
            ]
        )

    def as_reference(self, node):
        """Resolve a node to the reference it denotes, if any.

        Returns an address/range, an Error (unresolved name, or what a
        reference builtin such as OFFSET or INDIRECT gave), or None when the
        node is not a reference expression at all.
        """
        if isinstance(node, formula.Ref):
            if isinstance(node.target, str):
                target = self.resolve_name(node.target)
                return Error.NAME if target is None else target
            return node.target
        if isinstance(node, formula.Call):
            spec = functions.REGISTRY.get(node.name.upper())
            if (
                spec is not None
                and spec.kind == "reference"
                and spec.min_args <= len(node.args) <= spec.max_args
            ):
                return SPECIALS[spec.name](self, node.args)
        return None


# ---------------------------------------------------------------------------
# Special builtins, on AST nodes
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
    a = tl.moved(col, row)
    if height == 1 and width == 1:
        return a
    return RangeRef(a, a.moved(col + width - 1, row + height - 1))


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


SPECIALS = {
    "IF": _fn_if,
    "ISBLANK": _fn_isblank,
    "INDIRECT": indirect_ref,
    "OFFSET": offset_ref,
    "ROW": partial(_fn_position, "row"),
    "COLUMN": partial(_fn_position, "column"),
    "ROWS": partial(_fn_extent, "n_rows"),
    "COLUMNS": partial(_fn_extent, "n_cols"),
    "XADR": _fn_xadr,
}


# ---------------------------------------------------------------------------
# Comparing the compiled evaluator with the reference
# ---------------------------------------------------------------------------


def same_value(a, b) -> bool:
    """:func:`values_equal`, arrays compared element by element."""
    if isinstance(a, Array) and isinstance(b, Array):
        return len(a.rows) == len(b.rows) and all(
            len(r) == len(s) and all(values_equal(x, y) for x, y in zip(r, s)) for r, s in zip(a.rows, b.rows)
        )
    return values_equal(a, b)


def moved_source(source: str, dc: int, dr: int) -> str:
    """*source* copied *dc* columns right and *dr* rows down: every relative
    part of its cell references moved (sheet and workbook names must not
    look like cell references)."""
    out, pos = [], 0
    for tok in formula.tokenize(source):
        if tok.kind == formula.CELLREF:
            m = re.fullmatch(r"(\$?)([A-Za-z]+)(\$?)(\d+)", tok.lexeme)
            column, row = letters_to_column(m[2]), int(m[4])
            column += 0 if m[1] else dc
            row += 0 if m[3] else dr
            out.append(source[pos : tok.start] + f"{m[1]}{column_to_letters(column)}{m[3]}{row}")
            pos = tok.end
    return "".join(out) + source[pos:]


def compiled_and_reference(ws: Workspace, source: str, anchor: CellAddress, dc: int, dr: int) -> list:
    """``(compiled, reference)`` values of *source* at *anchor*, where its
    template is made, and of its copy moved by (*dc*, *dr*), a formula made
    from that template."""
    from conftest import evaluated

    copy_anchor = anchor.moved(anchor.column + dc, anchor.row + dr)
    copy = moved_source(source, dc, dr)
    own = formula.shared_formula(source, anchor, ws.templates)
    moved = formula.shared_formula(copy, copy_anchor, ws.templates)
    assert moved.template is own.template, (source, copy)
    return [
        (evaluated(ws, f), EvalContext(ws, at).eval(formula.parse_formula(text, at)))
        for at, f, text in ((anchor, own, source), (copy_anchor, moved, copy))
    ]
