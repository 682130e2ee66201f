"""Dependency graph, dirty propagation, and topological recalculation.

Recalculation is strictly single-threaded and deterministic: ties in the
topological order are broken by address, cycles are condensed and either
poisoned with ``#CYCLE!`` or iterated to a bounded fixed point, and two
consecutive recalculations of an unchanged workspace produce identical
grids.

A recalculation is one walk (:meth:`Engine.walk`) of one order, built for
it by :meth:`Engine.components`: the dirty and volatile formula cells, with
``table_recalc=auto`` every data table (see :mod:`gridcalc.tables`), and all
they reach through dependents, condensed into strongly connected components
and listed so that what a node reads comes first. Each cell or cycle of
cells runs when a cell of it needs it, and every table runs, its passes
running the table's plan (:meth:`Engine.dependents_plan`). A cycle through
a table is a recursive call: its cells and table bodies become ``#CYCLE!``.

Formulas are compiled, not interpreted. Each formula shape
(:class:`gridcalc.formula.Template`) is compiled once, on its first
evaluation, to nested closures (:func:`compile_template`) that every
formula of the shape runs over its own references (``Formula.refs``).
Builtins, arity checks, operators and constants are bound then, and so is
the depth limit: a node nested deeper than :data:`MAX_DEPTH` levels
compiles to ``#VALUE!``, given only if it is evaluated. Special and
reference builtins receive their arguments compiled, to evaluate as they
need (:class:`gridcalc.functions.Arg`). A scalar builtin or operator
compiles to one closure (:func:`_lifted`) that runs its function in line
when no array and no raw error arrives, and otherwise lifts it over arrays
(:func:`gridcalc.functions.array_lift`). Their parameter kinds
(``Builtin.kinds``) are bound at compile time too, as one coercer per
argument, and a literal or ``{...}`` constant in a typed position is
coerced then, once, where that succeeds. A constant that fails to coerce
is left to run time, where raw errors come first and then coercion errors,
each in argument order, so that ``MID("ab","x",#N/A)`` stays ``#N/A``.

One analysis finds the element kernels, once per ``(node, depth)`` and
kept beside the argument lists: a kernel is a ``{...}`` constant and the
links around it, innermost first. A ``{...}`` constant is a kernel with no
links, ``+x`` is *x*'s kernel, and a scalar call whose operands hold
exactly one kernel is that kernel plus one link, its other operands held.
Such a call compiles to one element kernel (:func:`_kernel`). Each
evaluation reads every link's held arguments once, then applies each link
to the elements the one below it gave
(:func:`gridcalc.functions.lift_elements`, the one-array rule that
``array_lift`` uses too) and builds one array at the end. The run-time
guard: a held argument that arrives as an array (a range, a defined name,
OFFSET or INDIRECT) sends the values already read through ``array_lift``,
link by link, as nested scalar calls would; no subtree is compiled twice
and nothing is evaluated twice.

Two value builtins that reduce constants read the same analysis. A
SUMPRODUCT whose arguments are all kernels of one shape (a kernel's is its
constant's) compiles to one reduction (:func:`_sum_of_products`) over the
kernels' flat element lists (:func:`_elements`, a constant's being its own
elements): no array is built and no shape is checked. Its guard: a kernel
that lifted through ``array_lift`` gives an array, and then the values
already read go, as arrays, to the builtin itself, which checks the
shapes. An exact MATCH in a one-row or one-column ``{...}`` constant (its
mode a literal or omitted argument that gives 0) indexes the constant once
(:func:`gridcalc.functions.match_index`) and looks each needle up
(:func:`_match`). Every other SUMPRODUCT or MATCH runs the builtin.

Volatility has one source: ``Builtin.volatile`` in the function registry,
read once per formula shape, when its :class:`gridcalc.formula.Template`
scans its AST (``formula._scan``).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from . import formula, functions, tables
from .model import (
    Array,
    CellAddress,
    Content,
    Error,
    Formula,
    Literal,
    RangeRef,
    TableBody,
    Workspace,
    to_integer,
    top_left,
    values_equal,
)

# Deepest node a formula evaluates, the root being one level deep.
MAX_DEPTH = 64


@dataclass
class EvalStats:
    """Counters for one recalculation; monotone while it runs."""

    cell_evaluations: int = 0
    body_passes: int = 0
    table_restores: int = 0
    wall_time: float = 0.0


class DependencyGraph:
    """Static precedent edges between cells, with the exact transpose kept
    as dependent edges and a set of always-recalculated volatile cells."""

    def __init__(self) -> None:
        self.precedents: dict[CellAddress, frozenset] = {}
        self.dependents: dict[CellAddress, set] = {}
        self.volatile: set[CellAddress] = set()

    def set_node(self, addr: CellAddress, precedents: Iterable[CellAddress], volatile: bool) -> None:
        self.remove_node(addr)
        pset = frozenset(precedents)
        self.precedents[addr] = pset
        for p in pset:
            self.dependents.setdefault(p, set()).add(addr)
        if volatile:
            self.volatile.add(addr)

    def remove_node(self, addr: CellAddress) -> None:
        old = self.precedents.pop(addr, None)
        if old:
            for p in old:
                deps = self.dependents.get(p)
                if deps is not None:
                    deps.discard(addr)
                    if not deps:
                        del self.dependents[p]
        self.volatile.discard(addr)

    def dependents_closure(self, seeds: Iterable[CellAddress]) -> set:
        """All cells transitively depending on *seeds* (seeds excluded)."""
        out: set = set()
        stack = list(seeds)
        while stack:
            for d in self.dependents.get(stack.pop(), ()):
                if d not in out:
                    out.add(d)
                    stack.append(d)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyGraph):
            return NotImplemented
        return self.precedents == other.precedents and self.volatile == other.volatile

    __hash__ = None  # type: ignore[assignment]


class EvalContext:
    """What one evaluation of a formula reads: the workspace, the formula's
    own cell (ROW(), COLUMN() and INDIRECT's relative text read it) and its
    references in the order its template reads them (``Formula.refs``)."""

    __slots__ = ("workspace", "cell", "refs")

    def __init__(self, workspace: Workspace, cell: CellAddress, refs: tuple) -> None:
        self.workspace = workspace
        self.cell = cell
        self.refs = refs


def evaluate(workspace: Workspace, cell: CellAddress, f: Formula):
    """The value of formula *f* in *cell*: its template's closure tree,
    compiled on first use, run over *f*'s own references. An array result
    is returned whole."""
    template = f.template
    code = template.code or compile_template(template)
    return code(EvalContext(workspace, cell, f.refs))


def ref_value(workspace: Workspace, target):
    """Dereference an address (cached value) or range (array of values): the
    one place a compiled formula reads cells through."""
    if type(target) is CellAddress:
        sheet = workspace.resolve_sheet(target)
        if sheet is None:
            return Error.REF
        return sheet.value(target.row, target.column)
    sheet = workspace.resolve_sheet(target.top_left)
    if sheet is None:
        return Error.REF
    tl, br = target.top_left, target.bottom_right
    return Array(
        [
            [sheet.value(r, c) for c in range(tl.column, br.column + 1)]
            for r in range(tl.row, br.row + 1)
        ]
    )


def compile_template(template: formula.Template):
    """Compile *template*'s AST once to nested closures, each taking an
    :class:`EvalContext`; the result is kept as ``template.code``.

    A reference reads the evaluated formula's own target by its place in
    ``template.nodes``; a defined name is resolved when it is read.
    Builtins, their arity checks, operators and constants are bound here,
    and so is the coercer of each argument of a scalar builtin or operator;
    a constant in a typed position is coerced here, once, if it can be. A
    scalar call whose operands hold exactly one element kernel (``kernel``,
    a ``{...}`` constant being one with no links) compiles, with the chain
    below it, to one (:func:`_kernel`), and a SUMPRODUCT or an exact MATCH
    over constants to one reduction. A node
    nested deeper than :data:`MAX_DEPTH` (the root being one level, each
    argument or operand one more) compiles to ``#VALUE!``, which it gives
    only if it is evaluated: ``IF(TRUE,1,<deep>)`` is 1. A special
    or reference builtin receives each argument as a :class:`functions.Arg`;
    an argument read as a reference costs no level, so the arguments of a
    reference builtin read that way sit one level below their reader.
    """
    positions = {id(node): i for i, node in enumerate(template.nodes)}
    argument_lists: dict = {}  # (id of a call, its depth) -> its compiled arguments
    kernels: dict = {}  # (id of a node, its depth) -> its element kernel, or None

    def value(node, depth: int):
        if depth > MAX_DEPTH:
            return _constant(Error.VALUE)
        if isinstance(node, formula.Literal):
            return _constant(node.value)
        if isinstance(node, formula.Ref):
            if isinstance(node.target, str):
                return _read(reference(node, depth))
            return _ref_value(positions[id(node)])
        if isinstance(node, formula.Unary) and node.op == "+":
            return value(node.operand, depth + 1)
        link = _scalar_link(node)
        if link is not None:
            found = kernel(node, depth)
            if found is not None:
                return _kernel(*found)
            spec, args = link
            codes, coercers = operands(spec, args, depth)
            return _lifted(spec.fn, tuple(coercers), codes)
        if isinstance(node, formula.Call):
            spec = _builtin(node)
            if not isinstance(spec, functions.Builtin):
                return _constant(spec)
            if spec.kind == "special":
                return _special(spec.fn, arguments(node, depth))
            if spec.kind == "reference":
                return _read(reference(node, depth))
            code = specialised(node, spec, depth)
            if code is not None:
                return code
            codes = [_NONE if a is formula.OMITTED else value(a, depth + 1) for a in node.args]
            return _strict(spec.fn, codes)
        raise TypeError(f"cannot compile {node!r}")

    def operands(spec: functions.Builtin, args, depth: int, skip=None) -> tuple:
        """The compiled arguments of scalar *spec* but the one at *skip*,
        and the coercer of each argument: a constant is coerced here, once,
        where that succeeds, and its coercer dropped (a failing one must
        still lose to a raw error in a later argument, so it is coerced when
        it is read)."""
        codes, coercers = [], list(spec.coercers[: len(args)])
        for i, a in enumerate(args):
            if i == skip:
                continue
            constant = _NOT_CONSTANT
            if coercers[i] is not None and depth < MAX_DEPTH:
                constant = _coerced_constant(a, coercers[i])
            if constant is _NOT_CONSTANT:
                codes.append(_NONE if a is formula.OMITTED else value(a, depth + 1))
            else:
                codes.append(_constant(constant))
                coercers[i] = None
        return codes, coercers

    def kernel(node, depth: int):
        """The element kernel whose value *node*, *depth* deep, is: its
        ``{...}`` constant and its links, innermost first, each link a
        scalar call's ``(fn, coercers, held codes, position of its array
        source)``; None if *node* has none. A ``{...}`` literal is a kernel
        with no links, ``+x`` is *x*'s kernel, and a scalar call whose
        operands hold exactly one kernel is that kernel and one more link.
        The constant is coerced here, once, for the innermost link where
        that succeeds."""
        if depth > MAX_DEPTH:
            return None
        key = (id(node), depth)
        if key in kernels:
            return kernels[key]
        found, link = None, _scalar_link(node)
        if isinstance(node, formula.Literal) and type(node.value) is Array:
            found = node.value, ()
        elif isinstance(node, formula.Unary) and node.op == "+":
            found = kernel(node.operand, depth + 1)
        elif link is not None:
            spec, args = link
            inner = [i for i, a in enumerate(args) if kernel(a, depth + 1) is not None]
            if len(inner) == 1:
                (i,) = inner
                constant, links = kernel(args[i], depth + 1)
                codes, coercers = operands(spec, args, depth, i)
                if not links and coercers[i] is not None:
                    coerced = _coerced_array(constant, coercers[i])
                    if coerced is not _NOT_CONSTANT:
                        constant, coercers[i] = coerced, None
                found = constant, (*links, (spec.fn, tuple(coercers), codes, i))
        kernels[key] = found
        return found

    def specialised(node, spec: functions.Builtin, depth: int):
        """The value call *node*, *depth* deep, compiled to a reduction over
        constants, or None if it is not one: SUMPRODUCT whose arguments are
        all kernels of one shape (:func:`_sum_of_products`), or an exact
        MATCH in a one-row or one-column ``{...}`` constant, whose mode is a
        literal or omitted argument that gives 0 (:func:`_match`)."""
        args = node.args
        if spec.fn is functions._fn_sumproduct:
            found = [kernel(a, depth + 1) for a in args]
            if None not in found and len({(c.n_rows, c.n_cols) for c, _ in found}) == 1:
                return _sum_of_products(found)
        elif spec.fn is functions._fn_match and len(args) == 3 and depth < MAX_DEPTH:
            lookup, mode = _literal(args[1]), _literal(args[2])
            exact = mode is not _NOT_CONSTANT and to_integer(top_left(mode)) == 0
            if exact and type(lookup) is Array and min(lookup.n_rows, lookup.n_cols) == 1:
                keys = lookup.rows[0] if lookup.n_rows == 1 else [row[0] for row in lookup.rows]
                needle = _NONE if args[0] is formula.OMITTED else value(args[0], depth + 1)
                return _match(needle, functions.match_index(keys))
        return None

    def reference(node, depth: int):
        """The reference *node* denotes, read by a builtin *depth* deep."""
        if isinstance(node, formula.Ref):
            target = node.target
            if isinstance(target, str):
                return _name_reference(target.casefold())
            return _ref_target(positions[id(node)])
        if isinstance(node, formula.Call):
            spec = _builtin(node)
            if isinstance(spec, functions.Builtin) and spec.kind == "reference":
                return _special(spec.fn, arguments(node, depth))
        return _NONE

    def arguments(node, depth: int) -> tuple:
        # kept, so that a chain of reference calls compiles in polynomial time
        key = (id(node), depth)
        args = argument_lists.get(key)
        if args is None:
            args = argument_lists[key] = tuple(
                a if a is formula.OMITTED else functions.Arg(value(a, depth + 1), reference(a, depth))
                for a in node.args
            )
        return args

    template.code = value(template.ast, 1)
    return template.code


def _builtin(node):
    """The builtin *node* calls, or the error it gives: ``#NAME?`` for an
    unknown name, ``#VALUE!`` for a wrong number of arguments."""
    spec = functions.REGISTRY.get(node.name.upper())
    if spec is None:
        return Error.NAME
    if not spec.min_args <= len(node.args) <= spec.max_args:
        return Error.VALUE
    return spec


def _constant(v):
    return lambda ctx: v


_NONE = _constant(None)  # an omitted argument's value; what a non-reference denotes


def _ref_value(i: int):
    return lambda ctx: ref_value(ctx.workspace, ctx.refs[i])


def _ref_target(i: int):
    return lambda ctx: ctx.refs[i]


def _name_reference(key: str):
    def target(ctx):
        entry = ctx.workspace.defined_names.get(key)
        return Error.NAME if entry is None else entry[1]

    return target


_NOT_CONSTANT = object()


def _literal(node):
    """The value of the literal or omitted argument *node*;
    ``_NOT_CONSTANT`` if it is neither."""
    if node is formula.OMITTED:
        return None
    return node.value if isinstance(node, formula.Literal) else _NOT_CONSTANT


def _coerced_constant(node, coerce):
    """The literal or omitted argument *node* coerced by *coerce*, an array
    element by element; ``_NOT_CONSTANT`` if *node* is neither or a
    coercion fails."""
    v = _literal(node)
    if v is _NOT_CONSTANT:
        return v
    if type(v) is Array:
        return _coerced_array(v, coerce)
    c = coerce(v)
    return _NOT_CONSTANT if type(c) is Error and type(v) is not Error else c


def _coerced_array(v: Array, coerce):
    """*v* coerced element by element, or ``_NOT_CONSTANT`` if an element
    that is not an error fails."""
    rows = tuple(tuple(map(coerce, row)) for row in v.rows)
    for row, coerced in zip(v.rows, rows):
        for e, c in zip(row, coerced):
            if type(c) is Error and type(e) is not Error:
                return _NOT_CONSTANT
    return Array.trusted(rows)


def _scalar_link(node):
    """The scalar builtin or operator *node* applies and its operands, or
    None if it applies none (``+x`` is *x* itself)."""
    if isinstance(node, formula.Binary):
        return functions.BINARY_FNS[node.op], (node.left, node.right)
    if isinstance(node, formula.Unary):
        return (functions.NEGATE, (node.operand,)) if node.op == "-" else None
    if isinstance(node, formula.Call):
        spec = _builtin(node)
        if isinstance(spec, functions.Builtin) and spec.kind == "scalar":
            return spec, node.args
    return None


def _kernel(constant: Array, links: tuple):
    """An element kernel: its elements (:func:`_elements`) as one array of
    the constant's shape."""
    elements = _elements(constant, links)
    n_cols = constant.n_cols

    def run(ctx):
        out = elements(ctx)
        return out if type(out) is Array else functions.shaped(out, n_cols)

    return run


def _elements(constant: Array, links: tuple):
    """An element kernel's loop: each link's held arguments evaluated once,
    then each link, innermost first, applied to the elements the one below
    it gave (:func:`functions.lift_elements`); the result is a flat list, in
    row order, of the constant's size, and with no links the constant's own
    elements. If a held argument is an array (a range, a name, OFFSET or
    INDIRECT), the values already evaluated go to
    :func:`functions.array_lift` instead, link by link, as nested lifted
    calls would give them, and the result is the array that gives."""
    elements = list(chain.from_iterable(constant.rows))
    if not links:
        return _constant(elements)

    def run(ctx):
        helds = [[c(ctx) for c in codes] for _, _, codes, _ in links]
        for held in helds:
            if Array in map(type, held):
                return _lifted_links(constant, links, helds)
        out = elements
        for (fn, coercers, _, k), held in zip(links, helds):
            out = functions.lift_elements(fn, coercers, held, k, out)
        return out

    return run


def _sum_of_products(kernels: list):
    """SUMPRODUCT over element kernels of one shape: each kernel gives its
    flat element list (:func:`_elements`), and
    :func:`functions.sum_of_products` reduces them, with no array built and
    no shape checked. The guard: a kernel that lifted through
    :func:`functions.array_lift` gives an array, and then every value
    already read goes, as an array, to SUMPRODUCT's own builtin, which
    checks the shapes."""
    codes = [_elements(constant, links) for constant, links in kernels]
    n_cols = kernels[0][0].n_cols

    def run(ctx):
        columns = [c(ctx) for c in codes]
        if Array in map(type, columns):
            arrays = [c if type(c) is Array else functions.shaped(c, n_cols) for c in columns]
            return functions._fn_sumproduct(ctx, arrays)
        return functions.sum_of_products(columns)

    return run


def _match(needle, index: dict):
    """An exact MATCH in a constant: the needle's
    :func:`functions.match_key` looked up in the constant's *index*
    (:func:`functions.match_index`). An error needle is the result; a blank
    one, like every needle the index lacks, is ``#N/A``."""

    def run(ctx):
        v = needle(ctx)
        if type(v) is Array:
            v = v.rows[0][0]
        if type(v) is Error:
            return v
        return index.get(functions.match_key(v), Error.NA)

    return run


def _lifted_links(constant: Array, links: tuple, helds: list):
    """The kernel's chain as nested lifted calls: each link's held values
    and the array the link below it gives, through :func:`functions.array_lift`."""
    v = constant
    for (fn, coercers, _, k), held in zip(links, helds):
        v = functions.array_lift(fn, coercers, [*held[:k], v, *held[k:]])
    return v


def _lifted(fn, coercers: tuple, codes: list):
    """A scalar call, *fn* applied to its arguments' values as
    :func:`functions.array_lift` applies it: with one or two arguments, a
    call that meets no array and no raw error coerces them and runs *fn* in
    line, as two in three scalar calls of a steady ``call-large`` recalc do;
    every other call goes to ``array_lift``."""
    if len(codes) == 1:
        (a,), (ca,) = codes, coercers

        def call1(ctx):
            x = a(ctx)
            t = type(x)
            if t is Array or t is Error:
                return functions.array_lift(fn, coercers, (x,))
            if ca is not None:
                x = ca(x)
                if type(x) is Error:
                    return x
            return fn(x)

        return call1
    if len(codes) == 2:
        (a, b), (ca, cb) = codes, coercers

        def call2(ctx):
            x, y = a(ctx), b(ctx)
            tx, ty = type(x), type(y)
            if tx is Array or tx is Error or ty is Array or ty is Error:
                return functions.array_lift(fn, coercers, (x, y))
            if ca is not None:
                x = ca(x)
                if type(x) is Error:
                    return x
            if cb is not None:
                y = cb(y)
                if type(y) is Error:
                    return y
            return fn(x, y)

        return call2
    return lambda ctx: functions.array_lift(fn, coercers, [c(ctx) for c in codes])


def _strict(fn, codes: list):
    def call(ctx):
        args = [c(ctx) for c in codes]
        for a in args:
            if type(a) is Error:
                return a
        return fn(ctx, args)

    return call


def _special(fn, args: tuple):
    return lambda ctx: fn(ctx, args)


def _read(reference):
    """The value at the reference *reference* gives, or the error it gives."""

    def read(ctx):
        ref = reference(ctx)
        return ref if type(ref) is Error else ref_value(ctx.workspace, ref)

    return read


def _checked_literal(addr: CellAddress, content: Literal) -> Literal:
    """*content* as a cell holds it: a finite float, text, a boolean or an
    error; an ``int`` becomes the equal float. Any other value raises
    ``ValueError``, as no formula could read it and no dump could write it."""
    v = content.value
    if type(v) in (str, bool, Error):
        return content
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an int beyond every float
            x = math.inf
        if math.isfinite(x):
            return content if type(v) is float else Literal(x)
    raise ValueError(f"{addr!r}: a literal is a finite number, text, a boolean or an error, not {v!r}")


class Engine:
    """Owns a workspace: tracks dependencies, dirtiness, and recalculation.

    All mutation of the workspace must go through one engine instance
    (single-writer contract); read-only queries may happen between recalcs.
    """

    def __init__(self, workspace: Workspace) -> None:
        self.workspace = workspace
        self.graph = self.build_graph()
        self.dirty: set[CellAddress] = set(self.graph.precedents)
        # table id -> (dependents_plan, its edges in components, the edges of
        # the cells that read its body); with iterative calculation, input
        # cell -> its dependents if they hold a cycle
        self._plans: dict = {}

    # -- graph construction ---------------------------------------------------

    def _formula_addresses(self):
        for wb in self.workspace.workbooks():
            for sheet in wb.sheets():
                home = CellAddress(wb.name, sheet.name, 1, 1)
                for (row, col), cell in sheet.cells.items():
                    if isinstance(cell.content, Formula):
                        yield home.moved(col, row)

    def _name_targets(self) -> dict:
        return {key: target for key, (_, target) in self.workspace.defined_names.items()}

    def _node_edges(self, content: Formula, names: dict) -> tuple[set, bool]:
        info = formula.formula_dependencies(content, names)
        precedents: set = set()
        for ref in info.refs:
            if isinstance(ref, RangeRef):
                precedents.update(ref.cells())
            else:
                precedents.add(ref)
        return precedents, info.volatile

    def build_graph(self) -> DependencyGraph:
        """Construct the dependency graph from scratch.

        ``engine.graph == engine.build_graph()`` must hold after any edit;
        the incremental updates in :meth:`set_cell` preserve it. Edges come
        from each formula's ``refs`` and template, never from an AST. A
        formula set on a sheet by hand is given a template of its own here.
        """
        g = DependencyGraph()
        names = self._name_targets()
        for addr in self._formula_addresses():
            cell = self.workspace.cell(addr)
            if cell.content.template is None:  # set on the sheet by hand
                cell.content = formula.Template(cell.content.ast, addr).at(addr, cell.content.source)
            precedents, volatile = self._node_edges(cell.content, names)
            g.set_node(addr, precedents, volatile)
        return g

    # -- editing ----------------------------------------------------------------

    def set_cell(self, addr: CellAddress, content: Content) -> set:
        """Replace a cell's content and mark its dependents dirty.

        Returns the freshly dirtied cells. Writing into a data-table body
        cell is rejected: body cells belong to their table. So is a formula
        whose source does not parse to its AST, as a dump writes the source,
        and a literal that is not a finite number, text, a boolean or an
        error (an ``int`` is taken as the equal float).
        """
        sheet = self.workspace.resolve_sheet(addr)
        if sheet is None:
            raise KeyError(f"no sheet at {addr!r}")
        existing = sheet.cell(addr.row, addr.column)
        if existing is not None and isinstance(existing.content, TableBody):
            raise tables.TableIntegrityError(f"{addr!r} is part of a data table and cannot be edited")
        if isinstance(content, TableBody):
            raise ValueError("table body cells are created by table declarations only")
        if isinstance(content, Literal):
            content = _checked_literal(addr, content)
        if isinstance(content, Formula) and content.template is None:
            made = formula.shared_formula(content.source, addr, self.workspace.templates)
            if not formula.same_tree(made.ast, content.ast):  # derives made's tree, for this check only
                raise ValueError(f"{addr!r}: source {content.source!r} does not parse to the AST given")
            content = made
        was_formula = existing is not None and isinstance(existing.content, Formula)
        sheet.set_content(addr.row, addr.column, content)
        self.graph.remove_node(addr)
        if isinstance(content, Formula):
            precedents, volatile = self._node_edges(content, self._name_targets())
            self.graph.set_node(addr, precedents, volatile)
        newly_dirty = {addr} | self.graph.dependents_closure({addr})
        self.dirty |= newly_dirty
        if was_formula or isinstance(content, Formula):
            self._plans.clear()  # plans hold graph edges and formula cells only
        return newly_dirty

    def set_literal(self, addr: CellAddress, value) -> set:
        return self.set_cell(addr, None if value is None else Literal(value))

    def set_formula(self, addr: CellAddress, source: str) -> set:
        if source.startswith("="):
            source = source[1:]
        return self.set_cell(addr, formula.shared_formula(source, addr, self.workspace.templates))

    def clear_cell(self, addr: CellAddress) -> set:
        return self.set_cell(addr, None)

    def declare_table(self, region: RangeRef, orientation: str, input_cell: CellAddress):
        """Declare a data table on the live workspace (see tables module)."""
        table = tables.declare_table(self.workspace, region, orientation, input_cell)
        self._plans.clear()
        return table

    # -- recalculation -----------------------------------------------------------

    def full_recalc(self, rng: random.Random | None = None) -> EvalStats:
        """Recalculate the whole workspace in one :meth:`walk` (with
        ``table_recalc=auto`` through :func:`tables.schedule_tables`, running
        every table); returns evaluation statistics. *rng*, when given,
        randomizes topological tie-breaking; final values must not depend on it.
        """
        stats = EvalStats()
        t0 = time.perf_counter()
        needs = {a for a in self.dirty if a in self.graph.precedents} | self.graph.volatile
        if self.workspace.config.table_recalc == "auto":
            tables.schedule_tables(self, stats, needs, rng)
        else:
            self.walk(needs, (), stats, rng)
        self.dirty.clear()
        stats.wall_time = time.perf_counter() - t0
        return stats

    def recalc_tables(self) -> EvalStats:
        """Explicitly evaluate all data tables (manual-mode trigger).

        It runs on top of a :meth:`full_recalc` and does not evaluate dirty
        cells itself: its :meth:`walk` runs every table, where each pass
        re-runs only the table's plan (see :meth:`dependents_plan`), and
        re-evaluates a formula outside every plan only once a table body it
        reads has changed.
        """
        stats = EvalStats()
        t0 = time.perf_counter()
        tables.schedule_tables(self, stats, set())
        stats.wall_time = time.perf_counter() - t0
        return stats

    def get_value(self, addr: CellAddress):
        return self.workspace.value(addr)

    def resolve_cycles(self) -> dict:
        """Recalculate, then report the final value of every cell on a cycle,
        a table on one standing for its body cells."""
        self.full_recalc()
        comps, edges = self.components([*self.graph.precedents, *self.workspace.tables])
        cyclic = [n for comp in comps if self._is_cyclic(comp, edges) for n in comp]
        cells = [a for n in cyclic for a in ((n,) if isinstance(n, CellAddress) else n.body_cells())]
        return {a: self.workspace.value(a) for a in cells}

    # -- internals ----------------------------------------------------------------

    def _is_cyclic(self, comp: list, edges: dict) -> bool:
        return len(comp) > 1 or comp[0] in edges.get(comp[0], ())

    def components(self, seeds: Iterable, rng: random.Random | None = None) -> tuple:
        """The order one recalculation walks, as ``(components, edges)``: the
        nodes are *seeds* (formula cells and tables) and all they reach
        through dependents, a table reaching the dependents of its body;
        each node's edges are what it reads. A cell reads its precedents, a
        body cell standing for its table; a table reads its result and
        argument cells and its plan's precedents outside the plan, never its
        input cell. What a node reads comes first (:meth:`_ordered_components`).
        """
        g = self.graph
        nodes = set(seeds)
        stack = list(nodes)
        edges: dict = {}
        while stack:
            node = stack.pop()
            if isinstance(node, tables.DataTableRegion):
                self.dependents_plan(node)  # keeps the table's edges and its readers' with its plan
                _, edges[node], reached = self._plans[node.table_id]
                edges.update(reached)
            else:
                edges.setdefault(node, g.precedents[node])  # a reader's are set by its table
                reached = g.dependents.get(node, ())
            for d in reached:
                if d not in nodes:
                    nodes.add(d)
                    stack.append(d)
        return self._ordered_components(nodes, rng, edges), edges

    def walk(self, needs: set, calls: Iterable, stats: EvalStats, rng: random.Random | None = None) -> None:
        """Walk the :meth:`components` of *needs* and the tables *calls* once,
        in order: run every table, and each cell or cycle of cells that holds
        a cell in *needs*; a value that changes puts its dependents in
        *needs*."""
        comps, edges = self.components([*needs, *calls], rng)
        for comp in comps:
            node = comp[0]
            if self._is_cyclic(comp, edges):
                if needs.isdisjoint(comp) and all(isinstance(a, CellAddress) for a in comp):
                    continue
                changed = self._eval_cycle(comp, stats)
            elif isinstance(node, tables.DataTableRegion):
                changed = tables.evaluate_table(self, node, stats)
            elif node in needs:
                cell = self.workspace.cell(node)
                old = cell.cached
                self._eval_cell(node, cell, stats)
                changed = () if values_equal(old, cell.cached) else (node,)
            else:
                continue
            for addr in changed:
                needs.update(self.graph.dependents.get(addr, ()))

    def _eval_cell(self, addr: CellAddress, cell, stats: EvalStats) -> None:
        v = evaluate(self.workspace, addr, cell.content)
        if isinstance(v, Array):
            v = top_left(v)
        if v is None:
            v = 0.0  # a formula never yields blank
        cell.cached = v
        stats.cell_evaluations += 1

    def _eval_cycle(self, comp: list, stats: EvalStats) -> set:
        """Evaluate one strongly connected component of the order a walk takes.

        Without iterative calculation, or when it holds a table (a recursive
        call), every member cell and table body becomes ``#CYCLE!``; else
        members are swept in address order until no number moves by more
        than ``max_change`` or ``max_iterations`` is reached.
        """
        cfg = self.workspace.config
        bodies = [a for t in comp if isinstance(t, tables.DataTableRegion) for a in t.body_cells()]
        addrs = sorted([a for a in comp if isinstance(a, CellAddress)] + bodies, key=lambda a: a.sort_key)
        cells = [(a, self.workspace.cell(a)) for a in addrs]
        before = {a: c.cached for a, c in cells}
        if bodies or not cfg.iterative:
            for _, cell in cells:
                cell.cached = Error.CYCLE
        else:
            for _ in range(cfg.max_iterations):
                worst = 0.0
                for addr, cell in cells:
                    old = cell.cached
                    self._eval_cell(addr, cell, stats)
                    new = cell.cached
                    if isinstance(old, float) and isinstance(new, float):
                        delta = abs(new - old)
                    else:
                        delta = 0.0 if values_equal(old, new) else float("inf")
                    if delta > worst:
                        worst = delta
                if worst <= cfg.max_change:
                    break
        return {a for a, c in cells if not values_equal(before[a], c.cached)}

    def _ordered_components(
        self, nodes: set, rng: random.Random | None = None, edges: dict | None = None
    ) -> list:
        """Strongly connected components of *nodes* under *edges* (the
        graph's precedents by default), listed so that precedents come
        before dependents. Deterministic by ``sort_key`` unless *rng*
        shuffles the (value-irrelevant) tie-breaking: the root order and
        each node's precedents. Tarjan's algorithm emits a component only
        after every component it reads, whatever order it visits them in."""
        edges = self.graph.precedents if edges is None else edges
        order = sorted(nodes, key=lambda a: a.sort_key)
        if rng is not None:
            rng.shuffle(order)
        index: dict = {}  # a node's visit number; len(nodes) once its component is out
        low: dict = {}
        stack: list = []
        work: list = []  # (node, iterator over its unvisited reads), depth first
        comps: list[list] = []
        done = len(nodes)

        def visit(a):
            index[a] = low[a] = len(index)
            stack.append(a)
            out = [p for p in edges.get(a, ()) if p in nodes]
            if rng is not None:
                rng.shuffle(out)
            work.append((a, iter(out)))

        for root in order:
            if root in index:
                continue
            visit(root)
            while work:
                node, it = work[-1]
                for nxt in it:
                    if nxt not in index:
                        visit(nxt)
                        break
                    if index[nxt] < low[node]:
                        low[node] = index[nxt]
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        comp = []
                        while not comp or comp[-1] is not node:
                            comp.append(stack.pop())
                            index[comp[-1]] = done
                        comps.append(comp)
        return comps

    # -- data-table support ---------------------------------------------------------

    def dependents_plan(self, table) -> list:
        """Cached evaluation plan for one data table: its function body.

        The plan holds the formula cells that lie between the table's input
        cell and its result formulas, i.e. the results and their precedents
        that the input cell or a volatile one among them reaches,
        topologically ordered; table-body cells hold no formulas and never
        appear. Every other cell the passes read, another table's body
        included, is up to date before the table runs (see
        :meth:`components`), so a result the plan does not hold keeps its
        value. The plan is built by a reverse walk from the result formulas,
        so its cost is the size of the body, not of the workbook around it.
        The one exception: with iterative calculation on and a cycle among
        the input cell's dependents, the plan covers every dependent, so a
        self-referential counter observes each pass; that check is made
        once per input cell.

        A plan, and the edges kept with it (see :meth:`components`), depend
        only on graph edges and on which cells hold formulas: they are dropped
        when a formula is entered or replaced and when a table is declared,
        not on literal edits.
        """
        kept = self._plans.get(table.table_id)
        if kept is not None:
            return kept[0]
        g = self.graph
        body = {a for a in table.results if a in g.precedents}
        inner: dict = {}  # cell -> its dependents inside the body
        stack = list(body)
        while stack:
            a = stack.pop()
            for p in g.precedents[a]:
                inner.setdefault(p, []).append(a)
                if p not in body and p in g.precedents:
                    body.add(p)
                    stack.append(p)
        nodes = body & g.volatile
        stack = [table.input_cell, *nodes]
        while stack:
            for d in inner.get(stack.pop(), ()):
                if d not in nodes:
                    nodes.add(d)
                    stack.append(d)
        if self.workspace.config.iterative:  # is there a cycle among the input's dependents?
            forward = self._plans.get(table.input_cell)  # found once per input cell
            if forward is None:
                forward = g.dependents_closure({table.input_cell})
                if not any(self._is_cyclic(c, g.precedents) for c in self._ordered_components(forward)):
                    forward = set()
                self._plans[table.input_cell] = forward
            nodes |= forward
        nodes.discard(table.input_cell)
        plan = []
        for comp in self._ordered_components(nodes):
            if self._is_cyclic(comp, self.graph.precedents):
                plan.append((None, comp))
            else:
                addr = comp[0]
                plan.append((addr, self.workspace.cell(addr)))
        outside = {p for a in nodes for p in g.precedents[a]} - nodes
        reads = {self._node(p) for p in (*table.results, *table.arguments, *outside)} - {table.input_cell}
        edges = {n for n in reads if n in g.precedents or isinstance(n, tables.DataTableRegion)}
        readers = {d for row in table.grid for a in row for d in g.dependents.get(a, ())}
        reader_edges = {d: {self._node(p) for p in g.precedents[d]} for d in readers}
        self._plans[table.table_id] = (plan, edges, reader_edges)
        return plan

    def _node(self, addr: CellAddress):
        """What an edge to *addr* points at: a table body cell's table, else the cell."""
        table = self.workspace.table_at(addr)
        return table if table is not None and table.is_body_cell(addr) else addr

    def run_plan(self, plan: list, stats: EvalStats) -> None:
        for head, payload in plan:
            if head is None:
                self._eval_cycle(payload, stats)
            else:
                self._eval_cell(head, payload, stats)
