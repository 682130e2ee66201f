"""Dependency graph, dirty propagation, and topological recalculation.

Recalculation is strictly single-threaded and deterministic: ties in the
topological order are broken by address, cycles are condensed and either
poisoned with ``#CYCLE!`` or iterated to a bounded fixed point, and two
consecutive recalculations of an unchanged workspace produce identical
grids.

A recalculation is one walk (:meth:`Engine.walk`) of one order, made by
:meth:`Engine.components`: the dirty and volatile formula cells, with
``table_recalc=auto`` every data table (see :mod:`gridcalc.tables`), and all
they reach through dependents, condensed into strongly connected components
and listed so that what a node reads comes first. The order of the tables
alone is kept with their plans and reused while the dirty and volatile cells
lie inside it; any other order is built for its walk. Each cell or cycle of
cells runs when a cell of it needs it, and every table as one call
(:meth:`Engine.evaluate_table`), each pass running its plan
(:meth:`Engine.dependents_plan`). A cycle through a table is a recursive
call: its cells and table bodies become ``#CYCLE!``.

The graph, the dirty cells, a walk's needs, the orders and the plans key a
cell by its address's ``sort_key``, the casefolded tuple ``(workbook, sheet,
row, column)``, so every set and dict operation on them hashes in C; a table
node stays its :class:`gridcalc.tables.DataTableRegion`. The engine makes
no address: a formula knows the cell it was made in (``Formula.cell``), and
``DependencyGraph.cells`` maps the key of each formula cell to the sheet's
own :class:`Cell`, whose formula is bound (:func:`bind`) and whose address
:meth:`Engine.set_cell` returns.

A plan is bound once, when it is built: each of its cells outside a cycle
is kept with its compiled function (:func:`bind`), so a pass
(:meth:`Engine.run_plan`) calls each function on its cell's formula and
binds nothing. A cell the walk evaluates outside a plan, and a cycle's, is
bound where it runs.

Formulas are compiled, not interpreted. Each formula shape
(:class:`gridcalc.formula.Template`) is compiled once, when a formula of it
is first bound: evaluated, or held by a plan being built
(:func:`compile_template`), to the source of one Python function of a
formula, one statement per node, each writing a temporary; a workspace
keeps the function of each template while the template lives
(``Workspace.compiled``) and the code object of each source text
(``Workspace.codes``). Every formula of the shape is its argument: the
function reads the formula's own references (``Formula.refs``) and cell
(``Formula.cell``). Constants, builtins, coercers, name keys, sheets and
the workspace reach the function through its namespace, never as text.
IF is an ``if`` statement: only the branch taken runs. Special and
reference builtins get the formula and each argument as emitted functions
of the formula, its value and, if read, its reference
(:class:`gridcalc.functions.Arg`); a value builtin gets only its
arguments' values. A node nested deeper than :data:`MAX_DEPTH` gives
``#VALUE!``, only if it is evaluated, and so the limit bounds the emitted
nesting too.

A template is bound to the workspace whose ``templates`` made it. A shape
gives the reference in each of its places one sheet, resolved once, when it
compiles: a static reference reads that sheet's ``cells`` dict directly, a
cell as ``cells.get(key, BLANK).cached`` and a range through
:func:`range_values`. Sheets are never removed, nor their ``cells`` dicts
replaced, so the binding holds. :func:`ref_value` resolves the sheet on
every read: for defined names, INDIRECT and OFFSET, and for a sheet that did
not exist when the template compiled, which reads ``#REF!`` until it does.

A scalar builtin or operator runs in line when no array and no raw error
arrives, else it lifts (:func:`gridcalc.functions.array_lift`). Its kinds
(``Builtin.kinds``) give one coercer per argument; a constant in a typed
position is coerced at compile time, once, where that succeeds. One that
fails is left to run time, where raw errors come first, then coercion
errors, each in argument order: ``MID("ab","x",#N/A)`` stays ``#N/A``.

One analysis finds the element kernels, once per ``(node, depth)``: a
``{...}`` constant and the scalar calls around it, innermost first, each a
link whose other operands are held. Each link is one comprehension over
the elements the one below it gave: MID at the constant's positions, for
a constant count, takes slices made once (``functions.mid_slices``), and a
one-operand link such as VALUE looks a one-digit text up in a table of its
ten values (``digit_table``). The guards: a held argument that arrives as
an array (a range, a name, OFFSET or INDIRECT) sends the values already
read through ``array_lift``, link by link, as nested calls would; one that
is or gives an error sends its link to the one-array rule
(:func:`gridcalc.functions.lift_elements`). A SUMPRODUCT of kernels of one
shape reduces their element lists, and an exact MATCH in a one-row or
one-column constant looks the needle up in an index built at compile time.

Volatility has one source: ``Builtin.volatile`` in the function registry,
read once per formula shape, when its :class:`gridcalc.formula.Template`
scans its AST (``formula._scan``).
"""

from __future__ import annotations

import builtins
import math
import random
import time
import weakref
from dataclasses import dataclass
from itertools import chain
from types import CodeType, FunctionType
from typing import Iterable

from . import formula, functions, tables
from .model import (
    BLANK,
    Array,
    Cell,
    CellAddress,
    Content,
    Error,
    Formula,
    Literal,
    RangeRef,
    TableBody,
    Workspace,
    to_boolean,
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
    as dependent edges and a set of always-recalculated volatile cells.

    A cell is keyed by its address's ``sort_key``, the casefolded tuple
    ``(workbook, sheet, row, column)``, so every set and dict operation on
    the graph hashes in C. ``cells`` maps the key of each formula cell the
    graph holds to the sheet's own :class:`Cell`: the same object while the
    cell holds a formula, whose ``content.cell`` is its address."""

    def __init__(self) -> None:
        self.precedents: dict[tuple, frozenset] = {}
        self.dependents: dict[tuple, set] = {}
        self.volatile: set[tuple] = set()
        self.cells: dict[tuple, Cell] = {}

    def add_node(self, cell: Cell, precedents: frozenset, volatile: bool) -> None:
        """Add formula *cell*, which the graph does not hold, with the keys
        of its *precedents*."""
        key = cell.content.cell.sort_key
        self.cells[key] = cell
        self.precedents[key] = precedents
        for p in precedents:
            self.dependents.setdefault(p, set()).add(key)
        if volatile:
            self.volatile.add(key)

    def remove_node(self, key: tuple) -> None:
        self.cells.pop(key, None)
        for p in self.precedents.pop(key, ()):
            deps = self.dependents[p]  # the exact transpose holds key there
            deps.discard(key)
            if not deps:
                del self.dependents[p]
        self.volatile.discard(key)

    def dependents_closure(self, seeds: Iterable[tuple]) -> set:
        """The keys of all cells transitively depending on the keys *seeds*
        (a seed only if it is on a cycle)."""
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


def bind(workspace: Workspace, f: Formula):
    """The function that evaluates formula *f* in its own cell
    (``Formula.cell``): its template's, compiled on first use.
    ``function(f)`` is *f*'s value."""
    return workspace.compiled.get(f.template) or compile_template(f.template, workspace)


def range_values(cells: dict, target: RangeRef) -> Array:
    """The cached values of range *target*, read from *cells*, its sheet's."""
    tl, br = target.top_left, target.bottom_right
    columns = range(tl.column, br.column + 1)
    return Array([[cells.get((r, c), BLANK).cached for c in columns] for r in range(tl.row, br.row + 1)])


def ref_value(workspace: Workspace, target):
    """Dereference an address (cached value) or range (array of values),
    resolving its sheet on this read, ``#REF!`` if there is none: the read
    of defined names, INDIRECT, OFFSET and a reference whose sheet did not
    exist when its template compiled."""
    sheet = workspace.resolve_sheet(target if type(target) is CellAddress else target.top_left)
    if sheet is None:
        return Error.REF
    if type(target) is CellAddress:
        return sheet.value(target.row, target.column)
    return range_values(sheet.cells, target)


def compile_template(template: formula.Template, workspace: Workspace):
    """Compile *template*'s AST once, for *workspace*, whose ``templates``
    made it, to a Python function of a formula of *template*, kept in the
    workspace's ``compiled`` while *template* lives: its source is emitted
    (:class:`_Compiler`) and compiled, unless the workspace's ``codes``
    (source text -> code object) hold that text already. Each reference's
    sheet is resolved here, once, and *workspace* bound for its defined
    names and for the reads that resolve their sheet (:func:`ref_value`).
    The root is one level deep, each argument or operand one more, but an
    argument of a special or reference builtin read as a reference costs no
    level."""
    fn = workspace.compiled[template] = _Compiler(template, workspace).function(template.ast, 1)
    return fn


class _Unit:
    """One emitted function's source lines and namespace, which names each
    constant (``k0``, ...); each node's value is a temporary (``v1``, ...)."""

    def __init__(self) -> None:
        self.lines = ["def formula(f):"]
        self.indent = 1
        self.namespace = dict(_NAMESPACE)
        self.temps = 0

    def const(self, v) -> str:
        name = f"k{len(self.namespace) - len(_NAMESPACE)}"
        self.namespace[name] = v
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"v{self.temps}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def assign(self, expr: str, out: str | None = None) -> str:
        """The temporary *out* (a new one by default), set to *expr*."""
        out = out or self.temp()
        self.line(f"{out} = {expr}")
        return out

    def choose(self, condition: str, expr: str, otherwise: str, out: str | None = None) -> str:
        """A temporary set to *expr* if *condition* (none: never) holds, else to *otherwise*."""
        return self.assign(f"{expr} if {condition} else {otherwise}" if condition else otherwise, out)


def _any(test: str, exprs: list) -> str:
    return " or ".join(test.format(e) for e in exprs)


class _Compiler:
    """One compilation of a template: its references' places and the cells
    of each one's sheet (None if there is none), each call's arguments and
    each node's element kernel, by ``(id of the node, its depth)``, and the
    code objects to share."""

    def __init__(self, template: formula.Template, workspace: Workspace) -> None:
        self.positions = {id(node): i for i, node in enumerate(template.nodes)}
        sheets = [workspace.resolve_sheet(r if type(r) is CellAddress else r.top_left) for r in template.refs]
        self.cells = [None if sheet is None else sheet.cells for sheet in sheets]
        self.codes = workspace.codes
        self.workspace = weakref.proxy(workspace)  # it keeps the functions: no reference cycle
        self.argument_lists: dict = {}
        self.kernels: dict = {}

    def function(self, node, depth: int, reference: bool = False):
        """The function of a formula that gives *node*'s value *depth* deep,
        or with *reference* its reference; made from its code object, so
        that its namespace does not hold it. Its namespace's ``workspace`` is
        a weak proxy of the workspace, which keeps the function, and no cell
        holds the function either, so a dropped workspace is freed by
        reference counting."""
        u = _Unit()
        result = self.reference(u, node, depth) if reference else self.value(u, node, depth)
        u.lines.append(f"    return {result}\n")
        source = "\n".join(u.lines)
        code = self.codes.get(source)
        if code is None:  # the function's code is a constant of the module's
            module = compile(source, "<formula>", "exec", dont_inherit=True)
            code = self.codes[source] = next(c for c in module.co_consts if type(c) is CodeType)
        u.namespace["workspace"] = self.workspace
        return FunctionType(code, u.namespace)

    def value(self, u: _Unit, node, depth: int) -> str:
        """Emit *node*, *depth* deep, into *u*: the name of its value."""
        if node is formula.OMITTED:
            return u.const(None)
        if depth > MAX_DEPTH:
            return u.const(Error.VALUE)
        if isinstance(node, formula.Literal):
            return u.const(node.value)
        if isinstance(node, formula.Ref):
            if isinstance(node.target, str):
                return self.read(u, self.reference(u, node, depth))
            i = self.positions[id(node)]
            if self.cells[i] is None:
                return u.assign(f"ref_value(workspace, f.refs[{i}])")
            k = u.const(self.cells[i])
            if type(node.target) is RangeRef:
                return u.assign(f"range_values({k}, f.refs[{i}])")
            return u.assign(f"{k}.get((f.refs[{i}].row, f.refs[{i}].column), BLANK).cached")
        if isinstance(node, formula.Unary) and node.op == "+":
            return self.value(u, node.operand, depth + 1)
        link = _scalar_link(node)
        if link is not None:
            found = self.kernel(node, depth)
            if found is not None:
                return self.elements(u, *found, found[0].n_cols)
            plans, coercers = self.operands(*link, depth)
            return self.lifted(u, link[0].fn, coercers, [self.operand(u, plan) for plan in plans])
        if isinstance(node, formula.Call):
            spec = _builtin(node)
            if not isinstance(spec, functions.Builtin):
                return u.const(spec)
            if spec.name == "IF":
                return self.branch(u, node.args, depth)
            if spec.kind == "special":
                return u.assign(f"{u.const(spec.fn)}(f, {u.const(self.arguments(node, spec, depth))})")
            if spec.kind == "reference":
                return self.read(u, self.reference(u, node, depth))
            return self.specialised(u, node, spec, depth) or self.strict(u, spec.fn, node.args, depth)
        raise TypeError(f"cannot compile {node!r}")

    def reference(self, u: _Unit, node, depth: int) -> str:
        """Emit the reference *node* denotes, read by a builtin *depth* deep:
        an address or range, an error, or None if it denotes none."""
        if isinstance(node, formula.Ref):
            if isinstance(node.target, str):
                key, missing = u.const(node.target.casefold()), u.const(_NO_NAME)
                return u.assign(f"workspace.defined_names.get({key}, {missing})[1]")
            return u.assign(f"f.refs[{self.positions[id(node)]}]")
        if isinstance(node, formula.Call):
            spec = _builtin(node)
            if isinstance(spec, functions.Builtin) and spec.kind == "reference":
                return u.assign(f"{u.const(spec.fn)}(f, {u.const(self.arguments(node, spec, depth))})")
        return u.const(None)

    def read(self, u: _Unit, ref: str) -> str:
        return u.choose(f"type({ref}) is Error", ref, f"ref_value(workspace, {ref})")

    def arguments(self, node, spec: functions.Builtin, depth: int) -> tuple:
        """Call *node*'s arguments as :class:`functions.Arg` of *spec*; kept,
        so that a chain of reference calls compiles in polynomial time."""
        key = (id(node), depth)
        args = self.argument_lists.get(key)
        if args is None:
            function, reads = self.function, spec.reads_reference
            args = self.argument_lists[key] = tuple(
                a if a is formula.OMITTED else functions.Arg(function(a, depth + 1), reads and function(a, depth, True))
                for a in node.args
            )
        return args

    def operands(self, spec: functions.Builtin, args, depth: int, skip=None) -> tuple:
        """The arguments of scalar *spec*, *depth* deep, but the one at
        *skip*, as ``(constant or _NOT_CONSTANT, node, depth)``, and each
        one's coercer. A constant is coerced here, once, where that succeeds,
        and its coercer dropped; a failing one must still lose to a raw
        error in a later argument, so it is coerced when it is read."""
        plans, coercers = [], list(spec.coercers[: len(args)])
        for i, a in enumerate(args):
            if i != skip:
                constant = _NOT_CONSTANT
                if coercers[i] is not None and depth < MAX_DEPTH:
                    constant = _coerced_constant(a, coercers[i])
                if constant is not _NOT_CONSTANT:
                    coercers[i] = None
                plans.append((constant, a, depth + 1))
        return plans, tuple(coercers)

    def operand(self, u: _Unit, plan: tuple) -> str:
        constant, node, depth = plan
        return self.value(u, node, depth) if constant is _NOT_CONSTANT else u.const(constant)

    def lifted(self, u: _Unit, fn, coercers: tuple, args: list) -> str:
        """A scalar call of *fn*: with no array and no raw error among
        *args*, each coerced and, if none fails, *fn* run in line; else
        :func:`functions.array_lift`, which orders the errors."""
        f = u.const(fn)
        lift = f"functions.array_lift({f}, {u.const(coercers)}, ({', '.join(args)},))"
        known = [type(u.namespace[a]) for a in args if a in u.namespace]
        if Array in known or Error in known:
            return u.assign(lift)
        tests, values = [f"type({a}) in lifts" for a in args if a not in u.namespace], []
        for a, coerce in zip(args, coercers):
            if coerce is not None:
                c = u.temp()
                tests.append(f"type({c} := {u.const(coerce)}({a})) is Error")
                a = c
            values.append(a)
        return u.choose(" or ".join(tests), lift, f"{f}({', '.join(values)})")

    def strict(self, u: _Unit, fn, args, depth: int) -> str:
        """A value builtin's call: the first error among its arguments'
        values, else *fn* applied to them."""
        values, unknown = [self.value(u, a, depth + 1) for a in args], []
        for v in values:
            if v not in u.namespace:
                unknown.append(v)
            elif type(u.namespace[v]) is Error:
                call = v
                break
        else:
            call = f"{u.const(fn)}([{', '.join(values)}])"
        first = f"next(x for x in ({', '.join(unknown)},) if type(x) is Error)"
        return u.choose(_any("type({}) is Error", unknown), first, call)

    def branch(self, u: _Unit, args, depth: int) -> str:
        """IF in line: its condition, then only the branch taken."""
        c = self.value(u, args[0], depth + 1)
        test = u.assign(f"{c} if type({c}) is bool else to_boolean(top_left({c}))")
        out = u.temp()
        u.line(f"if type({test}) is Error:")
        u.line(f"    {out} = {test}")
        for header, i in ((f"elif {test}:", 1), ("else:", 2)):
            u.line(header)
            u.indent += 1
            if i == len(args):
                v = u.const(False)
            else:
                v = u.const(0.0) if args[i] is formula.OMITTED else self.value(u, args[i], depth + 1)
            u.line(f"{out} = {v}")
            u.indent -= 1
        return out

    def kernel(self, node, depth: int):
        """The element kernel *node*, *depth* deep, is, or None: its
        ``{...}`` constant and its links, innermost first, each a scalar
        call's ``(fn, coercers, operands, position of its array source)``.
        A ``{...}`` literal is a kernel with no links, ``+x`` is *x*'s, and
        a scalar call whose operands hold exactly one kernel is that kernel
        and one more link. The constant is coerced here, once, for the
        innermost link where that succeeds."""
        if depth > MAX_DEPTH:
            return None
        key = (id(node), depth)
        if key in self.kernels:
            return self.kernels[key]
        found, link = None, _scalar_link(node)
        if isinstance(node, formula.Literal) and type(node.value) is Array:
            found = node.value, ()
        elif isinstance(node, formula.Unary) and node.op == "+":
            found = self.kernel(node.operand, depth + 1)
        elif link is not None:
            spec, args = link
            inner = [i for i, a in enumerate(args) if self.kernel(a, depth + 1) is not None]
            if len(inner) == 1:
                (i,) = inner
                constant, links = self.kernel(args[i], depth + 1)
                plans, coercers = self.operands(spec, args, depth, i)
                if not links and coercers[i] is not None:
                    coerced = _coerced_array(constant, coercers[i])
                    if coerced is not _NOT_CONSTANT:
                        constant, coercers = coerced, (*coercers[:i], None, *coercers[i + 1 :])
                found = constant, (*links, (spec.fn, coercers, plans, i))
        self.kernels[key] = found
        return found

    def elements(self, u: _Unit, constant: Array, links: tuple, n_cols: int | None = None) -> str:
        """Emit an element kernel: each link's held arguments, read once,
        then each link (:meth:`link`), for a flat list in row order, or with
        *n_cols* the array it makes; but if a held argument is an array,
        the array :func:`_lifted_links` makes of the values read."""
        flat = tuple(chain.from_iterable(constant.rows))
        out = u.const(flat)
        if not links:
            return out
        helds = [[self.operand(u, plan) for plan in plans] for _, _, plans, _ in links]
        arrays = [h for held in helds for h in held if h not in u.namespace]
        result = u.temp()
        if arrays:
            read = ", ".join(f"[{', '.join(held)}]" for held in helds)
            u.line(f"if {_any('type({}) is Array', arrays)}:")
            u.line(f"    {result} = lifted_links({u.const(constant)}, {u.const(links)}, [{read}])")
            u.line("else:")
            u.indent += 1
        clean = Error not in map(type, flat)  # no error element to pass by
        for i, ((fn, coercers, _, k), held) in enumerate(zip(links, helds)):
            last = i == len(links) - 1 and n_cols is None
            out = self.link(u, fn, coercers, held, k, out, clean and coercers[k] is None, result if last else None)
            clean = False
        if n_cols is not None:
            u.line(f"{result} = shaped({out}, {n_cols})")
        u.indent -= bool(arrays)
        return result

    def link(self, u: _Unit, fn, coercers: tuple, held: list, k: int, elements: str, clean: bool, out=None) -> str:
        """One link of a kernel, into *out*: *fn* over *elements*, at *k*, a
        raw error element (unless *clean*) staying itself, and *held*
        coerced once; if one is or gives an error, the one-array rule
        (:func:`functions.lift_elements`); MID takes constant slices if it
        can, and one operand over a link's values first reads its ``digit_table``."""
        f, known = u.const(fn), u.namespace.get
        slow = f"lift_elements({f}, {u.const(coercers)}, [{', '.join(held)}], {k}, {elements})"
        checks, args = [], []
        for i, h in enumerate(held):
            coerce = coercers[i + (i >= k)]
            if coerce is not None:
                h = u.assign(f"{u.const(coerce)}({h})")
            elif type(known(h)) is Error:
                return u.assign(slow, out)
            if h not in u.namespace:
                checks.append(h)
            args.append(h)
        call = f"{f}({', '.join([*args[:k], 'e', *args[k:]])})"
        body = call if clean else f"e if type(e) is Error else {call}"
        source = elements if coercers[k] is None else f"map({u.const(coercers[k])}, {elements})"
        if fn is functions._fn_mid and k == 1 and (slices := functions.mid_slices(known(elements), known(args[1]))):
            body, source = f"{args[0]}[e]", u.const(slices)
        elif not held and elements not in u.namespace and (table := functions.digit_table(fn, coercers[0])):
            body = "{0}[e] if e in {0} else {1}".format(u.const(table), body)
        return u.choose(_any("type({}) is Error", checks), slow, f"[{body} for e in {source}]", out)

    def specialised(self, u: _Unit, node, spec: functions.Builtin, depth: int):
        """Emit value call *node* as a reduction over constants, or give
        None. SUMPRODUCT of kernels of one shape: :func:`functions.sum_of_products`
        of their element lists, unless one lifted to an array (then the
        builtin checks the shapes). An exact MATCH in a one-row or
        one-column constant: the needle's key looked up in its index."""
        args = node.args
        if spec.fn is functions._fn_sumproduct:
            found = [self.kernel(a, depth + 1) for a in args]
            if None not in found and len({(c.n_rows, c.n_cols) for c, _ in found}) == 1:
                n_cols = found[0][0].n_cols
                columns = [self.elements(u, *kernel) for kernel in found]
                read = [c for c in columns if c not in u.namespace]
                arrays = ", ".join(f"{c} if type({c}) is Array else shaped({c}, {n_cols})" for c in columns)
                sumproduct = f"sumproduct([{arrays}])"
                return u.choose(_any("type({}) is Array", read), sumproduct, f"sum_of_products([{', '.join(columns)}])")
        elif spec.fn is functions._fn_match and len(args) == 3 and depth < MAX_DEPTH:
            lookup, mode = _literal(args[1]), _literal(args[2])
            exact = mode is not _NOT_CONSTANT and to_integer(top_left(mode)) == 0
            if exact and type(lookup) is Array and min(lookup.n_rows, lookup.n_cols) == 1:
                keys = lookup.rows[0] if lookup.n_rows == 1 else [row[0] for row in lookup.rows]
                n = self.value(u, args[0], depth + 1)
                index = u.const(functions.match_index(keys))
                v = u.assign(f"{n}.rows[0][0] if type({n}) is Array else {n}")
                return u.choose(f"type({v}) is Error", v, f"{index}.get(match_key({v}), {u.const(Error.NA)})")
        return None


def _builtin(node):
    """The builtin *node* calls, or the error it gives: ``#NAME?`` for an
    unknown name, ``#VALUE!`` for a wrong number of arguments."""
    spec = functions.REGISTRY.get(node.name.upper())
    if spec is None:
        return Error.NAME
    if not spec.min_args <= len(node.args) <= spec.max_args:
        return Error.VALUE
    return spec


_NOT_CONSTANT = object()
_NO_NAME = (None, Error.NAME)  # what an undefined name's entry reads as


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


def _lifted_links(constant: Array, links: tuple, helds: list):
    """The kernel's chain as nested lifted calls: each link's held values
    and the array the link below it gives, through :func:`functions.array_lift`."""
    v = constant
    for (fn, coercers, _, k), held in zip(links, helds):
        v = functions.array_lift(fn, coercers, [*held[:k], v, *held[k:]])
    return v


# What every emitted function reads besides its constants and ``workspace``
# (set for each, see _Compiler.function); ``lifts`` are the types a scalar
# call lifts over. ``array_lift`` is read through its module at run time, so
# that a patched one is called.
_NAMESPACE = dict(
    __builtins__=builtins, functions=functions, lifts=frozenset((Array, Error)), Array=Array, Error=Error,
    BLANK=BLANK, ref_value=ref_value, range_values=range_values, top_left=top_left, to_boolean=to_boolean,
    shaped=functions.shaped, lift_elements=functions.lift_elements, lifted_links=_lifted_links,
    sum_of_products=functions.sum_of_products, sumproduct=functions._fn_sumproduct, match_key=functions.match_key,
)


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
        self.dirty: set[tuple] = set(self.graph.precedents)  # cell keys, as the graph's
        # read in this module only. table id -> (dependents_plan, its cells
        # bound; its edges in components; its body readers' edges; the call
        # slots evaluate_table reads); with iterative calculation, input cell
        # key -> its dependents' keys if they hold a cycle; the tables a walk
        # is given, as a tuple -> their closure's order. Cells are graph keys
        # throughout; a plan takes each cell's Cell from graph.cells.
        self._plans: dict = {}

    # -- graph construction ---------------------------------------------------

    def _name_targets(self) -> dict:
        return {key: target for key, (_, target) in self.workspace.defined_names.items()}

    def _node_edges(self, content: Formula, names: dict) -> tuple[frozenset, bool]:
        """The keys of a formula's precedent cells, made once, and whether
        it is volatile."""
        template = content.template
        refs = content.refs
        if template.names:
            refs = [*refs, *[names[k] for k in map(str.casefold, template.names) if k in names]]
        keys = [r.sort_key for r in refs if type(r) is CellAddress]
        if len(keys) < len(refs):
            keys += [a.sort_key for r in refs if type(r) is RangeRef for a in r.cells()]
        return frozenset(keys), template.volatile

    def build_graph(self) -> DependencyGraph:
        """Construct the dependency graph from scratch.

        ``engine.graph == engine.build_graph()`` must hold after any edit;
        the incremental updates in :meth:`set_cell` preserve it. Edges come
        from each formula's ``refs`` and template, never from an AST.
        """
        g = DependencyGraph()
        names = self._name_targets()
        for wb in self.workspace.workbooks():
            for sheet in wb.sheets():
                for cell in sheet.cells.values():
                    if isinstance(cell.content, Formula):
                        g.add_node(cell, *self._node_edges(cell.content, names))
        return g

    # -- editing ----------------------------------------------------------------

    def set_cell(self, addr: CellAddress, content: Content) -> set:
        """Replace a cell's content and mark its dependents dirty.

        Returns the freshly dirtied cells as addresses: *addr* and every
        cell that depends on it. Of a formula only the source is
        kept: the formula is made again from it at *addr*, as
        :meth:`set_formula` makes it, so the cell reads what a dump of it
        loads to, wherever the formula given was made. Writing into a
        data-table body cell is rejected: body cells belong to their table.
        So is a literal that is not a finite number, text, a boolean or an
        error (an ``int`` is taken as the equal float).
        """
        return self._edit(addr, content.source if isinstance(content, Formula) else content)

    def set_literal(self, addr: CellAddress, value) -> set:
        return self.set_cell(addr, None if value is None else Literal(value))

    def set_formula(self, addr: CellAddress, source: str) -> set:
        return self._edit(addr, source[1:] if source.startswith("=") else source)

    def _edit(self, addr: CellAddress, content: Content | str) -> set:
        """:meth:`set_cell`, a formula given as its source (no leading ``=``),
        which is read at *addr* here, once."""
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
        elif isinstance(content, str):
            content = formula.shared_formula(content, addr, self.workspace.templates)
        was_formula = existing is not None and isinstance(existing.content, Formula)
        cell = sheet.set_content(addr.row, addr.column, content)
        key = addr.sort_key
        self.graph.remove_node(key)
        if isinstance(content, Formula):
            precedents, volatile = self._node_edges(content, self._name_targets())
            self.graph.add_node(cell, precedents, volatile)
        reached = self.graph.dependents_closure((key,))
        self.dirty.update(reached, (key,))
        if was_formula or isinstance(content, Formula):
            self._plans.clear()  # plans hold graph edges and formula cells only
        return {addr, *[self.graph.cells[k].content.cell for k in reached]}

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
        needs = (self.dirty & self.graph.precedents.keys()) | self.graph.volatile
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
        formulas = self.graph.cells
        cells = [a for n in cyclic for a in ((formulas[n].content.cell,) if type(n) is tuple else n.body_cells())]
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
        The edges' keys are the nodes. :meth:`walk` keeps the order of its
        tables alone, so a steady recalc builds none.
        """
        g = self.graph
        nodes = set(seeds)
        stack = list(nodes)
        edges: dict = {}
        while stack:
            node = stack.pop()
            if type(node) is not tuple:  # a table
                self.dependents_plan(node)  # keeps the table's edges and its readers' with its plan
                _, edges[node], reached, _ = self._plans[node.table_id]
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
        *needs*.

        The order of *calls* and all they reach is kept with the plans, keyed
        by *calls*, and reused while every cell in *needs* lies inside it: it
        is then the very order *needs* and *calls* would give. Any other
        order is built afresh and not kept, and so is every order *rng*
        shuffles. An edit outside the calls' closure costs the order of what
        it reaches, not of the first recalc's dirty cells."""
        calls = tuple(calls)
        order = self._plans.get(calls) if rng is None else None
        if order is None or not all(a in order[2] for a in needs):  # the edges' keys are the nodes
            comps, edges = self.components([*needs, *calls], rng)
            order = comps, [self._is_cyclic(comp, edges) for comp in comps], edges
            if rng is None and not needs:  # the order of the calls' own closure
                self._plans[calls] = order
        comps, cyclic, _ = order
        for comp, is_cycle in zip(comps, cyclic):
            node = comp[0]
            if is_cycle:
                if needs.isdisjoint(comp) and all(type(n) is tuple for n in comp):
                    continue
                changed = self._eval_cycle(comp, stats)
            elif type(node) is not tuple:  # a table
                changed = self.evaluate_table(node, stats)
            elif node in needs:
                cell = self.graph.cells[node]
                old = cell.cached
                self._eval_cell(bind(self.workspace, cell.content), cell, stats)
                changed = () if values_equal(old, cell.cached) else (node,)
            else:
                continue
            for key in changed:
                needs.update(self.graph.dependents.get(key, ()))

    def _eval_cell(self, fn, cell: Cell, stats: EvalStats) -> None:
        """Run *fn*, the function :func:`bind` gives *cell*'s formula, on it."""
        v = fn(cell.content)
        if isinstance(v, Array):
            v = top_left(v)
        cell.cached = 0.0 if v is None else v  # a formula never yields blank
        stats.cell_evaluations += 1

    def _eval_cycle(self, comp: list, stats: EvalStats) -> set:
        """Evaluate one strongly connected component of the order a walk takes.

        Without iterative calculation, or when it holds a table (a recursive
        call), every member cell and table body becomes ``#CYCLE!``; else
        members are swept in address order until no number moves by more
        than ``max_change`` or ``max_iterations`` is reached.
        """
        ws = self.workspace
        cfg = ws.config
        bodies = [(a.sort_key, ws.cell(a)) for t in comp if type(t) is not tuple for a in t.body_cells()]
        cells = sorted([(k, self.graph.cells[k]) for k in comp if type(k) is tuple] + bodies)  # keys are distinct
        before = [c.cached for _, c in cells]
        if bodies or not cfg.iterative:
            for _, cell in cells:
                cell.cached = Error.CYCLE
        else:
            bound = [(bind(ws, c.content), c) for _, c in cells]
            for _ in range(cfg.max_iterations):
                worst = 0.0
                for fn, cell in bound:
                    old = cell.cached
                    self._eval_cell(fn, cell, stats)
                    new = cell.cached
                    if isinstance(old, float) and isinstance(new, float):
                        worst = max(worst, abs(new - old))
                    elif not values_equal(old, new):
                        worst = math.inf
                if worst <= cfg.max_change:
                    break
        return {k for (k, c), old in zip(cells, before) if not values_equal(old, c.cached)}

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
        order = sorted(nodes, key=lambda n: n if type(n) is tuple else n.sort_key)
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
        appear. Each entry is bound here, once: a cell outside a cycle is
        ``(function, Cell)``, what :func:`bind` gives its formula and its
        cell, and a cycle is ``(None, component)``, which
        :meth:`_eval_cycle` runs. Every other cell the passes read, another
        table's body included, is up to date before the table runs (see
        :meth:`components`), so a result the plan does not hold keeps its
        value. The plan is built by a reverse walk from the result formulas,
        so its cost is the size of the body, not of the workbook around it.
        The one exception: with iterative calculation on and a cycle among
        the input cell's dependents, the plan covers every dependent, so a
        self-referential counter observes each pass; that check is made
        once per input cell.

        Kept with the plan are its call slots, which every call
        (:meth:`evaluate_table`) reads instead of finding them again: the
        cells of the table's sheet; the ``(row, column)`` keys of its input,
        argument and result cells; its body's ``(key, Cell)`` pairs by
        argument (a locked body keeps its ``Cell`` objects); the plan's
        ``Cell`` objects, a cycle's members included; and whether the plan
        holds a cycle.

        A plan, its bindings, and the edges and slots kept with it (see
        :meth:`components`), depend only on graph edges, on which cells hold
        which formulas and on the tables: they are dropped, with the orders
        :meth:`walk` keeps, when a formula is entered or replaced and when a
        table is declared, not on literal edits. A binding reads no value and
        no sheet of its own: a template binds its sheets when it compiles,
        and one missing then is resolved on every read (:func:`ref_value`).
        """
        kept = self._plans.get(table.table_id)
        if kept is not None:
            return kept[0]
        g = self.graph
        input_key = table.input_cell.sort_key
        body = {a.sort_key for a in table.results} & g.precedents.keys()
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
        stack = [input_key, *nodes]
        while stack:
            for d in inner.get(stack.pop(), ()):
                if d not in nodes:
                    nodes.add(d)
                    stack.append(d)
        if self.workspace.config.iterative:  # is there a cycle among the input's dependents?
            forward = self._plans.get(input_key)  # found once per input cell
            if forward is None:
                forward = g.dependents_closure((input_key,))
                if not any(self._is_cyclic(c, g.precedents) for c in self._ordered_components(forward)):
                    forward = set()
                self._plans[input_key] = forward
            nodes |= forward
        nodes.discard(input_key)
        plan, plan_cells = [], []  # its entries; its Cell objects, a cycle's included
        for comp in self._ordered_components(nodes):
            plan_cells += [g.cells[k] for k in comp]
            if self._is_cyclic(comp, g.precedents):
                plan.append((None, comp))
            else:
                plan.append((bind(self.workspace, plan_cells[-1].content), plan_cells[-1]))
        outside = {p for a in nodes for p in g.precedents[a]} - nodes
        reads = {self._node(p) for p in chain([a.sort_key for a in table.results + table.arguments], outside)}
        reads.discard(input_key)
        edges = {n for n in reads if type(n) is not tuple or n in g.precedents}
        readers = {d for row in table.grid for a in row for d in g.dependents.get(a.sort_key, ())}
        reader_edges = {d: {self._node(p) for p in g.precedents[d]} for d in readers}
        cells = self.workspace.resolve_sheet(table.input_cell).cells
        slots = (
            cells,
            input_key[2:],
            [a.sort_key[2:] for a in table.arguments],
            [a.sort_key[2:] for a in table.results],
            [[(a.sort_key, cells[a.sort_key[2:]]) for a in row] for row in table.grid],
            plan_cells, any(fn is None for fn, _ in plan),
        )
        self._plans[table.table_id] = (plan, edges, reader_edges, slots)
        return plan

    def _node(self, key: tuple):
        """What an edge to the cell keyed *key* points at: a table body
        cell's table, else the key."""
        table = self.workspace.table_index.get(key)
        tl = None if table is None else table.region.top_left
        return table if tl is not None and key[2] > tl.row and key[3] > tl.column else key

    def evaluate_table(self, table, stats: EvalStats) -> set:
        """Run the substitute/recompute/collect/restore cycle for one table.

        For each candidate value, in order: bind it to the input cell, as the
        cached value of one ``Cell`` kept for the call (the input's own, or one
        put in the sheet until the call ends), run the table's plan once
        (:meth:`run_plan` over :meth:`dependents_plan`: its function body
        only, each cell's compiled function, bound with the plan, called on
        its formula, all table bodies frozen), and copy each result's value
        into the matching body cell. Afterwards, on every exit path including an
        exception, the input cell and each plan cell get back their values
        from before the first pass, so nothing outside table bodies keeps any
        trace of the passes. Those values are what a run of the plan would
        give: every plan cell is up to date before its table starts (see
        :meth:`components`). A plan that holds a cycle runs once more instead,
        once every pass has completed: with iterative calculation on, a
        self-referential counter sees the restore as it saw each pass. If a
        pass raises, nothing is evaluated after it. Returns the keys of the
        body cells whose value changed.
        """
        plan = self.dependents_plan(table)
        cells, key, arguments, results, body, plan_cells, cyclic = self._plans[table.table_id][3]
        values = [cells.get(k, BLANK).cached for k in arguments]  # snapshot before any pass
        kept = [c.cached for c in plan_cells]  # put back unless a cyclic plan's passes all complete
        bound = cells.get(key)
        made = bound is None
        if made:
            bound = cells[key] = Cell(None)
        saved = bound.cached
        changed: set = set()
        try:
            for v, row in zip(values, body):
                bound.cached = v
                self.run_plan(plan, stats)
                for result_key, (addr, cell) in zip(results, row):
                    result = cells.get(result_key, BLANK).cached
                    if not values_equal(cell.cached, result):
                        changed.add(addr)
                    cell.cached = result
                stats.body_passes += 1
            if cyclic:  # every pass completed: the restore runs the plan
                kept = None
        finally:
            if made:
                del cells[key]
            else:
                bound.cached = saved
            if kept is None:
                self.run_plan(plan, stats)
            else:
                for cell, cached in zip(plan_cells, kept):
                    cell.cached = cached
            stats.table_restores += 1
        return changed

    def run_plan(self, plan: list, stats: EvalStats) -> None:
        """Run a table's plan (:meth:`dependents_plan`) once, in order: each
        cell's bound function on its formula, each cycle through
        :meth:`_eval_cycle`."""
        eval_cell = self._eval_cell
        for fn, cell in plan:
            if fn is None:  # a cycle: its entry holds its component
                self._eval_cycle(cell, stats)
            else:
                eval_cell(fn, cell, stats)
