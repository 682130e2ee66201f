"""Dependency graph, dirty propagation, and topological recalculation.

Recalculation is strictly single-threaded and deterministic: ties in the
topological order are broken by address, cycles are condensed and either
poisoned with ``#CYCLE!`` or iterated to a bounded fixed point, and two
consecutive recalculations of an unchanged workspace produce identical
grids.

A full recalculation runs in three phases:

1. every dirty or volatile formula cell outside data-table bodies is
   evaluated in topological order;
2. with ``table_recalc=auto``, every data table is evaluated sequentially
   (see :mod:`gridcalc.tables`); each pass runs the table's plan (see
   :meth:`Engine.dependents_plan`), seeded from its input cell, volatile
   cells and other tables' bodies, so a result formula that reads none of
   them keeps its phase-1 value;
3. cells depending on table results are brought up to date and the final
   cached values stand until the next edit.

Volatility has one source: ``Builtin.volatile`` in the function registry,
read by :func:`gridcalc.formula.static_dependencies`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
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
    top_left,
    values_equal,
)

DEFAULT_MAX_DEPTH = 64


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
                    target = self.workspace.resolve_name(target)
                    if target is None:
                        return Error.NAME
                return self.ref_value(target)
            if t is formula.Literal:
                return node.value
            if t is formula.Binary:
                return functions.apply_binary(node.op, self.eval(node.left), self.eval(node.right))
            if t is formula.Call:
                return self._call(node)
            if t is formula.Unary:
                return functions.apply_unary(node.op, self.eval(node.operand))
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
            return spec.fn(self, node.args)
        if spec.kind == "reference":
            ref = spec.fn(self, node.args)
            return ref if isinstance(ref, Error) else self.ref_value(ref)
        args = [None if a is formula.OMITTED else self.eval(a) for a in node.args]
        if spec.kind == "scalar":
            return functions.array_lift(spec.fn, args)
        for a in args:
            if isinstance(a, Error):
                return a
        return spec.fn(self, args)

    # -- references ----------------------------------------------------------

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
                target = self.workspace.resolve_name(node.target)
                return Error.NAME if target is None else target
            return node.target
        if isinstance(node, formula.Call):
            spec = functions.REGISTRY.get(node.name.upper())
            if (
                spec is not None
                and spec.kind == "reference"
                and spec.min_args <= len(node.args) <= spec.max_args
            ):
                return spec.fn(self, node.args)
        return None


class Engine:
    """Owns a workspace: tracks dependencies, dirtiness, and recalculation.

    All mutation of the workspace must go through one engine instance
    (single-writer contract); read-only queries may happen between recalcs.
    """

    def __init__(self, workspace: Workspace) -> None:
        self.workspace = workspace
        self.graph = self.build_graph()
        self.dirty: set[CellAddress] = set(self._formula_addresses())
        self._plans: dict[int, list] = {}  # table id -> dependents_plan

    # -- graph construction ---------------------------------------------------

    def _formula_addresses(self):
        for wb in self.workspace.workbooks():
            for sheet in wb.sheets():
                for (row, col), cell in sheet.cells.items():
                    if isinstance(cell.content, Formula):
                        yield CellAddress(wb.name, sheet.name, col, row)

    def _name_targets(self) -> dict:
        return {key: target for key, (_, target) in self.workspace.defined_names.items()}

    def _node_edges(self, ast, names: dict) -> tuple[set, bool]:
        info = formula.static_dependencies(ast, names)
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
        the incremental updates in :meth:`set_cell` preserve it.
        """
        g = DependencyGraph()
        names = self._name_targets()
        for addr in self._formula_addresses():
            cell = self.workspace.cell(addr)
            precedents, volatile = self._node_edges(cell.content.ast, names)
            g.set_node(addr, precedents, volatile)
        return g

    # -- editing ----------------------------------------------------------------

    def set_cell(self, addr: CellAddress, content: Content) -> set:
        """Replace a cell's content and mark its dependents dirty.

        Returns the freshly dirtied cells. Writing into a data-table body
        cell is rejected: body cells belong to their table.
        """
        sheet = self.workspace.resolve_sheet(addr)
        if sheet is None:
            raise KeyError(f"no sheet at {addr!r}")
        existing = sheet.cell(addr.row, addr.column)
        if existing is not None and isinstance(existing.content, TableBody):
            raise tables.TableIntegrityError(f"{addr!r} is part of a data table and cannot be edited")
        if isinstance(content, TableBody):
            raise ValueError("table body cells are created by table declarations only")
        was_formula = existing is not None and isinstance(existing.content, Formula)
        sheet.set_content(addr.row, addr.column, content)
        self.graph.remove_node(addr)
        if isinstance(content, Formula):
            precedents, volatile = self._node_edges(content.ast, self._name_targets())
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
        ast = formula.parse_formula(source, addr)
        return self.set_cell(addr, Formula(source, ast))

    def clear_cell(self, addr: CellAddress) -> set:
        return self.set_cell(addr, None)

    def declare_table(self, region: RangeRef, orientation: str, input_cell: CellAddress):
        """Declare a data table on the live workspace (see tables module)."""
        table = tables.declare_table(self.workspace, region, orientation, input_cell)
        self._plans.clear()
        return table

    # -- recalculation -----------------------------------------------------------

    def full_recalc(self, rng: random.Random | None = None) -> EvalStats:
        """Recalculate the whole workspace; returns evaluation statistics.

        *rng*, when given, randomizes topological tie-breaking; final values
        must not depend on it (confluence).
        """
        stats = EvalStats()
        t0 = time.perf_counter()
        targets = {a for a in self.dirty if self._is_formula(a)} | set(self.graph.volatile)
        self._run_targets(targets, stats, rng)
        self.dirty.clear()
        if self.workspace.config.table_recalc == "auto":
            self._run_tables(stats, rng)
        stats.wall_time = time.perf_counter() - t0
        return stats

    def recalc_tables(self) -> EvalStats:
        """Explicitly evaluate all data tables (manual-mode trigger).

        It runs on top of a :meth:`full_recalc` and does not evaluate dirty
        cells itself: each pass re-runs only the table's plan (see
        :meth:`dependents_plan`), so any other formula, result formulas
        included, holds the value the last full recalculation gave it.
        Afterwards the formulas that read a changed body cell are brought up
        to date, as in :meth:`full_recalc`.
        """
        stats = EvalStats()
        t0 = time.perf_counter()
        self._run_tables(stats, None)
        stats.wall_time = time.perf_counter() - t0
        return stats

    def get_value(self, addr: CellAddress):
        return self.workspace.value(addr)

    def resolve_cycles(self) -> dict:
        """Recalculate, then report final values of every cell in a cycle."""
        self.full_recalc()
        out = {}
        for comp in self._ordered_components(set(self.graph.precedents)):
            if self._is_cyclic(comp):
                for addr in comp:
                    out[addr] = self.workspace.value(addr)
        return out

    # -- internals ----------------------------------------------------------------

    def _is_formula(self, addr: CellAddress) -> bool:
        cell = self.workspace.cell(addr)
        return cell is not None and isinstance(cell.content, Formula)

    def _is_cyclic(self, comp: list) -> bool:
        return len(comp) > 1 or comp[0] in self.graph.precedents.get(comp[0], ())

    def _run_tables(self, stats: EvalStats, rng: random.Random | None) -> None:
        """Evaluate every data table, then bring their dependents up to date."""
        changed = tables.schedule_tables(self, stats)
        if changed:
            spill = {a for a in self.graph.dependents_closure(changed) if self._is_formula(a)}
            self._run_targets(spill, stats, rng)

    def _run_targets(self, targets: set, stats: EvalStats, rng: random.Random | None) -> None:
        if not targets:
            return
        closure = targets | {a for a in self.graph.dependents_closure(targets) if self._is_formula(a)}
        needs = set(targets)
        for comp in self._ordered_components(closure, rng):
            if self._is_cyclic(comp):
                changed = self._eval_cycle(comp, stats)
                for addr in changed:
                    needs.update(self.graph.dependents.get(addr, ()))
                continue
            addr = comp[0]
            if addr not in needs:
                continue
            cell = self.workspace.cell(addr)
            old = cell.cached
            self._eval_cell(addr, cell, stats)
            if not values_equal(old, cell.cached):
                needs.update(self.graph.dependents.get(addr, ()))

    def _eval_cell(self, addr: CellAddress, cell, stats: EvalStats) -> None:
        ctx = EvalContext(self.workspace, addr)
        v = ctx.eval(cell.content.ast)
        if isinstance(v, Array):
            v = top_left(v)
        if v is None:
            v = 0.0  # a formula never yields blank
        cell.cached = v
        stats.cell_evaluations += 1

    def _eval_cycle(self, comp: list, stats: EvalStats) -> set:
        """Evaluate one strongly connected component of the graph.

        Without iterative calculation every member becomes ``#CYCLE!``;
        with it, members are swept in address order until no number moves
        by more than ``max_change`` or ``max_iterations`` is reached.
        """
        cfg = self.workspace.config
        addrs = sorted(comp, key=lambda a: a.sort_key)
        cells = [(a, self.workspace.cell(a)) for a in addrs]
        before = {a: c.cached for a, c in cells}
        if not cfg.iterative:
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

    def _ordered_components(self, nodes: set, rng: random.Random | None = None) -> list:
        """Strongly connected components of the induced subgraph, listed so
        that precedents come before dependents. Deterministic by address
        order unless *rng* shuffles the (value-irrelevant) tie-breaking:
        the root order and each node's precedents. Tarjan's algorithm emits
        a component only after every component it reads, whatever order it
        visits them in."""
        order = sorted(nodes, key=lambda a: a.sort_key)
        if rng is not None:
            rng.shuffle(order)
        index: dict[CellAddress, int] = {}
        low: dict[CellAddress, int] = {}
        on_stack: set = set()
        stack: list = []
        comps: list[list] = []
        counter = [0]

        def neighbors(a):
            out = [p for p in self.graph.precedents.get(a, ()) if p in nodes]
            if rng is not None:
                rng.shuffle(out)
            return out

        for root in order:
            if root in index:
                continue
            work = [(root, iter(neighbors(root)))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(neighbors(nxt))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.append(member)
                        if member is node or member == node:
                            break
                    comps.append(comp)
        return comps

    # -- data-table support ---------------------------------------------------------

    def dependents_plan(self, table) -> list:
        """Cached evaluation plan for one data table: its function body.

        The plan holds the formula cells that lie between the table's input
        cell and its result formulas, i.e. the results and their precedents
        that the input cell reaches, topologically ordered; table-body cells
        hold no formulas and never appear. It is seeded from the input cell
        and from the cells whose value may have moved since phase 1: the
        volatile cells among those precedents and the body cells of other
        tables (an earlier table may have refilled them). A result none of
        these reaches keeps the value phase 1 gave it. The plan is built by
        a reverse walk from the result formulas, so its cost is the size of
        the body, not of the workbook around it.
        The one exception: with iterative calculation on and a cycle among
        the input cell's dependents, the plan covers every dependent, so a
        self-referential counter observes each pass.

        A plan depends only on graph edges and on which cells hold formulas:
        it is dropped when a formula is entered or replaced and when a table
        is declared, not on literal edits.
        """
        plan = self._plans.get(table.table_id)
        if plan is not None:
            return plan
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
        for p in inner:
            owner = self.workspace.table_at(p)
            if owner is not None and owner is not table and owner.is_body_cell(p):
                stack.append(p)
        while stack:
            for d in inner.get(stack.pop(), ()):
                if d not in nodes:
                    nodes.add(d)
                    stack.append(d)
        if self.workspace.config.iterative:
            forward = g.dependents_closure({table.input_cell})
            if any(self._is_cyclic(c) for c in self._ordered_components(forward)):
                nodes |= forward
        nodes.discard(table.input_cell)
        plan = []
        for comp in self._ordered_components(nodes):
            if self._is_cyclic(comp):
                plan.append((None, comp))
            else:
                addr = comp[0]
                plan.append((addr, self.workspace.cell(addr)))
        self._plans[table.table_id] = plan
        return plan

    def run_plan(self, plan: list, stats: EvalStats) -> None:
        for head, payload in plan:
            if head is None:
                self._eval_cycle(payload, stats)
            else:
                self._eval_cell(head, payload, stats)
