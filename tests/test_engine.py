from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from gridcalc import bench, dump_sheet, dump_workbook_source, functions, load_workspace
from gridcalc.bench import asset_path
from gridcalc.engine import Engine, values_equal
from gridcalc.formula import parse_formula, static_dependencies
from gridcalc.model import (
    Array,
    CalcConfig,
    CellAddress,
    Error,
    Formula,
    Literal,
    RangeRef,
    Workspace,
)
from gridcalc.tables import TableIntegrityError

from conftest import engine_for


def fresh(config: CalcConfig | None = None):
    ws = Workspace(config)
    ws.add_workbook("T").ensure_sheet("S")
    return Engine(ws)


def at(text: str) -> CellAddress:
    from gridcalc.model import parse_address

    return parse_address(text, CellAddress("T", "S", 1, 1))


# ---------------------------------------------------------------------------
# basic evaluation through the engine
# ---------------------------------------------------------------------------


def test_blank_gate_yields_empty_text():
    eng = fresh()
    eng.set_formula(at("D2"), 'IF(ISBLANK(A2),"",IF(LEN(A2)=10,B2,C2))')
    eng.full_recalc()
    assert eng.get_value(at("D2")) == ""


def test_concat_coercion():
    eng = fresh()
    eng.set_formula(at("A1"), '"A" & 5')
    eng.full_recalc()
    assert eng.get_value(at("A1")) == "A5"


def test_reference_to_blank_yields_zero():
    eng = fresh()
    eng.set_formula(at("A1"), "Z9")
    eng.full_recalc()
    assert eng.get_value(at("A1")) == 0.0


def test_dangling_workbook_is_ref_error():
    eng = fresh()
    eng.set_formula(at("A1"), "[Nowhere]Sheet1!A1")
    eng.full_recalc()
    assert eng.get_value(at("A1")) is Error.REF


@pytest.mark.parametrize(
    "source, copy, book, sheet, values",
    [
        ("[lib]S!A1*2", "[lib]S!A2*2", "lib", "S", (8.0, 8.0, 10.0)),
        ("SUM(Other!A1:A2)", "SUM(Other!A2:A3)", "T", "Other", (4.0, 9.0, 5.0)),
    ],
)
def test_a_sheet_added_after_its_reader_compiled_is_read(source, copy, book, sheet, values):
    # the reader's template compiles while its sheet is missing, so it
    # resolves the sheet on every read: #REF! until it exists, then its value
    eng = fresh()
    eng.set_formula(at("A1"), source)
    eng.full_recalc()
    assert eng.get_value(at("A1")) is Error.REF
    wb = eng.workspace.workbook(book) or eng.workspace.add_workbook(book)
    wb.ensure_sheet(sheet)
    eng.set_literal(CellAddress(book, sheet, 1, 1), 4.0)
    eng.full_recalc()
    assert eng.get_value(at("A1")) == values[0]
    # a copy made now shares the template compiled before the sheet existed
    eng.set_formula(at("A2"), copy)
    eng.set_literal(CellAddress(book, sheet, 1, 2), 5.0)
    eng.full_recalc()
    assert eng.workspace.cell(at("A2")).content.template is eng.workspace.cell(at("A1")).content.template
    assert (eng.get_value(at("A1")), eng.get_value(at("A2"))) == values[1:]


def test_indirect_memo_keeps_no_workspace_alive():
    # INDIRECT's parse memo is module-wide: it may hold addresses, never a
    # sheet or cell that would keep a dropped workspace reachable
    eng = engine_for("isbn_byref.gwb")
    eng.full_recalc()
    assert eng.get_value(at("[isbn_byref]Sheet1!F5")) == "valid"
    workspace = weakref.ref(eng.workspace)
    del eng
    gc.collect()
    assert workspace() is None
    assert functions._indirect_target.cache_info().currsize > 0


def test_unknown_defined_name_is_name_error():
    eng = fresh()
    eng.set_formula(at("A1"), "NotDefined+1")
    eng.full_recalc()
    assert eng.get_value(at("A1")) is Error.NAME


def test_defined_name_reference():
    eng = fresh()
    eng.workspace.define_name("Output", at("D2"))
    eng.set_literal(at("D2"), "valid")
    eng.set_formula(at("A1"), "Output")
    eng.full_recalc()
    assert eng.get_value(at("A1")) == "valid"


def test_depth_limit_guards_runaway_nesting():
    eng = fresh()
    eng.set_formula(at("A1"), "+".join(["1"] * 100))
    eng.full_recalc()
    assert eng.get_value(at("A1")) is Error.VALUE
    eng.set_formula(at("A2"), "+".join(["1"] * 20))
    eng.full_recalc()
    assert eng.get_value(at("A2")) == 20.0


def chain(terms: int) -> str:
    return "+".join(["1"] * terms)


@pytest.mark.parametrize(
    "source, value",
    [
        (chain(64), 64.0),  # the innermost term is 64 levels deep
        (chain(65), Error.VALUE),
        (f"IF(FALSE,1,{chain(63)})", 63.0),  # a branch is one level below IF
        (f"IF(FALSE,1,{chain(64)})", Error.VALUE),
        (f"IF(TRUE,1,{chain(65)})", 1.0),  # a branch not taken is never too deep
    ],
    ids=["sum-64", "sum-65", "if-63", "if-64", "if-untaken-65"],
)
def test_depth_limit_at_its_boundary(source, value):
    eng = fresh()
    eng.set_formula(at("A1"), source)
    eng.full_recalc()
    assert values_equal(eng.get_value(at("A1")), value)


# ---------------------------------------------------------------------------
# recalc accounting
# ---------------------------------------------------------------------------


def test_literal_only_workspace_has_no_evaluations():
    eng = fresh()
    eng.set_literal(at("A1"), 1.0)
    eng.set_literal(at("B1"), "x")
    stats = eng.full_recalc()
    assert stats.cell_evaluations == 0
    assert stats.body_passes == 0
    assert stats.table_restores == 0


def test_phase1_count_equals_dirty_formula_cells():
    eng = fresh()
    eng.set_literal(at("A1"), 2.0)
    eng.set_formula(at("B1"), "A1*10")
    eng.set_formula(at("C1"), "B1+1")
    eng.set_formula(at("D9"), "5")  # unrelated
    stats = eng.full_recalc()
    assert stats.cell_evaluations == 3  # everything is dirty on first recalc
    stats = eng.full_recalc()
    assert stats.cell_evaluations == 0  # nothing changed, nothing volatile
    eng.set_literal(at("A1"), 3.0)
    stats = eng.full_recalc()
    assert stats.cell_evaluations == 2  # B1 and C1 only
    assert eng.get_value(at("C1")) == 31.0


def test_set_cell_marks_transitive_dependents():
    eng = fresh()
    eng.set_formula(at("B1"), "A1+1")
    eng.set_formula(at("C1"), "B1+1")
    eng.full_recalc()
    dirtied = eng.set_literal(at("A1"), 5.0)
    assert at("B1") in dirtied and at("C1") in dirtied


def test_volatile_cells_reevaluate_every_recalc():
    eng = fresh()
    eng.set_literal(at("A2"), "B5")
    eng.set_literal(at("B5"), 1.0)
    eng.set_formula(at("C1"), "INDIRECT(A2)")
    eng.full_recalc()
    assert eng.get_value(at("C1")) == 1.0
    # B5 is not a static dependency of C1, but volatility re-reads it
    sheet = eng.workspace.resolve_sheet(at("B5"))
    sheet.set_content(5, 2, Literal(2.0))
    stats = eng.full_recalc()
    assert eng.get_value(at("C1")) == 2.0
    assert stats.cell_evaluations >= 1


def test_value_change_propagates_through_volatile_cells():
    eng = fresh()
    eng.set_literal(at("A2"), "B5")
    eng.set_literal(at("B5"), 1.0)
    eng.set_formula(at("C1"), "INDIRECT(A2)")
    eng.set_formula(at("D1"), "C1*10")
    eng.full_recalc()
    sheet = eng.workspace.resolve_sheet(at("B5"))
    sheet.set_content(5, 2, Literal(3.0))
    eng.full_recalc()
    assert eng.get_value(at("D1")) == 30.0


def test_xadr_of_a_non_reference_is_not_volatile():
    eng = fresh()
    cells = {"A1": "XADR(5)", "A2": "XADR(INDEX(C1:C2,1))", "A3": "XADR(1+1)"}
    for cell, source in cells.items():
        eng.set_formula(at(cell), source)
    assert eng.full_recalc().cell_evaluations == 3
    assert eng.full_recalc().cell_evaluations == 0  # only a volatile builtin makes a formula volatile
    assert [eng.get_value(at(cell)) for cell in cells] == [Error.VALUE] * 3


# ---------------------------------------------------------------------------
# graph invariants
# ---------------------------------------------------------------------------


# Two books, each with a sheet S. Formulas go in GRID; INPUTS hold literals
# only, and INDIRECT reads them alone: INDIRECT gives no edge, so what it
# reads of a formula cell depends on the order of the walk, which these
# checks leave out.
GRID = [f"{c}{r}" for c in "ABC" for r in (1, 2, 3)]
INPUTS = ["E1", "E2"]
BOOK1_PREFIXES = ["[book1]s!", "[Book1]S!"]
BOOK2_PREFIXES = ["[book2]s!", "[Book2]S!", "[BOOK2]s!"]
PREFIXES = ["", *BOOK1_PREFIXES, *BOOK2_PREFIXES]


def _spelled(prefix: str, cell: str) -> CellAddress:
    from gridcalc.model import parse_address

    return parse_address(prefix + cell, CellAddress("Book1", "S", 1, 1))


_term = st.one_of(
    st.builds("{}{}".format, st.sampled_from(PREFIXES), st.sampled_from(GRID)),
    st.builds("SUM({}{})".format, st.sampled_from(PREFIXES), st.sampled_from(["A1:B2", "B2:C3", "A1:A3", "C3:C3"])),
    st.builds('INDIRECT("{}{}")'.format, st.sampled_from(PREFIXES), st.sampled_from(INPUTS)),
    st.integers(0, 9).map(str),
)
_number = st.integers(0, 9).map(lambda n: Literal(float(n)))
_edit = st.one_of(
    st.tuples(
        st.sampled_from(BOOK1_PREFIXES + BOOK2_PREFIXES),
        st.sampled_from(GRID),
        st.one_of(st.lists(_term, min_size=1, max_size=3).map("+".join), _number, st.none()),
    ),
    st.tuples(st.sampled_from(BOOK1_PREFIXES + BOOK2_PREFIXES), st.sampled_from(INPUTS), st.one_of(_number, st.none())),
)


def _two_books() -> Workspace:
    ws = Workspace()
    for book in ("Book1", "Book2"):
        ws.add_workbook(book).ensure_sheet("S")
    return ws


def _dependents_by_brute_force(ws: Workspace, addr: CellAddress) -> set:
    """*addr* and every formula cell that reaches it through static
    references, each read off a fresh parse of its source."""
    names = {key: target for key, (_, target) in ws.defined_names.items()}
    reads = {}
    for wb in ws.workbooks():
        for sheet in wb.sheets():
            for (row, col), cell in sheet.cells.items():
                if isinstance(cell.content, Formula):
                    here = CellAddress(wb.name, sheet.name, col, row)
                    info = static_dependencies(parse_formula(cell.content.source, here), names)
                    reads[here] = {a for r in info.refs for a in (r.cells() if isinstance(r, RangeRef) else (r,))}
    out = {addr}
    grew = True
    while grew:
        more = {a for a, precs in reads.items() if a not in out and not precs.isdisjoint(out)}
        out |= more
        grew = bool(more)
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(_edit, min_size=1, max_size=12))
def test_graph_matches_rebuild_after_random_edits(edits):
    # after every edit: the kept graph is the one built from scratch, the
    # edit returns exactly the edited cell and its dependents as addresses,
    # and a recalc gives what a fresh engine over a copy of the cells gives
    eng = Engine(_two_books())
    for prefix, cell, content in edits:
        addr = _spelled(prefix, cell)
        if isinstance(content, str):
            dirtied = eng.set_formula(addr, content)
        else:
            dirtied = eng.set_cell(addr, content)
        assert eng.graph == eng.build_graph()
        for key, c in eng.graph.cells.items():  # each sheet's own Cell, and its formula's own address
            sheet = eng.workspace.resolve_sheet(c.content.cell)
            assert sheet.cells[key[2:]] is c and c.content.cell.sort_key == key
        assert all(type(a) is CellAddress for a in dirtied)
        assert dirtied == _dependents_by_brute_force(eng.workspace, addr)
        eng.full_recalc()
        copy = Engine(_two_books())
        for wb in eng.workspace.workbooks():
            for (row, col), c in wb.sheet("S").cells.items():
                target = CellAddress(wb.name, "S", col, row)
                if isinstance(c.content, Formula):
                    copy.set_formula(target, c.content.source)
                else:
                    copy.set_cell(target, c.content)
        again = Engine(copy.workspace)
        again.full_recalc()
        for wb in eng.workspace.workbooks():
            cells, fresh_cells = wb.sheet("S").cells, again.workspace.workbook(wb.name).sheet("S").cells
            assert cells.keys() == fresh_cells.keys()
            for key, c in cells.items():
                assert values_equal(c.cached, fresh_cells[key].cached), (wb.name, key)


@pytest.mark.parametrize(
    "make",
    [lambda: bench.build_workspace(64, "small", 1), lambda: load_workspace([asset_path("demo.gws")])],
    ids=["call-small", "demo"],
)
def test_building_and_recalculating_hash_no_address(monkeypatch, make):
    # the graph, the dirty set, the walk's needs, the orders and the plans
    # are keyed by sort_key tuples: Engine(ws), a first recalc and a steady
    # one hash or compare no CellAddress
    ws = make()
    calls = []
    for name in ("__hash__", "__eq__"):
        real = getattr(CellAddress, name)
        monkeypatch.setattr(CellAddress, name, lambda self, *other, real=real: calls.append(name) or real(self, *other))
    counts = []
    eng = Engine(ws)
    counts.append(len(calls))
    for _ in range(2):
        eng.full_recalc()
        counts.append(len(calls))
    assert counts == [0, 0, 0]
    assert len({at("A1"), at("A1")}) == 1 and calls  # the counters count


@pytest.mark.parametrize(
    "make",
    [
        lambda: bench.build_workspace(64, "small", 1),
        lambda: bench.build_workspace(200, "large", 1),
        lambda: load_workspace([asset_path("demo.gws")]),
        lambda: load_workspace([asset_path("isbn_byref.gwb")]),
    ],
    ids=["call-small", "call-large", "demo", "isbn_byref"],
)
def test_building_the_engine_makes_no_address(monkeypatch, make):
    # each formula knows its cell and the graph holds the sheets' own Cell
    # objects, so Engine(ws) makes no CellAddress, by constructor or by
    # moved; nor does a steady recalc of these workspaces, which use no
    # OFFSET (a first recalc may: INDIRECT's process-wide parse cache)
    ws = make()
    made = []
    init, moved = CellAddress.__init__, CellAddress.moved
    monkeypatch.setattr(CellAddress, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    monkeypatch.setattr(CellAddress, "moved", lambda self, *a: made.append(a) or moved(self, *a))
    eng = Engine(ws)
    assert made == [] and eng.graph.cells
    eng.full_recalc()
    made.clear()
    eng.full_recalc()
    assert made == []
    assert CellAddress("T", "S", 2, 2).moved(1, 1) and len(made) == 2  # the counters count


def test_graph_edges_are_the_cells_each_formula_depends_on():
    # the graph reads refs and defined names itself; the dependencies of a
    # fresh parse of each source in its cell say what they must come to
    eng = fresh()
    eng.workspace.define_name("Rate", at("E1"))
    eng.workspace.define_name("Block", at("E2:F3"))
    sources = {"A1": "Rate*B1+SUM(Block)+SUM($C$1:C2)+Missing", "A2": 'INDIRECT("A1")+Rate+Rate', "A3": "1"}
    for cell, source in sources.items():
        eng.set_formula(at(cell), source)
    for cell, source in sources.items():
        info = static_dependencies(parse_formula(source, at(cell)), eng._name_targets())
        cells = {a.sort_key for r in info.refs for a in (r.cells() if isinstance(r, RangeRef) else (r,))}
        assert eng.graph.precedents[at(cell).sort_key] == cells
        assert (at(cell).sort_key in eng.graph.volatile) == info.volatile
    assert len(eng.graph.precedents[at("A1").sort_key]) == 8
    assert eng.graph == eng.build_graph()


def test_build_graph_reads_the_defined_names_once(monkeypatch):
    eng = engine_for("isbn_basic.gwb")
    calls = []
    read_names = Engine._name_targets
    monkeypatch.setattr(Engine, "_name_targets", lambda self: calls.append(1) or read_names(self))
    graph = eng.build_graph()
    assert len(graph.precedents) > 1 and len(calls) == 1
    assert graph == eng.graph


def test_reverse_edges_are_exact_transpose():
    eng = engine_for("isbn_basic.gwb")
    g = eng.graph
    transpose = {}
    for node, precs in g.precedents.items():
        for p in precs:
            transpose.setdefault(p, set()).add(node)
    assert transpose == {k: v for k, v in g.dependents.items() if v}


def test_table_body_writes_rejected():
    eng = engine_for("isbn_basic.gwb")
    body = CellAddress("isbn_basic", "Batch", 2, 5)  # B5
    with pytest.raises(TableIntegrityError):
        eng.set_literal(body, 1.0)


@pytest.mark.parametrize(
    "value",
    [Array([[1.0], [2.0]]), 5.0 + 0j, float("inf"), float("-inf"), float("nan"), 10**400, [1.0], object()],
    ids=["array", "complex", "inf", "-inf", "nan", "huge-int", "list", "object"],
)
def test_literal_that_no_formula_can_read_is_rejected(value):
    eng = fresh()
    with pytest.raises(ValueError, match=r"\[T\]S!A1"):
        eng.set_literal(at("A1"), value)
    assert eng.workspace.cell(at("A1")) is None and not eng.dirty


def test_int_literal_is_held_as_the_equal_float():
    eng = fresh()
    eng.set_literal(at("A1"), 5)
    eng.set_literal(at("A2"), True)  # a boolean stays a boolean
    eng.set_formula(at("B1"), "A1*2")
    eng.full_recalc()
    assert [eng.workspace.cell(at(a)).content.value for a in ("A1", "A2")] == [5.0, True]
    assert type(eng.get_value(at("A1"))) is float and eng.get_value(at("B1")) == 10.0
    assert "A1 : 5\n" in dump_workbook_source(eng.workspace, "T")


def test_array_literal_repro_is_rejected_before_it_reaches_a_recalc():
    eng = fresh()
    eng.set_literal(at("A2"), "3")
    with pytest.raises(ValueError):
        eng.set_literal(at("A1"), Array([[1.0], [2.0]]))
    eng.set_formula(at("B1"), 'SUMPRODUCT(VALUE(MID(A1:A2&"23",{1;2;3},1)))')
    eng.full_recalc()
    assert eng.get_value(at("B1")) == Error.VALUE  # A1:A2 meets a 3-row constant


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def test_self_loop_without_iteration_is_cycle_error():
    eng = fresh()
    eng.set_formula(at("A1"), "A1+1")
    outcomes = eng.resolve_cycles()
    assert outcomes == {at("A1"): Error.CYCLE}


def test_self_loop_with_iteration_counts_to_max():
    eng = fresh(CalcConfig(iterative=True, max_iterations=100, max_change=0.001))
    eng.set_formula(at("A1"), "A1+1")
    eng.full_recalc()
    assert eng.get_value(at("A1")) == 100.0


def test_mutual_cycle_error_propagates_to_dependents():
    eng = fresh()
    eng.set_formula(at("A1"), "B1+1")
    eng.set_formula(at("B1"), "A1+1")
    eng.set_formula(at("C1"), "A1*2")
    eng.full_recalc()
    assert eng.get_value(at("A1")) is Error.CYCLE
    assert eng.get_value(at("B1")) is Error.CYCLE
    assert eng.get_value(at("C1")) is Error.CYCLE


def test_convergent_cycle_reaches_fixed_point():
    eng = fresh(CalcConfig(iterative=True, max_iterations=200, max_change=1e-9))
    eng.set_formula(at("A1"), "B1/2+1")
    eng.set_formula(at("B1"), "A1")
    eng.full_recalc()
    assert eng.get_value(at("A1")) == pytest.approx(2.0, abs=1e-6)


def test_acyclic_workbook_has_no_cycles():
    eng = fresh()
    eng.set_formula(at("A1"), "B1+1")
    eng.set_literal(at("B1"), 1.0)
    assert eng.resolve_cycles() == {}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def grid_snapshot(eng: Engine):
    out = {}
    for wb in eng.workspace.workbooks():
        for sheet in wb.sheets():
            for key, cell in sheet.cells.items():
                out[(wb.name, sheet.name, key)] = cell.cached
    return out


@pytest.mark.parametrize("asset", ["isbn_basic.gwb", "isbn_byref.gwb", "lib.gwb", "demo.gws"])
def test_confluence_under_randomized_tie_breaking(asset):
    baseline = engine_for(asset)
    baseline.full_recalc()
    want = grid_snapshot(baseline)
    for seed in range(5):
        eng = engine_for(asset)
        eng.full_recalc(rng=random.Random(seed))
        got = grid_snapshot(eng)
        assert set(got) == set(want)
        for key in want:
            assert values_equal(got[key], want[key]), key


def test_shuffled_component_order_is_topological():
    eng = engine_for("demo.gws")
    nodes = set(eng.graph.precedents)
    orders = set()
    for seed in range(10):
        comps = eng._ordered_components(nodes, random.Random(seed))
        position = {a: i for i, comp in enumerate(comps) for a in comp}
        assert set(position) == nodes
        for a, i in position.items():
            for p in eng.graph.precedents[a]:
                if p in nodes:
                    assert position[p] <= i, (p, a)
        orders.add(tuple(tuple(comp) for comp in comps))
    assert len(orders) > 1  # the seeds do reorder the ties


def test_repeated_recalc_is_idempotent():
    eng = engine_for("isbn_basic.gwb", "isbn_byref.gwb")
    eng.full_recalc()
    dumps1 = [
        dump_sheet(eng.workspace, wb.name, sh.name, "tsv")
        for wb in eng.workspace.workbooks()
        for sh in wb.sheets()
    ]
    eng.full_recalc()
    dumps2 = [
        dump_sheet(eng.workspace, wb.name, sh.name, "tsv")
        for wb in eng.workspace.workbooks()
        for sh in wb.sheets()
    ]
    assert dumps1 == dumps2


def test_two_recalcs_of_unchanged_workspace_match():
    eng = engine_for("lib.gwb", "book2.gwb")
    eng.full_recalc()
    first = grid_snapshot(eng)
    eng.full_recalc()
    second = grid_snapshot(eng)
    assert set(first) == set(second)
    for key in first:
        assert values_equal(first[key], second[key]), key
