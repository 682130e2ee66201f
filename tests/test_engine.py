from __future__ import annotations

import random

import pytest

from gridcalc import dump_sheet
from gridcalc.engine import Engine, values_equal
from gridcalc.model import (
    CalcConfig,
    CellAddress,
    Error,
    Literal,
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


# ---------------------------------------------------------------------------
# graph invariants
# ---------------------------------------------------------------------------


def test_graph_matches_rebuild_after_random_edits():
    eng = fresh()
    rng = random.Random(99)
    cells = [at(f"{c}{r}") for c in "ABCDE" for r in range(1, 6)]
    for step in range(120):
        target = rng.choice(cells)
        roll = rng.random()
        try:
            if roll < 0.4:
                other = rng.choice(cells)
                eng.set_formula(target, f"{other.local_text()}+{step}")
            elif roll < 0.6:
                eng.set_formula(target, f"INDIRECT(\"{rng.choice(cells).local_text()}\")")
            elif roll < 0.8:
                eng.set_literal(target, float(step))
            else:
                eng.clear_cell(target)
        except Exception:
            raise
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
