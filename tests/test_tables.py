from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridcalc import bench, declare_table, engine, functions
from gridcalc.engine import Engine, EvalStats, values_equal
from gridcalc.model import (
    CalcConfig,
    CellAddress,
    Error,
    Literal,
    RangeRef,
    TableBody,
    Workspace,
    parse_address,
)
from gridcalc.tables import COLUMN_INPUT, ROW_INPUT, DataTableRegion, TableError

from conftest import engine_for, evaluated

BOOK = "isbn_basic"


def at(text: str, sheet: str = "S", book: str = "T") -> CellAddress:
    ref = parse_address(text, CellAddress(book, sheet, 1, 1))
    return ref


def rng_(text: str, sheet: str = "S", book: str = "T") -> RangeRef:
    return parse_address(text, CellAddress(book, sheet, 1, 1))


def fresh(config: CalcConfig | None = None) -> Engine:
    ws = Workspace(config)
    ws.add_workbook("T").ensure_sheet("S")
    return Engine(ws)


def batch_addr(text: str) -> CellAddress:
    return parse_address(text, CellAddress(BOOK, "Batch", 1, 1))


# ---------------------------------------------------------------------------
# declaration
# ---------------------------------------------------------------------------


def test_table_region_is_a_value_with_its_cells_made_once():
    table = DataTableRegion(0, rng_("A4:C6"), COLUMN_INPUT, at("A2"))
    same = DataTableRegion(0, rng_("A4:C6"), COLUMN_INPUT, at("A2"))
    assert table == same and hash(table) == hash(same)
    assert table != DataTableRegion(1, rng_("A4:C6"), COLUMN_INPUT, at("A2"))
    assert table != DataTableRegion(0, rng_("A4:C6"), ROW_INPUT, at("A2"))
    assert repr(table) == (
        "DataTableRegion(table_id=0, region=<[T]S!A4:C6>, orientation='col', input_cell=<[T]S!A2>)"
    )
    assert table.results == (at("B4"), at("C4"))
    assert table.arguments == (at("A5"), at("A6"))
    assert table.grid == ((at("B5"), at("C5")), (at("B6"), at("C6")))
    transposed = DataTableRegion(0, rng_("A4:C6"), ROW_INPUT, at("A2"))
    assert transposed.results == (at("A5"), at("A6"))
    assert transposed.arguments == (at("B4"), at("C4"))
    assert transposed.grid == ((at("B5"), at("B6")), (at("C5"), at("C6")))


def test_declared_region_geometry():
    eng = engine_for("isbn_basic.gwb")
    table = next(t for t in eng.workspace.tables if t.region.top_left.sheet == "Batch")
    assert table.orientation == COLUMN_INPUT
    assert table.input_cell == batch_addr("A2")
    assert table.results == (batch_addr("B4"),)
    assert table.arguments == tuple(batch_addr(f"A{r}") for r in range(5, 10))
    assert table.body_cells() == [batch_addr(f"B{r}") for r in range(5, 10)]
    assert table.marker_text() == "{=TABLE(,A2)}"
    for addr in table.body_cells():
        cell = eng.workspace.cell(addr)
        assert isinstance(cell.content, TableBody)


def test_declare_rejects_single_column():
    eng = fresh()
    with pytest.raises(TableError):
        declare_table(eng.workspace, rng_("A1:A5"), COLUMN_INPUT, at("D1"))


def test_declare_rejects_overlap():
    eng = fresh()
    eng.set_formula(at("B4"), "1")
    declare_table(eng.workspace, rng_("A4:B9"), COLUMN_INPUT, at("A2"))
    with pytest.raises(TableError):
        declare_table(eng.workspace, rng_("B9:C12"), COLUMN_INPUT, at("A2"))


def test_declare_rejects_input_inside_region():
    eng = fresh()
    with pytest.raises(TableError):
        declare_table(eng.workspace, rng_("A4:B9"), COLUMN_INPUT, at("B5"))


def test_declare_rejects_input_on_other_sheet():
    eng = fresh()
    eng.workspace.workbook("T").ensure_sheet("Other")
    with pytest.raises(TableError):
        declare_table(eng.workspace, rng_("A4:B9"), COLUMN_INPUT, at("A2", sheet="Other"))


def test_declare_rejects_a_missing_sheet():
    eng = fresh()
    with pytest.raises(TableError, match="names a missing sheet"):
        declare_table(eng.workspace, rng_("A4:B9", sheet="Nope"), COLUMN_INPUT, at("A2", sheet="Nope"))


def test_declare_rejects_populated_body():
    eng = fresh()
    eng.set_literal(at("B5"), 1.0)
    with pytest.raises(TableError):
        declare_table(eng.workspace, rng_("A4:B9"), COLUMN_INPUT, at("A2"))


def test_declare_rejects_input_in_another_body():
    eng = fresh()
    declare_table(eng.workspace, rng_("A4:B9"), COLUMN_INPUT, at("A2"))
    with pytest.raises(TableError):
        declare_table(eng.workspace, rng_("D4:E5"), COLUMN_INPUT, at("B5"))


def test_row_input_is_the_transpose():
    eng = fresh()
    table = declare_table(eng.workspace, rng_("A1:D2"), ROW_INPUT, at("F1"))
    assert table.results == (at("A2"),)
    assert table.arguments == (at("B1"), at("C1"), at("D1"))
    assert table.body_cells() == [at("B2"), at("C2"), at("D2")]
    assert table.marker_text() == "{=TABLE(F1,)}"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_batch_table_collects_results_and_restores():
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    ws = eng.workspace
    for r in range(5, 10):
        assert ws.value(batch_addr(f"B{r}")) == "valid"
    assert ws.value(batch_addr("A2")) is None
    assert ws.value(batch_addr("B2")) is Error.VALUE
    assert ws.value(batch_addr("C2")) is Error.VALUE
    assert ws.value(batch_addr("D2")) == ""
    assert ws.value(batch_addr("B4")) == ""


def test_single_2x2_call():
    eng = fresh()
    eng.set_formula(at("B2"), 'IF(LEN(A2)=10,"valid","invalid")')
    eng.set_formula(at("B4"), "B2")
    eng.set_literal(at("A5"), "8320425395")
    eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    assert eng.get_value(at("B5")) == "valid"


def test_table_with_untouched_input_repeats_current_value():
    # result formulas that ignore the input lie in no plan: the body
    # collects the values the last full recalc gave them
    for mode in ("auto", "manual"):
        eng = fresh(CalcConfig(table_recalc=mode))
        eng.set_formula(at("D1"), "40+2")  # does not read the input cell
        eng.set_literal(at("C1"), 1.0)
        eng.set_formula(at("B4"), "D1")
        eng.set_formula(at("C4"), "5")
        eng.set_formula(at("D4"), "C1")
        for r, v in ((5, 1.0), (6, 2.0)):
            eng.set_literal(at(f"A{r}"), v)
        table = eng.declare_table(rng_("A4:D6"), COLUMN_INPUT, at("A2"))

        def recalc():
            eng.full_recalc()
            if mode == "manual":
                eng.recalc_tables()
            return [[eng.get_value(at(f"{c}{r}")) for c in "BCD"] for r in (5, 6)]

        assert recalc() == [[42.0, 5.0, 1.0]] * 2, mode
        eng.set_literal(at("C1"), 7.0)
        assert recalc() == [[42.0, 5.0, 7.0]] * 2, mode
        assert eng.dependents_plan(table) == []


def test_blank_value_rows_are_substituted_not_skipped():
    eng = fresh()
    eng.set_formula(at("D2"), 'IF(ISBLANK(A2),"empty","full")')
    eng.set_formula(at("B4"), "D2")
    eng.set_literal(at("A6"), "x")  # A5 left blank
    eng.declare_table(rng_("A4:B6"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    assert eng.get_value(at("B5")) == "empty"
    assert eng.get_value(at("B6")) == "full"


def test_row_input_table_evaluates():
    eng = fresh()
    eng.set_formula(at("D1"), "A1*10")
    eng.set_formula(at("A4"), "D1")  # first column of the region
    eng.set_literal(at("B3"), 1.0)
    eng.set_literal(at("C3"), 2.0)
    eng.declare_table(rng_("A3:C4"), ROW_INPUT, at("A1"))
    eng.full_recalc()
    assert eng.get_value(at("B4")) == 10.0
    assert eng.get_value(at("C4")) == 20.0


def test_formula_valued_input_cell_is_restored():
    eng = fresh()
    eng.set_formula(at("A2"), '"zz"&"z"')  # the input cell itself holds a formula
    eng.set_formula(at("D2"), "LEN(A2)")
    eng.set_formula(at("B4"), "D2")
    eng.set_literal(at("A5"), "four")
    eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    assert eng.get_value(at("B5")) == 4.0
    assert eng.get_value(at("A2")) == "zzz"
    assert eng.get_value(at("D2")) == 3.0


# ---------------------------------------------------------------------------
# eval-count model
# ---------------------------------------------------------------------------


def test_eval_counts_for_one_table():
    eng = engine_for("isbn_basic.gwb")
    stats = eng.full_recalc()
    # Batch contributes 5 passes + 1 restore; Calls contributes 5 x (1 pass
    # + 1 restore)
    assert stats.body_passes == 10
    assert stats.table_restores == 6


def test_many_small_tables_versus_one_large():
    values = ["1234567890", "didnotcheck", "8320425395"]

    def build(layout: str) -> Engine:
        eng = fresh()
        eng.set_formula(at("D2"), 'IF(LEN(A2)=10,"ten","other")')
        if layout == "large":
            eng.set_formula(at("B4"), "D2")
            for i, v in enumerate(values):
                eng.set_literal(at(f"A{5 + i}"), v)
            eng.declare_table(rng_(f"A4:B{4 + len(values)}"), COLUMN_INPUT, at("A2"))
        else:
            for i, v in enumerate(values):
                top = 4 + 2 * i
                eng.set_formula(at(f"B{top}"), "D2")
                eng.set_literal(at(f"A{top + 1}"), v)
                eng.declare_table(rng_(f"A{top}:B{top + 1}"), COLUMN_INPUT, at("A2"))
        return eng

    large = build("large")
    s_large = large.full_recalc()
    small = build("small")
    s_small = small.full_recalc()
    large_results = [large.get_value(at(f"B{5 + i}")) for i in range(3)]
    small_results = [small.get_value(at(f"B{5 + 2 * i}")) for i in range(3)]
    assert large_results == small_results == ["ten", "other", "ten"]
    assert s_large.body_passes == s_small.body_passes == 3
    assert s_large.table_restores == 1
    assert s_small.table_restores == 3


def test_auto_mode_refreshes_tables_every_recalc():
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    stats = eng.full_recalc()  # nothing changed, tables still run
    assert stats.body_passes == 10
    assert stats.table_restores == 6


def test_manual_mode_skips_tables_until_triggered():
    eng = engine_for("isbn_basic.gwb", config=CalcConfig(table_recalc="manual"))
    stats = eng.full_recalc()
    assert stats.body_passes == 0
    assert eng.get_value(batch_addr("B5")) is None  # never filled
    eng.set_literal(batch_addr("A5"), "0201038014")
    stats = eng.full_recalc()
    assert stats.body_passes == 0
    assert eng.get_value(batch_addr("B5")) is None
    stats = eng.recalc_tables()  # the explicit trigger
    assert stats.body_passes == 10
    assert eng.get_value(batch_addr("B5")) == "invalid"
    stats = eng.full_recalc()  # the trigger's walk order is not this walk's
    assert stats.body_passes == 0
    assert eng.get_value(batch_addr("B5")) == "invalid"


def test_unrelated_edit_still_refreshes_tables_in_auto_mode():
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    eng.set_literal(batch_addr("Z99"), 1.0)  # nothing depends on this
    stats = eng.full_recalc()
    assert stats.body_passes == 10  # calls are volatile under auto recalc
    manual = engine_for("isbn_basic.gwb", config=CalcConfig(table_recalc="manual"))
    manual.full_recalc()
    manual.set_literal(CellAddress(BOOK, "Batch", 26, 99), 1.0)
    stats = manual.full_recalc()
    assert stats.body_passes == 0


def test_edit_then_auto_recalc_recomputes_all_rows():
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    eng.set_literal(batch_addr("A5"), "0201038014")  # corrupt one candidate
    stats = eng.full_recalc()
    assert stats.body_passes == 10  # volatility: every row again
    assert eng.get_value(batch_addr("B5")) == "invalid"
    for r in range(6, 10):
        assert eng.get_value(batch_addr(f"B{r}")) == "valid"


# ---------------------------------------------------------------------------
# scheduling determinism
# ---------------------------------------------------------------------------


def test_declaration_order_does_not_matter():
    def build(flip: bool) -> Engine:
        eng = fresh()
        eng.set_formula(at("D2"), 'A2&"!"')
        eng.set_formula(at("B4"), "D2")
        eng.set_literal(at("A5"), "x")
        eng.set_formula(at("D4"), "D2")
        eng.set_literal(at("C5"), "y")
        first = (rng_("A4:B5"), rng_("C4:D5"))
        order = reversed(first) if flip else first
        for region in order:
            eng.declare_table(region, COLUMN_INPUT, at("A2"))
        return eng

    a, b = build(False), build(True)
    a.full_recalc()
    b.full_recalc()
    assert a.get_value(at("B5")) == b.get_value(at("B5")) == "x!"
    assert a.get_value(at("D5")) == b.get_value(at("D5")) == "y!"


def test_tables_sharing_one_input_do_not_interfere():
    eng = fresh()
    eng.set_formula(at("D2"), 'A2&""')
    for k, (top, arg) in enumerate((("A4", "one"), ("A7", "two"), ("A10", "three"))):
        row = int(top[1:])
        eng.set_formula(at(f"B{row}"), "D2")
        eng.set_literal(at(f"A{row + 1}"), arg)
        eng.declare_table(rng_(f"A{row}:B{row + 1}"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    assert eng.get_value(at("B5")) == "one"
    assert eng.get_value(at("B8")) == "two"
    assert eng.get_value(at("B11")) == "three"
    assert eng.get_value(at("A2")) is None  # restored after the last table


# ---------------------------------------------------------------------------
# restore integrity and side effects
# ---------------------------------------------------------------------------


def grid_without_bodies(eng: Engine):
    bodies = {a for t in eng.workspace.tables for a in t.body_cells()}
    out = {}
    for wb in eng.workspace.workbooks():
        for sheet in wb.sheets():
            for (row, col), cell in sheet.cells.items():
                addr = CellAddress(wb.name, sheet.name, col, row)
                if addr not in bodies:
                    out[addr] = cell.cached
    return out


@pytest.mark.parametrize(
    "asset", ["isbn_basic.gwb", "isbn_byref.gwb", "bench_body.gwb"]
)
def test_table_passes_touch_only_body_cells(asset):
    eng = engine_for(asset, config=CalcConfig(table_recalc="manual"))
    eng.full_recalc()  # phase 1 only
    before = grid_without_bodies(eng)
    eng.recalc_tables()  # phase 2
    after = grid_without_bodies(eng)
    assert set(before) == set(after)
    for addr in before:
        assert values_equal(before[addr], after[addr]), addr


def test_library_workspace_passes_touch_only_body_cells():
    from gridcalc import load_workspace
    from gridcalc.bench import asset_path

    ws = load_workspace([asset_path("demo.gws")], CalcConfig(table_recalc="manual"))
    eng = Engine(ws)
    eng.full_recalc()
    before = grid_without_bodies(eng)
    eng.recalc_tables()
    after = grid_without_bodies(eng)
    for addr in before:
        assert values_equal(before[addr], after[addr]), addr


def counter_engine(iterative: bool) -> Engine:
    eng = fresh(CalcConfig(iterative=iterative))
    eng.set_formula(at("D2"), 'A2&"!"')
    eng.set_formula(at("B4"), "D2")
    for r, v in ((5, "a"), (6, "b")):
        eng.set_literal(at(f"A{r}"), v)
    # self-referential counter that also depends on the table's input cell
    eng.set_formula(at("F1"), "F1+IF(ISBLANK(A2),0,1)")
    eng.declare_table(rng_("A4:B6"), COLUMN_INPUT, at("A2"))
    return eng


def test_no_side_effects_without_iterative_calculation():
    eng = counter_engine(iterative=False)
    eng.full_recalc()
    assert eng.get_value(at("F1")) is Error.CYCLE
    first = eng.get_value(at("F1"))
    eng.full_recalc()
    assert eng.get_value(at("F1")) is first  # provably unchanged


def test_iterative_calculation_enables_side_effects():
    eng = counter_engine(iterative=True)
    eng.full_recalc()
    first = eng.get_value(at("F1"))
    assert isinstance(first, float) and first > 0
    eng.full_recalc()
    second = eng.get_value(at("F1"))
    assert second > first  # the counter observably advanced across a recalc


def test_iterative_cycle_is_swept_only_when_a_changed_value_reaches_it():
    # G1 reads a volatile cell that keeps its value, F1 a table body that
    # keeps its value: neither counter moves after the first recalc
    eng = fresh(CalcConfig(iterative=True, max_iterations=5))
    eng.set_formula(at("D1"), "A10*2")
    eng.set_formula(at("B4"), "D1")
    eng.set_literal(at("A5"), 1.0)
    eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A10"))
    eng.set_formula(at("E1"), 'INDIRECT("A5")')
    eng.set_formula(at("F1"), "F1+B5")
    eng.set_formula(at("G1"), "G1+E1")
    for _ in range(3):
        eng.full_recalc()
        assert (eng.get_value(at("F1")), eng.get_value(at("G1"))) == (10.0, 5.0)


# ---------------------------------------------------------------------------
# nesting (the freeze rule)
# ---------------------------------------------------------------------------


def nested_engine(inner_first: bool) -> Engine:
    """An inner 2x2 call whose argument depends on the outer call's input,
    read by the outer function's body. Regions are anchored so the inner
    table sits either above or below the outer one."""
    eng = fresh()
    inner_top, outer_top = (4, 8) if inner_first else (8, 4)
    # inner function: input D1, result G1 = D1 & "!"
    eng.set_formula(at("G1"), 'D1&"!"')
    # inner call: the result link sits top-right, the argument cell holds a
    # formula reading the outer input E1
    eng.set_formula(at(f"B{inner_top}"), "G1")
    eng.set_formula(at(f"A{inner_top + 1}"), 'E1&"-in"')
    eng.declare_table(rng_(f"A{inner_top}:B{inner_top + 1}"), COLUMN_INPUT, at("D1"))
    inner_body = at(f"B{inner_top + 1}")
    # outer function: input E1, body H1 reads the inner call's result cell
    eng.set_formula(at("H1"), f"{inner_body.local_text()}&E1")
    eng.set_formula(at(f"B{outer_top}"), "H1")
    eng.set_literal(at(f"A{outer_top + 1}"), "b")
    eng.declare_table(rng_(f"A{outer_top}:B{outer_top + 1}"), COLUMN_INPUT, at("E1"))
    return eng


def test_inner_call_is_frozen_during_outer_passes():
    # inner table runs first: its body holds the blank-input result, and the
    # outer pass reads that stale value instead of re-running the inner call
    eng = nested_engine(inner_first=True)
    eng.full_recalc()
    assert eng.get_value(at("B5")) == "-in!"  # inner result for blank E1
    assert eng.get_value(at("B9")) == "-in!b"  # stale inner value, not "b-in!"


def test_inner_call_is_frozen_regardless_of_anchor_order():
    # the inner table runs before the outer one that reads its body,
    # whichever sits first, and stays frozen during the outer passes
    for inner_first in (True, False):
        eng = nested_engine(inner_first=inner_first)
        inner, outer = (at("B5"), at("B9")) if inner_first else (at("B9"), at("B5"))
        for _ in range(3):
            eng.full_recalc()
            assert eng.get_value(inner) == "-in!", inner_first  # inner result for blank E1
            assert eng.get_value(outer) == "-in!b", inner_first  # frozen inner value, not "b-in!"


@pytest.mark.parametrize("iterative", [False, True], ids=["plain", "iterative"])
@pytest.mark.parametrize("cyclic_first", [True, False], ids=["cycle-above", "cycle-below"])
def test_link_reading_its_own_body_is_a_cycle(iterative, cyclic_first):
    # a call whose result reads its own body is recursion: #CYCLE!, with
    # iteration on or off, while a call beside it on the same input runs
    eng = fresh(CalcConfig(iterative=iterative))
    cyc, plain = (4, 8) if cyclic_first else (8, 4)
    eng.set_formula(at(f"B{cyc}"), f"B{cyc + 1}+1")
    eng.set_literal(at(f"A{cyc + 1}"), 1.0)
    eng.set_formula(at("D1"), "A10*2")
    eng.set_formula(at(f"B{plain}"), "D1")
    eng.set_literal(at(f"A{plain + 1}"), 3.0)
    eng.set_formula(at("E1"), f"B{cyc}&\"\"")  # reads the cycle from outside it
    for top in (4, 8):
        eng.declare_table(rng_(f"A{top}:B{top + 1}"), COLUMN_INPUT, at("A10"))
    for _ in range(3):
        eng.full_recalc()
        for cell in (f"B{cyc + 1}", f"B{cyc}", "E1"):
            assert eng.get_value(at(cell)) is Error.CYCLE, cell
        assert eng.get_value(at(f"B{plain + 1}")) == 6.0


def test_resolve_cycles_reports_a_cycle_through_a_table():
    eng = fresh()
    eng.set_formula(at("B4"), "B5+1")
    eng.set_literal(at("A5"), 1.0)
    eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A10"))
    assert eng.resolve_cycles() == {at("B4"): Error.CYCLE, at("B5"): Error.CYCLE}


def test_body_reader_is_evaluated_once_after_its_table():
    # E1 and E2 are dirty on the first recalc and read the body: they wait
    # for the table instead of running before it and again after it
    eng = fresh()
    eng.set_formula(at("D1"), "A1*2")
    eng.set_formula(at("B4"), "D1")
    eng.set_literal(at("A5"), 3.0)
    eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A1"))
    eng.set_formula(at("E1"), "B5+1")
    eng.set_formula(at("E2"), "E1*10")
    stats = eng.full_recalc()
    assert stats.cell_evaluations == 6  # D1 and B4, (D1, B4) in the pass, E1 and E2
    assert eng.get_value(at("E2")) == 70.0
    for _ in range(2):
        assert eng.full_recalc().cell_evaluations == 2  # the pass; the restore runs nothing
        assert eng.get_value(at("E2")) == 70.0


@pytest.mark.parametrize("reader_first", [True, False], ids=["reader-above", "reader-below"])
def test_link_reading_another_tables_body_waits_for_it(reader_first):
    # B4 = B15*100+A10 (or with the anchors swapped): the reading table
    # runs after the table it reads, wherever it sits
    eng = fresh()
    reader, read = (4, 14) if reader_first else (14, 4)
    eng.set_formula(at("D1"), "A10*2")
    eng.set_formula(at(f"B{read}"), "D1")
    eng.set_literal(at(f"A{read + 1}"), 1.0)
    eng.set_formula(at(f"B{reader}"), f"B{read + 1}*100+A10")
    eng.set_literal(at(f"A{reader + 1}"), 1.0)
    for top in (4, 14):
        eng.declare_table(rng_(f"A{top}:B{top + 1}"), COLUMN_INPUT, at("A10"))
    for _ in range(3):
        eng.full_recalc()
        assert eng.get_value(at(f"B{reader + 1}")) == 201.0


@pytest.mark.parametrize("reader_first", [True, False], ids=["reader-above", "reader-below"])
def test_argument_reading_another_tables_body_is_up_to_date(reader_first):
    # A13 = B5*10 (or with the anchors swapped): the argument cell is
    # brought up to date before its table takes its value
    eng = fresh()
    reader, read = (4, 12) if reader_first else (12, 4)
    eng.set_formula(at("D1"), "A10*2")
    eng.set_formula(at(f"B{read}"), "D1")
    eng.set_literal(at(f"A{read + 1}"), 0.5)
    eng.set_formula(at(f"B{reader}"), "D1+1")
    eng.set_formula(at(f"A{reader + 1}"), f"B{read + 1}*10")
    for top in (4, 12):
        eng.declare_table(rng_(f"A{top}:B{top + 1}"), COLUMN_INPUT, at("A10"))
    for _ in range(3):
        eng.full_recalc()
        assert eng.get_value(at(f"B{reader + 1}")) == 21.0


@pytest.mark.parametrize("link", ["B5*100", "D12"], ids=["result", "body-cell"])
def test_reading_an_earlier_tables_body_sees_its_new_values(link):
    # the second table's function ignores its own input and reads the first
    # table's body, which the first table has just refilled
    eng = fresh()
    eng.set_formula(at("D1"), "A1*2")
    eng.set_formula(at("B4"), "D1")
    eng.set_literal(at("A5"), 1.0)
    eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A1"))
    eng.set_formula(at("D12"), "B5*100")
    eng.set_formula(at("B12"), link)
    eng.set_literal(at("A13"), 1.0)
    eng.declare_table(rng_("A12:B13"), COLUMN_INPUT, at("A10"))
    for _ in range(2):  # the first recalc already settles
        eng.full_recalc()
        assert eng.get_value(at("B13")) == 200.0


def test_function_body_without_inner_tables_is_unaffected():
    eng = fresh()
    eng.set_formula(at("D2"), 'A2&"!"')
    eng.set_formula(at("B4"), "D2")
    eng.set_literal(at("A5"), "q")
    eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    assert eng.get_value(at("B5")) == "q!"


# ---------------------------------------------------------------------------
# per-table plans
# ---------------------------------------------------------------------------


def test_plan_holds_only_its_own_function_body():
    eng = engine_for("isbn_basic.gwb")
    calls = [t for t in eng.workspace.tables if t.region.top_left.sheet == "Calls"]
    assert len(calls) == 5  # five calls share the input cell A2
    for table in calls:
        planned = {cell.content.cell for _, cell in eng.dependents_plan(table)}
        body = {parse_address(a, table.anchor) for a in ("B2", "C2", "D2")}
        assert planned == body | set(table.results)


def test_literal_edits_keep_plans_and_formula_edits_drop_them():
    # a plan's entries are bound once, each cell to its compiled function:
    # recalcs and literal edits keep the very objects
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    table = next(t for t in eng.workspace.tables if t.region.top_left.sheet == "Batch")
    plan = eng.dependents_plan(table)
    entries = list(plan)
    for fn, cell in entries:
        assert fn is eng.workspace.compiled[cell.content.template] and eng.workspace.cell(cell.content.cell) is cell
    eng.set_literal(batch_addr("A5"), "0201038021")
    eng.set_literal(batch_addr("E1"), 1.0)
    assert eng.dependents_plan(table) is plan
    eng.full_recalc()
    assert eng.get_value(batch_addr("B5")) == "valid"
    assert eng.dependents_plan(table) is plan  # not rebuilt by a recalc
    assert all(a is b for a, b in zip(entries, plan, strict=True))
    eng.set_formula(batch_addr("E1"), "1")
    assert eng.dependents_plan(table) is not plan


def test_a_formula_edit_in_a_plan_binds_the_new_formula():
    eng = fresh()
    eng.set_formula(at("D2"), "A2*2")
    eng.set_formula(at("B4"), "D2")
    eng.set_literal(at("A5"), 3.0)
    table = eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    assert eng.get_value(at("B5")) == 6.0
    plan = eng.dependents_plan(table)
    eng.set_formula(at("D2"), "A2*10")
    rebuilt = eng.dependents_plan(table)
    assert rebuilt is not plan
    (fn, cell), _ = rebuilt
    compiled = eng.workspace.compiled[cell.content.template]
    assert cell.content.cell == at("D2") and fn is compiled and cell.content.source == "A2*10"
    eng.full_recalc()
    assert eng.get_value(at("B5")) == 30.0


def test_a_plan_cell_reads_a_sheet_added_after_its_plan_was_bound():
    # the plan binds D2 while sheet Other is missing: D2's template resolves
    # that sheet on every read, so the kept plan reads it once it exists
    eng = fresh()
    eng.set_formula(at("D2"), "A2+Other!A1")
    eng.set_formula(at("B4"), "D2")
    eng.set_literal(at("A5"), 3.0)
    table = eng.declare_table(rng_("A4:B5"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    assert eng.get_value(at("B5")) is Error.REF
    plan = eng.dependents_plan(table)
    eng.workspace.workbook("T").ensure_sheet("Other")
    eng.set_literal(at("A1", sheet="Other"), 4.0)
    eng.full_recalc()
    assert eng.dependents_plan(table) is plan
    assert eng.get_value(at("B5")) == 7.0


@pytest.mark.parametrize("mode", ["small", "large"])
def test_a_steady_pass_makes_no_context_and_binds_nothing(monkeypatch, mode):
    eng = Engine(bench.build_workspace(20, mode, 1))
    eng.full_recalc()
    eng.full_recalc()
    ws = eng.workspace
    # each entry outside a cycle is its formula's compiled function and the sheet's own Cell
    entries = [entry for t in ws.tables for entry in eng.dependents_plan(t) if entry[0] is not None]
    assert entries
    for fn, cell in entries:
        assert fn is ws.compiled[cell.content.template] and ws.cell(cell.content.cell) is cell
    bound, bind = [], engine.bind
    # bind is the one entry of every evaluation outside a bound plan
    monkeypatch.setattr(engine, "bind", lambda *args: bound.append(args[1]) or bind(*args))
    stats = eng.full_recalc()
    assert stats.cell_evaluations == 60 and stats.body_passes == 20
    assert bound == []


def test_a_steady_recalc_reuses_the_order_of_its_tables(monkeypatch):
    # the first recalc builds one order and keeps none; a recalc with nothing
    # dirty keeps the tables' order, and later ones reuse it while what they
    # need lies inside it; a formula edit drops it with the plans
    eng = engine_for("isbn_basic.gwb")
    built = []
    components = Engine.components
    monkeypatch.setattr(Engine, "components", lambda self, *a: built.append(1) or components(self, *a))

    def orders(recalc=eng.full_recalc) -> int:
        built.clear()
        recalc()
        return len(built)

    assert [orders(), orders(), orders()] == [1, 1, 0]
    eng.set_literal(CellAddress(BOOK, "Single", 1, 2), "0201038021")  # its readers lie outside
    assert [orders(), orders()] == [1, 0]
    eng.set_literal(batch_addr("A5"), "0201038013")  # an argument: nothing outside runs
    assert [orders(), orders(eng.recalc_tables)] == [0, 0]
    eng.set_formula(batch_addr("E1"), "1")
    assert [orders(), orders(), orders()] == [1, 1, 0]
    assert eng.get_value(batch_addr("B5")) == "valid"


@pytest.mark.parametrize("input_kind", ["blank", "literal", "formula"])
def test_a_call_binds_one_cell_and_leaves_the_input_cell_as_it_was(monkeypatch, input_kind):
    eng = fresh()
    if input_kind == "literal":
        eng.set_literal(at("A2"), "abc")
    elif input_kind == "formula":
        eng.set_formula(at("A2"), '"ab"&"c"')
    eng.set_formula(at("D2"), 'IF(ISBLANK(A2),"blank",LEN(A2))')
    eng.set_formula(at("B4"), "D2")
    eng.set_literal(at("A5"), "four")  # A6 left blank
    eng.set_literal(at("A7"), 2.0)
    eng.declare_table(rng_("A4:B7"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    cells = eng.workspace.resolve_sheet(at("A2")).cells
    before = cells.get((2, 1))
    kept = None if before is None else (before.content, before.cached)
    bound = []
    run_plan = Engine.run_plan

    def recording(self, plan, stats):
        bound.append(cells[(2, 1)])
        return run_plan(self, plan, stats)

    monkeypatch.setattr(Engine, "run_plan", recording)
    for _ in range(2):
        bound.clear()
        eng.full_recalc()
        assert [eng.get_value(at(f"B{r}")) for r in (5, 6, 7)] == [4.0, "blank", 1.0]
        assert len(bound) == 3 and all(c is bound[0] for c in bound)  # one Cell for every pass
        if before is None:
            assert (2, 1) not in cells
        else:
            assert bound[0] is before and cells[(2, 1)] is before
            assert (before.content, before.cached) == kept
    assert eng.get_value(at("D2")) == ("blank" if before is None else 3.0)


def test_tables_sharing_an_input_check_its_dependents_for_a_cycle_once(monkeypatch):
    # with iterative calculation on, whether a cycle lies among the input
    # cell's dependents is found once for the 64 calls on A2, not per call
    ws = bench.build_workspace(64, "small", 1)
    ws.config = CalcConfig(iterative=True)
    eng = Engine(ws)
    checked, closure = [], eng.graph.dependents_closure
    monkeypatch.setattr(eng.graph, "dependents_closure", lambda s: checked.append(set(s)) or closure(s))
    stats = eng.full_recalc()
    assert checked == [{ws.tables[0].input_cell.sort_key}]
    assert (stats.body_passes, stats.table_restores) == (64, 64)
    plain = Engine(bench.build_workspace(64, "small", 1))
    plain.full_recalc()
    assert_same_grid(whole_grid(plain), whole_grid(eng))


def test_volatile_cell_feeding_a_result_is_rerun_each_pass():
    eng = fresh()
    eng.set_formula(at("B2"), 'INDIRECT("A2")*10')
    eng.set_formula(at("B4"), "B2")
    eng.set_literal(at("A5"), 1.0)
    eng.set_literal(at("A6"), 2.0)
    eng.declare_table(rng_("A4:B6"), COLUMN_INPUT, at("A2"))
    eng.full_recalc()
    assert eng.get_value(at("B5")) == 10.0
    assert eng.get_value(at("B6")) == 20.0
    assert eng.get_value(at("B2")) == 0.0  # A2 is blank again


def test_exception_mid_table_restores_input_and_other_cells(monkeypatch):
    mid = functions.REGISTRY["MID"]
    armed = []  # the input value MID fails on, once the first recalc is done

    def mid_failing_on_second_pass(*args):
        if armed and ws.value(table.input_cell) == armed[0]:
            raise RuntimeError("injected")
        return mid.fn(*args)

    # a formula binds its builtins when its shape is compiled, on its first
    # evaluation: the patch goes in before that and is armed after it
    monkeypatch.setitem(functions.REGISTRY, "MID", replace(mid, fn=mid_failing_on_second_pass))
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    ws = eng.workspace
    table = next(t for t in ws.tables if t.region.top_left.sheet == "Batch")
    second = ws.value(table.arguments[1])
    before = grid_without_bodies(eng)
    input_before = ws.cell(table.input_cell)
    armed.append(second)
    with pytest.raises(RuntimeError, match="injected"):
        eng.evaluate_table(table, EvalStats())
    assert ws.cell(table.input_cell) is input_before  # blank A2 stays blank
    after = grid_without_bodies(eng)
    assert set(before) == set(after)
    for addr in before:
        assert values_equal(before[addr], after[addr]), addr


def test_exception_in_a_plan_with_a_cycle_restores_it_and_evaluates_nothing(monkeypatch):
    # with iteration on, a cycle among the input's dependents puts every
    # dependent in the plan, and such a plan is run once more after its
    # passes; a pass that raises must instead restore each plan cell, the
    # cycle's too, and evaluate nothing after the raise
    mid = functions.REGISTRY["MID"]
    calls = []  # once armed: MID's calls, of which the first pass's succeeds and each later one raises

    def mid_failing_from_the_second_pass(*args):
        if calls:
            calls.append(args)
            if len(calls) > 2:
                raise RuntimeError("injected")
        return mid.fn(*args)

    monkeypatch.setitem(functions.REGISTRY, "MID", replace(mid, fn=mid_failing_from_the_second_pass))
    eng = fresh(CalcConfig(iterative=True))
    eng.set_formula(at("D2"), "D3+A1")
    eng.set_formula(at("D3"), "D2*0+1")
    eng.set_formula(at("D4"), 'MID("abc",1,1)&A1')
    eng.set_formula(at("D5"), "D4&A1")
    eng.set_formula(at("B4"), "D5")
    eng.set_literal(at("A5"), 1.0)
    eng.set_literal(at("A6"), 2.0)
    eng.declare_table(rng_("A4:B6"), COLUMN_INPUT, at("A1"))
    eng.full_recalc()
    cells = ("D2", "D3", "D4", "D5", "B4")
    before = [eng.get_value(at(a)) for a in cells]
    assert before == [1.0, 1.0, "a", "a", "a"]
    calls.append(None)
    with pytest.raises(RuntimeError, match="injected"):
        eng.full_recalc()
    assert len(calls) == 3  # the arming mark, the first pass's call and the one that raised
    assert [eng.get_value(at(a)) for a in cells] == before  # D2 read 3.0 when the pass raised
    assert eng.workspace.cell(at("A1")) is None


# ---------------------------------------------------------------------------
# property: a table call equals substituting by hand
# ---------------------------------------------------------------------------

_INPUTS = ("A1", "A2")
_TABLE_ROW_STEP = 6  # tables sit at rows 10, 16, 22 in columns A..C


@st.composite
def call_workbooks(draw, cross: bool = False):
    """Function bodies in C1..C4 over the inputs A1/A2 (some through
    INDIRECT), and 1-3 column-input tables whose inputs may coincide. With
    *cross*, result links and argument cells may also read any table's
    body, their own table's included, and argument cells may be formulas."""
    ints = st.integers(-3, 3).map(lambda n: f"{n}")
    values = st.none() | st.integers(-5, 5).map(float)
    literals = {a: draw(values) for a in _INPUTS}

    def operand(refs):
        return draw(st.sampled_from(refs) | ints | st.sampled_from(['INDIRECT("A1")', 'INDIRECT("A2")']))

    def expression(refs):
        shape = draw(st.sampled_from(["op", "op", "if"]))
        if shape == "if":
            return f"IF({operand(refs)}>{operand(refs)},{operand(refs)},{operand(refs)})"
        op = draw(st.sampled_from("+-*"))
        return f"{operand(refs)}{op}{operand(refs)}"

    body = {}
    for i in range(1, draw(st.integers(1, 4)) + 1):
        body[f"C{i}"] = expression(list(_INPUTS) + list(body))
    shapes = []  # (top row, links, argument rows)
    for k in range(draw(st.integers(1, 3))):
        shapes.append((10 + _TABLE_ROW_STEP * k, draw(st.integers(1, 2)), draw(st.integers(1, 3))))
    bodies = [f"{'BC'[j]}{top + 1 + i}" for top, n, rows in shapes for i in range(rows) for j in range(n)]
    refs = list(_INPUTS) + list(body) + (bodies if cross else [])
    tables = []
    for top, n, rows in shapes:
        links = [expression(refs) for _ in range(n)]
        args = [draw(values) if not cross or draw(st.booleans()) else expression(refs) for _ in range(rows)]
        tables.append((top, draw(st.sampled_from(_INPUTS)), links, args))
    return literals, body, tables


def _build(spec, with_tables: bool, table_recalc: str = "manual") -> Engine:
    literals, body, tables = spec
    eng = fresh(CalcConfig(table_recalc=table_recalc))
    for addr, v in literals.items():
        if v is not None:
            eng.set_literal(at(addr), v)
    for addr, source in body.items():
        eng.set_formula(at(addr), source)
    for top, input_text, links, args in tables:
        for j, source in enumerate(links):
            eng.set_formula(at(f"{'BC'[j]}{top}"), source)
        for i, v in enumerate(args):
            if isinstance(v, str):
                eng.set_formula(at(f"A{top + 1 + i}"), v)
            elif v is not None:
                eng.set_literal(at(f"A{top + 1 + i}"), v)
        if with_tables:
            region = rng_(f"A{top}:{'BC'[len(links) - 1]}{top + len(args)}")
            eng.declare_table(region, COLUMN_INPUT, at(input_text))
    return eng


def whole_grid(eng: Engine) -> dict:
    """Every cell's value, table bodies included."""
    return {
        (wb.name, sheet.name, key): cell.cached
        for wb in eng.workspace.workbooks()
        for sheet in wb.sheets()
        for key, cell in sheet.cells.items()
    }


def assert_same_grid(before: dict, after: dict) -> None:
    assert set(before) == set(after)
    for key in before:
        assert values_equal(before[key], after[key]), (key, before[key], after[key])


@settings(max_examples=80, deadline=None)
@given(call_workbooks(cross=True))
def test_unchanged_workbook_recalculates_to_the_same_grid(spec):
    # tables whose links and arguments read table bodies, their own
    # included: the first recalc settles, in both table modes
    auto = _build(spec, with_tables=True, table_recalc="auto")
    auto.full_recalc()
    first = whole_grid(auto)
    auto.full_recalc()
    assert_same_grid(first, whole_grid(auto))
    manual = _build(spec, with_tables=True)
    manual.full_recalc()
    manual.recalc_tables()
    assert_same_grid(first, whole_grid(manual))
    manual.recalc_tables()
    assert_same_grid(first, whole_grid(manual))


@settings(max_examples=60, deadline=None)
@given(call_workbooks(cross=True), st.data())
def test_kept_plans_and_orders_follow_edits_between_recalcs(spec, data):
    # after each edit that may stale what a call or a walk keeps (a formula
    # in a function body, a new reader of a table body, that table's
    # argument, a new table), the grid is that of a fresh engine over the
    # same workspace, and stays so over a recalc with nothing dirty
    _, body, tables = spec
    table_recalc = data.draw(st.sampled_from(["auto", "manual"]))
    eng = _build(spec, with_tables=True, table_recalc=table_recalc)

    def recalc(engine: Engine) -> dict:
        engine.full_recalc()
        if table_recalc == "manual":
            engine.recalc_tables()
        return whole_grid(engine)

    recalc(eng)
    recalc(eng)
    top = tables[0][0]
    edits = [
        lambda: eng.set_formula(at(data.draw(st.sampled_from(sorted(body)))), "A1+A2*2"),
        lambda: eng.set_formula(at("E1"), f"B{top + 1}*2"),
        lambda: eng.set_literal(at(f"A{top + 1}"), data.draw(st.integers(-5, 5).map(float))),
        lambda: (
            eng.set_formula(at("B40"), data.draw(st.sampled_from(sorted(body)))),
            eng.set_literal(at("A41"), 4.0),
            eng.declare_table(rng_("A40:B41"), COLUMN_INPUT, at("A1")),
        ),
    ]
    for edit in edits:
        edit()
        got = recalc(eng)
        assert_same_grid(got, recalc(Engine(eng.workspace)))
        assert_same_grid(got, recalc(eng))


@settings(max_examples=60, deadline=None)
@given(call_workbooks(cross=True))
def test_shuffled_tie_breaking_gives_the_same_grid(spec):
    # ties between tables, and between tables and cells, may go either way
    want = _build(spec, with_tables=True, table_recalc="auto")
    want.full_recalc()
    for seed in range(3):
        eng = _build(spec, with_tables=True, table_recalc="auto")
        eng.full_recalc(rng=random.Random(seed))
        assert_same_grid(whole_grid(want), whole_grid(eng))


@settings(max_examples=60, deadline=None)
@given(call_workbooks())
def test_table_calls_equal_substitution_and_touch_only_bodies(spec):
    eng = _build(spec, with_tables=True)
    eng.full_recalc()
    before = grid_without_bodies(eng)
    eng.recalc_tables()
    after = grid_without_bodies(eng)
    assert set(before) == set(after)
    for addr in before:
        assert values_equal(before[addr], after[addr]), addr
    for top, input_text, links, args in spec[2]:
        for i, v in enumerate(args):
            plain = _build(spec, with_tables=False)
            plain.set_cell(at(input_text), None if v is None else Literal(v))
            plain.full_recalc()
            for j in range(len(links)):
                got = eng.get_value(at(f"{'BC'[j]}{top + 1 + i}"))
                want = plain.get_value(at(f"{'BC'[j]}{top}"))
                assert values_equal(got, want), (top, i, j)


# ---------------------------------------------------------------------------
# property: the restore puts back what a run of the plan would give
# ---------------------------------------------------------------------------


class Injected(Exception):
    pass


@settings(max_examples=80, deadline=None)
@given(call_workbooks(cross=True))
def test_restored_plan_equals_a_run_of_the_plan(spec):
    # after every table a recalc runs, a forced run of its plan, with the
    # input cell back, changes no plan cell: the values kept before the
    # first pass are current, in both table modes
    evaluate_table = Engine.evaluate_table

    def then_run_the_plan(eng, table, stats):
        changed = evaluate_table(eng, table, stats)
        plan = eng.dependents_plan(table)
        restored = [(cell.content.cell, cell, cell.cached) for _, cell in plan]
        eng.run_plan(plan, EvalStats())
        for addr, cell, cached in restored:
            assert values_equal(cached, cell.cached), (table, addr, cached, cell.cached)
        return changed

    with mock.patch.object(Engine, "evaluate_table", then_run_the_plan):
        auto = _build(spec, with_tables=True, table_recalc="auto")
        auto.full_recalc()
        auto.full_recalc()
        manual = _build(spec, with_tables=True)
        manual.full_recalc()
        manual.recalc_tables()


@settings(max_examples=80, deadline=None)
@given(call_workbooks(cross=True), st.data())
def test_bound_plan_entries_evaluate_as_their_cells_formulas(spec, data):
    # each entry's function on its cell's formula gives what a fresh bind
    # gives for it, after a recalc and after an argument's literal edit
    eng = _build(spec, with_tables=True, table_recalc="auto")
    ws = eng.workspace

    def check() -> None:
        eng.full_recalc()
        for table in ws.tables:
            for fn, cell in eng.dependents_plan(table):
                if fn is not None:
                    assert ws.cell(cell.content.cell) is cell
                    assert values_equal(fn(cell.content), evaluated(ws, cell.content)), cell.content.cell

    check()
    top, _, _, args = data.draw(st.sampled_from(spec[2]), label="table")
    row = top + 1 + data.draw(st.integers(0, len(args) - 1), label="argument")
    eng.set_literal(at(f"A{row}"), data.draw(st.integers(-5, 5).map(float), label="value"))
    check()


@settings(max_examples=80, deadline=None)
@given(call_workbooks(cross=True), st.data())
def test_exception_in_any_pass_changes_nothing_outside_bodies(spec, data):
    # a pass of some table fails after running part of its plan: every cell
    # outside table bodies keeps its value, each input cell is the same Cell
    # as before, and no formula (so no builtin) is evaluated after the raise:
    # neither one bound where it runs (bind is the one entry outside a
    # plan) nor by a plan's bound functions, which the failing pass's stats
    # count
    eng = _build(spec, with_tables=True, table_recalc="auto")
    passes = eng.full_recalc().body_passes
    assume(passes > 0)
    failing = data.draw(st.integers(1, passes), label="failing pass")
    cut = data.draw(st.integers(0, 6), label="plan entries run before the failure")
    ws = eng.workspace
    before = grid_without_bodies(eng)
    inputs = {t.input_cell: ws.cell(t.input_cell) for t in ws.tables}
    seen = {"passes": 0, "raised": False, "evaluated_after": 0}
    run_plan, bind = eng.run_plan, engine.bind

    def failing_run_plan(plan, stats):
        seen["passes"] += 1
        if seen["passes"] == failing:
            run_plan(plan[:cut], stats)
            seen["raised"] = True
            seen["stats"], seen["evaluations"] = stats, stats.cell_evaluations
            raise Injected
        run_plan(plan, stats)

    def counting_bind(*args):
        seen["evaluated_after"] += seen["raised"]
        return bind(*args)

    eng.run_plan = failing_run_plan
    with mock.patch("gridcalc.engine.bind", counting_bind), pytest.raises(Injected):
        eng.full_recalc()
    assert seen["evaluated_after"] == 0
    assert seen["stats"].cell_evaluations == seen["evaluations"]
    for addr, cell in inputs.items():
        assert ws.cell(addr) is cell, addr
    after = grid_without_bodies(eng)
    assert set(before) == set(after)
    for addr in before:
        assert values_equal(before[addr], after[addr]), addr
