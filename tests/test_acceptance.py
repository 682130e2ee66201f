"""Acceptance suite: one test per shipped criterion.

Each test pins the criterion's expected values and budget and prints a
single PASS line (visible with ``pytest -s`` or on failure) so the whole
gate can be read at a glance.
"""

from __future__ import annotations

import random
import time

from gridcalc import Engine, dump_sheet, dump_workbook_source, load_workspace
from gridcalc.bench import asset_path, run as bench_run
from gridcalc.engine import values_equal
from gridcalc.formula import shared_formula
from gridcalc.isbn import isbn10_check_char, isbn10_valid, isbn13_check_digit, isbn13_valid
from gridcalc.model import (
    CalcConfig,
    CellAddress,
    Error,
    Literal,
    Workspace,
    parse_address,
)

from conftest import ALL_WORKBOOK_ASSETS, assets, engine_for
from test_functions import ISBN10_FORMULA, ISBN13_FORMULA, ROUTER_FORMULA

def a(text: str, book: str, sheet: str) -> CellAddress:
    return parse_address(text, CellAddress(book, sheet, 1, 1))


def ok(n: int, message: str) -> None:
    print(f"PASS criterion {n}: {message}")


def test_criterion_01_golden_grid_single_use():
    t0 = time.perf_counter()
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    tsv = dump_sheet(eng.workspace, "isbn_basic", "Single", "tsv")
    assert tsv.splitlines()[1] == "8320425395\tvalid\t#VALUE!\tvalid"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(1, f"single-use sheet row 2 exact ({elapsed:.3f}s)")


def test_criterion_02_golden_grid_five_row_table():
    t0 = time.perf_counter()
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    ws = eng.workspace
    for r in range(5, 10):
        assert ws.value(a(f"B{r}", "isbn_basic", "Batch")) == "valid"
    assert ws.value(a("A2", "isbn_basic", "Batch")) is None
    assert ws.value(a("B2", "isbn_basic", "Batch")) is Error.VALUE
    assert ws.value(a("C2", "isbn_basic", "Batch")) is Error.VALUE
    assert ws.value(a("D2", "isbn_basic", "Batch")) == ""
    assert ws.value(a("B4", "isbn_basic", "Batch")) == ""
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(2, f"five-row table all valid, input restored ({elapsed:.3f}s)")


def test_criterion_03_scattered_calls_with_documented_typo():
    t0 = time.perf_counter()
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    ws = eng.workspace

    def calls():
        return {cell: ws.value(a(cell, "isbn_basic", "Calls")) for cell in ("B5", "D6", "B8", "D9", "B11")}

    got = calls()
    assert got == {"B5": "valid", "D6": "valid", "B8": "invalid", "D9": "valid", "B11": "valid"}
    # the as-printed value really is invalid per the independent oracle
    assert not isbn13_valid("9780201038099")
    # companion: the corrected check digit makes the same call valid
    assert isbn13_valid("9780201038095")
    eng.set_literal(a("A8", "isbn_basic", "Calls"), "9780201038095")
    eng.full_recalc()
    assert calls()["B8"] == "valid"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(3, f"2x2 calls valid; as-printed 9780201038099 invalid per oracle ({elapsed:.3f}s)")


def test_criterion_04_call_by_reference():
    eng = engine_for("isbn_byref.gwb")
    eng.full_recalc()
    ws = eng.workspace
    assert ws.value(a("F5", "isbn_byref", "Sheet1")) == "valid"
    # with the input cell blank, the helpers show #REF! and the result gate is empty
    assert ws.value(a("A2", "isbn_byref", "Sheet1")) is None
    assert ws.value(a("B2", "isbn_byref", "Sheet1")) is Error.REF
    assert ws.value(a("C2", "isbn_byref", "Sheet1")) is Error.REF
    assert ws.value(a("D2", "isbn_byref", "Sheet1")) == ""
    assert ws.value(a("F4", "isbn_byref", "Sheet1")) == ""
    ok(4, "A5:D5 blocks validate through INDIRECT; blank input degrades to #REF!")


def test_criterion_05_library_linking():
    eng = Engine(load_workspace([asset_path("demo.gws")]))
    eng.full_recalc()
    ws = eng.workspace
    for sheet in ("Sheet1", "Sheet2"):
        link = ws.cell(a("F2", "Book2", sheet)).content
        assert link.source == "[lib]ISBN10check!B9"
        assert ws.value(a("F3", "Book2", sheet)) == "valid"
    assert ws.value(a("F6", "Book2", "Sheet1")) == "valid"  # ISSNcheck call
    ok(5, "cross-workbook calls evaluate; multiplexed input serves two sheets")


def test_criterion_06_xadr_and_workaround_agree():
    eng = Engine(load_workspace([asset_path("demo.gws")]))
    target = a("H1", "Book2", "Sheet1")
    eng.set_formula(target, "XADR(A1:A5)")
    workaround = a("H2", "Book2", "Sheet1")
    eng.set_formula(
        workaround,
        '"[Book2]" & ADDRESS(ROW(A1:A5), COLUMN(A1:A5), 4, TRUE, "Sheet1") & ":" & '
        "ADDRESS(ROW(A1:A5)+ROWS(A1:A5)-1, COLUMN(A1:A5)+COLUMNS(A1:A5)-1, 4)",
    )
    eng.full_recalc()
    assert eng.get_value(target) == "[Book2]Sheet1!A1:A5"
    assert eng.get_value(workaround) == "[Book2]Sheet1!A1:A5"
    ok(6, "XADR(A1:A5) and the ADDRESS workaround both give [Book2]Sheet1!A1:A5")


def test_criterion_07_no_nesting():
    from test_tables import nested_engine, at as t_at

    eng = nested_engine(inner_first=True)
    ws = eng.workspace
    inner_body = t_at("B5")
    eng.full_recalc()
    inner_before = ws.value(inner_body)
    # re-run only the outer table and watch the inner body the whole time
    outer = next(t for t in ws.tables if t.input_cell == t_at("E1"))
    from gridcalc.engine import EvalStats
    from gridcalc.tables import evaluate_table

    seen = []
    original_run_plan = eng.run_plan

    def spying_run_plan(plan, stats):
        original_run_plan(plan, stats)
        seen.append(ws.value(inner_body))

    eng.run_plan = spying_run_plan
    evaluate_table(eng, outer, EvalStats())
    eng.run_plan = original_run_plan
    assert seen, "outer table ran at least one pass"
    assert all(values_equal(v, inner_before) for v in seen)  # stale throughout
    assert ws.value(t_at("B9")) == "-in!b"  # outer used the stale inner value
    ok(7, "inner call body stayed stale during every outer pass")


def test_criterion_08_side_effects_gated_by_iterative_calculation():
    # without iterative calculation, table passes change only body cells
    corpus = [assets(name) for name in ALL_WORKBOOK_ASSETS] + [[asset_path("demo.gws")]]
    for paths in corpus:
        ws = load_workspace(paths, CalcConfig(table_recalc="manual"))
        eng = Engine(ws)
        eng.full_recalc()
        bodies = {addr for t in ws.tables for addr in t.body_cells()}

        def snapshot():
            out = {}
            for wb in ws.workbooks():
                for sheet in wb.sheets():
                    for (row, col), cell in sheet.cells.items():
                        addr = CellAddress(wb.name, sheet.name, col, row)
                        out[addr] = cell.cached
            return out

        before = snapshot()
        eng.recalc_tables()
        after = snapshot()
        diff = {
            addr
            for addr in set(before) | set(after)
            if not values_equal(before.get(addr), after.get(addr))
        }
        assert diff <= bodies, f"{paths}: non-body cells changed: {diff - bodies}"
    # with iterative calculation on, a self-referential counter observably moves
    from test_tables import counter_engine, at as t_at

    eng = counter_engine(iterative=True)
    eng.full_recalc()
    first = eng.get_value(t_at("F1"))
    eng.full_recalc()
    second = eng.get_value(t_at("F1"))
    assert isinstance(first, float) and second > first
    off = counter_engine(iterative=False)
    off.full_recalc()
    assert off.get_value(t_at("F1")) is Error.CYCLE
    off.full_recalc()
    assert off.get_value(t_at("F1")) is Error.CYCLE
    ok(8, "phase 2 touches only body cells; iterative mode enables the counter")


def test_criterion_09_eval_count_model_and_budget():
    rows_small, vals_small = bench_run(1000, "small", repeat=1, seed=77)
    rows_large, vals_large = bench_run(1000, "large", repeat=1, seed=77)
    s, l = rows_small[0].stats, rows_large[0].stats
    assert s.body_passes == 1000 and s.table_restores == 1000
    assert l.body_passes == 1000 and l.table_restores == 1
    assert vals_small == vals_large
    assert l.wall_time <= s.wall_time
    rows_10k, _ = bench_run(10_000, "large", repeat=1, seed=78)
    assert rows_10k[0].stats.wall_time < 5.0
    ok(
        9,
        "small 1000 -> 1000 passes/1000 restores, large 1000 -> 1000/1, "
        f"large<=small ({l.wall_time:.3f}s vs {s.wall_time:.3f}s), "
        f"10000-call recalc {rows_10k[0].stats.wall_time:.3f}s < 5s",
    )


def _mixed_candidates(n: int, seed: int) -> list[str]:
    """Seeded candidates of lengths 9-14 over digits and X.

    Length-12 and length-14 candidates end in X: the 13-digit check formula
    reads characters 1-12 plus the *last* character, so all-digit strings
    of those lengths can satisfy it by accident. Those formula artifacts
    are pinned in their own test, not sampled at random here.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        length = rng.choice((9, 10, 10, 10, 10, 11, 12, 13, 13, 13, 14))
        if length == 10:
            prefix = "".join(rng.choice("0123456789") for _ in range(9))
            roll = rng.random()
            if roll < 0.45:
                out.append(prefix + isbn10_check_char(prefix))
            elif roll < 0.55:
                out.append(prefix + "X")
            else:
                out.append(prefix + rng.choice("0123456789"))
        elif length == 13:
            prefix = "".join(rng.choice("0123456789") for _ in range(12))
            if rng.random() < 0.5:
                out.append(prefix + isbn13_check_digit(prefix))
            else:
                out.append(prefix + rng.choice("0123456789"))
        elif length in (12, 14):
            out.append("".join(rng.choice("0123456789") for _ in range(length - 1)) + "X")
        else:
            out.append("".join(rng.choice("0123456789") for _ in range(length)))
    return out


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    ws = Workspace()
    ws.add_workbook("T").ensure_sheet("S")
    sheet = ws.workbook("T").sheet("S")
    for col, src in ((2, ISBN10_FORMULA), (3, ISBN13_FORMULA), (4, ROUTER_FORMULA)):
        at = CellAddress("T", "S", col, 2)
        sheet.set_content(2, col, shared_formula(src, at, ws.templates))
    eng = Engine(ws)
    input_cell = CellAddress("T", "S", 1, 2)
    result_cell = CellAddress("T", "S", 4, 2)

    def verdict(candidate: str) -> bool:
        eng.set_cell(input_cell, Literal(candidate))
        eng.full_recalc()
        return ws.value(result_cell) == "valid"

    candidates = _mixed_candidates(1000, seed=20260809)
    divergent = 0
    for c in candidates:
        oracle = isbn10_valid(c) or isbn13_valid(c)
        engine_valid = verdict(c)
        in_divergence_class = (
            len(c) == 10
            and c[:9].isdigit()
            and sum((10 - i) * int(d) for i, d in enumerate(c[:9])) % 11 == 0
            and c[9] == "0"
        )
        if in_divergence_class:
            assert oracle and not engine_valid, c  # disagree exactly as documented
            divergent += 1
        else:
            assert engine_valid == oracle, c
    assert verdict("0000000000") is False and isbn10_valid("0000000000")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(10, f"1000 candidates agree except {divergent} in the zero-check class ({elapsed:.2f}s)")


def test_criterion_11_determinism_and_round_trip(tmp_path):
    eng = engine_for(*ALL_WORKBOOK_ASSETS)
    eng.full_recalc()
    first = {
        (wb.name, sh.name): dump_sheet(eng.workspace, wb.name, sh.name, "tsv")
        for wb in eng.workspace.workbooks()
        for sh in wb.sheets()
    }
    eng.full_recalc()
    for (wbn, shn), text in first.items():
        assert dump_sheet(eng.workspace, wbn, shn, "tsv") == text
    for name in ALL_WORKBOOK_ASSETS:
        stem = name.removesuffix(".gwb")
        ws1 = load_workspace(assets(name))
        dump1 = dump_workbook_source(ws1, stem)
        path = tmp_path / name
        path.write_text(dump1, encoding="utf-8")
        ws2 = load_workspace([path])
        assert dump_workbook_source(ws2, stem) == dump1
    ok(11, "byte-identical tsv across recalcs; source dumps are fixed points")
