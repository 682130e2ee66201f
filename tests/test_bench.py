from __future__ import annotations

import pytest

from gridcalc import bench, formula, tables
from gridcalc.engine import Engine


def test_small_mode_counts():
    rows, _ = bench.run(5, "small", repeat=1, seed=3)
    stats = rows[0].stats
    assert stats.body_passes == 5
    assert stats.table_restores == 5


def test_large_mode_counts():
    rows, _ = bench.run(5, "large", repeat=1, seed=3)
    stats = rows[0].stats
    assert stats.body_passes == 5
    assert stats.table_restores == 1


def test_modes_return_identical_values():
    _, small = bench.run(8, "small", seed=21)
    _, large = bench.run(8, "large", seed=21)
    assert small == large
    assert set(small) <= {"valid", "invalid"}
    assert "valid" in small and "invalid" in small


def test_degenerate_single_call():
    rows_s, vals_s = bench.run(1, "small", seed=5)
    rows_l, vals_l = bench.run(1, "large", seed=5)
    assert vals_s == vals_l
    assert rows_s[0].stats.body_passes == rows_l[0].stats.body_passes == 1
    assert rows_s[0].stats.table_restores - rows_l[0].stats.table_restores == 0  # 1 vs 1


def test_candidates_are_reproducible():
    assert bench.candidates(50, 9) == bench.candidates(50, 9)
    assert bench.candidates(50, 9) != bench.candidates(50, 10)


def test_repeat_emits_one_row_per_recalc():
    rows, _ = bench.run(3, "large", repeat=4, seed=1)
    assert len(rows) == 4
    for row in rows:
        assert row.stats.body_passes == 3


def test_csv_schema():
    rows, _ = bench.run(2, "small", repeat=2, seed=1)
    text = bench.format_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "mode,calls,seconds,cell_evaluations,body_passes,table_restores"
    assert len(lines) == 3
    for line in lines[1:]:
        mode, calls, seconds, evals, passes, restores = line.split(",")
        assert mode == "small"
        assert int(calls) == 2
        float(seconds)
        assert int(passes) == 2
        assert int(restores) == 2
        int(evals)


def test_out_of_grid_call_count_rejected():
    with pytest.raises(ValueError):
        bench.build_workspace(0, "small", 1)
    with pytest.raises(ValueError):
        bench.build_workspace(600_000, "small", 1)
    with pytest.raises(ValueError):
        bench.build_workspace(5, "medium", 1)


def test_small_mode_parses_each_shape_once(monkeypatch):
    # the body's two formulas, then 64 links of one shape, each in a row of its own
    calls = []
    plain = formula.parse_formula
    monkeypatch.setattr(formula, "parse_formula", lambda *args: calls.append(args[0]) or plain(*args))
    ws = bench.build_workspace(64, "small", 1)
    assert len(calls) == len(ws.templates) == 3


@pytest.mark.parametrize("n", [100, 300])
def test_evaluation_counts_are_linear_in_calls(n):
    # small: N+2 dirty cells, then per call one pass of the 3-cell body;
    # large: 3 dirty cells, then N passes. A restore puts the body's kept
    # values back and evaluates nothing. Later recalcs have nothing dirty
    # and nothing volatile: only the passes run.
    (small, small2), _ = bench.run(n, "small", repeat=2)
    (large, large2), _ = bench.run(n, "large", repeat=2)
    assert small.stats.cell_evaluations == 4 * n + 2
    assert large.stats.cell_evaluations == 3 * n + 3
    assert small2.stats.cell_evaluations == 3 * n
    assert large2.stats.cell_evaluations == 3 * n


@pytest.mark.parametrize("mode", ["small", "large"])
def test_recalc_runs_plans_through_the_wrapped_entry_points(monkeypatch, mode):
    # per-layer timings wrap these attributes from outside: every plan run
    # and every table schedule must go through them
    calls = {"run_plan": 0, "schedule_tables": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Engine, "run_plan", counting("run_plan", Engine.run_plan))
    monkeypatch.setattr(tables, "schedule_tables", counting("schedule_tables", tables.schedule_tables))
    eng = Engine(bench.build_workspace(20, mode, 1))
    for recalcs in (1, 2):
        stats = eng.full_recalc()
        assert calls["run_plan"] == stats.body_passes  # a restore runs no plan
        assert calls["schedule_tables"] == recalcs
        calls["run_plan"] = 0
