from __future__ import annotations

import pytest

from gridcalc.cli import main

from conftest import assets


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_get_prints_cell_value(capsys):
    code, out, _ = run(capsys, "get", *assets("isbn_basic.gwb"), "[isbn_basic]Batch!B7")
    assert code == 0
    assert out == "valid\n"


def test_get_undeclared_cell_prints_empty_line(capsys):
    code, out, _ = run(capsys, "get", *assets("isbn_basic.gwb"), "[isbn_basic]Batch!Z99")
    assert code == 0
    assert out == "\n"


@pytest.mark.parametrize(
    "cell, message",
    [
        ("Nope!A1", "unknown sheet 'Nope' in workbook 'isbn_basic'"),
        ("[zz]Single!A1", "unknown workbook 'zz'"),
    ],
)
def test_get_on_a_missing_sheet_or_workbook_exits_2(capsys, cell, message):
    code, out, err = run(capsys, "get", *assets("isbn_basic.gwb"), cell)
    assert (code, out, err) == (2, "", message + "\n")


def test_get_defaults_to_first_workbook_and_sheet(capsys):
    code, out, _ = run(capsys, "get", *assets("isbn_basic.gwb"), "D2")
    assert code == 0
    assert out == "valid\n"  # Single sheet's result


def test_get_range_is_usage_error(capsys):
    code, _, err = run(capsys, "get", *assets("isbn_basic.gwb"), "A1:B2")
    assert code == 2
    assert "single cell" in err


def test_recalc_stats(capsys):
    code, out, _ = run(capsys, "recalc", "--stats", *assets("isbn_basic.gwb"))
    assert code == 0
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert int(lines["body_passes"]) == 10
    assert int(lines["table_restores"]) == 6
    assert float(lines["wall_time"]) >= 0


def test_recalc_quiet_by_default(capsys):
    code, out, _ = run(capsys, "recalc", *assets("isbn_basic.gwb"))
    assert code == 0
    assert out == ""


def test_manual_mode_leaves_bodies_unfilled(capsys):
    code, out, _ = run(
        capsys,
        "get",
        "--table-recalc=manual",
        *assets("isbn_basic.gwb"),
        "[isbn_basic]Batch!B7",
    )
    assert code == 0
    assert out == "\n"  # body cell never filled


def test_dump_tsv_single_sheet(capsys):
    code, out, _ = run(
        capsys, "dump", *assets("isbn_basic.gwb"), "--sheet", "Single"
    )
    assert code == 0
    assert out.splitlines()[1] == "8320425395\tvalid\t#VALUE!\tvalid"


def test_dump_source_whole_workbook(capsys):
    code, out, _ = run(capsys, "dump", *assets("isbn_basic.gwb"), "--format", "source")
    assert code == 0
    assert "sheet Single" in out and "table A4:B9 colinput=A2" in out


def test_dump_unknown_sheet_exits_2(capsys):
    code, _, err = run(capsys, "dump", *assets("isbn_basic.gwb"), "--sheet", "Missing")
    assert code == 2
    assert err == "unknown sheet 'Missing'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["get", "isbn_basic.gwb", "A1!!"], "bad cell reference: cannot parse reference 'A1!!'"),
        (["get", "empty.gws", "A1"], "empty workspace"),
        (["dump", "isbn_basic.gwb", "--book", "zz"], "unknown workbook 'zz'"),
        (["dump", "isbn_basic.gwb"], "--sheet is required for tsv dumps of multi-sheet workbooks"),
        (["dump", "empty.gws"], "empty workspace"),
    ],
    ids=["bad-reference", "get-empty", "unknown-book", "tsv-without-sheet", "dump-empty"],
)
def test_usage_errors_exit_2_with_their_message(capsys, tmp_path, argv, message):
    # empty.gws lists no workbook; the .gwb names are shipped assets
    (tmp_path / "empty.gws").write_text("# no workbooks\n", encoding="utf-8")
    files = {"empty.gws": tmp_path / "empty.gws", "isbn_basic.gwb": assets("isbn_basic.gwb")[0]}
    code, out, err = run(capsys, argv[0], files[argv[1]], *argv[2:])
    assert (code, out, err) == (2, "", message + "\n")


def test_dump_needs_book_when_ambiguous(capsys):
    code, _, err = run(capsys, "dump", *assets("lib.gwb", "book2.gwb"), "--format", "source")
    assert code == 2
    assert "--book" in err


def test_dump_with_book_selection(capsys):
    code, out, _ = run(
        capsys,
        "dump",
        *assets("lib.gwb", "book2.gwb"),
        "--book",
        "lib",
        "--sheet",
        "ISBN10check",
        "--format",
        "source",
    )
    assert code == 0
    assert "B9 = IF(B7=B8," in out


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "recalc", tmp_path / "absent.gwb")
    assert code == 1
    assert "absent.gwb" in err


def test_load_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.gwb"
    bad.write_text("A1 = 1+\n", encoding="utf-8")
    code, _, err = run(capsys, "recalc", bad)
    assert code == 1
    assert "bad.gwb:1" in err


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recalc"])  # missing files
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--calls", "5", "--mode", "weird"])
    assert exc.value.code == 2


def test_bench_csv_output(capsys):
    code, out, _ = run(capsys, "bench", "--calls", "4", "--mode", "large", "--repeat", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode,calls,seconds,cell_evaluations,body_passes,table_restores"
    assert len(lines) == 3
    assert all(line.startswith("large,4,") for line in lines[1:])


def test_bench_out_of_grid_exits_2(capsys):
    code, _, err = run(capsys, "bench", "--calls", "600000", "--mode", "small")
    assert code == 2
    assert "grid" in err


def test_get_through_workspace_file(capsys):
    from gridcalc.bench import asset_path

    code, out, _ = run(capsys, "get", asset_path("demo.gws"), "[Book2]Sheet1!F3")
    assert code == 0
    assert out == "valid\n"


def test_bad_calc_flag_value_exits_2(capsys):
    code, _, err = run(capsys, "recalc", "--max-iter", "0", *assets("isbn_basic.gwb"))
    assert code == 2
    assert "max_iterations" in err


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_max_change_that_is_not_at_least_zero_exits_2(capsys, tmp_path, value):
    wb = tmp_path / "halve.gwb"
    wb.write_text("A1 = A1/2+1\n", encoding="utf-8")
    code, out, err = run(capsys, "recalc", "--iterative", "--max-change", value, "--stats", wb)
    assert code == 2
    assert out == ""
    assert "max_change" in err


def test_iterative_flags_flow_through(capsys, tmp_path):
    wb = tmp_path / "c.gwb"
    wb.write_text("A1 = A1+1\n", encoding="utf-8")
    code, out, _ = run(capsys, "get", "--iterative", "--max-iter", "7", wb, "A1")
    assert code == 0
    assert out == "7\n"
    code, out, _ = run(capsys, "get", wb, "A1")
    assert code == 0
    assert out == "#CYCLE!\n"


def test_get_prints_num_for_a_non_finite_result(capsys, tmp_path):
    wb = tmp_path / "n.gwb"
    wb.write_text(
        "A1 = (-8)^0.5\nA2 = SUM(1e308,1e308)\nA3 = SUMPRODUCT({1e308;1e308},{10;10})\n",
        encoding="utf-8",
    )
    for cell in ("A1", "A2", "A3"):
        code, out, _ = run(capsys, "get", wb, cell)
        assert (code, out) == (0, "#NUM!\n"), cell


def test_deeply_nested_formula_exits_1(capsys, tmp_path):
    path = tmp_path / "deep.gwb"
    path.write_text("A1 : 1\nB1 = " + "(" * 3000 + "A1" + ")" * 3000 + "\n", encoding="utf-8")
    code, _, err = run(capsys, "recalc", path)
    assert code == 1
    assert f"{path}:2: B1: formula nested more than" in err


def test_non_ascii_formula_exits_1(capsys, tmp_path):
    path = tmp_path / "accent.gwb"
    path.write_text("B1 : 1\nA1 = 1+\u00e9\n", encoding="utf-8")
    code, _, err = run(capsys, "recalc", path)
    assert code == 1
    assert err == f"{path}:2: A1: illegal character '\u00e9' (at offset 2)\n"


def test_file_that_is_not_utf8_exits_1(capsys, tmp_path):
    path = tmp_path / "latin1.gwb"
    path.write_bytes(b'A1 : 1\nA2 : "caf\xe9"\n')
    code, _, err = run(capsys, "recalc", path)
    assert code == 1
    assert err.startswith(f"{path}:2: not UTF-8 text")
