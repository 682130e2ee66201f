from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gridcalc import Engine, LoadError, dump_sheet, dump_workbook_source, load_workspace
from gridcalc.model import (
    ERROR_CODES,
    CellAddress,
    Error,
    Formula,
    Literal,
    TableBody,
    Workspace,
    parse_address,
    values_equal,
)
from conftest import ALL_WORKBOOK_ASSETS, assets, engine_for


def write(tmp_path, name: str, text: str):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_one(tmp_path, text: str, name: str = "wb.gwb"):
    return load_workspace([write(tmp_path, name, text)])


# ---------------------------------------------------------------------------
# directive grammar
# ---------------------------------------------------------------------------


def test_literals_formulas_names_tables(tmp_path):
    ws = load_one(
        tmp_path,
        """
# a comment
sheet Main
A1 : 42
A2 : "with ""quotes"" inside"
A3 : -1.5
B1 = A1*2
name Answer = Main!B1
B4 = D2
A5 : "x"
table A4:B5 colinput=A2
""",
    )
    wb = ws.workbook("wb")
    sheet = wb.sheet("Main")
    assert sheet.value(1, 1) == 42.0
    assert sheet.value(2, 1) == 'with "quotes" inside'
    assert sheet.value(3, 1) == -1.5
    assert isinstance(sheet.cell(1, 2).content, Formula)
    assert ws.resolve_name("answer") == parse_address("[wb]Main!B1", CellAddress("wb", "Main", 1, 1))
    assert len(ws.tables) == 1
    assert isinstance(sheet.cell(5, 2).content, TableBody)


def test_text_preserves_leading_zero_and_x(tmp_path):
    ws = load_one(tmp_path, 'A1 : "020103803X"\nB1 = LEN(A1)\n')
    eng = Engine(ws)
    eng.full_recalc()
    assert ws.value(parse_address("[wb]Sheet1!A1", CellAddress("wb", "Sheet1", 1, 1))) == "020103803X"
    assert ws.value(parse_address("[wb]Sheet1!B1", CellAddress("wb", "Sheet1", 1, 1))) == 10.0


def test_default_sheet_is_created_lazily(tmp_path):
    ws = load_one(tmp_path, "A1 : 1\n")
    assert ws.workbook("wb").sheet("Sheet1") is not None


def test_body_placeholders_round_trip(tmp_path):
    text = """sheet S
B4 = D2
A5 : "v"
B5 = {=TABLE(,A2)}
table A4:B5 colinput=A2
"""
    ws = load_one(tmp_path, text)
    assert isinstance(ws.workbook("wb").sheet("S").cell(5, 2).content, TableBody)


def test_scientific_notation_numbers(tmp_path):
    ws = load_one(tmp_path, "A1 : 1e+300\nA2 : 2.5e-3\n")
    sheet = ws.workbook("wb").sheet("Sheet1")
    assert sheet.value(1, 1) == 1e300
    assert sheet.value(2, 1) == 0.0025


# ---------------------------------------------------------------------------
# load errors
# ---------------------------------------------------------------------------


def err(tmp_path, text: str) -> LoadError:
    with pytest.raises(LoadError) as exc:
        load_one(tmp_path, text)
    return exc.value


def test_syntax_error_reports_line(tmp_path):
    e = err(tmp_path, "A1 : 1\nwhat is this\n")
    assert e.line_no == 2


def test_duplicate_cell_rejected(tmp_path):
    e = err(tmp_path, "A1 : 1\nA1 : 2\n")
    assert "twice" in e.message


def test_bad_formula_rejected(tmp_path):
    assert err(tmp_path, "A1 = 1+\n").line_no == 1
    assert "TABLE" in err(tmp_path, "A1 = TABLE(,A2)\n").message


def test_bad_literal_rejected(tmp_path):
    err(tmp_path, 'A1 : "unterminated\n')
    err(tmp_path, "A1 : 12abc\n")
    err(tmp_path, "A1 : 1e400\n")  # beyond the float range


def test_two_input_tables_rejected(tmp_path):
    e = err(tmp_path, "B4 = 1\nA5 : 2\ntable A4:B5 colinput=A2 rowinput=B1\n")
    assert "two-input" in e.message


def test_table_region_violations_rejected(tmp_path):
    e = err(tmp_path, "table A4:A9 colinput=A2\n")
    assert "2x2" in e.message
    e = err(tmp_path, "B4 = 1\nA5 : 1\ntable A4:B5 colinput=B5\n")
    assert "inside" in e.message


def test_orphan_placeholder_rejected(tmp_path):
    e = err(tmp_path, "B5 = {=TABLE(,A2)}\n")
    assert "outside" in e.message


def test_mismatched_placeholder_rejected(tmp_path):
    e = err(
        tmp_path,
        "B4 = 1\nA5 : 1\nB5 = {=TABLE(,A3)}\ntable A4:B5 colinput=A2\n",
    )
    assert "does not match" in e.message


def test_populated_body_cell_rejected(tmp_path):
    e = err(tmp_path, "B4 = 1\nA5 : 1\nB5 : 9\ntable A4:B5 colinput=A2\n")
    assert "not empty" in e.message


def test_duplicate_name_rejected(tmp_path):
    e = err(tmp_path, "A1 : 1\nname N = Sheet1!A1\nname n = Sheet1!A1\n")
    assert "already exists" in e.message


def test_builtin_name_collision_rejected(tmp_path):
    e = err(tmp_path, "A1 : 1\nname MATCH = Sheet1!A1\n")
    assert "builtin" in e.message


def test_missing_file_is_load_error(tmp_path):
    with pytest.raises(LoadError):
        load_workspace([tmp_path / "nope.gwb"])


@pytest.mark.parametrize(
    "data, line_no",
    [
        (b'A1 : 1\nA2 : "caf\xe9"\n', 2),  # Latin-1, not UTF-8
        (b"\xff\xfeA\x001\x00", 1),  # UTF-16
        (b'A1 : "\xc3\xa9"\r\n\r\nA3 : "\xe9', 3),  # after valid UTF-8 and CRLF
    ],
)
def test_file_that_is_not_utf8_is_load_error(tmp_path, data, line_no):
    path = tmp_path / "wb.gwb"
    path.write_bytes(data)
    with pytest.raises(LoadError) as exc:
        load_workspace([path])
    assert exc.value.line_no == line_no
    assert "UTF-8" in exc.value.message


def test_workspace_file_that_is_not_utf8_is_load_error(tmp_path):
    write(tmp_path, "one.gwb", "A1 : 1\n")
    gws = tmp_path / "ws.gws"
    gws.write_bytes(b"# \xe9\nworkbook One one.gwb\n")
    with pytest.raises(LoadError) as exc:
        load_workspace([gws])
    assert (exc.value.path, exc.value.line_no) == (gws, 1)


def test_non_ascii_in_formula_is_load_error(tmp_path):
    e = err(tmp_path, "A1 : 1\nA2 = 1+\u00e9\n")
    assert str(e).endswith(":2: A2: illegal character '\u00e9' (at offset 2)")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.text())
def test_any_formula_line_loads_or_is_load_error(tmp_path, text):
    path = write(tmp_path, "wb.gwb", "A1 : 1\nB1 = " + text + "\n")
    try:
        load_workspace([path])
    except LoadError:
        pass


# ---------------------------------------------------------------------------
# workspace files
# ---------------------------------------------------------------------------


def test_gws_names_workbooks(tmp_path):
    write(tmp_path, "one.gwb", "A1 : 1\n")
    write(tmp_path, "two.gwb", "A1 = [First]Sheet1!A1+1\n")
    gws = write(tmp_path, "ws.gws", "# demo\nworkbook First one.gwb\nworkbook Second two.gwb\n")
    ws = load_workspace([gws])
    assert [wb.name for wb in ws.workbooks()] == ["First", "Second"]
    eng = Engine(ws)
    eng.full_recalc()
    a1 = parse_address("[Second]Sheet1!A1", CellAddress("x", "y", 1, 1))
    assert ws.value(a1) == 2.0


def test_gws_duplicate_workbook_rejected(tmp_path):
    write(tmp_path, "one.gwb", "A1 : 1\n")
    gws = write(tmp_path, "ws.gws", "workbook A one.gwb\nworkbook a one.gwb\n")
    with pytest.raises(LoadError):
        load_workspace([gws])


def test_dangling_external_reference_loads_as_ref_error(tmp_path):
    ws = load_one(tmp_path, "A1 = [Missing]Sheet1!A1\n")
    eng = Engine(ws)
    eng.full_recalc()
    a1 = parse_address("[wb]Sheet1!A1", CellAddress("wb", "Sheet1", 1, 1))
    assert ws.value(a1) is Error.REF


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def test_tsv_row_2_of_single_sheet():
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    tsv = dump_sheet(eng.workspace, "isbn_basic", "Single", "tsv")
    assert tsv.splitlines()[1] == "8320425395\tvalid\t#VALUE!\tvalid"


def test_tsv_row_5_of_byref_sheet():
    eng = engine_for("isbn_byref.gwb")
    eng.full_recalc()
    tsv = dump_sheet(eng.workspace, "isbn_byref", "Sheet1", "tsv")
    assert tsv.splitlines()[4] == "0\t201\t03803\tX\tA5:D5\tvalid"


def test_empty_sheet_dumps_empty(tmp_path):
    ws = load_one(tmp_path, "sheet Empty\n")
    assert dump_sheet(ws, "wb", "Empty", "tsv") == ""


def test_unknown_sheet_raises_key_error():
    eng = engine_for("isbn_basic.gwb")
    with pytest.raises(KeyError):
        dump_sheet(eng.workspace, "isbn_basic", "NoSuch", "tsv")


def test_source_dump_renders_body_markers():
    eng = engine_for("isbn_basic.gwb")
    out = dump_sheet(eng.workspace, "isbn_basic", "Batch", "source")
    assert "B5 = {=TABLE(,A2)}" in out
    assert "table A4:B9 colinput=A2" in out


def test_boolean_literals_survive_source_round_trip(tmp_path):
    ws = load_one(tmp_path, "A1 = TRUE\n")
    eng = Engine(ws)
    eng.full_recalc()
    text = dump_workbook_source(ws, "wb")
    ws2 = load_one(tmp_path, text, name="wb2.gwb")
    eng2 = Engine(ws2)
    eng2.full_recalc()
    a1 = CellAddress("wb2", "Sheet1", 1, 1)
    assert ws2.value(a1) is True


# Literal values: signed zeros, extreme floats, text in case variants and
# numeric text, the booleans and the error codes. Text leaves out the
# characters that end a line: a directive is one line, and the format has
# no escape for them.
LITERAL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e308, 1.7976931348623157e308, 2.0**53, 2.0**53 + 2]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "a", "A", "aBc", "1", "-0", " 2 ", "1e308", "TRUE", 'say "hi"']),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"))),
    st.booleans(),
    st.sampled_from([Error.of(code) for code in ERROR_CODES]),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(LITERAL_VALUES)
def test_literal_cell_round_trips_through_source_dump(tmp_path, value):
    ws = Workspace()
    ws.add_workbook("wb").ensure_sheet("Sheet1")
    a1 = CellAddress("wb", "Sheet1", 1, 1)
    Engine(ws).set_literal(a1, value)
    text = dump_workbook_source(ws, "wb")
    ws2 = load_one(tmp_path, text)
    content = ws2.cell(a1).content
    # TRUE, FALSE and error codes are written as formulas holding the literal
    literal = content.ast if isinstance(content, Formula) else content
    assert isinstance(literal, Literal) and values_equal(literal.value, value)
    assert dump_workbook_source(ws2, "wb") == text


# ---------------------------------------------------------------------------
# round-trip fixed point
# ---------------------------------------------------------------------------


def workspace_signature(ws):
    sig = []
    for wb in ws.workbooks():
        for sheet in wb.sheets():
            for key in sorted(sheet.cells):
                cell = sheet.cells[key]
                c = cell.content
                if isinstance(c, Literal):
                    sig.append((wb.name, sheet.name, key, "lit", c.value))
                elif isinstance(c, Formula):
                    sig.append((wb.name, sheet.name, key, "formula", c.source))
                else:
                    sig.append((wb.name, sheet.name, key, "body", None))
    sig.append(sorted((k, v[0], repr(v[1])) for k, v in ws.defined_names.items()))
    sig.append(
        sorted(
            (repr(t.region), t.orientation, repr(t.input_cell))
            for t in ws.tables
        )
    )
    return sig


@pytest.mark.parametrize("asset", ALL_WORKBOOK_ASSETS)
def test_source_round_trip_is_fixed_point(asset, tmp_path):
    ws1 = load_workspace(assets(asset))
    name = asset.removesuffix(".gwb")
    dump1 = dump_workbook_source(ws1, name)
    path = tmp_path / f"{name}.gwb"
    path.write_text(dump1, encoding="utf-8")
    ws2 = load_workspace([path])
    dump2 = dump_workbook_source(ws2, name)
    assert dump1 == dump2
    assert workspace_signature(ws1) == workspace_signature(ws2)


def test_round_trip_preserves_recalc_results(tmp_path):
    eng1 = engine_for("isbn_basic.gwb")
    eng1.full_recalc()
    dump1 = dump_workbook_source(eng1.workspace, "isbn_basic")
    path = tmp_path / "isbn_basic.gwb"
    path.write_text(dump1, encoding="utf-8")
    eng2 = Engine(load_workspace([path]))
    eng2.full_recalc()
    for sheet in ("Single", "Batch", "Calls"):
        assert dump_sheet(eng1.workspace, "isbn_basic", sheet, "tsv") == dump_sheet(
            eng2.workspace, "isbn_basic", sheet, "tsv"
        )


def test_tsv_dumps_are_stable_across_recalcs():
    eng = engine_for("isbn_basic.gwb", "isbn_byref.gwb", "lib.gwb", "book2.gwb")
    eng.full_recalc()
    first = {
        (wb.name, sh.name): dump_sheet(eng.workspace, wb.name, sh.name, "tsv")
        for wb in eng.workspace.workbooks()
        for sh in wb.sheets()
    }
    for _ in range(3):
        eng.full_recalc()
        for (wbn, shn), text in first.items():
            assert dump_sheet(eng.workspace, wbn, shn, "tsv") == text


def test_deeply_nested_formula_is_load_error(tmp_path):
    e = err(tmp_path, "A1 : 1\nB1 = " + "(" * 3000 + "A1" + ")" * 3000 + "\n")
    assert e.line_no == 2
    assert e.message.startswith("B1: formula nested more than")
