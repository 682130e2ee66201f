from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gridcalc import Engine, LoadError, dump_sheet, dump_workbook_source, load_workspace
from gridcalc.model import (
    ERROR_CODES,
    CellAddress,
    Error,
    Formula,
    Literal,
    TableBody,
    Workspace,
    column_to_letters,
    parse_address,
    values_equal,
)
from conftest import ALL_WORKBOOK_ASSETS, LINE_ENDINGS, assets, engine_for


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
    assert ws.defined_names["answer"][1] == parse_address("[wb]Main!B1", CellAddress("wb", "Main", 1, 1))
    assert len(ws.tables) == 1
    assert isinstance(sheet.cell(5, 2).content, TableBody)


@pytest.mark.parametrize(
    "source, value",
    [("S1!A1*2", 10.0), ("SUM(S1!A1:A2)", 12.0), ("TRUE!A1+1", 4.0), ("s1!a1&true!a1", "53"), ("SUM(A2,S1!A1)", 5.0)],
)
def test_a_sheet_named_as_a_cell_or_a_boolean_reads_is_named_in_formulas(tmp_path, source, value):
    # S1 reads as a cell and TRUE as a boolean; before a '!' each names its sheet
    ws = load_one(tmp_path, f"sheet S1\nA1 : 5\nA2 : 7\nsheet TRUE\nA1 : 3\nsheet Main\nA1 = {source}\n")
    Engine(ws).full_recalc()
    assert ws.workbook("wb").sheet("Main").value(1, 1) == value


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


def test_a_table_body_over_an_earlier_tables_input_cell_is_refused_at_its_line(tmp_path):
    e = err(tmp_path, INPUT_IN_A_LATER_BODY)
    assert e.line_no == 9  # the second table's declaration
    assert "D10" in e.message and "input cell" in e.message


def test_syntax_error_reports_line(tmp_path):
    e = err(tmp_path, "A1 : 1\nwhat is this\n")
    assert e.line_no == 2


# a row past MAX_ROWS, a column past MAX_COLUMNS, each also absolute or in
# lower case, and row 0
@pytest.mark.parametrize("cell", ["A0", "XFE1", "A1048577", "$XFE$7", "xfe1", "B$1048577", "XFE1048577"])
def test_cell_directive_outside_the_grid_is_load_error(tmp_path, cell):
    e = err(tmp_path, f"A1 : 1\n{cell} : 2\n")
    assert (e.line_no, e.message) == (2, f"reference {cell!r} is outside the grid")
    assert str(e).endswith(f"wb.gwb:2: reference {cell!r} is outside the grid")


@pytest.mark.parametrize("cell, column, row", [("XFD1048576", 16_384, 1_048_576), ("$xfd$2", 16_384, 2), ("b$3", 2, 3)])
def test_cell_directive_on_the_grid_edge_loads(tmp_path, cell, column, row):
    ws = load_one(tmp_path, f"{cell} : 2\n")
    assert ws.value(CellAddress("wb", "Sheet1", column, row)) == 2.0


def test_cell_directive_is_read_from_its_own_match(tmp_path, monkeypatch):
    from gridcalc import gwb

    read = []
    real = gwb.grid_coordinates
    monkeypatch.setattr(gwb, "grid_coordinates", lambda *parts: read.append(parts) or real(*parts))
    load_one(tmp_path, 'A1 : 1\n$xfd$2 = A1\nB$3 : "x"\n')
    assert read == [("A", "1"), ("xfd", "2"), ("B", "3")]


def test_duplicate_cell_rejected(tmp_path):
    e = err(tmp_path, "A1 : 1\nA1 : 2\n")
    assert "twice" in e.message
    # sheet names match case-insensitively, so DATA is the sheet Data again
    e = err(tmp_path, "sheet Data\nA1 : 1\nsheet DATA\nA1 : 2\n")
    assert e.line_no == 4 and e.message == "cell A1 defined twice"


def test_bad_formula_rejected(tmp_path):
    assert err(tmp_path, "A1 = 1+\n").line_no == 1
    assert "TABLE" in err(tmp_path, "A1 = TABLE(,A2)\n").message


def test_text_with_line_breaks_loads_from_an_escaped_literal(tmp_path):
    ws = load_one(tmp_path, 'A1 :: "a\\nb\\u2028\\"c\\""\nA2 :: "plain"\n')
    assert ws.value(parse_address("[wb]Sheet1!A1", CellAddress("wb", "Sheet1", 1, 1))) == 'a\nb\u2028"c"'
    assert dump_workbook_source(ws, "wb").splitlines()[1:] == ['A1 :: "a\\nb\\u2028\\"c\\""', 'A2 : "plain"']


def test_bad_literal_rejected(tmp_path):
    err(tmp_path, 'A1 : "unterminated\n')
    err(tmp_path, "A1 : 12abc\n")
    err(tmp_path, "A1 : 1e400\n")  # beyond the float range
    err(tmp_path, "A1 :: 5\n")  # escaped text must be a JSON string
    err(tmp_path, 'A1 :: "open\n')
    err(tmp_path, "A1 :: " + "[" * 100_000 + "\n")  # nested past the recursion limit


def test_two_input_tables_rejected(tmp_path):
    e = err(tmp_path, "B4 = 1\nA5 : 2\ntable A4:B5 colinput=A2 rowinput=B1\n")
    assert "two-input" in e.message


def test_table_option_given_twice_rejected(tmp_path):
    e = err(tmp_path, "B4 = 1\nA5 : 2\ntable A4:B5 colinput=A2 colinput=A3\n")
    assert (e.line_no, e.message) == (3, "table option 'colinput' given twice")


def test_table_region_violations_rejected(tmp_path):
    e = err(tmp_path, "table A4:A9 colinput=A2\n")
    assert "2x2" in e.message
    e = err(tmp_path, "A1 : 1\ntable B4 colinput=A2\n")  # one cell is a 1x1 region
    assert e.line_no == 2 and e.message.endswith("must be at least 2x2")
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


# Directive lines of every kind, well and badly formed, that whole files are
# drawn from: sheets, names, tables with their options, literals, formulas,
# {=TABLE} markers, out-of-grid and malformed references.
_SHEET_LINES = st.sampled_from(["Sheet1", "Data", "DATA", "S2", "A["]).map("sheet {}".format)
_NAME_LINES = st.builds(
    "name {} = {}".format,
    st.sampled_from(["N", "n", "Total", "MATCH", "A1"]),
    st.sampled_from(["Sheet1!A1", "Data!A1:B2", "Sheet1!B2", "A1", "Sheet1!XFE1", "Sheet1!A1:"]),
)
_TABLE_LINES = st.builds(
    "table {} {}".format,
    st.sampled_from(["A4:B5", "A4:C6", "A4:B6", "A4:A9", "XFE1:XFE2", "A4:B5:C6"]),
    st.lists(
        st.sampled_from(["colinput=A2", "rowinput=B1", "colinput=A3", "colinput=B5", "colinput=A2:A3", "foo=1"]),
        min_size=1,
        max_size=2,
    ).map(" ".join),
)
_CELL_LINES = st.builds(
    "{} {}".format,
    st.sampled_from(["A1", "A2", "B4", "C4", "A5", "A6", "B5", "C5", "B6", "XFE1", "$B$2"]),
    st.one_of(
        st.sampled_from([": 1", ': "x"', ':: "a\\nb"', ": x", ": 1e400", ":: 5"]),
        st.sampled_from(["= A1*2", "= SUM(A1:B2)", "= Data!A1", "= [wb]Nope!A1", "= 1+", "= ", "= A0", "= TABLE(,A2)"]),
        st.sampled_from(["= {=TABLE(,A2)}", "= {=TABLE(B1,)}", "= {=TABLE(,A3)}", "= {=TABLE(,A2:A3)}", "= {=TABLE(,)}"]),
    ),
)
_OTHER_LINES = st.sampled_from(["# comment", "", "what"])
_DIRECTIVE_LINES = st.one_of(_SHEET_LINES, _NAME_LINES, _TABLE_LINES, _CELL_LINES, _CELL_LINES, _OTHER_LINES)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_DIRECTIVE_LINES, min_size=1, max_size=12))
def test_any_file_of_directives_loads_or_is_load_error_at_one_of_its_lines(tmp_path, lines):
    path = write(tmp_path, "wb.gwb", "\n".join(lines) + "\n")
    try:
        load_workspace([path])
    except LoadError as exc:
        assert exc.path == path and 1 <= exc.line_no <= len(lines)


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
    with pytest.raises(LoadError) as exc:
        load_workspace([gws])
    assert (exc.value.path, exc.value.line_no) == (gws, 2)
    assert exc.value.message == "workbook 'a' already exists"


def test_gws_malformed_workbook_name_is_reported_at_its_line(tmp_path):
    gws = write(tmp_path, "ws.gws", "workbook A[ a.gwb\n")
    with pytest.raises(LoadError) as exc:
        load_workspace([gws])
    assert (exc.value.path, exc.value.line_no) == (gws, 1)
    assert "forbidden character" in exc.value.message


@pytest.mark.parametrize("listed", ["missing.gwb", "a\0.gwb"])
def test_gws_listing_an_unreadable_workbook_reports_that_file(tmp_path, listed):
    gws = write(tmp_path, "ws.gws", f"workbook A {listed}\n")
    with pytest.raises(LoadError) as exc:
        load_workspace([gws])
    assert (exc.value.path, exc.value.line_no) == (tmp_path / listed, 0)
    assert exc.value.message.startswith("cannot read file")


def test_gwb_files_with_one_stem_are_rejected_at_the_second(tmp_path):
    (tmp_path / "x").mkdir()
    first = write(tmp_path, "a.gwb", "A1 : 1\n")
    second = write(tmp_path, "x/A.gwb", "A1 : 1\n")
    with pytest.raises(LoadError) as exc:
        load_workspace([first, second])
    assert (exc.value.path, exc.value.line_no) == (second, 0)


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
# numeric text, text holding line endings (and the escape's own characters),
# the booleans and the error codes. Text leaves out lone surrogates, which
# no UTF-8 file can hold.
LITERAL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e308, 1.7976931348623157e308, 2.0**53, 2.0**53 + 2]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "a", "A", "aBc", "1", "-0", " 2 ", "1e308", "TRUE", 'say "hi"']),
    st.sampled_from(["a\nb", "a\r\nb", "\n", "a\n", " \u2028 ", '"\\n"\n', "é\x85ü"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
    st.text(alphabet=LINE_ENDINGS + '"\\ a'),
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
    literal = content.template.ast if isinstance(content, Formula) else content
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


def _formula_terms(book: str, sheets: list, row: int) -> list:
    """What a formula in column C, row *row*, of a sheet of *book* may read:
    literal cells of its own sheet, of each sheet of its book and of the
    other book, small ranges, both defined names, INDIRECT over literal
    cells, the table links and bodies, and the formulas above it."""
    other = "B" if book == "A" else "A"
    terms = ["A1", "$A$2", "A$3", "NA", "NB", "SUM(A1:A3)", f"SUM([{other}]One!A2:A3)", "ROWS(A1:B2)"]
    terms += [f"{s}!A{k}" for s in sheets for k in (1, 3)] + [f"[{other}]One!A{k}" for k in (1, 2)]
    terms += ['INDIRECT("A3")', f'INDIRECT("[{other}]One!A1")', "B6", "B7", f"[{other}]One!B7"]
    return terms + [f"C{above}" for above in range(1, row)]


_FORMULA_SHAPES = ["{}", "{}+{}", "{}&{}", "SUM({},{})", "IF(ISBLANK({}),0,{})", "LEN({})*{}"]
_SOURCE_LITERALS = st.one_of(st.integers(-9, 99).map(str), st.sampled_from(['"x"', '"0123"', '""', '"a b"', "2.5"]))


# where a drawn table may stand: regions anchored at distinct corners never
# overlap; and the input cells it may read, two of them in another table's body
_TABLE_CORNERS = [(6, 1), (6, 5), (10, 1), (10, 5)]
_TABLE_INPUTS = ["A2", "A3", "B7", "F11"]


@st.composite
def call_tables(draw, second: str) -> list:
    """The ``.gwb`` lines of one to three data tables on one sheet, each 2
    or 3 cells each way, column- or row-input, at distinct corners, on one
    of a few input cells: its result links, its argument literals, its
    body's markers and its declaration. A table's body may hold another's
    input cell, which the load refuses in either order."""
    lines = []
    for top, left in draw(st.lists(st.sampled_from(_TABLE_CORNERS), min_size=1, max_size=3, unique=True)):
        rows, cols = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        by_column, given = draw(st.booleans()), draw(st.sampled_from(_TABLE_INPUTS))
        links = [given, f'{given}&"!"', f"LEN({given})+[B]{second}!A1", f"SUM({given},C1)", "C2"]
        marker = f"{{=TABLE(,{given})}}" if by_column else f"{{=TABLE({given},)}}"
        for r in range(top, top + rows):
            for c in range(left, left + cols):
                at = f"{column_to_letters(c)}{r}"
                if (r == top) != (c == left):  # a result link or an argument
                    link = (r == top) == by_column
                    lines.append(f"{at} = {draw(st.sampled_from(links))}" if link else f"{at} : {draw(_SOURCE_LITERALS)}")
                elif r > top:
                    lines.append(f"{at} = {marker}")
        region = f"{column_to_letters(left)}{top}:{column_to_letters(left + cols - 1)}{top + rows - 1}"
        lines.append(f"table {region} {'colinput' if by_column else 'rowinput'}={given}")
    return lines


@st.composite
def workspace_sources(draw) -> dict:
    """The ``.gwb`` text of two workbooks, A and B, of one or two sheets
    each: literals in A1:A3 of every sheet, up to three formulas in column
    C, a defined name per book, and on each book's first sheet one to
    three data tables (:func:`call_tables`). A second sheet may be named as
    a cell or a boolean reads."""
    texts, second = {}, draw(st.sampled_from(["Two", "S1", "True"]))
    for book in "AB":
        sheets = ["One", second][: draw(st.integers(1, 2))]
        lines = []
        for sheet in sheets:
            lines.append(f"sheet {sheet}")
            lines += [f"A{r} : {draw(_SOURCE_LITERALS)}" for r in (1, 2, 3)]
            for row in range(1, draw(st.integers(0, 3)) + 1):
                shape = draw(st.sampled_from(_FORMULA_SHAPES))
                terms = st.sampled_from(_formula_terms(book, sheets, row))
                lines.append(f"C{row} = " + shape.format(*[draw(terms) for _ in range(shape.count("{}"))]))
            if sheet == "One":
                lines += draw(call_tables(second))
        lines.append(f"name N{book} = {draw(st.sampled_from(['One!A1', 'One!A2:A3']))}")
        texts[book] = "\n".join(lines) + "\n"
    return texts


def _load_books(folder, texts: dict):
    """Write *texts* as ``<book>.gwb`` files in *folder*, list them in a
    ``.gws`` under their own names, and load that."""
    folder.mkdir(exist_ok=True)
    for book, text in texts.items():
        write(folder, f"{book}.gwb", text)
    return load_workspace([write(folder, "all.gws", "".join(f"workbook {b} {b}.gwb\n" for b in texts))])


# a table whose body holds the input cell of a table declared before it;
# its dump lists the two the other way round
INPUT_IN_A_LATER_BODY = (
    "sheet One\nB20 = D10*2\nA21 : 5\ntable A20:B21 colinput=D10\n"
    "D9 = A1+1\nE9 = A1+2\nC10 : 7\nC11 : 8\ntable C9:E11 colinput=A1\n"
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(workspace_sources())
@example({"A": INPUT_IN_A_LATER_BODY, "B": "sheet One\nA1 : 1\n"})
def test_whole_workspaces_round_trip_through_source_dumps(tmp_path, texts):
    # a workspace that loads: each book's dump, loaded again under its own
    # name, dumps to the same text, and every sheet recalculates to the
    # same values as the original
    try:
        ws1 = _load_books(tmp_path / "drawn", texts)
    except LoadError as e:  # a drawn table's input cell in its own region or another's body
        assert "input cell" in str(e)
        return
    dumps = {book: dump_workbook_source(ws1, book) for book in texts}
    ws2 = _load_books(tmp_path / "dumped", dumps)
    assert {book: dump_workbook_source(ws2, book) for book in texts} == dumps
    grids = []
    for ws in (ws1, ws2):
        Engine(ws).full_recalc()
        grids.append({(wb.name, sh.name): dump_sheet(ws, wb.name, sh.name) for wb in ws.workbooks() for sh in wb.sheets()})
    assert grids[0] == grids[1]


def test_deeply_nested_formula_is_load_error(tmp_path):
    e = err(tmp_path, "A1 : 1\nB1 = " + "(" * 3000 + "A1" + ")" * 3000 + "\n")
    assert e.line_no == 2
    assert e.message.startswith("B1: formula nested more than")
