from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from gridcalc import isbn
from gridcalc.engine import Engine
from gridcalc.formula import shared_formula
from gridcalc.functions import (
    BINARY_FNS,
    NEGATE,
    REGISTRY,
    Arg,
    array_lift,
    indirect_ref,
    match_index,
    match_key,
)
from gridcalc.model import (
    AddressError,
    Array,
    CellAddress,
    Error,
    Literal,
    Workspace,
    parse_address,
)
from conftest import evaluated

# Dot products recomputed here, independently of the engine, and frozen.
ISBN10_WEIGHTS = [10, 9, 8, 7, 6, 5, 4, 3, 2]
ISBN13_WEIGHTS = [1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3]
assert sum(d * w for d, w in zip([8, 3, 2, 0, 4, 2, 5, 3, 9], ISBN10_WEIGHTS)) == 204
assert sum(d * w for d, w in zip([9, 7, 8, 0, 2, 0, 1, 1, 3, 4, 4, 7], ISBN13_WEIGHTS)) == 84

ISBN10_FORMULA = (
    'IF(12-MOD(SUMPRODUCT(VALUE(MID(A2,{1;2;3;4;5;6;7;8;9},1)),{10;9;8;7;6;5;4;3;2}),11)'
    '=MATCH(RIGHT(A2),{"0";"1";"2";"3";"4";"5";"6";"7";"8";"9";"X"},0),"valid","invalid")'
)
ISBN13_FORMULA = (
    'IF(MOD(10-MOD(SUMPRODUCT(VALUE(MID(A2,{1;2;3;4;5;6;7;8;9;10;11;12},1)),'
    '{1;3;1;3;1;3;1;3;1;3;1;3}),10),10)=VALUE(RIGHT(A2)),"valid","invalid")'
)
ROUTER_FORMULA = 'IF(ISBLANK(A2),"",IF(LEN(A2)=10,B2,C2))'


def scratch() -> Workspace:
    ws = Workspace()
    ws.add_workbook("T").ensure_sheet("S")
    return ws


def addr(col: int, row: int) -> CellAddress:
    return CellAddress("T", "S", col, row)


def ev(source: str, ws: Workspace | None = None, at: CellAddress | None = None):
    ws = ws or scratch()
    at = at or addr(8, 8)
    return evaluated(ws, shared_formula(source, at, ws.templates))


def put(ws: Workspace, a: CellAddress, value) -> None:
    ws.resolve_sheet(a).set_content(a.row, a.column, Literal(value))


def col(*values) -> Array:
    return Array([[v] for v in values])


def applied(spec, *args):
    """Scalar builtin or operator *spec* applied to the values *args* as a
    compiled formula applies it: each value is held in a cell (None leaves
    it blank), so that it is coerced at run time, and the call reads them."""
    ws = scratch()
    cells = [f"{'ABC'[i]}1" for i in range(len(args))]
    for i, v in enumerate(args):
        if v is not None:
            put(ws, addr(i + 1, 1), v)
    if spec is NEGATE:
        source = f"-{cells[0]}"
    elif BINARY_FNS.get(spec.name) is spec:
        source = f"{cells[0]}{spec.name}{cells[1]}"
    else:
        source = f"{spec.name}({','.join(cells)})"
    return ev(source, ws)


def apply_binary(op: str, a, b):
    """Operator *op* applied as a compiled formula applies it."""
    return applied(BINARY_FNS[op], a, b)


# ---------------------------------------------------------------------------
# array lifting
# ---------------------------------------------------------------------------


def test_mid_lifts_elementwise():
    assert ev('MID("820",{1;2;3},1)') == col("8", "2", "0")


def test_value_of_mid_digits():
    out = ev('VALUE(MID("8320425395",{1;2;3;4;5;6;7;8;9},1))')
    assert out == col(8.0, 3.0, 2.0, 0.0, 4.0, 2.0, 5.0, 3.0, 9.0)


def test_mismatched_shapes_fill_with_value_error():
    for n in range(1, 4):
        for m in range(1, 4):
            left = "{" + ";".join(["1"] * n) + "}"
            right = "{" + ";".join(["1"] * m) + "}"
            out = ev(f"{left}+{right}")
            if n == m:
                assert out == col(*([2.0] * n))
            else:
                assert out == col(*([Error.VALUE] * max(n, m)))


def test_scalar_error_broadcasts_elementwise():
    out = array_lift(lambda a, b: a, (None, None), [Error.REF, col(1.0, 2.0)])
    assert out == col(Error.REF, Error.REF)


def test_lift_composition_matches_elementwise_map():
    text = "8320425395"
    composed = ev('VALUE(MID("%s",{1;2;3;4;5;6;7;8;9},1))' % text)
    mapped = col(*(float(ev(f'VALUE(MID("{text}",{i},1))')) for i in range(1, 10)))
    assert composed == mapped


# ---------------------------------------------------------------------------
# SUMPRODUCT / SUM
# ---------------------------------------------------------------------------


def test_sumproduct_isbn10_weights():
    assert ev("SUMPRODUCT({8;3;2;0;4;2;5;3;9},{10;9;8;7;6;5;4;3;2})") == 204.0


def test_sumproduct_isbn13_weights():
    assert ev("SUMPRODUCT({9;7;8;0;2;0;1;1;3;4;4;7},{1;3;1;3;1;3;1;3;1;3;1;3})") == 84.0


def test_sumproduct_trivial():
    assert ev("SUMPRODUCT({1},{1})") == 1.0


def test_sumproduct_shape_mismatch():
    assert ev("SUMPRODUCT({1;2},{1;2;3})") is Error.VALUE


def test_sumproduct_error_element_wins():
    assert ev('SUMPRODUCT(VALUE(MID("",{1;2},1)),{1;2})') is Error.VALUE


def test_sumproduct_nonnumeric_counts_zero():
    assert ev('SUMPRODUCT({"x";2},{3;4})') == 8.0


def test_sum():
    assert ev("SUM(1,2,3)") == 6.0
    assert ev('SUM({1;2;"skip";TRUE},4)') == 7.0  # text/booleans in arrays ignored
    assert ev('SUM("5",TRUE)') == 6.0  # direct scalars coerce
    assert ev('SUM({1;#REF!})') is Error.REF


# ---------------------------------------------------------------------------
# MATCH
# ---------------------------------------------------------------------------

DIGITS_AND_X = '{"0";"1";"2";"3";"4";"5";"6";"7";"8";"9";"X"}'


def test_match_check_characters():
    assert ev(f'MATCH("X",{DIGITS_AND_X},0)') == 11.0
    assert ev(f'MATCH("5",{DIGITS_AND_X},0)') == 6.0


def test_match_not_found():
    assert ev('MATCH("q",{"0";"1"},0)') is Error.NA


def test_match_case_insensitive():
    assert ev(f'MATCH("x",{DIGITS_AND_X},0)') == 11.0


def test_match_requires_exact_mode():
    assert ev('MATCH("a",{"a";"b"},1)') is Error.VALUE
    assert ev('MATCH("a",{"a";"b"})') is Error.VALUE
    assert ev('MATCH("a",{"a";"b"},)') == 1.0  # omitted mode means exact


def test_match_rejects_two_dimensional_array():
    assert ev('MATCH(1,{1,2;3,4},0)') is Error.NA


def test_match_no_cross_type_matches():
    assert ev('MATCH("1",{1;2},0)') is Error.NA
    assert ev("MATCH(1,{TRUE;1},0)") == 2.0


def test_match_folds_text_and_never_crosses_types():
    assert ev('MATCH("straße",{"x";"STRASSE"},0)') == 2.0  # casefold, not lower
    assert ev('MATCH("ABC",{"abd";"aBc"},0)') == 2.0
    assert ev("MATCH(1,{TRUE;FALSE},0)") is Error.NA
    assert ev("MATCH(TRUE,{1;TRUE},0)") == 2.0
    assert ev("MATCH(FALSE,{0;TRUE;FALSE},0)") == 3.0
    assert ev('MATCH(1,{"1";1},0)') == 2.0


def test_match_blank_needle_or_element_is_na():
    ws = scratch()
    put(ws, addr(2, 1), "a")
    assert ev("MATCH(A1,B1:B3,0)", ws) is Error.NA  # blank needle, blank elements too
    assert ev('MATCH(A1,{"";0;FALSE},0)', ws) is Error.NA
    assert ev('MATCH("",B2:B3,0)', ws) is Error.NA  # blank elements
    assert ev("MATCH(0,B2:B3,0)", ws) is Error.NA
    assert ev("MATCH(FALSE,B2:B3,0)", ws) is Error.NA


def test_match_blank_and_error_elements_match_nothing():
    ws = scratch()
    put(ws, addr(1, 2), "")
    put(ws, addr(1, 3), 0.0)
    assert ev("MATCH(0,A1:A3,0)", ws) == 3.0  # the blank A1 is not 0
    assert ev('MATCH("",A1:A3,0)', ws) == 2.0  # nor ""
    assert ev("MATCH(FALSE,A1:A3,0)", ws) is Error.NA  # nor FALSE
    assert ev("MATCH(A9,A1:A3,0)", ws) is Error.NA  # a blank needle matches nothing
    assert ev("MATCH(1,{#N/A;1},0)") == 2.0
    assert ev("MATCH(#N/A,{#N/A;1},0)") is Error.NA


# ---------------------------------------------------------------------------
# INDIRECT / INDEX / OFFSET
# ---------------------------------------------------------------------------


def blocks_sheet() -> Workspace:
    ws = scratch()
    for i, text in enumerate(["0", "201", "03803", "X"], start=1):
        put(ws, addr(i, 5), text)
    return ws


def test_indirect_returns_range_values():
    ws = blocks_sheet()
    assert ev('INDIRECT("A5:D5")', ws) == Array([["0", "201", "03803", "X"]])


def test_indirect_empty_text():
    assert ev('INDIRECT("")') is Error.REF


def test_indirect_of_blank_cell():
    ws = scratch()
    assert ev("INDIRECT(A2)", ws) is Error.REF


def test_indirect_out_of_grid():
    assert ev('INDIRECT("A1048577")') is Error.REF


def test_indirect_style_flag():
    ws = blocks_sheet()
    assert ev('INDIRECT("C5",TRUE)', ws) == "03803"
    assert ev('INDIRECT("C5",FALSE)', ws) is Error.VALUE  # only A1 style exists


def test_index_block_reconstruction():
    ws = blocks_sheet()
    assert ev('INDEX(INDIRECT("A5:D5"),3)', ws) == "03803"
    joined = ev(
        'INDEX(INDIRECT("A5:D5"),1)&INDEX(INDIRECT("A5:D5"),2)'
        '&INDEX(INDIRECT("A5:D5"),3)&INDEX(INDIRECT("A5:D5"),4)',
        ws,
    )
    assert joined == "020103803X"


# INDIRECT keeps each text's parse (``functions._indirect_target``), keyed by
# the text and the context cell's workbook and sheet names; these check that
# what it keeps is what a fresh parse gives, and that sheets still resolve
# on every read.


def indirect_target(text, at: CellAddress):
    """What INDIRECT(*text*) names from cell *at*."""
    return indirect_ref(SimpleNamespace(cell=at), [Arg(lambda ctx: text, None)])


def named(target) -> list[tuple]:
    """Each corner of *target* as its stored names, column and row."""
    corners = (target,) if isinstance(target, CellAddress) else (target.top_left, target.bottom_right)
    return [(c.workbook, c.sheet, c.column, c.row) for c in corners]


def test_indirect_follows_a_changed_text():
    ws = blocks_sheet()
    eng = Engine(ws)
    eng.set_formula(addr(3, 1), 'INDEX(INDIRECT(A1),1)&"/"&COLUMNS(INDIRECT(A1))')
    for text, expected in [("B5", "201/1"), ("D5", "X/1"), ("B5:C5", "201/2"), ("B5", "201/1")]:
        eng.set_literal(addr(1, 1), text)
        eng.full_recalc()
        assert eng.get_value(addr(3, 1)) == expected


def test_indirect_reads_its_own_sheet_and_workbook():
    ws = Workspace()
    for book in ("P", "Q"):
        ws.add_workbook(book)
    homes = [CellAddress(book, sheet, 2, 2) for book in ("P", "Q") for sheet in ("S", "T")]
    for home in homes:
        ws.workbook(home.workbook).ensure_sheet(home.sheet)
        put(ws, home.moved(1, 1), f"{home.workbook}.{home.sheet}")
    eng = Engine(ws)
    for home in homes:
        eng.set_formula(home, 'INDIRECT("A1")')
    for _ in range(2):
        eng.full_recalc()
        assert [eng.get_value(home) for home in homes] == ["P.S", "P.T", "Q.S", "Q.T"]


def test_indirect_keeps_the_spelling_of_its_context():
    for book, sheet in [("Book", "Sheet1"), ("Book", "SHEET1"), ("BOOK", "sheet1"), ("Book", "Sheet1")]:
        for text in ("A1", "$B$2:C3"):
            target = indirect_target(text, CellAddress(book, sheet, 4, 4))
            assert {names[:2] for names in named(target)} == {(book, sheet)}
        other = indirect_target("Other!A1", CellAddress(book, sheet, 4, 4))
        assert (other.workbook, other.sheet) == (book, "Other")


def test_indirect_of_a_bad_text_stays_an_error():
    ws = scratch()
    eng = Engine(ws)
    sources = ['INDIRECT("nope!A1")', 'INDIRECT("A0")', 'INDIRECT("")', "INDIRECT(5)", 'INDIRECT("[T]A1")']
    cells = [addr(1, row) for row in range(1, len(sources) + 1)]
    for cell, source in zip(cells, sources):
        eng.set_formula(cell, source)
    for _ in range(2):
        eng.full_recalc()
        assert [eng.get_value(cell) for cell in cells] == [Error.REF] * len(cells)


def test_indirect_resolves_a_sheet_added_after_its_first_read():
    ws = scratch()
    eng = Engine(ws)
    eng.set_formula(addr(1, 1), 'INDIRECT("New!A1")')
    eng.full_recalc()
    assert eng.get_value(addr(1, 1)) is Error.REF
    ws.workbook("T").ensure_sheet("New")
    eng.set_literal(CellAddress("T", "New", 1, 1), "here")
    eng.full_recalc()
    assert eng.get_value(addr(1, 1)) == "here"


_CELL_TEXTS = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "$"]),
    st.sampled_from(["A", "c", "Z", "AA", "XFD", "XFE"]),
    st.sampled_from(["", "$"]),
    st.sampled_from(["0", "1", "7", "1048576", "1048577"]),
)
_ADDRESS_TEXTS = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", " "]),
    st.sampled_from(["", "[P]", "[q]", "[Book]", "[p]"]),
    st.sampled_from(["", "S!", "s!", "T!", "Sheet 2!", "x:y!"]),
    _CELL_TEXTS,
    st.one_of(st.just(""), _CELL_TEXTS.map(":{}".format)),
)
_CONTEXTS = st.builds(
    CellAddress,
    st.sampled_from(["P", "q"]),
    st.sampled_from(["S", "t"]),
    st.integers(1, 30),
    st.integers(1, 30),
)


@given(st.one_of(_ADDRESS_TEXTS, st.text(max_size=12)), _CONTEXTS)
def test_indirect_target_is_a_fresh_parse(text, context):
    try:
        fresh = parse_address(text, context)
    except AddressError:
        fresh = Error.REF
    got = indirect_target(text, context)
    if fresh is Error.REF:
        assert got is Error.REF
    else:
        assert got == fresh and named(got) == named(fresh)


def test_index_bounds():
    assert ev("INDEX({10;20;30},0)") is Error.REF
    assert ev("INDEX({10;20;30},4)") is Error.REF
    assert ev("INDEX({10;20;30},2)") == 20.0


def test_index_two_coordinates():
    assert ev("INDEX({1,2;3,4},2,1)") == 3.0
    assert ev("INDEX({1,2;3,4},2,3)") is Error.REF
    assert ev("INDEX({1,2;3,4},2)") == Array([[3.0, 4.0]])


def test_offset_reference_arithmetic():
    ws = blocks_sheet()
    put(ws, addr(1, 9), 7.0)
    put(ws, addr(2, 9), 8.0)
    assert ev("OFFSET(A4,1,2)", ws) == "03803"
    assert ev("SUM(OFFSET(A9,0,0,1,2))", ws) == 15.0  # width/height arguments
    assert ev("OFFSET(A1,-1,0)", ws) is Error.REF
    assert ev("OFFSET(A1,1,0,0,1)", ws) is Error.REF
    assert ev("OFFSET(5,1,1)", ws) is Error.VALUE


def test_offset_composes_as_reference():
    ws = blocks_sheet()
    assert ev("OFFSET(OFFSET(A5,0,1),0,1)", ws) == "03803"


# ---------------------------------------------------------------------------
# ADDRESS / ROW / COLUMN / XADR
# ---------------------------------------------------------------------------


def test_address_modes():
    assert ev("ADDRESS(1,1,4)") == "A1"
    assert ev("ADDRESS(5,4,4)") == "D5"
    assert ev("ADDRESS(1,1,1)") == "$A$1"
    assert ev("ADDRESS(1,1)") == "$A$1"
    assert ev("ADDRESS(2,3,2)") == "C$2"
    assert ev("ADDRESS(2,3,3)") == "$C2"
    assert ev('ADDRESS(1,1,4,TRUE,"Sheet1")') == "Sheet1!A1"


def test_address_rejects_bad_arguments():
    assert ev("ADDRESS(0,1,4)") is Error.VALUE
    assert ev("ADDRESS(1,1,5)") is Error.VALUE
    assert ev("ADDRESS(1,1,4,FALSE)") is Error.VALUE  # only A1 style exists here
    assert ev('ADDRESS(1,1,4,"Sheet1")') is Error.VALUE  # sheet text belongs in slot five


def test_row_column_defaults_to_context_cell():
    at = addr(3, 7)  # C7
    assert ev("ROW()", at=at) == 7.0
    assert ev("COLUMN()", at=at) == 3.0


def test_row_column_of_ranges():
    assert ev("ROW(A1:A5)") == col(1.0, 2.0, 3.0, 4.0, 5.0)
    assert ev("COLUMN(A5:D5)") == Array([[1.0, 2.0, 3.0, 4.0]])
    assert ev("ROW(D9)") == 9.0
    assert ev("ROWS(A1:A5)") == 5.0
    assert ev("COLUMNS(A5:D5)") == 4.0
    assert ev("ROWS({1;2;3})") == 3.0
    assert ev("ROW(5)") is Error.VALUE


def test_row_feeds_scalar_context():
    # the array collapses to its top-left element inside scalar arguments
    assert ev("ADDRESS(ROW(A1:A5),COLUMN(A1:A5),4)") == "A1"
    assert ev("ADDRESS(ROW(A1:A5)+ROWS(A1:A5)-1,COLUMN(A1:A5)+COLUMNS(A1:A5)-1,4)") == "A5"


def test_xadr_formats_qualified_references():
    at = CellAddress("Book2", "Sheet1", 7, 1)
    ws = Workspace()
    ws.add_workbook("Book2").ensure_sheet("Sheet1")
    assert ev("XADR(A1:A5)", ws, at) == "[Book2]Sheet1!A1:A5"
    assert ev("XADR(A1)", ws, at) == "[Book2]Sheet1!A1"


def test_xadr_cross_sheet_from_lib():
    at = CellAddress("lib", "Sheet1", 1, 1)
    ws = Workspace()
    ws.add_workbook("lib").ensure_sheet("Sheet1")
    assert ev("XADR(Sheet2!B2:C3)", ws, at) == "[lib]Sheet2!B2:C3"


def test_xadr_rejects_non_references():
    assert ev("XADR(5)") is Error.VALUE
    assert ev("XADR({1;2})") is Error.VALUE
    assert ev('XADR("A1")') is Error.VALUE


def test_xadr_accepts_computed_references():
    assert ev("XADR(OFFSET(A1,1,0))", at=addr(1, 1)) == "[T]S!A2"
    assert ev('XADR(INDIRECT("B2:B4"))', at=addr(1, 1)) == "[T]S!B2:B4"


def test_xadr_agrees_with_address_workaround():
    at = CellAddress("Book2", "Sheet1", 7, 1)
    ws = Workspace()
    ws.add_workbook("Book2").ensure_sheet("Sheet1")
    workaround = (
        '"[Book2]" & ADDRESS(ROW(A1:A5), COLUMN(A1:A5), 4, TRUE, "Sheet1") & ":" & '
        "ADDRESS(ROW(A1:A5)+ROWS(A1:A5)-1, COLUMN(A1:A5)+COLUMNS(A1:A5)-1, 4)"
    )
    assert ev(workaround, ws, at) == ev("XADR(A1:A5)", ws, at) == "[Book2]Sheet1!A1:A5"


# ---------------------------------------------------------------------------
# scalar functions and operators
# ---------------------------------------------------------------------------


def test_mod():
    assert ev("MOD(204,11)") == 6.0
    assert ev("MOD(74,11)") == 8.0
    assert ev("12-MOD(74,11)") == 4.0
    # 74 is the weighted digit sum of "020103801"; position 4 in the lookup
    # array is the digit "3", agreeing with the independent check-digit oracle
    assert sum(d * w for d, w in zip([0, 2, 0, 1, 0, 3, 8, 0, 1], ISBN10_WEIGHTS)) == 74
    assert isbn.isbn10_check_char("020103801") == "3"
    assert ev("MOD(5,-3)") == -1.0  # sign follows the divisor
    assert ev("MOD(-5,3)") == 1.0
    assert ev("MOD(1,0)") is Error.DIV0


def test_right():
    assert ev('RIGHT("020103803X")') == "X"
    assert ev('RIGHT("abc",2)') == "bc"
    assert ev('RIGHT("abc",9)') == "abc"
    assert ev('RIGHT("abc",0)') == ""
    assert ev("RIGHT(123)") == "3"
    assert ev('RIGHT("abc",-1)') is Error.VALUE


def test_mid():
    assert ev('MID("abcdef",2,3)') == "bcd"
    assert ev('MID("abc",5,2)') == ""  # clamps past the end
    assert ev('MID("abc",0,1)') is Error.VALUE
    assert ev('MID("abc",1,-1)') is Error.VALUE
    assert ev("MID(12345,2,2)") == "23"


def test_len():
    assert ev('LEN("9780201134476")') == 13.0
    assert ev("LEN(12345)") == 5.0  # coerces via canonical text
    assert ev("LEN(A1)") == 0.0  # blank renders as empty text


def test_value():
    assert ev('VALUE("42")') == 42.0
    assert ev('VALUE("03803")') == 3803.0
    assert ev('VALUE("X")') is Error.VALUE
    assert ev('VALUE("")') is Error.VALUE
    assert ev("VALUE(7)") == 7.0
    assert ev("VALUE(TRUE)") is Error.VALUE


def test_isblank():
    ws = scratch()
    put(ws, addr(1, 2), "")
    assert ev("ISBLANK(A1)", ws) is True  # nothing there at all
    assert ev("ISBLANK(A2)", ws) is False  # empty text is not blank
    assert ev('ISBLANK("")') is False


def test_isblank_never_propagates_errors():
    ws = scratch()
    sheet = ws.resolve_sheet(addr(1, 1))
    a1 = addr(1, 1)
    sheet.set_content(1, 1, shared_formula("1/0", a1, ws.templates))
    eng = Engine(ws)
    eng.full_recalc()
    assert ws.value(a1) is Error.DIV0
    assert ev("ISBLANK(A1)", ws) is False


def test_if_is_lazy():
    assert ev("IF(TRUE,1,1/0)") == 1.0
    assert ev("IF(FALSE,1/0,2)") == 2.0
    assert ev("IF(FALSE,1)") is False
    assert ev("IF(TRUE,,5)") == 0.0
    assert ev("IF(1/0,1,2)") is Error.DIV0


def test_if_reads_boolean_text_with_spaces_in_any_case():
    assert ev('IF(" False ",1,2)') == 2.0
    assert ev('IF(" TRUE",1,2)') == 1.0
    assert ev('IF("yes",1,2)') is Error.VALUE


def test_concatenation_coerces_to_text():
    assert ev('"A" & 5') == "A5"
    assert ev("1 & 2") == "12"
    assert ev('TRUE & "x"') == "TRUEx"


def test_comparisons():
    assert ev('"abc"="ABC"') is True  # case-insensitive ordinal
    assert ev('"a"<"B"') is True
    assert ev("LEN(A2)=10") is False
    assert ev('1="1"') is False  # no cross-type equality
    assert ev('1<"1"') is True  # numbers order below text
    assert ev("A1=0") is True  # blank adapts to a number
    assert ev('A1=""') is True  # or to text


def test_arithmetic():
    assert ev('"3"+1') == 4.0
    assert ev("TRUE+1") == 2.0
    assert ev("7/2") == 3.5
    assert ev("1/0") is Error.DIV0
    assert ev('"x"+1') is Error.VALUE
    assert ev("-2^2") == 4.0
    assert ev("2^-1") == 0.5
    assert ev("0^0") is Error.NUM
    assert ev("10^1000") is Error.NUM
    assert ev("-A1") == 0.0  # negating a blank


def test_non_finite_results_are_num_errors():
    assert ev("(-8)^0.5") is Error.NUM  # a complex power
    assert ev("SUM(1e308,1e308)") is Error.NUM
    assert ev("SUMPRODUCT({1e308;1e308},{10;10})") is Error.NUM
    assert ev("1e308*10") is Error.NUM
    assert ev("SUM(1e308,-1e308)") == 0.0


# Scalars for the properties below: blank, signed zeros, extreme floats,
# text in case variants and numeric text, and the booleans.
EXTREME_FLOATS = [
    0.0, -0.0, 0.5, -8.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.0**53, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
]
SCALARS = st.one_of(
    st.none(),
    st.sampled_from(EXTREME_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "a", "A", "abc", "aBC", "ß", "SS", "1", "01", "1.5", " 2 ", "-3", "1e308", "TRUE", "false"]),
    st.text(max_size=4),
    st.booleans(),
)


@given(SCALARS, SCALARS)
def test_comparisons_order_every_pair_of_scalars(a, b):
    got = {op: apply_binary(op, a, b) for op in ("<", "=", ">", "<>", "<=", ">=")}
    assert all(type(v) is bool for v in got.values())
    assert [got["<"], got["="], got[">"]].count(True) == 1
    assert got["<>"] is not got["="]
    assert got["<="] is (got["<"] or got["="])
    assert got[">="] is (got[">"] or got["="])
    assert apply_binary("<", b, a) is got[">"]
    assert apply_binary(">", b, a) is got["<"]


@given(SCALARS, SCALARS)
def test_match_agrees_with_equality(a, b):
    found = REGISTRY["MATCH"].fn([a, Array([[b]]), 0.0])
    if a is None or b is None:
        assert found is Error.NA  # blanks match nothing
    else:
        assert (found == 1.0) is apply_binary("=", a, b)


@given(st.sampled_from(["+", "-", "*", "/", "^"]), SCALARS, SCALARS)
def test_arithmetic_gives_a_finite_number_or_an_error(op, a, b):
    r = apply_binary(op, a, b)
    assert isinstance(r, Error) or (type(r) is float and math.isfinite(r)), r


ERRORS = st.sampled_from([Error.VALUE, Error.NA, Error.DIV0, Error.NUM, Error.REF])


@given(st.lists(SCALARS | ERRORS, min_size=1, max_size=12), st.data())
def test_runtime_match_scan_agrees_with_the_index(elements, data):
    # the needle is often an element, its text in another case
    needle = data.draw(st.sampled_from(elements) | SCALARS | ERRORS)
    if type(needle) is str:
        needle = data.draw(st.sampled_from([needle, needle.upper(), needle.lower(), needle.swapcase()]))
    lookup = data.draw(st.sampled_from([Array([elements]), Array([[e] for e in elements])]))
    expected = needle if type(needle) is Error else match_index(elements).get(match_key(needle), Error.NA)
    got = REGISTRY["MATCH"].fn([needle, lookup, 0.0])
    assert type(got) is type(expected) and got == expected, (elements, needle, got, expected)


@given(
    st.sampled_from([*BINARY_FNS.values(), NEGATE, *(REGISTRY[n] for n in ("MID", "RIGHT", "LEN", "VALUE", "MOD"))]),
    st.data(),
)
def test_compiled_scalar_call_agrees_with_array_lift(spec, data):
    n = data.draw(st.integers(spec.min_args, spec.max_args))
    args = [data.draw(SCALARS | ERRORS) for _ in range(n)]
    got, expected = applied(spec, *args), array_lift(spec.fn, spec.coercers[:n], args)
    assert type(got) is type(expected) and got == expected, (spec.name, args, got, expected)


def test_unknown_function_and_name():
    assert ev("NOSUCHFN(1)") is Error.NAME
    assert ev("NoSuchName") is Error.NAME


def test_arity_violations():
    assert ev("MOD(1)") is Error.VALUE
    assert ev("LEN()") is Error.VALUE
    assert ev('MID("a",1,1,1)') is Error.VALUE


# ---------------------------------------------------------------------------
# the full validation pipeline
# ---------------------------------------------------------------------------


def pipeline(candidate) -> str:
    """Wire up the two check formulas plus the length router and run them."""
    ws = scratch()
    a2, b2, c2, d2 = addr(1, 2), addr(2, 2), addr(3, 2), addr(4, 2)
    sheet = ws.resolve_sheet(a2)
    if candidate is not None:
        sheet.set_content(2, 1, Literal(candidate))
    for at, src in ((b2, ISBN10_FORMULA), (c2, ISBN13_FORMULA), (d2, ROUTER_FORMULA)):
        sheet.set_content(at.row, at.column, shared_formula(src, at, ws.templates))
    Engine(ws).full_recalc()
    return ws.value(d2)


@pytest.mark.parametrize(
    "candidate",
    ["0201038013", "0201038021", "020103803X", "9780201134476", "8320425395"],
)
def test_pipeline_golden_candidates(candidate):
    assert pipeline(candidate) == "valid"


def test_pipeline_rejects_corrupted_check_digit():
    assert pipeline("0201038014") == "invalid"
    assert pipeline("9780201134477") == "invalid"


def test_pipeline_blank_input():
    assert pipeline(None) == ""


def test_pipeline_matches_oracle_for_nonzero_check_class():
    rng = random.Random(20260809)
    tested = 0
    while tested < 1000:
        digits = "".join(rng.choice("0123456789") for _ in range(9))
        if sum((10 - i) * int(d) for i, d in enumerate(digits)) % 11 == 0:
            continue  # the all-weighted-sum-divisible class diverges by design
        check = rng.choice("0123456789X")
        candidate = digits + check
        expected = "valid" if isbn.isbn10_valid(candidate) else "invalid"
        assert pipeline(candidate) == expected
        tested += 1


def test_pipeline_length_artifacts_are_faithful():
    # The 13-digit check formula reads characters 1-12 and the *last*
    # character, so it can accept all-digit strings of length 12 (the check
    # digit then participates in its own weighted sum) and of length 14
    # (character 13 is ignored). The engine must reproduce the formula, not
    # repair it; both strings are invalid per the oracles.
    weights = ISBN13_WEIGHTS
    artifact12 = None
    for tail in "0123456789":
        candidate = "12345678901" + tail
        total = sum(int(d) * w for d, w in zip(candidate, weights))
        if (10 - total % 10) % 10 == int(tail):
            artifact12 = candidate
            break
    assert artifact12 is not None
    assert not isbn.isbn13_valid(artifact12) and not isbn.isbn10_valid(artifact12)
    assert pipeline(artifact12) == "valid"

    prefix12 = "978020113447"
    artifact14 = prefix12 + "9" + isbn.isbn13_check_digit(prefix12)
    assert len(artifact14) == 14 and not isbn.isbn13_valid(artifact14)
    assert pipeline(artifact14) == "valid"
    # ...whereas shorter inputs can never sneak through: position 12 is
    # empty, so the weighted sum collapses to #VALUE!
    assert pipeline("12345678901") is Error.VALUE
    assert pipeline("123456789") is Error.VALUE


def test_pipeline_divergence_when_check_digit_is_zero():
    # When the weighted sum of the nine digits is divisible by 11, the true
    # check digit is 0, but the formula computes position 12, which MATCH
    # can never return. The engine must reproduce that faithfully.
    assert isbn.isbn10_valid("0000000000") is True
    assert pipeline("0000000000") == "invalid"
    rng = random.Random(7)
    found = 0
    while found < 5:  # brute-force several sum-divisible prefixes
        prefix = "".join(rng.choice("0123456789") for _ in range(9))
        if sum((10 - i) * int(d) for i, d in enumerate(prefix)) % 11:
            continue
        assert isbn.isbn10_check_char(prefix) == "0"
        assert isbn.isbn10_valid(prefix + "0") is True
        assert pipeline(prefix + "0") == "invalid"
        found += 1
