from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from gridcalc.model import (
    MAX_COLUMNS,
    MAX_ROWS,
    AddressError,
    Array,
    CalcConfig,
    CellAddress,
    Error,
    RangeRef,
    Workspace,
    coerce,
    column_to_letters,
    format_reference,
    letters_to_column,
    number_to_text,
    parse_address,
    range_values,
)
from gridcalc.tables import COLUMN_INPUT, declare_table

from conftest import engine_for

CTX = CellAddress("Book2", "Sheet1", 1, 1)


# ---------------------------------------------------------------------------
# column letters
# ---------------------------------------------------------------------------


def test_column_letters_against_enumeration():
    # brute-force bijective-base-26 oracle: enumerate A..ZZ in order
    singles = [chr(ord("A") + i) for i in range(26)]
    doubles = ["".join(p) for p in itertools.product(singles, repeat=2)]
    ordered = singles + doubles
    assert letters_to_column("ZZ") == ordered.index("ZZ") + 1 == 702
    for i, letters in enumerate(ordered[:800], start=1):
        assert letters_to_column(letters) == i
        assert column_to_letters(i) == letters


def test_known_columns():
    assert letters_to_column("A") == 1
    assert letters_to_column("Z") == 26
    assert letters_to_column("AA") == 27
    assert letters_to_column("XFD") == 16384
    assert column_to_letters(16384) == "XFD"


# ---------------------------------------------------------------------------
# parse_address
# ---------------------------------------------------------------------------


def test_parse_unqualified_inherits_context():
    assert parse_address("A1", CTX) == CellAddress("Book2", "Sheet1", 1, 1)


def test_parse_workbook_qualified():
    assert parse_address("[Book2]Sheet1!A1", CTX) == CellAddress("Book2", "Sheet1", 1, 1)


def test_parse_zz100():
    addr = parse_address("ZZ100", CTX)
    assert (addr.column, addr.row) == (702, 100)


def test_parse_range():
    rng = parse_address("A5:D5", CTX)
    assert isinstance(rng, RangeRef)
    assert (rng.top_left.column, rng.bottom_right.column) == (1, 4)
    assert rng.top_left.row == rng.bottom_right.row == 5


def test_parse_sheet_qualified_and_case():
    addr = parse_address("other!b3", CTX)
    assert addr == CellAddress("Book2", "other", 2, 3)
    assert parse_address("[book2]SHEET1!A1", CTX) == CTX


def test_parse_absolute_markers_discarded():
    assert parse_address("$A$1", CTX) == CellAddress("Book2", "Sheet1", 1, 1)
    assert parse_address("$A1:B$2", CTX) == parse_address("A1:B2", CTX)


def test_parse_range_normalizes_corners():
    assert parse_address("D5:A1", CTX) == parse_address("A1:D5", CTX)


@pytest.mark.parametrize(
    "bad",
    ["", "1A", "[Book2]A1", "A0", "A1048577", "XFE1", "Sheet1!", "A1:B2:C3", "A1:", "[]Sheet!A1"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(AddressError):
        parse_address(bad, CTX)


# ---------------------------------------------------------------------------
# format_reference
# ---------------------------------------------------------------------------


def test_format_qualified_range():
    rng = RangeRef(CellAddress("Book2", "Sheet1", 1, 1), CellAddress("Book2", "Sheet1", 1, 5))
    assert format_reference(rng, "qualified") == "[Book2]Sheet1!A1:A5"


def test_format_local_single():
    assert format_reference(CellAddress("Book2", "Sheet1", 1, 1), "local") == "A1"


def test_single_cell_range_collapses():
    rng = RangeRef(CellAddress("B", "S", 3, 7), CellAddress("B", "S", 3, 7))
    assert format_reference(rng, "qualified") == "[B]S!C7"
    assert format_reference(rng, "local") == "C7"


@pytest.mark.parametrize("text", ["A1", "ZZ100", "A5:D5", "[Book2]Sheet1!A1:A5", "XFD1048576"])
def test_format_is_inverse_of_parse_on_canonical_text(text):
    ref = parse_address(text, CTX)
    style = "qualified" if text.startswith("[") else "local"
    assert format_reference(ref, style) == text


_addresses = st.builds(
    CellAddress,
    st.sampled_from(["Book1", "Book2", "lib", "Data_2024"]),
    st.sampled_from(["Sheet1", "Sheet2", "ISBN10check", "s"]),
    st.integers(min_value=1, max_value=MAX_COLUMNS),
    st.integers(min_value=1, max_value=MAX_ROWS),
)


@given(_addresses)
def test_parse_format_round_trip_addresses(addr):
    assert parse_address(format_reference(addr, "qualified"), CTX) == addr
    context = CellAddress(addr.workbook, addr.sheet, 1, 1)
    assert parse_address(format_reference(addr, "local"), context) == addr


@given(_addresses, _addresses)
def test_parse_format_round_trip_ranges(a, b):
    rng = RangeRef.normalized(a, CellAddress(a.workbook, a.sheet, b.column, b.row))
    back = parse_address(format_reference(rng, "qualified"), CTX)
    if rng.top_left == rng.bottom_right:  # degenerate ranges collapse
        assert back == rng.top_left
    else:
        assert back == rng


# ---------------------------------------------------------------------------
# address and range invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["", "a[b", "a]b", "a!b", "a:b"])
def test_bad_workbook_and_sheet_names(name):
    with pytest.raises(AddressError):
        CellAddress(name, "Sheet1", 1, 1)
    with pytest.raises(AddressError):
        CellAddress("Book", name, 1, 1)


def test_address_positions_must_be_positive():
    with pytest.raises(AddressError):
        CellAddress("B", "S", 0, 1)
    with pytest.raises(AddressError):
        CellAddress("B", "S", 1, 0)


def test_address_equality_is_case_insensitive_on_names():
    assert CellAddress("BOOK", "sheet", 1, 1) == CellAddress("book", "SHEET", 1, 1)
    assert hash(CellAddress("BOOK", "s", 1, 1)) == hash(CellAddress("book", "s", 1, 1))


def test_range_corners_must_share_sheet_and_order():
    a = CellAddress("B", "S1", 1, 1)
    b = CellAddress("B", "S2", 2, 2)
    with pytest.raises(AddressError):
        RangeRef(a, b)
    with pytest.raises(AddressError):
        RangeRef(CellAddress("B", "S", 2, 2), CellAddress("B", "S", 1, 1))
    with pytest.raises(AddressError):
        RangeRef.normalized(a, b)


def test_moved_keeps_the_sheet_and_checks_the_position():
    a = CellAddress("Book", "Sheet", 3, 4)
    b = a.moved(5, 6)
    assert (b.workbook, b.sheet, b.column, b.row) == ("Book", "Sheet", 5, 6)
    assert b == CellAddress("BOOK", "sheet", 5, 6)
    for column, row in ((0, 1), (1, 0)):
        with pytest.raises(AddressError):
            a.moved(column, row)


# Names whose case variants fold together in ways lower() misses (sharp s,
# final sigma), plus plain letters and a space.
_CASED_NAMES = st.text(alphabet="abAB ßẞσςΣ", min_size=1, max_size=3)


@st.composite
def _case_variant(draw, name: str) -> str:
    flips = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
    return "".join(c.swapcase() if flip else c for c, flip in zip(name, flips))


@st.composite
def _variant_addresses(draw, books: list, sheets: list):
    """An address on a case variant of a drawn book and sheet, built either
    by the constructor or by moving an address of that sheet."""
    book = draw(_case_variant(draw(st.sampled_from(books))))
    sheet = draw(_case_variant(draw(st.sampled_from(sheets))))
    column, row = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return CellAddress(book, sheet, column, row)
    return CellAddress(book, sheet, 1, 1).moved(column, row)


def _independent_key(a: CellAddress) -> tuple:
    return (a.workbook.casefold(), a.sheet.casefold(), a.row, a.column)


@given(st.data(), st.lists(_CASED_NAMES, min_size=1, max_size=2), st.lists(_CASED_NAMES, min_size=1, max_size=2))
def test_sheet_identity_is_the_casefolded_names(data, books, sheets):
    addrs = data.draw(st.lists(_variant_addresses(books, sheets), min_size=2, max_size=6))
    for a in addrs:
        assert a.sort_key == _independent_key(a)
        assert a.sheet_key == _independent_key(a)[:2]
    for a, b in itertools.product(addrs, repeat=2):
        assert (a == b) == (_independent_key(a) == _independent_key(b))
        if a == b:
            assert hash(a) == hash(b)
    by_sort_key = sorted(addrs, key=lambda a: a.sort_key)
    assert [_independent_key(a) for a in by_sort_key] == sorted(_independent_key(a) for a in addrs)


@given(st.data(), _CASED_NAMES, _CASED_NAMES, _CASED_NAMES)
def test_sheet_lookups_agree_with_the_casefolded_names(data, book, sheet, other):
    ws = Workspace()
    wb = ws.add_workbook(book)
    sheets = {(book.casefold(), name.casefold()): wb.ensure_sheet(name) for name in (sheet, other)}
    region = RangeRef(CellAddress(book, sheet, 2, 2), CellAddress(book, sheet, 3, 3))
    table = declare_table(ws, region, COLUMN_INPUT, CellAddress(book, sheet, 1, 1))
    probes = data.draw(st.lists(_variant_addresses([book, "x"], [sheet, other, "x"]), max_size=8))
    for a in probes:
        key = _independent_key(a)
        inside = key[:2] == (book.casefold(), sheet.casefold()) and 2 <= a.row <= 3 and 2 <= a.column <= 3
        assert ws.resolve_sheet(a) is sheets.get(key[:2])
        assert region.contains(a) == inside
        assert (ws.table_at(a) is table) == inside


def test_range_contains_and_overlaps():
    rng = parse_address("B2:D4", CTX)
    assert rng.contains(parse_address("C3", CTX))
    assert not rng.contains(parse_address("A1", CTX))
    assert list(parse_address("A1:B2", CTX).cells()) == [
        parse_address(t, CTX) for t in ("A1", "B1", "A2", "B2")
    ]


# ---------------------------------------------------------------------------
# arrays
# ---------------------------------------------------------------------------


def test_array_must_be_rectangular():
    with pytest.raises(ValueError):
        Array([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        Array([])


def test_array_cannot_nest():
    with pytest.raises(ValueError):
        Array([[Array([[1.0]])]])


def test_array_shape_and_get():
    a = Array([[1.0, 2.0, 3.0]])
    assert (a.n_rows, a.n_cols) == (1, 3)
    assert a.get(1, 2) == 2.0


# ---------------------------------------------------------------------------
# coercion
# ---------------------------------------------------------------------------


def test_coerce_text_to_number():
    assert coerce("03803", "number") == 3803.0


def test_coerce_non_numeric_text():
    assert coerce("X", "number") is Error.VALUE


def test_coerce_blank():
    assert coerce(None, "number") == 0.0
    assert coerce(None, "text") == ""
    assert coerce(None, "boolean") is False


def test_coerce_booleans():
    assert coerce(True, "number") == 1.0
    assert coerce(False, "text") == "FALSE"
    assert coerce("true", "boolean") is True
    assert coerce("nope", "boolean") is Error.VALUE


def test_coerce_to_integer_truncates_toward_zero_and_any_keeps_the_value():
    assert coerce(2.9, "integer") == 2 and coerce(-2.9, "integer") == -2
    assert coerce(" 7 ", "integer") == 7
    assert coerce(None, "integer") == 0
    assert coerce("x", "integer") is Error.VALUE
    assert coerce(True, "any") is True and coerce(None, "any") is None
    with pytest.raises(ValueError):
        coerce(1.0, "date")


def test_coerce_number_to_text_canonical():
    assert coerce(3803.0, "text") == "3803"
    assert coerce(0.5, "text") == "0.5"
    assert coerce(-0.0, "text") == "0"
    assert coerce(1e16, "text") == "1e+16"


def test_number_text_rejects_pythonisms():
    assert coerce("inf", "number") is Error.VALUE
    assert coerce("nan", "number") is Error.VALUE
    assert coerce("1_0", "number") is Error.VALUE
    assert coerce("1e400", "number") is Error.VALUE  # beyond the float range
    assert coerce("1e3", "number") == 1000.0
    # str.strip() removes characters float() would refuse, e.g. U+001F
    assert coerce("0\x1f", "number") == 0.0


_scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.sampled_from([Error.VALUE, Error.REF, Error.NA]),
)


@given(_scalars, st.sampled_from(["number", "text", "boolean"]))
def test_coercion_idempotent(v, target):
    once = coerce(v, target)
    assert coerce(once, target) == once


@given(st.sampled_from(list(Error._interned.values())), st.sampled_from(["number", "text", "boolean"]))
def test_errors_are_coercion_fixed_points(err, target):
    assert coerce(err, target) is err


def test_number_to_text_round_trips_through_float():
    for x in (0.1, 2.5, 123456.789, 1 / 3, 2.0**60):
        assert float(number_to_text(x)) == x


@pytest.mark.parametrize("bad", [float("nan"), -1.0, -float("inf")])
def test_config_rejects_a_max_change_that_is_not_at_least_zero(bad):
    with pytest.raises(ValueError, match="max_change"):
        CalcConfig(iterative=True, max_change=bad)


def test_config_takes_zero_and_infinite_max_change():
    assert CalcConfig(max_change=0.0).max_change == 0.0
    assert CalcConfig(max_change=float("inf")).max_change == float("inf")


def test_a_range_reads_what_a_checked_array_of_its_cells_holds():
    # literals, formula cells, blanks and a table body (Batch!B5:B9), read
    # after a recalc, into an array built without the constructor's checks
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    ws = eng.workspace
    target = parse_address("A1:D9", CellAddress("isbn_basic", "Batch", 1, 1))
    want = Array([[ws.value(target.top_left.moved(c, r)) for c in range(1, 5)] for r in range(1, 10)])
    kinds = {type(ws.cell(a).content).__name__ if ws.cell(a) else "blank" for a in target.cells()}
    assert kinds == {"Literal", "Formula", "TableBody", "blank"}
    got = range_values(ws.resolve_sheet(target.top_left).cells, ((1, 1), (9, 4)))
    assert got == want and ws.reader.read(target) == want
    assert type(got.rows) is tuple and all(type(row) is tuple for row in got.rows)
