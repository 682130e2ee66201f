from __future__ import annotations

import random

import pytest

from gridcalc import Engine, load_workspace
from gridcalc.isbn import (
    isbn10_check_char,
    isbn10_valid,
    isbn13_check_digit,
    isbn13_valid,
    issn_check_char,
    issn_valid,
)
from gridcalc.model import CellAddress, Error, parse_address

from conftest import engine_for
from gridcalc.bench import asset_path


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "candidate", ["0201038013", "0201038021", "020103803X", "8320425395", "0000000000"]
)
def test_isbn10_valid_candidates(candidate):
    assert isbn10_valid(candidate)


@pytest.mark.parametrize(
    "candidate",
    ["0201038014", "020103803x9", "02010380", "020103801a", "978020113", "X201038013"],
)
def test_isbn10_invalid_candidates(candidate):
    assert not isbn10_valid(candidate)


def test_isbn10_lowercase_x_accepted():
    assert isbn10_valid("020103803x")


def test_exactly_one_check_char_validates_any_prefix():
    rng = random.Random(11)
    for _ in range(60):
        prefix = "".join(rng.choice("0123456789") for _ in range(9))
        matches = [c for c in "0123456789X" if isbn10_valid(prefix + c)]
        assert len(matches) == 1
        assert matches[0] == isbn10_check_char(prefix)


def test_isbn13_valid_candidates():
    assert isbn13_valid("9780201134476")
    assert isbn13_valid("9780201038095")


def test_isbn13_paper_row_is_a_typo():
    # the check digit of 978020103809 computes to 5, so ...99 cannot be valid
    assert isbn13_check_digit("978020103809") == "5"
    assert not isbn13_valid("9780201038099")


@pytest.mark.parametrize("candidate", ["978020113447", "97802011344761", "978020113447a"])
def test_isbn13_length_gate(candidate):
    assert not isbn13_valid(candidate)


def test_isbn13_exactly_one_check_digit():
    rng = random.Random(13)
    for _ in range(60):
        prefix = "".join(rng.choice("0123456789") for _ in range(12))
        matches = [c for c in "0123456789" if isbn13_valid(prefix + c)]
        assert matches == [isbn13_check_digit(prefix)]


def test_issn_known_value():
    assert issn_check_char("0378595") == "5"
    assert issn_valid("03785955")
    assert not issn_valid("03785954")
    assert not issn_valid("0378595")
    assert issn_valid("2150403X".replace("X", issn_check_char("2150403")))


def test_issn_exactly_one_check_char():
    rng = random.Random(17)
    for _ in range(60):
        prefix = "".join(rng.choice("0123456789") for _ in range(7))
        matches = [c for c in "0123456789X" if issn_valid(prefix + c)]
        assert matches == [issn_check_char(prefix)]


# ---------------------------------------------------------------------------
# library assets
# ---------------------------------------------------------------------------


def a(text: str, book: str, sheet: str) -> CellAddress:
    return parse_address(text, CellAddress(book, sheet, 1, 1))


def test_demo_workspace_calls_both_functions():
    eng = Engine(load_workspace([asset_path("demo.gws")]))
    eng.full_recalc()
    ws = eng.workspace
    assert ws.value(a("F3", "Book2", "Sheet1")) == "valid"  # ISBN10check call
    assert ws.value(a("F6", "Book2", "Sheet1")) == "valid"  # ISSNcheck call
    assert ws.value(a("F3", "Book2", "Sheet2")) == "valid"  # second sheet's call


def test_multiplexed_input_serves_both_sheets_without_altering_calls():
    eng = Engine(load_workspace([asset_path("demo.gws")]))
    eng.full_recalc()
    ws = eng.workspace
    # same result links on both sheets, same library formulas, both valid
    src1 = ws.cell(a("F2", "Book2", "Sheet1")).content.source
    src2 = ws.cell(a("F2", "Book2", "Sheet2")).content.source
    assert src1 == src2 == "[lib]ISBN10check!B9"
    assert ws.value(a("F3", "Book2", "Sheet1")) == "valid"
    assert ws.value(a("F3", "Book2", "Sheet2")) == "valid"
    # after all passes the input cells are blank again
    assert ws.value(a("A1", "Book2", "Sheet1")) is None
    assert ws.value(a("A1", "Book2", "Sheet2")) is None


def test_corrupting_sheet2_blocks_flips_only_its_call():
    eng = Engine(load_workspace([asset_path("demo.gws")]))
    eng.full_recalc()
    eng.set_literal(a("D3", "Book2", "Sheet2"), "4")  # wrong check digit
    eng.full_recalc()
    ws = eng.workspace
    assert ws.value(a("F3", "Book2", "Sheet2")) == "invalid"
    assert ws.value(a("F3", "Book2", "Sheet1")) == "valid"


def test_lib_alone_shows_harmless_ref_errors():
    eng = engine_for("lib.gwb")
    eng.full_recalc()
    ws = eng.workspace
    assert ws.value(a("A2", "lib", "ISBN10check")) is Error.REF
    assert ws.value(a("B9", "lib", "ISBN10check")) is Error.REF


def test_library_output_cells_carry_function_names():
    eng = engine_for("lib.gwb")
    ws = eng.workspace
    assert ws.defined_names["isbn10check"] == ("ISBN10check", a("B9", "lib", "ISBN10check"))
    assert ws.defined_names["issncheck"] == ("ISSNcheck", a("B5", "lib", "ISSNcheck"))


def test_named_output_is_callable_by_name():
    eng = engine_for("isbn_basic.gwb")
    eng.full_recalc()
    target = a("G1", "isbn_basic", "Single")
    eng.set_formula(target, "ISBNcheck")
    eng.full_recalc()
    assert eng.get_value(target) == "valid"


def test_issn_sheet_verdicts_match_oracle():
    eng = Engine(load_workspace([asset_path("demo.gws")]))
    rng = random.Random(23)
    ws = eng.workspace
    issn_input = a("E6", "Book2", "Sheet1")
    result = a("F6", "Book2", "Sheet1")
    for _ in range(25):
        prefix = "".join(rng.choice("0123456789") for _ in range(7))
        check = issn_check_char(prefix)
        candidate = prefix + (check if rng.random() < 0.5 else rng.choice("0123456789X"))
        eng.set_literal(issn_input, candidate)
        eng.full_recalc()
        got = ws.value(result)
        # same mod-11 family as the ISBN-10 formula: a true check digit of 0
        # lands on position 12, which the sheet can never match
        if issn_valid(candidate) and not candidate.endswith("0"):
            assert got == "valid", candidate
        elif not issn_valid(candidate):
            assert got != "valid", candidate
