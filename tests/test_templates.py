"""Formula templates: each relative shape is parsed once per sheet, and every
copy gets the result a plain parse would give it."""

from __future__ import annotations

import gc
import tempfile
from pathlib import Path
from weakref import WeakValueDictionary

import pytest
from hypothesis import given, settings, strategies as st

from gridcalc import Engine, dump_sheet, dump_workbook_source, formula, load_workspace
from gridcalc.formula import (
    FormulaError,
    LexError,
    formula_dependencies,
    parse_formula,
    shared_formula,
    static_dependencies,
)
from gridcalc.model import CellAddress, Formula, Literal, Workspace, column_to_letters, parse_address
from conftest import LINE_ENDINGS

SHEET = CellAddress("Book1", "Sheet1", 1, 1)
NAMES = {"rate": CellAddress("Book1", "Sheet1", 30, 30)}


def at(text: str) -> CellAddress:
    return parse_address(text, SHEET)


def count_parses(monkeypatch) -> list:
    calls: list = []
    plain = formula.parse_formula

    def counted(source, context):
        calls.append(source)
        return plain(source, context)

    monkeypatch.setattr(formula, "parse_formula", counted)
    return calls


def outcome(make):
    """``("ok", ast, refs, dependencies)`` of what *make* returns, or the
    error it raises. For a plain parse, ``refs`` are the targets of its Ref
    nodes in source order (``formula._scan``), the order in which a
    compiled function reads a formula's ``refs``; for a formula, its AST is derived
    from its template and ``refs``."""
    try:
        made = make()
    except FormulaError as exc:
        return ("error", type(exc), exc.message, exc.offset)
    if isinstance(made, Formula):
        return ("ok", made.ast, made.refs, formula_dependencies(made, NAMES))
    targets = tuple([node.target for node in formula._scan(made)[0]])
    return ("ok", made, targets, static_dependencies(made, NAMES))


# ---------------------------------------------------------------------------
# random shapes, written out at any anchor
# ---------------------------------------------------------------------------

# Pieces that hold no reference of their own: text that looks like one,
# numbers with exponents, defined names, a word the grid rejects, and
# operators and calls that may or may not parse around them.
_FRAGMENTS = [
    '"A7"', '"x""B2"', "1E5", "1.5E-3", ".5e2", "Rate", "rate", "my.name", "A0", "XFE1",
    "SUM(", "IF(", "(", ")", ",", "+", "-", "*", "&", "=", "<>", "{1;2}", '{"A1","b"}',
    "TRUE", "#N/A", " ",
]
# What may stand in front of a reference: its own sheet, another sheet, and
# workbook and sheet names that look like references themselves.
_QUALIFIERS = ["", "", "Sheet1!", "Sheet2!", "[Book9]Q1!", "[A1]Sheet2!", "[Book1]Sheet1!"]


def _part(draw):
    """A row or column part: an offset from the anchor, or absolute."""
    if draw(st.booleans()):
        return ("rel", draw(st.integers(-4, 4)))
    return ("abs", draw(st.integers(1, 30)))


@st.composite
def shapes(draw) -> list:
    pieces = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fragment", "cell", "range"]))
        if kind == "fragment":
            pieces.append(draw(st.sampled_from(_FRAGMENTS)))
        else:
            corners = [(_part(draw), _part(draw)) for _ in range(1 if kind == "cell" else 2)]
            pieces.append((draw(st.sampled_from(_QUALIFIERS)), corners))
    return pieces


def render(pieces: list, anchor: CellAddress, sep: str = "") -> str:
    def part(p, origin: int, letters: bool) -> str:
        kind, n = p
        text = column_to_letters if letters else str
        return text(origin + n) if kind == "rel" else "$" + text(n)

    out = []
    for piece in pieces:
        if isinstance(piece, str):
            out.append(piece)
        else:
            qualifier, corners = piece
            cells = [part(c, anchor.column, True) + part(r, anchor.row, False) for c, r in corners]
            out.append(qualifier + ":".join(cells))
    return sep.join(out)


_anchors = st.builds(lambda c, r: SHEET.moved(c, r), st.integers(5, 60), st.integers(5, 60))


@settings(max_examples=400, deadline=None)
@given(shapes(), _anchors, _anchors, st.sampled_from(["", " "]))
def test_cached_formula_equals_a_plain_parse_at_any_anchor(pieces, a, b, sep):
    templates = WeakValueDictionary()
    made = []
    for anchor in (a, b):
        source = render(pieces, anchor, sep)
        want = outcome(lambda: parse_formula(source, anchor))
        # the same source with and without a template of its shape in the cache
        assert outcome(lambda: shared_formula(source, anchor, {})) == want
        got = outcome(lambda: shared_formula(source, anchor, templates))
        assert got == want
        if got[0] == "ok":
            made.append(shared_formula(source, anchor, templates))
    if sep and len(made) == 2:  # separated pieces cannot merge into one word
        assert made[0].template is made[1].template


@settings(max_examples=200, deadline=None)
@given(shapes(), _anchors)
def test_failing_source_raises_alike_with_any_template_cached(pieces, anchor):
    source = render(pieces, anchor)
    want = outcome(lambda: parse_formula(source, anchor))
    templates: dict = {}
    # fill the cache with every shape near this one that parses
    for column, row in ((0, 1), (1, 0), (2, 3)):
        other = anchor.moved(anchor.column + column, anchor.row + row)
        try:
            shared_formula(render(pieces, other), other, templates)
        except FormulaError:
            pass
    assert outcome(lambda: shared_formula(source, anchor, templates)) == want


# ---------------------------------------------------------------------------
# random sheets of copied formulas
# ---------------------------------------------------------------------------


@st.composite
def copied_sheets(draw):
    """Literals in A1:D4, then 1-4 formulas, each copied down and right
    over a block; a later block overwrites an earlier one. A formula is a
    list of text pieces and references ``(column, row, $column, $row)``."""
    cells = {}
    for row in range(1, 5):
        for column in range(1, 5):
            n = draw(st.none() | st.integers(-9, 9))
            if n is not None:
                cells[(row, column)] = f"{n}"

    def ref() -> tuple:
        # copies only move down and right, so no copy leaves the grid
        return (draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.booleans()), draw(st.booleans()))

    def operand() -> list:
        kind = draw(st.sampled_from(["ref", "ref", "range", "number", "if"]))
        if kind == "ref":
            return [ref()]
        if kind == "range":
            return ["SUM(", ref(), ":", ref(), ")"]
        if kind == "number":
            return [draw(st.sampled_from(["2", "1E5", "1.5E-3", '"A1"']))]
        return ["IF(", ref(), ">2,", ref(), ",", *operand(), ")"]

    for _ in range(draw(st.integers(1, 4))):
        row, column = draw(st.integers(1, 6)), draw(st.integers(6, 9))
        pieces = operand()
        for _ in range(draw(st.integers(0, 2))):
            pieces += [draw(st.sampled_from("+-*")), *operand()]
        height, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        for dr in range(height):
            for dc in range(width):
                cells[(row + dr, column + dc)] = _copy(pieces, dr, dc)
    return cells


def _copy(pieces: list, dr: int, dc: int) -> str:
    """The formula *pieces* copied *dr* rows down and *dc* columns right."""
    out = []
    for piece in pieces:
        if isinstance(piece, str):
            out.append(piece)
        else:
            column, row, dollar_c, dollar_r = piece
            letters = column_to_letters(column if dollar_c else column + dc)
            out.append(f"{'$' * dollar_c}{letters}{'$' * dollar_r}{row if dollar_r else row + dr}")
    return "".join(out)


@settings(max_examples=60, deadline=None)
@given(copied_sheets())
def test_copied_formulas_round_trip_and_recalculate_like_plain_parses(cells):
    lines = ["sheet Sheet1"]
    plain = Workspace()
    sheet = plain.add_workbook("wb").ensure_sheet("Sheet1")
    home = CellAddress("wb", "Sheet1", 1, 1)
    for (row, column) in sorted(cells):
        content = cells[(row, column)]
        name = f"{column_to_letters(column)}{row}"
        if column <= 4:
            lines.append(f"{name} : {content}")
            sheet.set_content(row, column, Literal(float(content)))
        else:
            source = content
            lines.append(f"{name} = {source}")
            addr = home.moved(column, row)
            sheet.set_content(row, column, Formula(source, parse_formula(source, addr)))
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wb.gwb"
        path.write_text(text, encoding="utf-8")
        loaded = load_workspace([path])
    assert dump_workbook_source(loaded, "wb") == text
    engines = [Engine(loaded), Engine(plain)]
    assert engines[0].graph == engines[1].graph
    for eng in engines:
        eng.full_recalc()
    assert dump_sheet(loaded, "wb", "Sheet1") == dump_sheet(plain, "wb", "Sheet1")


# ---------------------------------------------------------------------------
# pinned cases
# ---------------------------------------------------------------------------


def _copied_sheet(path: Path, rows: int) -> Path:
    lines = [f'A{r} : "x"\nB{r} = IF(LEN(A{r})=1,$A$1&A{r},{{1;2}})\nC{r} = SUM(A$1:B{r})' for r in range(1, rows + 1)]
    path.write_text("sheet Sheet1\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_copies_down_a_column_share_one_parse(monkeypatch, tmp_path):
    calls = count_parses(monkeypatch)
    ws = load_workspace([_copied_sheet(tmp_path / "wb.gwb", 50)])
    assert len(calls) == len(ws.templates) == 2  # one shape per column
    sheet = ws.workbook("wb").sheet("Sheet1")
    b50 = sheet.cell(50, 2).content
    assert b50.ast == parse_formula(b50.source, CellAddress("wb", "Sheet1", 2, 50))


def _live_tree_nodes() -> int:
    gc.collect()
    kinds = (formula.Ref, formula.Call, formula.Binary, formula.Unary)
    return sum(1 for obj in gc.get_objects() if type(obj) in kinds)


def test_copies_hold_no_tree_of_their_own(tmp_path):
    # every tree node a loaded sheet keeps alive is one of its templates'
    held = []
    for rows in (10, 1000):
        before = _live_tree_nodes()
        ws = load_workspace([_copied_sheet(tmp_path / "wb.gwb", rows)])
        held.append(_live_tree_nodes() - before)
        assert len(ws.templates) == 2
        del ws
    assert held[0] == held[1] > 0


def test_load_recalc_and_edit_parse_each_shape_once(monkeypatch, tmp_path):
    calls = count_parses(monkeypatch)
    derived: list = []
    monkeypatch.setattr(formula.Template, "tree", lambda template, refs: derived.append(refs))
    ws = load_workspace([_copied_sheet(tmp_path / "wb.gwb", 40)])
    eng = Engine(ws)
    eng.full_recalc()
    b, c = CellAddress("wb", "Sheet1", 2, 41), CellAddress("wb", "Sheet1", 3, 41)
    eng.set_formula(b, "=IF(LEN(A41)=1,$A$1&A41,{1;2})")
    eng.set_formula(c, "=SUM(A$1:B41)")
    eng.full_recalc()
    assert len(calls) == len(ws.templates) == 2
    assert derived == []  # nor is any copy's tree derived
    assert ws.cell(c).content.template is ws.cell(CellAddress("wb", "Sheet1", 3, 40)).content.template


def test_formulas_are_equal_by_source_and_refs():
    ws = Workspace()
    book = ws.add_workbook("Book1")
    for name in ("Sheet1", "Sheet2"):
        book.ensure_sheet(name)
    other = CellAddress("Book1", "Sheet2", 2, 1)
    made = shared_formula("A1*2", at("B1"), ws.templates)
    # one source on two sheets reads two cells
    assert made != shared_formula("A1*2", other, ws.templates)
    # a copy and the template it was moved from differ in their refs
    assert shared_formula("A2*2", at("B2"), ws.templates) != made
    # a formula built by hand equals the one its source loads to
    hand = Formula("A1*2", parse_formula("A1*2", at("B1")))
    assert hand == made and hand.refs == made.refs == (at("A1"),)
    eng = Engine(ws)
    eng.set_cell(at("B1"), hand)
    assert ws.cell(at("B1")).content == hand and ws.cell(at("B1")).content.template is made.template
    # an absolute formula is one formula in every cell of its sheet
    assert shared_formula("$A$1*2", at("C7"), ws.templates) == shared_formula("$A$1*2", at("D9"), ws.templates)


def test_text_that_looks_like_a_reference_keeps_copies_apart():
    templates: dict = {}
    seven = shared_formula('"A7"&A7', at("B7"), templates)
    eight = shared_formula('"A8"&A8', at("B8"), templates)
    assert seven.template is not eight.template
    assert eight.ast == parse_formula('"A8"&A8', at("B8"))
    again = shared_formula('"A7"&A8', at("B8"), templates)
    assert again.template is seven.template and again.ast == parse_formula('"A7"&A8', at("B8"))


def test_exponent_is_not_a_reference():
    templates: dict = {}
    first = shared_formula("1E5+E5", at("F5"), templates)
    second = shared_formula("1E5+E6", at("F6"), templates)
    assert second.template is first.template
    assert second.ast == parse_formula("1E5+E6", at("F6"))
    assert shared_formula("1E6+E6", at("F6"), templates).template is not first.template


def test_sheet_and_workbook_names_never_move():
    templates: dict = {}
    first = shared_formula("[b]Q1!A1+[A1]S!A1", at("B1"), templates)
    moved = shared_formula("[b]Q1!A2+[A1]S!A2", at("B2"), templates)
    assert moved.template is first.template
    assert moved.ast == parse_formula("[b]Q1!A2+[A1]S!A2", at("B2"))
    # Q2 in row 2 is another sheet, not Q1 moved down
    other = shared_formula("[b]Q2!A2+[A1]S!A2", at("B2"), templates)
    assert other.template is not first.template
    assert other.ast == parse_formula("[b]Q2!A2+[A1]S!A2", at("B2"))


def test_range_with_mixed_corners_is_normalized_again():
    templates: dict = {}
    shared_formula("SUM(A$3:A1)", at("B1"), templates)  # A1:A3
    for row in (2, 3, 5, 9):
        source = f"SUM(A$3:A{row})"
        f = shared_formula(source, at(f"B{row}"), templates)
        assert len(templates) == 1
        assert f.ast == parse_formula(source, at(f"B{row}"))


def test_dependencies_come_from_the_template():
    templates: dict = {}
    shared_formula("Rate*A1+SUM($B$1:B2)+INDIRECT(C1)+Missing", at("D1"), templates)
    f = shared_formula("Rate*A4+SUM($B$1:B5)+INDIRECT(C4)+Missing", at("D4"), templates)
    info = formula_dependencies(f, NAMES)
    assert info == static_dependencies(parse_formula(f.source, at("D4")), NAMES)
    assert info.volatile and info.unresolved_names == {"Missing"}


def test_set_formula_reads_the_workspace_templates(monkeypatch):
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    calls = count_parses(monkeypatch)
    for row in range(1, 6):
        eng.set_formula(at(f"B{row}"), f"=A{row}*2")
    assert calls == ["A1*2"]
    eng.set_literal(at("A5"), 4.0)
    eng.full_recalc()
    assert eng.get_value(at("B5")) == 8.0


def test_templates_do_not_outlive_their_formulas():
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    for row in range(1, 4):
        eng.set_formula(at(f"B{row}"), f"A{row}+1")
    assert len(ws.templates) == 1
    for row in range(1, 4):
        eng.set_literal(at(f"B{row}"), 1.0)
    gc.collect()
    assert len(ws.templates) == 0


# ---------------------------------------------------------------------------
# line breaks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ch", LINE_ENDINGS)
@pytest.mark.parametrize("template", ["1+{}2", '"a{}b"', "{}1"])
def test_line_break_in_formula_is_lex_error(template, ch):
    source = template.format(ch)
    with pytest.raises(LexError) as exc:
        parse_formula(source, SHEET)
    assert (exc.value.message, exc.value.offset) == ("line break in formula", source.index(ch))
    with pytest.raises(LexError):
        shared_formula(source, SHEET, {})


def test_line_break_repros_raise_before_reaching_a_cell():
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    with pytest.raises(LexError):
        eng.set_cell(SHEET, Formula('"a\nb"', parse_formula('"a\nb"', SHEET)))
    with pytest.raises(LexError):
        eng.set_formula(SHEET, "1+\n2")
    assert ws.cell(SHEET) is None


# an operator chain too long for a recursive comparison of two trees
LONG_CHAIN = "+".join(f"A{row}" for row in range(2, 3002))


@pytest.mark.parametrize(
    "source, ast",
    [
        ('"a\nb"', formula.Literal("a\nb")),
        ("1+", formula.Literal(1.0)),
        ("1+2", formula.Literal(3.0)),
        (LONG_CHAIN, parse_formula(LONG_CHAIN[: -len("A3001")] + "A3002", SHEET)),
    ],
    ids=["line-break", "no-parse", "other-ast", "long-chain-other-ast"],
)
def test_hand_built_formula_whose_source_gives_another_ast_is_rejected(source, ast):
    # a dump writes the source: these would dump to a file that does not load
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    with pytest.raises(ValueError):
        eng.set_cell(SHEET, Formula(source, ast))
    assert ws.cell(SHEET) is None
    assert not eng.graph.precedents


def test_hand_built_long_operator_chain_that_matches_its_source_is_accepted():
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    hand = Formula(LONG_CHAIN, parse_formula(LONG_CHAIN, SHEET))
    eng.set_cell(SHEET, hand)
    made = ws.cell(SHEET).content
    assert made.template is not None and made == hand
    assert len(eng.graph.precedents[SHEET]) == 3000


def test_hand_built_formula_that_matches_its_source_round_trips(tmp_path):
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    eng.set_literal(SHEET, 4.0)
    eng.set_cell(at("B1"), Formula("A1*2", parse_formula("A1*2", at("B1"))))
    eng.set_cell(at("B2"), Formula("A2*2", parse_formula("A2*2", at("B2"))))
    made = [ws.cell(at(a)).content for a in ("B1", "B2")]
    assert made[0].template is made[1].template is not None  # one shape, parsed once
    eng.full_recalc()
    assert (eng.get_value(at("B1")), eng.get_value(at("B2"))) == (8.0, 0.0)
    text = dump_workbook_source(ws, "Book1")
    path = tmp_path / "Book1.gwb"
    path.write_text(text, encoding="utf-8")
    assert dump_workbook_source(load_workspace([path]), "Book1") == text


def test_source_that_spells_out_a_shape_is_not_taken_for_it():
    templates: dict = {}
    shared_formula("A1+1", at("B2"), templates)
    with pytest.raises(LexError):
        shared_formula("\n-1,-1\n+1", at("B2"), templates)
