"""Formula templates: each shape (a formula's text with the columns, rows and
``$`` marks of its cell references left out) is parsed once per sheet, and
every formula of it gets the result a plain parse would give it."""

from __future__ import annotations

import gc
import tempfile
from pathlib import Path
from weakref import WeakValueDictionary

import pytest
from hypothesis import given, settings, strategies as st

from gridcalc import Engine, dump_sheet, dump_workbook_source, formula, load_workspace
from gridcalc.formula import FormulaError, LexError, parse_formula, shared_formula, static_dependencies
from gridcalc.model import CellAddress, Error, Formula, Literal, RangeRef, Workspace, column_to_letters, parse_address
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


def tree_of(f: Formula) -> formula.Node:
    """The tree of *f*: its template's, with *f*'s ``refs`` put in by
    position in place of the template's Ref nodes (``Template.nodes``)."""
    moved = {id(node): formula.Ref(target) for node, target in zip(f.template.nodes, f.refs)}
    return _replaced(f.template.ast, moved)


def _replaced(node, moved: dict):
    """*node* with the nodes keyed in *moved* (by id) replaced."""
    if isinstance(node, formula.Binary):
        chain = []  # a left-deep operator chain, walked without recursion
        while isinstance(node, formula.Binary):
            chain.append(node)
            node = node.left
        out = _replaced(node, moved)
        for link in reversed(chain):
            out = formula.Binary(link.op, out, _replaced(link.right, moved))
        return out
    if isinstance(node, formula.Unary):
        return formula.Unary(node.op, _replaced(node.operand, moved))
    if isinstance(node, formula.Call):
        return formula.Call(node.name, tuple([_replaced(arg, moved) for arg in node.args]))
    return moved.get(id(node), node)


def outcome(make):
    """``("ok", tree, refs)`` of what *make* returns, or the error it
    raises. For a plain parse, ``refs`` are the targets of its Ref nodes in
    source order (``formula._scan``), the order in which a compiled function
    reads a formula's ``refs``; for a formula, its tree is :func:`tree_of`.
    A formula's defined names and volatility are its template's, read off
    the template's tree, so an equal tree has equal dependencies; the graph
    edges they make are checked against :func:`static_dependencies` of a
    plain parse in ``test_graph_edges_come_from_the_template``."""
    try:
        made = make()
    except FormulaError as exc:
        return ("error", type(exc), exc.message, exc.offset)
    if isinstance(made, Formula):
        return ("ok", tree_of(made), made.refs)
    return ("ok", made, tuple([node.target for node in formula._scan(made)[0]]))


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


@st.composite
def redrawn(draw, pieces: list) -> list:
    """*pieces* with every row and column part drawn again."""
    return [p if isinstance(p, str) else (p[0], [(_part(draw), _part(draw)) for _ in p[1]]) for p in pieces]


def without_coordinates(pieces: list) -> str:
    """The text :func:`render` gives *pieces* with spaces between them, each
    cell reference's column, row and ``$`` marks left out."""
    return " ".join(p if isinstance(p, str) else p[0] + ":".join("@" for _ in p[1]) for p in pieces)


@settings(max_examples=400, deadline=None)
@given(shapes(), st.data(), _anchors, _anchors, st.booleans())
def test_formulas_share_a_template_exactly_when_their_texts_without_coordinates_agree(pieces, data, a, b, offered):
    # two formulas on one sheet, each at its own cell with coordinates of its
    # own: half the time the second one's text is the first one's with only
    # its coordinates drawn again; the first is offered as the cell above
    other = data.draw(st.one_of(shapes(), redrawn(pieces)))
    templates = WeakValueDictionary()
    made = []
    for drawn, anchor in ((pieces, a), (other, b)):
        source = render(drawn, anchor, " ")
        above = made[0] if offered and made else None
        want = outcome(lambda: parse_formula(source, anchor))
        assert outcome(lambda: shared_formula(source, anchor, templates, above)) == want
        if want[0] == "ok":
            made.append(shared_formula(source, anchor, templates, above))
    if len(made) == 2:
        same = without_coordinates(pieces) == without_coordinates(other)
        assert (made[0].template is made[1].template) == same


@settings(max_examples=400, deadline=None)
@given(shapes(), st.none() | shapes(), _anchors, _anchors, st.booleans(), st.sampled_from(["", " "]))
def test_formula_checked_against_the_formula_above_equals_a_plain_parse(pieces, other, a, b, same_column, sep):
    # the formula at a, of this shape or of another, is offered as the one
    # above b, in b's column or in another
    if same_column:
        b = b.moved(a.column, b.row)
    templates = WeakValueDictionary()
    try:
        above = shared_formula(render(other or pieces, a, sep), a, templates)
    except FormulaError:
        above = None
    source = render(pieces, b, sep)
    want = outcome(lambda: parse_formula(source, b))
    assert outcome(lambda: shared_formula(source, b, templates, above)) == want
    if want[0] == "ok":
        checked = shared_formula(source, b, templates, above)
        assert checked.template is shared_formula(source, b, templates).template


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
    # each formula of the plain sheet has its own parse, in a template cache
    # of its own: no shape is shared and no copy is checked
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
            sheet.set_content(row, column, shared_formula(source, addr, {}))
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
    assert tree_of(b50) == parse_formula(b50.source, CellAddress("wb", "Sheet1", 2, 50))


def test_copies_down_a_column_are_checked_not_scanned(monkeypatch, tmp_path):
    scans: list = []
    plain = formula._shape
    monkeypatch.setattr(formula, "_shape", lambda *args: scans.append(args[0]) or plain(*args))
    ws = load_workspace([_copied_sheet(tmp_path / "wb.gwb", 50)])
    # only the first formula of each column is scanned for its shape
    assert scans == ["IF(LEN(A1)=1,$A$1&A1,{1;2})", "SUM(A$1:B1)"]
    sheet = ws.workbook("wb").sheet("Sheet1")
    c50 = sheet.cell(50, 3).content
    assert c50.template is sheet.cell(1, 3).content.template
    assert tree_of(c50) == parse_formula(c50.source, CellAddress("wb", "Sheet1", 3, 50))


@pytest.mark.parametrize(
    "above, cell, source, shared",
    [
        (("B5", "A5*2"), "B6", "A6*3", False),  # a digit of a constant changes
        (("B7", '"A7"&A7'), "B8", '"A7"&A8', True),
        (("B7", '"A7"&A7'), "B8", '"A8"&A8', False),  # the text literal changes
        (("B5", "$A$5+1"), "B6", "$A$5+1", True),
        (("B5", "A$5+1"), "B6", "A$6+1", True),  # a row is read, whatever its $ marks
        (("B5", "Sheet2!A5+[Book9]Q1!$A$5"), "B6", "Sheet2!A6+[Book9]Q1!$A$5", True),
        (("B5", "Sheet2!A5"), "B6", "Sheet3!A6", False),
        (("B5", "[Book9]Q1!A5"), "B6", "[Book9]Q2!A6", False),
        (("B7", "A07*2"), "B8", "A08*2", True),
        (("B7", "A07*2"), "B8", "A8*2", True),  # one shape, as rows compare as numbers
        (("B9", "A9*2"), "B10", "A10*2", True),
        (("B10", "A10*2"), "B9", "A9*2", True),
        (("B5", "A5*2"), "C6", "A6*2", True),  # the formula is in another column
        (("B5", "$A5*2"), "C6", "$A6*2", True),
        (("B5", "A5*2"), "[Book1]Sheet2!B6", "A6*2", False),  # another sheet
        (("B1048575", "A1048576"), "B1048576", "A1048577", False),  # leaves the grid
        (("B5", "A5*2"), "B6", "B6*2", True),  # found by the scan: another column is read
        (("[Book1]Sheet2!B5", "Sheet1!A5"), "B6", "Sheet1!A6", False),  # above is on another sheet
        (("B5", '"a"&A5'), "B6", '"b"&A6', False),  # a text constant changes
        (("B5", "Sheet2!A5+1"), "B6", "Sheet3!A5+1", False),
        (("B5", "SUM(A5)"), "B6", "SUM(A5:A6)", False),  # a cell, then a range
        (("B5", "SUM(A5:A6)"), "B6", "SUM(A5)", False),
        (("B5", "A1+1"), "B6", "XFE1+1", False),  # outside the grid: a name
    ],
)
def test_copy_checked_against_the_formula_above(above, cell, source, shared):
    templates: dict = {}
    first = shared_formula(above[1], at(above[0]), templates)
    want = outcome(lambda: parse_formula(source, at(cell)))
    assert outcome(lambda: shared_formula(source, at(cell), templates, first)) == want
    made = shared_formula(source, at(cell), templates, first)
    assert made.template is shared_formula(source, at(cell), templates).template
    assert (made.template is first.template) == shared


def test_copy_whose_row_leaves_the_grid_reads_a_name(tmp_path):
    path = tmp_path / "wb.gwb"
    path.write_text("sheet Sheet1\nB1048575 = A1048576\nB1048576 = A1048577\n", encoding="utf-8")
    ws = load_workspace([path])
    Engine(ws).full_recalc()
    sheet = ws.workbook("wb").sheet("Sheet1")
    assert sheet.value(1048575, 2) == 0.0
    assert sheet.value(1048576, 2) is Error.NAME


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
    ws = load_workspace([_copied_sheet(tmp_path / "wb.gwb", 40)])
    eng = Engine(ws)
    eng.full_recalc()
    b, c = CellAddress("wb", "Sheet1", 2, 41), CellAddress("wb", "Sheet1", 3, 41)
    eng.set_formula(b, "=IF(LEN(A41)=1,$A$1&A41,{1;2})")
    eng.set_formula(c, "=SUM(A$1:B41)")
    eng.full_recalc()
    assert len(calls) == len(ws.templates) == 2
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
    # two formulas of one template differ in their refs
    assert shared_formula("A2*2", at("B2"), ws.templates) != made
    # a formula made with a template cache of its own equals the one its
    # source loads to, and set_cell makes it again with the workspace's
    own = shared_formula("A1*2", at("B1"), {})
    assert own == made and own.template is not made.template and own.refs == (at("A1"),)
    Engine(ws).set_cell(at("B1"), own)
    assert ws.cell(at("B1")).content == own and ws.cell(at("B1")).content.template is made.template
    # an absolute formula is one formula in every cell of its sheet
    assert shared_formula("$A$1*2", at("C7"), ws.templates) == shared_formula("$A$1*2", at("D9"), ws.templates)


def test_text_that_looks_like_a_reference_keeps_copies_apart():
    templates: dict = {}
    seven = shared_formula('"A7"&A7', at("B7"), templates)
    eight = shared_formula('"A8"&A8', at("B8"), templates)
    assert seven.template is not eight.template
    assert tree_of(eight) == parse_formula('"A8"&A8', at("B8"))
    again = shared_formula('"A7"&A8', at("B8"), templates)
    assert again.template is seven.template and tree_of(again) == parse_formula('"A7"&A8', at("B8"))


def test_exponent_is_not_a_reference():
    templates: dict = {}
    first = shared_formula("1E5+E5", at("F5"), templates)
    second = shared_formula("1E5+E6", at("F6"), templates)
    assert second.template is first.template
    assert tree_of(second) == parse_formula("1E5+E6", at("F6"))
    assert shared_formula("1E6+E6", at("F6"), templates).template is not first.template


def test_sheet_and_workbook_names_never_move():
    templates: dict = {}
    first = shared_formula("[b]Q1!A1+[A1]S!A1", at("B1"), templates)
    moved = shared_formula("[b]Q1!A2+[A1]S!A2", at("B2"), templates)
    assert moved.template is first.template
    assert tree_of(moved) == parse_formula("[b]Q1!A2+[A1]S!A2", at("B2"))
    # Q2 in row 2 is another sheet, not Q1 moved down
    other = shared_formula("[b]Q2!A2+[A1]S!A2", at("B2"), templates)
    assert other.template is not first.template
    assert tree_of(other) == parse_formula("[b]Q2!A2+[A1]S!A2", at("B2"))


def test_range_with_mixed_corners_is_normalized_again():
    templates: dict = {}
    shared_formula("SUM(A$3:A1)", at("B1"), templates)  # A1:A3
    for row in (2, 3, 5, 9):
        source = f"SUM(A$3:A{row})"
        f = shared_formula(source, at(f"B{row}"), templates)
        assert len(templates) == 1
        assert tree_of(f) == parse_formula(source, at(f"B{row}"))


def test_graph_edges_come_from_the_template():
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    ws.define_name("Rate", NAMES["rate"])
    eng = Engine(ws)
    eng.set_formula(at("D1"), "Rate*A1+SUM($B$1:B2)+INDIRECT(C1)+Missing")
    source = "Rate*A4+SUM($B$1:B5)+INDIRECT(C4)+Missing"
    eng.set_formula(at("D4"), source)
    assert ws.cell(at("D4")).content.template is ws.cell(at("D1")).content.template
    info = static_dependencies(parse_formula(source, at("D4")), NAMES)
    assert info.volatile and info.unresolved_names == {"Missing"}
    cells = {a.sort_key for r in info.refs for a in (r.cells() if isinstance(r, RangeRef) else (r,))}
    key = at("D4").sort_key
    assert eng.graph.precedents[key] == cells and key in eng.graph.volatile


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


def given(source: str) -> Formula:
    """A formula of *source* that holds another formula's template and
    ``refs``: :meth:`Engine.set_cell` keeps only its source."""
    other = shared_formula("A9*3", at("C9"), {})
    return Formula(source, other.template, other.refs, other.cell)


def test_line_break_repros_raise_before_reaching_a_cell():
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    with pytest.raises(LexError):
        eng.set_cell(SHEET, given('"a\nb"'))
    with pytest.raises(LexError):
        eng.set_formula(SHEET, "1+\n2")
    assert ws.cell(SHEET) is None


# ---------------------------------------------------------------------------
# formulas given to set_cell are made again in their cell
# ---------------------------------------------------------------------------

# an operator chain too long for a recursive comparison of two trees
LONG_CHAIN = "+".join(f"A{row}" for row in range(2, 3002))


def test_formula_given_whose_source_does_not_parse_is_rejected():
    # a dump writes the source: this cell would dump to a file that does not load
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    with pytest.raises(FormulaError):
        eng.set_cell(SHEET, given("1+"))
    assert ws.cell(SHEET) is None
    assert not eng.graph.precedents


@pytest.mark.parametrize("source", ["1+2", LONG_CHAIN], ids=["other-tree", "long-chain"])
def test_formula_given_is_made_again_from_its_source(source):
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    eng.set_cell(SHEET, given(source))
    held = ws.cell(SHEET).content
    made = shared_formula(source, SHEET, ws.templates)
    assert held == made and held.template is made.template
    assert eng.graph.precedents[SHEET.sort_key] == {r.sort_key for r in made.refs}


@pytest.mark.parametrize("home", ["[Book1]Sheet2!B1", "[Book2]Sheet1!B1"], ids=["other-sheet", "other-workbook"])
def test_formula_made_in_another_cell_reads_what_its_dump_loads_to(tmp_path, home):
    # A1*2 made on another sheet or workbook reads that one's A1, but a dump
    # writes only the source, which reloads to read this sheet's A1
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    ws.workbook("Book1").ensure_sheet("Sheet2")
    ws.add_workbook("Book2").ensure_sheet("Sheet1")
    eng = Engine(ws)
    for cell, value in (("A1", 1.0), ("Sheet2!A1", 100.0), ("[Book2]Sheet1!A1", 1000.0)):
        eng.set_literal(at(cell), value)
    eng.set_cell(at("B1"), shared_formula("A1*2", at(home), ws.templates))
    assert ws.cell(at("B1")).content.refs == shared_formula("A1*2", at("B1"), {}).refs
    eng.full_recalc()
    paths = []
    for book in ("Book1", "Book2"):
        paths.append(tmp_path / f"{book}.gwb")
        paths[-1].write_text(dump_workbook_source(ws, book), encoding="utf-8")
    loaded = load_workspace(paths)
    Engine(loaded).full_recalc()
    assert ws.value(at("B1")) == loaded.value(at("B1")) == 2.0


def test_formulas_given_share_the_workspace_templates_and_round_trip(tmp_path):
    ws = Workspace()
    ws.add_workbook("Book1").ensure_sheet("Sheet1")
    eng = Engine(ws)
    eng.set_literal(SHEET, 4.0)
    eng.set_cell(at("B1"), shared_formula("A1*2", at("B1"), {}))
    eng.set_cell(at("B2"), shared_formula("A2*2", at("B2"), {}))
    made = [ws.cell(at(a)).content for a in ("B1", "B2")]
    assert made[0].template is made[1].template  # one shape, parsed once
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
        shared_formula("\n+1", at("B2"), templates)
