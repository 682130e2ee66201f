from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from gridcalc.formula import (
    Binary,
    Call,
    FormulaError,
    LexError,
    Literal,
    OMITTED,
    ParseError,
    Ref,
    TableFormulaError,
    parse_formula,
    static_dependencies,
    tokenize,
)
from gridcalc import dump_workbook_source, load_workspace
from gridcalc.model import Array, CellAddress, Error, parse_address
from conftest import evaluated
from test_templates import targets_of, tree_of

CTX = CellAddress("Book1", "Sheet1", 2, 2)  # B2


def ref(text, ctx=CTX):
    return parse_address(text, ctx)


# Formulas as printed in the source layouts this engine reproduces.
ISBN10_FORMULA = (
    'IF(12-MOD(SUMPRODUCT(VALUE(MID(A2,{1;2;3;4;5;6;7;8;9},1)),{10;9;8;7;6;5;4;3;2}),11)'
    '=MATCH(RIGHT(A2),{"0";"1";"2";"3";"4";"5";"6";"7";"8";"9";"X"},0),"valid","invalid")'
)
ISBN13_FORMULA = (
    'IF(MOD(10-MOD(SUMPRODUCT(VALUE(MID(A2,{1;2;3;4;5;6;7;8;9;10;11;12},1)),'
    '{1;3;1;3;1;3;1;3;1;3;1;3}),10),10)=VALUE(RIGHT(A2)),"valid","invalid")'
)
CORPUS = [
    ISBN10_FORMULA,
    ISBN13_FORMULA,
    'IF(ISBLANK(A2),"",IF(LEN(A2)=10,B2,C2))',
    "D2",
    "INDEX(INDIRECT(A2),1)&INDEX(INDIRECT(A2),2)&INDEX(INDIRECT(A2),3)&INDEX(INDIRECT(A2),4)",
    'IF(ISBLANK(A2),"",C2)',
    '"A5:D5"',
    "[Book2]Sheet1!A1",
    "IF(ISBLANK([Book2]Sheet2!A1),[Book2]Sheet1!A1,[Book2]Sheet2!A1)",
    "[lib]ISBN10check!B9",
    "INDEX(INDIRECT(A2),1)",
    "B2&B3&B4",
    "12-MOD(SUMPRODUCT(VALUE(MID(B6,{1;2;3;4;5;6;7;8;9},1)),{10;9;8;7;6;5;4;3;2}),11)",
    # ADDRESS workaround, standard five-argument signature
    '"[Book2]" & ADDRESS(ROW(A1:A5), COLUMN(A1:A5), 4, TRUE, "Sheet1") & ":" & '
    "ADDRESS(ROW(A1:A5)+ROWS(A1:A5)-1, COLUMN(A1:A5)+COLUMNS(A1:A5)-1, 4)",
    # as printed, with the sheet text in the fourth slot; parses fine
    '"[Book2]" & ADDRESS(ROW(A1:A5), COLUMN(A1:A5), 4, "Sheet1") & ":" & '
    "ADDRESS(ROW(A1:A5)+ROWS(A1:A5)-1, COLUMN(A1:A5)+COLUMNS(A1:A5)-1, 4)",
]


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def kinds(source):
    return [(t.kind, t.lexeme) for t in tokenize(source)]


def test_tokenize_arithmetic():
    assert kinds("1+2") == [("number", "1"), ("operator", "+"), ("number", "2")]


def test_tokenize_array_constant():
    assert kinds("{10;9;8}") == [
        ("punct", "{"),
        ("number", "10"),
        ("punct", ";"),
        ("number", "9"),
        ("punct", ";"),
        ("number", "8"),
        ("punct", "}"),
    ]


def test_tokenize_match_fragment():
    toks = kinds('MATCH(RIGHT(A2),{"0";"1"},0)')
    assert toks[:4] == [
        ("identifier", "MATCH"),
        ("punct", "("),
        ("identifier", "RIGHT"),
        ("punct", "("),
    ]
    assert ("cellref", "A2") in toks
    assert ("text", '"0"') in toks


def test_tokenize_classification():
    assert kinds("TRUE")[0][0] == "boolean"
    assert kinds("#N/A")[0][0] == "error-literal"
    assert kinds("#DIV/0!")[0][0] == "error-literal"
    assert kinds("ISBN10check")[0][0] == "identifier"
    assert kinds("B9")[0][0] == "cellref"
    assert kinds("A0")[0][0] == "identifier"  # row 0 cannot be a cell
    assert kinds("A1048577")[0][0] == "identifier"  # beyond the grid
    assert kinds("XFD1048576")[0][0] == "cellref"
    assert kinds("<>")[0] == ("operator", "<>")


@pytest.mark.parametrize("source", CORPUS)
def test_tokens_reconstruct_source(source):
    toks = tokenize(source)
    rebuilt = []
    pos = 0
    for t in toks:
        gap = source[pos : t.start]
        assert gap.strip() == ""  # only whitespace between tokens
        rebuilt.append(gap)
        assert source[t.start : t.end] == t.lexeme
        rebuilt.append(t.lexeme)
        pos = t.end
    rebuilt.append(source[pos:])
    assert "".join(rebuilt) == source


def test_unterminated_text_reports_offset():
    with pytest.raises(LexError) as exc:
        tokenize('1&"abc')
    assert exc.value.offset == 2


def test_illegal_character():
    with pytest.raises(LexError):
        tokenize("1@2")
    with pytest.raises(LexError):
        tokenize("50%")  # postfix percent is out of scope


@pytest.mark.parametrize("source, offset", [("é", 0), ("²", 0), ("1+٣", 2), ("Aé1", 1)])
def test_non_ascii_letters_and_digits_are_illegal(source, offset):
    # str.isalpha/isdigit accept these; the ASCII token patterns do not
    for attempt in (tokenize, lambda s: parse_formula(s, CTX)):
        with pytest.raises(LexError) as exc:
            attempt(source)
        assert exc.value.message == f"illegal character {source[offset]!r}"
        assert exc.value.offset == offset


@pytest.mark.parametrize("source, offset", [("1e400", 0), ("2*1E309", 2), ("{1;-1e400}", 4)])
def test_number_beyond_float_range_is_a_parse_error(source, offset):
    with pytest.raises(ParseError) as exc:
        parse_formula(source, CTX)
    assert exc.value.message == "number too large"
    assert exc.value.offset == offset


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_if_shape():
    ast = parse_formula("IF(LEN(A2)=10,B2,C2)", CTX)
    assert ast == Call(
        "IF",
        (
            Binary("=", Call("LEN", (Ref(ref("A2")),)), Literal(10.0)),
            Ref(ref("B2")),
            Ref(ref("C2")),
        ),
    )


def test_parse_concat_of_calls():
    ast = parse_formula("INDEX(INDIRECT(A2),1)&INDEX(INDIRECT(A2),2)", CTX)
    assert isinstance(ast, Binary) and ast.op == "&"
    assert isinstance(ast.left, Call) and ast.left.name == "INDEX"
    assert isinstance(ast.right, Call) and ast.right.name == "INDEX"


def test_table_is_not_enterable():
    with pytest.raises(TableFormulaError):
        parse_formula("TABLE(,A2)", CTX)
    with pytest.raises(TableFormulaError):
        parse_formula("1+table(A2,)", CTX)


def test_omitted_arguments():
    ast = parse_formula("ADDRESS(1,1,,TRUE)", CTX)
    assert ast.args[2] is OMITTED
    ast = parse_formula("IF(A1,,2)", CTX)
    assert ast.args[1] is OMITTED
    ast = parse_formula("F(,)", CTX)
    assert ast.args == (OMITTED, OMITTED)
    assert parse_formula("F()", CTX).args == ()


def test_precedence():
    assert parse_formula("1+2*3", CTX) == Binary(
        "+", Literal(1.0), Binary("*", Literal(2.0), Literal(3.0))
    )
    # comparisons bind loosest, & binds looser than +
    ast = parse_formula('"a"&1+2=B2', CTX)
    assert ast.op == "=" and ast.left.op == "&" and ast.left.right.op == "+"
    # unary minus binds tighter than ^
    ast = parse_formula("-2^2", CTX)
    assert ast.op == "^" and ast.left == parse_formula("-2", CTX)
    # left associativity
    ast = parse_formula("8-4-2", CTX)
    assert ast == Binary("-", Binary("-", Literal(8.0), Literal(4.0)), Literal(2.0))


def test_parse_references():
    assert parse_formula("A5:D5", CTX) == Ref(ref("A5:D5"))
    assert parse_formula("Sheet2!C3", CTX) == Ref(parse_address("Sheet2!C3", CTX))
    assert parse_formula("[lib]ISBN10check!B9", CTX) == Ref(
        CellAddress("lib", "ISBN10check", 2, 9)
    )
    assert parse_formula("SomeName", CTX) == Ref("SomeName")


def test_parse_array_constants():
    ast = parse_formula('{1,2;3,4}', CTX)
    assert ast == Literal(Array(((1.0, 2.0), (3.0, 4.0))))
    ast = parse_formula('{"0";"X"}', CTX)
    assert ast.value.rows == (("0",), ("X",))
    assert parse_formula("{-1;2}", CTX).value.rows == ((-1.0,), (2.0,))
    with pytest.raises(ParseError):
        parse_formula("{1,2;3}", CTX)
    with pytest.raises(ParseError):
        parse_formula("{A1}", CTX)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("1+", CTX)
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_formula("IF(1,2", CTX)
    with pytest.raises(ParseError):
        parse_formula("1 2", CTX)


def test_boolean_and_error_literals():
    assert parse_formula("TRUE", CTX) == Literal(True)
    assert parse_formula("#REF!", CTX) == Literal(Error.REF)


PARSE_SOURCES = (
    CORPUS
    + ["-2^2", "1-(2-3)", "(1+2)*3", "-(A1&B1)", "A1:B2", "A1:A1", "$A$1:A1"]
    # sheet names that are not identifiers need the workbook to parse
    + ["[Book1]A1!B2", "[Book1]TRUE!B2:C3"]
)


@pytest.mark.parametrize("source", PARSE_SOURCES)
def test_corpus_parses(source):
    parse_formula(source, CTX)


# ---------------------------------------------------------------------------
# source dump round trip
# ---------------------------------------------------------------------------


def load_formula_at_b2(directory, text):
    """The workspace of ``Book1.gwb`` holding *text*, written to *directory*."""
    directory.mkdir()
    path = directory / "Book1.gwb"
    path.write_text(text, encoding="utf-8")
    return load_workspace([path])


@pytest.mark.parametrize("source", PARSE_SOURCES)
def test_formula_round_trips_through_source_dump(source, tmp_path):
    ws = load_formula_at_b2(tmp_path / "first", f"B2 = {source}\n")
    dump = dump_workbook_source(ws, "Book1")
    assert dump == f"sheet Sheet1\nB2 = {source}\n"
    again = load_formula_at_b2(tmp_path / "second", dump)
    loaded = again.cell(CTX).content
    assert loaded == ws.cell(CTX).content
    assert tree_of(loaded) == parse_formula(source, CTX)
    assert dump_workbook_source(again, "Book1") == dump


def test_qualified_references_dump_as_written(tmp_path):
    # the same three cells named at each qualification level
    written = "[Book1]Sheet1!A1+[Book1]Other!A1+[lib]S!A1"
    ws = load_formula_at_b2(tmp_path / "first", f"B2 = {written}\nB3 = A1+Other!A1+[lib]S!A1\n")
    assert dump_workbook_source(ws, "Book1").splitlines()[1] == f"B2 = {written}"
    want = (CellAddress("Book1", "Sheet1", 1, 1), CellAddress("Book1", "Other", 1, 1), CellAddress("lib", "S", 1, 1))
    b2, b3 = ws.cell(CTX).content, ws.cell(ref("B3")).content
    assert targets_of(b2) == targets_of(b3) == want
    assert tree_of(b2) == tree_of(b3)


# ---------------------------------------------------------------------------
# long operator chains
# ---------------------------------------------------------------------------

# Binary operator precedence as the README states it, low to high.
PRECEDENCE = {"=": 1, "&": 2, "+": 3, "-": 3, "*": 4, "/": 4}


def left_associative_tree(leaves, ops):
    """The tree of ``leaves[0] ops[0] leaves[1] ...`` with every operator
    left-associative, built with an operator stack rather than recursion."""
    out, pending = [leaves[0]], []

    def reduce():
        right, left = out.pop(), out.pop()
        out.append(Binary(pending.pop(), left, right))

    for op, leaf in zip(ops, leaves[1:]):
        while pending and PRECEDENCE[pending[-1]] >= PRECEDENCE[op]:
            reduce()
        pending.append(op)
        out.append(leaf)
    while pending:
        reduce()
    return out[0]


def spine(node):
    """(leftmost leaf, [(op, right), ...]) down a tree's left edge: two
    trees compare without recursing once per term."""
    pairs = []
    while isinstance(node, Binary):
        pairs.append((node.op, node.right))
        node = node.left
    return node, pairs


@pytest.mark.parametrize("ops", ["+-", "+-*/&="], ids=["one-level", "mixed"])
def test_long_operator_chain_parses_left_deep(ops):
    # 3000 terms; with one precedence level the tree is 2999 operators deep
    terms = ["1", "A1", '"x"', "TRUE"]
    leaves = [terms[i % 4] for i in range(2999)] + ["B1"]
    chain = [ops[i % len(ops)] for i in range(2999)]
    source = "".join(leaf + op for leaf, op in zip(leaves, chain)) + "B1"
    want = left_associative_tree([parse_formula(leaf, CTX) for leaf in leaves], chain)
    got = spine(parse_formula(source, CTX))
    assert got == spine(want)
    # down the left edge: every operator, last first, when they share a
    # level; else each "=", the lowest, then the "&", "-" and "+" before it
    left_edge = chain[::-1] if ops == "+-" else ["="] * chain.count("=") + ["&", "-", "+"]
    assert [op for op, _ in got[1]] == left_edge


# Fragments that combine into formulas often enough for the parse checks to run.
_FRAGMENTS = [
    "A1", "$B$2", "A1:B2", "C3:C3", "Sheet2!C3", "[lib]S!A1", "[Book1]TRUE!A1", "SUM(", "IF(", "(", ")",
    "{", "}", ",", ";", "+", "-", "*", "/", "^", "&", "=", "<>", "<=", "1", "2.5", ".5", "1e3",
    '"x"', '"a""b"', "TRUE", "#N/A", "#DIV/0!", "name", "x.y", "A0", " ", "1e400", "é",
]
_formula_text = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join),
)


@given(_formula_text)
def test_any_text_parses_or_raises_formula_error(source):
    try:
        tokenize(source)
        parse_formula(source, CTX)
    except FormulaError:
        return
    test_tokens_reconstruct_source(source)


# ---------------------------------------------------------------------------
# static dependencies
# ---------------------------------------------------------------------------


def test_dependencies_of_result_formula():
    ast = parse_formula('IF(ISBLANK(A2),"",IF(LEN(A2)=10,B2,C2))', CTX)
    info = static_dependencies(ast)
    assert info.refs == {ref("A2"), ref("B2"), ref("C2")}
    assert not info.volatile and not info.unresolved_names


def test_dependencies_of_literal():
    info = static_dependencies(parse_formula("5", CTX))
    assert info.refs == set() and not info.volatile


def test_indirect_is_volatile_dependency():
    info = static_dependencies(parse_formula("INDIRECT(A2)", CTX))
    assert info.refs == {ref("A2")}
    assert info.volatile


def test_offset_is_volatile_dependency():
    assert static_dependencies(parse_formula("OFFSET(A1,1,0)", CTX)).volatile


def test_xadr_volatility_depends_on_argument():
    assert not static_dependencies(parse_formula("XADR(A1:A5)", CTX)).volatile
    assert static_dependencies(parse_formula("XADR(OFFSET(A1,1,0))", CTX)).volatile


def test_defined_names_resolve_or_flag():
    target = ref("D2")
    info = static_dependencies(parse_formula("ISBNcheck", CTX), {"isbncheck": target})
    assert info.refs == {target} and not info.unresolved_names
    info = static_dependencies(parse_formula("Mystery+1", CTX), {})
    assert info.unresolved_names == {"Mystery"}


def test_range_dependencies():
    info = static_dependencies(parse_formula("SUM(A1:B2)", CTX))
    assert info.refs == {ref("A1:B2")}


def test_sheet_qualified_range():
    assert parse_formula("Sheet2!A1:B2", CTX) == Ref(parse_address("Sheet2!A1:B2", CTX))
    assert parse_formula("[lib]S!A1:A3", CTX) == Ref(
        parse_address("[lib]S!A1:A3", CTX)
    )


def test_static_dependencies_cover_actual_reads():
    # for formulas without INDIRECT/OFFSET, every cell the evaluator touches
    # must appear among the statically extracted references
    from gridcalc import engine
    from gridcalc.formula import shared_formula

    reads = []

    class Recording(dict):
        """A sheet's cells, noting every cell read from them."""

        def __init__(self, sheet):
            super().__init__(sheet.cells)
            self.name = sheet.name.casefold()

        def get(self, key, default=None):
            reads.append((self.name, *key))
            return super().get(key, default)

    ws = corpus_workspace()
    for wb in ws.workbooks():  # before anything compiles: a template binds its sheets' cells
        for sheet in wb.sheets():
            sheet.cells = Recording(sheet)

    def cells(targets):
        return {
            (c.sheet.casefold(), c.row, c.column)
            for r in targets
            for c in (r.cells() if hasattr(r, "cells") else [r])
        }

    for source in CORPUS:
        if "INDIRECT" in source or "OFFSET" in source:
            continue
        f = shared_formula(source, CTX, ws.templates)
        info = static_dependencies(parse_formula(source, CTX))
        reads.clear()
        evaluated(ws, f)
        assert set(reads) <= cells(info.refs), source
        # ROW, COLUMN, ROWS and COLUMNS take a reference without reading it
        if info.refs and not re.search(r"\b(ROWS?|COLUMNS?)\(", source):
            assert reads, source


def corpus_workspace():
    from gridcalc.model import Workspace

    ws = Workspace()
    values = {
        ("Book1", "Sheet1"): {(2, 1): "8320425395", (4, 2): "A5:D5", (4, 3): "020103803X", (6, 2): "9780201134476"},
        ("Book2", "Sheet1"): {(1, 1): "x", (3, 2): 2.0},
        ("Book2", "Sheet2"): {(3, 2): "y"},
        ("lib", "ISBN10check"): {(11, 3): "valid"},
    }
    for (book, name), cells in values.items():
        wb = ws.workbook(book) or ws.add_workbook(book)
        sheet = wb.ensure_sheet(name)
        for (row, column), v in cells.items():
            sheet.set_content(row, column, Literal(v))
    for column, text in enumerate(["0", "201", "03803", "X"], start=1):
        ws.workbook("Book1").sheet("Sheet1").set_content(5, column, Literal(text))
    return ws


@pytest.mark.parametrize("source", CORPUS)
def test_compiled_corpus_formula_agrees_with_the_reference_interpreter(source):
    from reference_eval import compiled_and_reference, same_value

    for compiled, reference in compiled_and_reference(corpus_workspace(), source, CTX, 1, 2):
        assert same_value(compiled, reference), (compiled, reference)


# ---------------------------------------------------------------------------
# nesting bound
# ---------------------------------------------------------------------------


def test_nesting_at_the_bound_parses():
    from gridcalc.formula import MAX_NESTING

    # the top-level expression is the first level
    depth = MAX_NESTING - 1
    assert parse_formula("(" * depth + "1" + ")" * depth, CTX) == Literal(1.0)
    assert parse_formula("-" * depth + "1", CTX) is not None


@pytest.mark.parametrize(
    "source, offset",
    [
        ("(" * 3000 + "1" + ")" * 3000, 64),
        ("-" * 3000 + "1", 64),
        ("SUM(" * 3000 + "1" + ")" * 3000, 256),
    ],
    ids=["parentheses", "signs", "calls"],
)
def test_deep_nesting_is_a_parse_error_at_an_offset(source, offset):
    with pytest.raises(ParseError) as exc:
        parse_formula(source, CTX)
    assert "nested" in exc.value.message
    assert exc.value.offset == offset


def test_long_operator_chain_has_static_dependencies():
    # a left-associative chain is as deep as it is long
    ast = parse_formula("+".join(["A1"] * 3000), CTX)
    assert static_dependencies(ast).refs == {ref("A1")}
