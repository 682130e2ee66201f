"""The compiled evaluator gives the value the tree-walking reference
interpreter (``reference_eval``) gives, at a template's own cell and at a
copy moved from it."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gridcalc import functions
from gridcalc.model import Array, CellAddress, Error, Literal, RangeRef, Reader, Workspace, parse_address
from conftest import calls_of, evaluated
from reference_eval import compiled_and_reference, same_value

HOME = CellAddress("B", "S", 1, 1)
ANCHOR = HOME.moved(7, 7)  # G7

# What the grid holds, cycled over S!A1:N14 (None leaves a cell blank): text
# that INDIRECT reads as a reference, numeric text, errors, booleans.
_PALETTE = [None, 1.0, -2.5, 0.0, "3", "abc", "", True, False, Error.DIV0, Error.NA, "A1", "C3:D4", "8320425395"]


def workspace() -> Workspace:
    ws = Workspace()
    book = ws.add_workbook("B")
    sheet = book.ensure_sheet("S")
    for row in range(1, 15):
        for column in range(1, 15):
            v = _PALETTE[(row * 7 + column * 3) % len(_PALETTE)]
            if v is not None:
                sheet.set_content(row, column, Literal(v))
    other = book.ensure_sheet("T")
    for row in range(1, 6):
        other.set_content(row, 2, Literal(float(row)))
    ws.define_name("Rate", HOME.moved(3, 3))
    ws.define_name("Span", RangeRef(HOME.moved(3, 3), HOME.moved(4, 5)))
    return ws


def chain(terms: int, term: str = "1") -> str:
    return "+".join([term] * terms)


# ---------------------------------------------------------------------------
# random formulas
# ---------------------------------------------------------------------------

_SCALARS = ["0", "1", "2.5", "1e308", '"x"', '"3"', '""', '"A1"', '"C3:D4"', "TRUE", "FALSE", "#N/A", "#DIV/0!"]
# array constants of several shapes, with error elements in every position
_ARRAYS = ["{1;2;3}", "{1,2}", "{1,#N/A;\"a\",TRUE}", "{#DIV/0!;2}", "{\"1\";\"2\"}", "{3}", "{1,2,3;4,5,#REF!}"]
# the sheet's own, another sheet, one qualified in full, a missing sheet and workbook
_QUALIFIERS = ["", "", "", "T!", "[B]S!", "Nope!", "[Zed]S!"]
_NAMES = ["Rate", "Span", "Missing"]
_OPERATORS = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]
_FUNCTIONS = sorted(functions.REGISTRY) + ["NOPE"]
_TAKING_NODES = sorted(n for n, b in functions.REGISTRY.items() if b.kind in ("special", "reference"))


def _corner(draw) -> str:
    # rows and columns 3..12 stay on the grid when a copy moves them by up to 2
    column, row = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    letters = "ABCDEFGHIJKLMN"[column - 1]
    return f"{'$' if draw(st.booleans()) else ''}{letters}{'$' if draw(st.booleans()) else ''}{row}"


@st.composite
def references(draw) -> str:
    corners = [_corner(draw) for _ in range(draw(st.integers(1, 2)))]
    return draw(st.sampled_from(_QUALIFIERS)) + ":".join(corners)


@st.composite
def deep(draw) -> str:
    """An operator chain around the depth limit, in a few nested calls, or
    in OFFSET calls read as references (which cost no level)."""
    calls = draw(st.integers(0, 4))
    term = draw(st.sampled_from(["0", "1", "C4", "{1;2}", '"a"']))
    inner = chain(draw(st.integers(58, 68)), term)
    if draw(st.booleans()):
        return "SUM(" * calls + inner + ")" * calls
    reader = draw(st.sampled_from(["ROW", "ROWS", "XADR", "SUM"]))
    return f"{reader}(" + "OFFSET(" * calls + f"OFFSET(C3:C4,{inner},0)" + ",0,0)" * calls + ")"


@st.composite
def expressions(draw, budget: int = 4) -> str:
    leaf = st.one_of(
        st.sampled_from(_SCALARS),
        st.sampled_from(_ARRAYS),
        references(),
        st.sampled_from(_NAMES),
    )
    kind = draw(st.sampled_from(["leaf"] * 4 + ["deep"] + ["call"] * 6 + ["binary"] * 3 + ["unary"]))
    if budget == 0 or kind == "leaf":
        return draw(leaf)
    if kind == "deep":
        return draw(deep())
    if kind == "binary":
        left, right = draw(expressions(budget - 1)), draw(expressions(budget - 1))
        return f"({left}){draw(st.sampled_from(_OPERATORS))}({right})"
    if kind == "unary":
        return draw(st.sampled_from(["-", "+"])) + f"({draw(expressions(budget - 1))})"
    name = draw(st.sampled_from(_TAKING_NODES) | st.sampled_from(_FUNCTIONS))
    spec = functions.REGISTRY.get(name)
    if spec is None or draw(st.integers(0, 9)) == 0:
        count = draw(st.integers(0, 5))  # arity violations included
    else:
        count = draw(st.integers(spec.min_args, min(spec.max_args, spec.min_args + 3)))
    args = []
    for _ in range(count):
        omitted = draw(st.integers(0, 5)) == 0
        args.append("" if omitted else draw(expressions(budget - 1)))
    return f"{name}({','.join(args)})"


_moves = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda m: m != (0, 0))


@settings(max_examples=300, deadline=None)
@given(expressions(), _moves)
def test_compiled_formula_agrees_with_the_reference_interpreter(source, move):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, *move):
        assert same_value(compiled, reference), (source, compiled, reference)


# ---------------------------------------------------------------------------
# pinned cases: every special and reference builtin, omitted arguments,
# names, missing sheets and the depth limit
# ---------------------------------------------------------------------------

PINNED = [
    "IF(,1,2)", "IF(TRUE,,2)", "IF(FALSE,1)", "IF(C3,D4,E5)", "IF(#N/A,1,2)", "IF({TRUE;FALSE},1,2)",
    "ISBLANK()", "ISBLANK(A2)", "ISBLANK(C3:D4)", "ISBLANK(Missing)", "ISBLANK(1/0)",
    "INDIRECT(\"C3\")", "INDIRECT(\"C3:D4\")", "INDIRECT(L5)", "INDIRECT(,TRUE)", "INDIRECT(\"C3\",FALSE)",
    "INDIRECT(\"Nope!A1\")", "INDIRECT(#N/A)",
    "OFFSET(C3,1,1)", "OFFSET(C3:D4,1,0,2,3)", "OFFSET(Span,1,1)", "OFFSET(Missing,1,1)", "OFFSET(5,1,1)",
    "OFFSET(,1,1)", "OFFSET(C3,,)", "OFFSET(C3,1,1,,)", "OFFSET(OFFSET(C3,1,0),0,1)", "OFFSET(INDIRECT(\"C3\"),1,1)",
    "OFFSET(C3,-5,0)", "OFFSET(C3,0,0,0,1)", "SUM(OFFSET(C3,0,0,2,2))", "OFFSET(C3,1)",
    "ROW()", "ROW(C3:C6)", "ROW(Span)", "ROW(Missing)", "ROW(5)", "ROW(OFFSET(C3,1,1))", "ROW(,)",
    "COLUMN()", "COLUMN(C3:F3)", "COLUMN(Nope!A1)", "COLUMN(INDIRECT(\"D5\"))",
    "ROWS(C3:C6)", "ROWS({1;2;3})", "ROWS(5)", "ROWS(1/0)", "ROWS(Span)", "ROWS(Missing)", "ROWS()",
    "COLUMNS({1,2})", "COLUMNS(OFFSET(C3,0,0,1,3))", "COLUMNS(OFFSET(C3))",
    "XADR(C3)", "XADR(Span)", "XADR(Missing)", "XADR({1;2})", "XADR(OFFSET(C3,1,1))", "XADR(INDIRECT(\"Q9\"))",
    "XADR(T!A1:A2)", "XADR(NOPE(1))",
    "Rate+1", "SUM(Span)", "Missing", "Nope!A1", "[Zed]S!A1:B2", "SUM(Nope!A1:B2)", "T!B1:B3*2",
    "MID(\"abcdef\",{1;2;3},{1,2})", "{1;2}+{1;2;3}", "#N/A+{1;2}", "{1;2}+#N/A", "MID(#REF!,{1;2},1)",
    "MID(\"ab\",{1;2},#N/A)", "RIGHT(\"abc\",)", "ADDRESS(1,1,,,\"S\")", "MATCH(1,{1;2},)", "INDEX({1,2;3,4},2,)",
    chain(64), chain(65), f"IF(FALSE,1,{chain(63)})", f"IF(FALSE,1,{chain(64)})", f"IF(TRUE,1,{chain(65)})",
    f"ISBLANK({chain(66)})", f"ROWS({chain(70)})", "SUM(" * 40 + chain(30) + ")" * 40,
    "OFFSET(" * 30 + "C3" + ",0,0)" * 30, "ROWS(" + "INDIRECT(" * 20 + '"C3"' + ")" * 20 + ")",
    "-" * 30 + "(" + chain(40) + ")",
    # an argument of OFFSET read as a reference sits one level below the reader
    f"ROWS(OFFSET(C3:C4,{chain(63, '0')},0))", f"ROWS(OFFSET(C3:C4,{chain(64, '0')},0))",
    f"SUM(OFFSET(C3:C4,{chain(62, '0')},0))", f"SUM(OFFSET(C3:C4,{chain(63, '0')},0))",
    f"XADR(OFFSET(OFFSET(C3,{chain(63, '0')},0),0,0))", f"XADR(OFFSET(OFFSET(C3,{chain(64, '0')},0),0,0))",
    # element kernels as deep as the limit lets them, and just past it
    "VALUE(" * 63 + "{1;2}" + ")" * 63, "-" * 63 + "{1;2}", "{1;2}" + "+1" * 63, "{1;2}" + "+1" * 64,
    "LEN(" * 20 + "MID(C3:C4," * 20 + "{1;2}" + ",1)" * 20 + ")" * 20,
]


@pytest.mark.parametrize("source", PINNED)
def test_pinned_formula_agrees_with_the_reference_interpreter(source):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
        assert same_value(compiled, reference), (compiled, reference)


# ---------------------------------------------------------------------------
# every scalar builtin and operator, each argument drawn from every kind of
# value a coercion can meet
# ---------------------------------------------------------------------------

BLANK = "P20"  # outside the filled grid
# an error, a blank cell, booleans, numeric and non-numeric text, fractional
# and negative numbers, array constants holding an error element, a range
_ARGUMENTS = [
    "#N/A", "#VALUE!", "1/0", BLANK, "TRUE", "FALSE", '"3"', '" 2.5 "', '"-1e1"', '"abc"', '""', '"X"',
    "2.9", "-1.5", "0.5", "-3", "0", "{1;#N/A}", '{"a",#DIV/0!}', '{2.5;"x";#REF!}', '{1;"2";TRUE}', "C3:C5",
]
_SCALAR_BUILTINS = sorted(n for n, b in functions.REGISTRY.items() if b.kind == "scalar")


def test_every_scalar_builtin_declares_a_kind_per_parameter():
    from gridcalc.model import COERCERS

    for spec in [*(functions.REGISTRY[n] for n in _SCALAR_BUILTINS), *functions.BINARY_FNS.values(), functions.NEGATE]:
        assert len(spec.kinds) == spec.max_args, spec.name
        assert set(spec.kinds) <= set(COERCERS) - {"boolean"}, spec.name


@st.composite
def typed_calls(draw) -> str:
    argument = st.sampled_from(_ARGUMENTS)
    form = draw(st.sampled_from(["call", "binary", "negate"]))
    if form == "binary":
        return f"({draw(argument)}){draw(st.sampled_from(_OPERATORS))}({draw(argument)})"
    if form == "negate":
        return f"-({draw(argument)})"
    spec = functions.REGISTRY[draw(st.sampled_from(_SCALAR_BUILTINS))]
    args = [draw(argument | st.just("")) for _ in range(draw(st.integers(spec.min_args, spec.max_args)))]
    return f"{spec.name}({','.join(args)})"


@settings(max_examples=400, deadline=None)
@given(typed_calls(), _moves)
def test_typed_call_agrees_with_the_reference_interpreter(source, move):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, *move):
        assert same_value(compiled, reference), (source, compiled, reference)


# raw errors first, then coercion errors, each in argument order; omitted
# and blank counts of RIGHT mean 1
TYPED_PINNED = [
    ('MOD("x",#N/A)', Error.NA),
    ('MID("ab","x",#N/A)', Error.NA),
    ('MID("abc",{1;"x"},"y")', Array([[Error.VALUE], [Error.VALUE]])),
    ('MID("abcd",2.9,1.9)', "b"),
    ("LEN(TRUE)", 4.0),
    ("VALUE(TRUE)", Error.VALUE),
    ('RIGHT("abc",)', "c"),
    (f'RIGHT("abc",{BLANK})', "c"),
]


@pytest.mark.parametrize("source, expected", TYPED_PINNED)
def test_typed_call_gives_the_pinned_value(source, expected):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
        assert same_value(compiled, expected), (compiled, expected)
        assert same_value(reference, expected), (reference, expected)


# ---------------------------------------------------------------------------
# the float path: an operator or MOD on two floats runs its Python operator
# in line; every other pair of values takes the lifted call
# ---------------------------------------------------------------------------

# signed zeros (zero divisors), overflow at both ends, the smallest
# subnormal and tiny quotients, fractions whose MOD takes the divisor's sign
_EDGE_FLOATS = [0.0, -0.0, 1e308, -1e308, 5e-324, 1e-300, 1.0, -1.0, 2.5, -7.0, 3.0, 11.0]
# what must take the old path: text, numeric text, booleans, a blank, errors
_OTHER_VALUES = ["x", "3", " 2.5 ", "", True, False, None, Error.NA, Error.DIV0, Error.VALUE]
_FLOAT_OPERATORS = ["+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "MOD"]
# in place of a cell: array constants, a range, and constants of each kind
_OTHER_OPERANDS = ["{1;0}", "{2,#N/A}", "$A$1:$B$1", "2", "0", '"4"', '"x"', "TRUE", "#N/A"]
_VALUES = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_OTHER_VALUES)
)


def operator_cells(a, b) -> Workspace:
    """A workspace whose S!A1 holds *a* and S!B1 *b* (None: blank)."""
    ws = Workspace()
    sheet = ws.add_workbook("B").ensure_sheet("S")
    for column, v in ((1, a), (2, b)):
        if v is not None:
            sheet.set_content(1, column, Literal(v))
    return ws


def operator_agrees(ws: Workspace, op: str, left: str = "$A$1", right: str = "$B$1") -> None:
    source = f"MOD({left},{right})" if op == "MOD" else f"{left}{op}{right}"
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
        assert same_value(compiled, reference), (source, ws.value(HOME), ws.value(HOME.moved(2, 1)), compiled)
        if type(compiled) is float:  # a cell never holds an infinity or a nan
            assert compiled - compiled == 0.0, (source, compiled)


@pytest.mark.parametrize("op", _FLOAT_OPERATORS)
def test_operator_on_each_pair_of_edge_floats_agrees_with_the_reference_interpreter(op):
    for a in _EDGE_FLOATS:
        for b in _EDGE_FLOATS:
            operator_agrees(operator_cells(a, b), op)


@pytest.mark.parametrize("op", _FLOAT_OPERATORS)
@settings(max_examples=80, deadline=None)
@given(
    _VALUES,
    _VALUES,
    st.booleans(),
    st.sampled_from(["$A$1"] * 4 + _OTHER_OPERANDS),
    st.sampled_from(["$B$1"] * 4 + _OTHER_OPERANDS),
)
def test_operator_on_drawn_cells_agrees_with_the_reference_interpreter(op, a, b, equal, left, right):
    operator_agrees(operator_cells(a, a if equal else b), op, left, right)


# ---------------------------------------------------------------------------
# element kernels: a chain of scalar builtins and operators around one
# array constant runs as one kernel, and gives what nested lifted calls give
# ---------------------------------------------------------------------------

# what a link holds beside the array: plain values, raw errors (before and
# after the array), text no number coercion reads, single cells, ranges and
# names (a range arrives as an array at run time); an omitted argument too
_HELD = st.one_of(st.sampled_from(_SCALARS), references(), st.sampled_from(["Span", "Rate"]))
_KERNEL_OPERATORS = ["+", "-", "*", "/", "&", "=", "<", ">="]
# MID's positions as a kernel's constant, which MID takes as slices where
# every position is an integer >= 1 and its count a constant >= 0: starts
# below 1, fractions, text and errors among them, counts that are not such
# a constant, and a cell
_POSITIONS = ["{1;2;3}", "{3;1}", "{0;1}", "{-1;2}", "{2.9;1}", '{1;"x"}', "{9;12}", "{1,2;3,4}", "{2;#N/A}"]
_COUNTS = ["0", "1", "2", "1.9", "-1", '"x"', "#N/A", "", "C3", "E5"]


@st.composite
def kernel_chains(draw, arrays=_ARRAYS, links=4) -> str:
    """A chain of one to *links* scalar links around one ``{...}`` constant
    drawn from *arrays*, or around MID at constant positions with the count
    held; each link holds its other arguments, drawn from ``_HELD``."""
    expr = draw(st.sampled_from(arrays))
    if draw(st.integers(0, 2)) == 0:
        expr = f"MID({draw(_HELD)},{draw(st.sampled_from(_POSITIONS))},{draw(st.sampled_from(_COUNTS))})"
    for _ in range(draw(st.integers(1, links))):
        if draw(st.integers(0, 5)) == 0:
            expr = f"+({expr})"  # no link of its own
        form = draw(st.sampled_from(["call", "call", "binary", "negate"]))
        if form == "negate":
            expr = f"-({expr})"
        elif form == "binary":
            held = draw(_HELD)
            op = draw(st.sampled_from(_KERNEL_OPERATORS))
            expr = f"({expr}){op}({held})" if draw(st.booleans()) else f"({held}){op}({expr})"
        else:
            spec = functions.REGISTRY[draw(st.sampled_from(_SCALAR_BUILTINS))]
            count = draw(st.integers(spec.min_args, spec.max_args))
            args = [draw(_HELD | st.just("")) for _ in range(count)]
            args[draw(st.integers(0, count - 1))] = expr
            expr = f"{spec.name}({','.join(args)})"
    return expr


@settings(max_examples=400, deadline=None)
@given(kernel_chains(), _moves)
def test_kernel_chain_agrees_with_the_reference_interpreter(source, move):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, *move):
        assert same_value(compiled, reference), (source, compiled, reference)


# a held argument that may give an array (a range, a name, OFFSET or
# INDIRECT): these compile no kernel, and each call lifts as it is nested
KERNEL_GUARD_PINNED = [
    "MID(C3:C4,{1;2},1)",
    "VALUE(MID(C3:C4,{1;2},1))",
    "VALUE(MID(C3:D4,{1;2},1))",
    "MID(C3:D5,{1;2},1)&\"x\"",
    "MID(Span,{1,2;3,4;5,6},1)",
    "LEN(MID(Span,{1;2},{1;2}))",
    "VALUE(Rate&{1;2})",
    "VALUE(MID(INDIRECT(\"C3:D4\"),{1,2;3,4},1))",
    "-MID(OFFSET(C3,0,0,2,1),{1;2},1)",
    "VALUE(MID(\"123\",{1;2;3},1))&C3:C5",
]


@pytest.mark.parametrize("source", KERNEL_GUARD_PINNED)
def test_kernel_with_an_array_held_agrees_with_the_reference_interpreter(source):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
        assert same_value(compiled, reference), (compiled, reference)


# MID at a kernel's constant positions, over a held cell or range, and
# VALUE over what it takes: digit text, text shorter than the positions
# reach, text VALUE reads no number from, a non-ASCII digit and an error
_TEXTS = ["0306406152", "12", "X", " ", "", "+", ".", "\u0661", Error.NA]
MID_SLICE_PINNED = [
    f"MID({held},{positions},{count})"
    for held in ("$Q$1", "$Q$1:$Q$2")
    for positions in ("{1;2;3}", "{3;1}", "{0;1}", "{-1;2}", "{2.9;1}", '{1;"x"}', "{9;12}")
    for count in ("0", "1", "2", "1.9", "$Q$10")
]
MID_SLICE_PINNED += [f"VALUE(MID($Q${row},{{1;2;3}},{n}))" for row in range(1, len(_TEXTS) + 1) for n in (1, 2)]
MID_SLICE_PINNED += [
    "SUMPRODUCT(VALUE(MID($Q$1,{1;2;3;4;5;6;7;8;9},1)),{10;9;8;7;6;5;4;3;2})",
    "LEN(MID($Q$1,{2;4},2))",
]


def text_workspace() -> Workspace:
    """:func:`workspace`, with ``_TEXTS`` in S!Q1:Q9 and a count, 2, in Q10."""
    ws = workspace()
    sheet = ws.resolve_sheet(HOME)
    for row, text in enumerate([*_TEXTS, 2.0], 1):
        sheet.set_content(row, 17, Literal(text))
    return ws


@pytest.mark.parametrize("source", MID_SLICE_PINNED)
def test_mid_at_constant_positions_agrees_with_the_reference_interpreter(source):
    ws = text_workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
        assert same_value(compiled, reference), (source, compiled, reference)


def test_mid_at_constant_positions_takes_the_characters_at_them():
    ws = text_workspace()
    for source, expected in [
        ("MID($Q$1,{1;2;10},1)", [["0"], ["3"], ["2"]]),
        ("MID($Q$1,{9;11},2)", [["52"], [""]]),
        ("VALUE(MID($Q$1,{2;3},2))", [[30.0], [6.0]]),
    ]:
        for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
            assert same_value(compiled, Array(expected)), (source, compiled)
            assert same_value(reference, Array(expected)), (source, reference)


def test_kernel_reads_a_held_range_once():
    from gridcalc import engine

    ws = workspace()
    with calls_of(engine.range_values) as reads:
        for compiled, reference in compiled_and_reference(ws, "VALUE(MID(C3:C4&\"1\",{1;2},1))", ANCHOR, 1, 2):
            assert same_value(compiled, reference), (compiled, reference)
    assert reads["range_values"] == 2  # once at the template's cell, once at the copy


def test_isbn_body_runs_its_chain_as_one_kernel(monkeypatch):
    from conftest import engine_for

    eng = engine_for("bench_body.gwb")
    a2 = CellAddress("bench_body", "Bench", 1, 2)
    b2 = a2.moved(2, 2)
    eng.set_literal(a2, "0306406152")
    lifts = []
    real = functions.array_lift
    monkeypatch.setattr(functions, "array_lift", lambda *args: lifts.append(args) or real(*args))
    eng.full_recalc()
    assert eng.get_value(b2) == "valid"
    assert evaluated(eng.workspace, eng.workspace.cell(b2).content) == "valid"
    assert lifts == []


# ---------------------------------------------------------------------------
# reductions over constants: SUMPRODUCT over element kernels of one shape
# (a constant being one with no links) and an exact MATCH in a one-row or
# one-column constant are compiled to one reduction each; every other form
# takes the builtin's own path
# ---------------------------------------------------------------------------

# beside _ARRAYS, shapes they share (3x1, 2x1, 2x2), numeric text and
# booleans (which multiply by 0), and products that overflow
_SUMPRODUCT_ARRAYS = _ARRAYS + [
    "{1e308;1e308;1}", "{1e308;-1e308;2}", "{2;\"x\";#NUM!}", "{TRUE;2}", "{#N/A;#DIV/0!}", "{1,2;3,4}",
    "{1e308,1;1,1e308}",
]


@st.composite
def sumproducts(draw) -> str:
    """SUMPRODUCT of one to three arguments: array constants and element
    kernels over them (both kernels to the compiler) and, for the
    builtin's own path, scalars, cells, ranges and names."""
    source = st.one_of(
        st.sampled_from(_SUMPRODUCT_ARRAYS),
        kernel_chains(_SUMPRODUCT_ARRAYS, 3),
        st.sampled_from(_SCALARS),
        references(),
        st.sampled_from(["Span", "Rate"]),
    )
    return f"SUMPRODUCT({','.join(draw(st.lists(source, min_size=1, max_size=3)))})"


@settings(max_examples=400, deadline=None)
@given(sumproducts(), _moves)
def test_sumproduct_agrees_with_the_reference_interpreter(source, move):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, *move):
        assert same_value(compiled, reference), (source, compiled, reference)


# first error in element-then-argument order, a non-number multiplied by
# 0.0 (so an overflowed product stays #NUM!), an overflowing total
SUMPRODUCT_PINNED = [
    ("SUMPRODUCT({1e308;1},{1e308;1},{\"x\";1})", Error.NUM),
    ("SUMPRODUCT({\"x\";1},{1e308;1},{1e308;1})", 1.0),
    ("SUMPRODUCT({1;#N/A},{#DIV/0!;1})", Error.DIV0),
    ("SUMPRODUCT({1;2},{#REF!;#N/A})", Error.REF),
    ("SUMPRODUCT(VALUE({\"2\";\"x\";\"1\"}),{3;1;#N/A})", Error.VALUE),
    ("SUMPRODUCT({1e308;1e308},{9;9})", Error.NUM),
    ("SUMPRODUCT({TRUE;\"2\";2},-{1;1;1})", -2.0),
    ("SUMPRODUCT({1;2},{1,2})", Error.VALUE),
    ("SUMPRODUCT({1,2;3,4},{1,2;3,4}*{1,0;0,1})", 17.0),
]


@pytest.mark.parametrize("source, expected", SUMPRODUCT_PINNED)
def test_sumproduct_gives_the_pinned_value(source, expected):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
        assert same_value(compiled, expected), (compiled, expected)
        assert same_value(reference, expected), (reference, expected)


# needles of every type: blank cells and omitted needles, errors, arrays
# and ranges (their top-left element is the needle), numbers against
# booleans, text against its casefold pair
_NEEDLES = [
    "", BLANK, "#N/A", "1/0", "1", "0", "2", "TRUE", "FALSE", '"1"', '"a"', '"A"', '"STRASSE"', '"straße"',
    '""', '{"b";1}', "{#REF!,1}", "C3:C4", "C3", "E5", "MID(\"ab\",{1;2},1)", "RIGHT(C3)", "Rate", "Span",
]
# one row, one column and one element; mixed types, duplicates, casefold
# pairs, blanks of no kind and error elements; and a 2x2 constant
_LOOKUPS = [
    '{"0";"1";"2";"3";"4";"5";"6";"7";"8";"9";"X"}', '{1,"1",TRUE,"a","A",1}', '{"straße";"STRASSE";2}',
    '{#N/A;"";0;FALSE}', '{TRUE}', '{"b",#DIV/0!,"B"}', "{1,2;3,4}", '{2.5;-1;"x";1}',
]
_MODES = [None, "", "0", "FALSE", '"0"', "0.5", "-0.5", "1", "TRUE", "#N/A", "{0,1}", BLANK, "C5"]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_NEEDLES), st.sampled_from(_LOOKUPS), st.sampled_from(_MODES), _moves)
def test_match_in_a_constant_agrees_with_the_reference_interpreter(needle, lookup, mode, move):
    source = f"MATCH({needle},{lookup})" if mode is None else f"MATCH({needle},{lookup},{mode})"
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, *move):
        assert same_value(compiled, reference), (source, compiled, reference)


# an argument that would be a kernel but for a held argument that may give
# an array: these compile no kernel, and SUMPRODUCT's own builtin checks the
# shapes of the arrays its arguments give
SUMPRODUCT_GUARD_PINNED = [
    'SUMPRODUCT(VALUE(MID(C3:C4&"1",{1;2},1)),{1;2})',
    "SUMPRODUCT(VALUE(MID(Span,{1;2;3},1)),{1;2;3})",
    "SUMPRODUCT(LEN(MID(Span,{1,2;3,4;5,6},1)),{1,2;3,4;5,6})",
    'SUMPRODUCT(VALUE(MID(INDIRECT("C3:D4"),{1,2;3,4},1)),{1,2;3,4})',
    'SUMPRODUCT({1,2;3,4},LEN(MID(INDIRECT("C3:D4"),{1,2;3,4},1)),LEN({"a","bb";"","ccc"}))',
    "SUMPRODUCT(LEN(OFFSET(C3,0,0,2,1)&{1;2}),{1;2})",
]


@pytest.mark.parametrize("source", SUMPRODUCT_GUARD_PINNED)
def test_sumproduct_over_a_kernel_with_an_array_held_agrees_with_the_reference_interpreter(source):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
        assert same_value(compiled, reference), (compiled, reference)


def test_sumproduct_guard_reads_a_held_range_once():
    from gridcalc import engine

    ws = workspace()
    source = 'SUMPRODUCT(VALUE(MID(C3:C4&"1",{1;2},1)),{1;2})'
    with calls_of(engine.range_values) as reads:
        for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 1, 2):
            assert same_value(compiled, reference), (compiled, reference)
    assert reads["range_values"] == 2  # once at the template's cell, once at the copy


# ---------------------------------------------------------------------------
# INDEX over a reference reads the one cell it picks and gives what INDEX
# over the reference's values gives, its errors in the value rule's order
# ---------------------------------------------------------------------------

# INDEX's first argument: static cells and ranges (references()), names,
# one cell that holds an error (C4, H4 as a one-cell range), INDIRECT of
# text that names a reference, names none, or names a missing sheet, OFFSET;
# and, for the value path, no argument, a constant and a computed range
_INDEX_FIRSTS = references() | st.sampled_from(
    [
        "Span", "Rate", "Missing", "$C$4", "$H$4:$H$4", "C3:C3", 'INDIRECT("C3:E5")', 'INDIRECT("C4")',
        'INDIRECT("x")', 'INDIRECT("Nope!A1:B2")', "INDIRECT($K$1)", "INDIRECT(#N/A)", "OFFSET(C3,1,1,2,3)",
        "OFFSET(C4,0,0)", "OFFSET(C3,-5,0)", "OFFSET(Missing,0,0)", "", "{1,2;3,4}", "C3:D4+0",
    ]
)
# positions inside, 0, negative, fractional, past the edge; raw errors, one
# from a cell and one inside an array; text, a boolean, a blank, a range,
# and omitted
_INDEX_POSITIONS = [
    "1", "2", "3", "0", "-1", "0.5", "1.9", "9", "#N/A", "1/0", "$C$4", "{#REF!}", '"x"', '"2"', "TRUE", BLANK,
    "{2;1}", "C3:C4", "",
]


@settings(max_examples=400, deadline=None)
@given(_INDEX_FIRSTS, st.sampled_from(_INDEX_POSITIONS), st.none() | st.sampled_from(_INDEX_POSITIONS), _moves)
def test_index_agrees_with_the_reference_interpreter(first, n, m, move):
    source = f"INDEX({first},{n})" if m is None else f"INDEX({first},{n},{m})"
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, *move):
        assert same_value(compiled, reference), (source, compiled, reference)


INDEX_PINNED = [
    ("INDEX(C3:E3,2)", "abc"),  # D3
    ("INDEX(C3:D4,3)", Error.REF),
    ("INDEX(C3:D4,2)", Array([[Error.DIV0, "C3:D4"]])),  # a whole row: C4:D4
    ("INDEX(C3:D4,1,)", Array([[-2.5, "abc"]])),
    ("INDEX(Nope!A1:A2,1)", Error.REF),
    ("INDEX(Nope!A1,#N/A)", Error.REF),  # a missing sheet comes before a position's error
    ("INDEX($C$4,1)", Error.DIV0),
    ("INDEX($C$4,#N/A)", Error.DIV0),  # so does the error an address's cell holds
    ("INDEX($H$4:$H$4,\"x\")", Error.VALUE),  # but not one a range's cell holds
    ("INDEX(INDIRECT(#N/A),1/0)", Error.NA),
    ('INDEX(INDIRECT("C3:E3"),0)', Error.REF),
    ('INDEX(C3:E3,"x")', Error.VALUE),
    ("INDEX(C3:E3,#N/A,1/0)", Error.NA),
    ("INDEX(C3:D4,1,1)" + "+0" * 62, -2.5),
    ("INDEX(C3:D4,1,1)" + "+0" * 63, Error.VALUE),  # its arguments past the depth limit
    ("INDEX($C$4,1)" + "+0" * 63, Error.VALUE),
]


@pytest.mark.parametrize("source, expected", INDEX_PINNED)
def test_index_gives_the_pinned_value(source, expected):
    ws = workspace()
    for compiled, reference in compiled_and_reference(ws, source, ANCHOR, 0, 0)[:1]:
        assert same_value(compiled, expected), (compiled, expected)
        assert same_value(reference, expected), (reference, expected)


def test_a_steady_recalc_of_index_over_indirect_reads_one_cell_each():
    # Book2's calls hand lib's ISBN-10 body the text address of a 1x4 block,
    # which it reads as INDEX(INDIRECT(A2),1)..INDEX(INDIRECT(A2),4)
    from conftest import engine_for
    from gridcalc.model import range_values

    eng = engine_for("demo.gws")
    eng.full_recalc()
    results = [eng.get_value(parse_address(text, HOME)) for text in ("[Book2]Sheet1!F3", "[Book2]Sheet2!F3")]
    assert results == ["valid"] * 2
    with calls_of(range_values, functions._fn_index, functions.index_reference) as counts:
        eng.full_recalc()
    assert counts["range_values"] == counts["_fn_index"] == 0 and counts["index_reference"] > 0
    assert [eng.get_value(parse_address(text, HOME)) for text in ("[Book2]Sheet1!F3", "[Book2]Sheet2!F3")] == results


def test_static_reads_resolve_no_sheet():
    from gridcalc import bench, engine

    ws = bench.build_workspace(20, "large", 1)
    eng = engine.Engine(ws)
    eng.full_recalc()
    results = [ws.value(a) for a in bench.result_addresses(20, "large")]
    assert set(results) == {"valid", "invalid"}
    with calls_of(Reader.sheet, Reader.read) as counts:
        eng.full_recalc()
    assert counts == {"sheet": 0, "read": 0}
    assert [ws.value(a) for a in bench.result_addresses(20, "large")] == results
    # a dynamic reference still resolves its sheet on every read
    c1, f1 = (CellAddress("bench_body", "Bench", column, 1) for column in (3, 6))
    eng.set_literal(c1, "x")
    eng.set_formula(f1, '=INDIRECT("C1")')
    eng.full_recalc()
    eng.set_literal(c1, "y")
    with calls_of(Reader.sheet, Reader.read) as counts:
        eng.full_recalc()
    assert ws.value(f1) == "y"
    assert counts["read"] == 1 and counts["sheet"] > 0


def test_a_steady_recalc_parses_no_indirect_text():
    # Book2's calls hand lib's bodies text addresses that INDIRECT reads on
    # every recalc; each distinct text is parsed once, on the first
    from gridcalc import model
    from conftest import engine_for

    eng = engine_for("demo.gws")
    eng.full_recalc()
    cells = [parse_address(text, HOME) for text in ("[Book2]Sheet1!F3", "[Book2]Sheet1!F6", "[Book2]Sheet2!F3")]
    results = [eng.get_value(cell) for cell in cells]
    assert results == ["valid"] * 3
    with calls_of(model.parse_address) as counts:
        eng.full_recalc()
    assert counts == {"parse_address": 0}
    assert [eng.get_value(cell) for cell in cells] == results


# the check-digit bodies the workloads run: an ISBN-10 body, an ISBN-13 row
# and lib's ISSN check, each given a valid input; the calls of VALUE that
# evaluating them once makes, compiled: none per character (the ISBN-13
# row's one is its scalar VALUE(RIGHT(A2)))
SHIPPED_BODIES = [
    (("bench_body.gwb",), "[bench_body]Bench!A2", "0306406152", ["[bench_body]Bench!B2"], ["valid"], 0),
    (("isbn_basic.gwb",), "[isbn_basic]Single!A2", "9780306406157", ["[isbn_basic]Single!C2"], ["valid"], 1),
    (("lib.gwb",), "[lib]ISSNcheck!A2", "03785955", ["[lib]ISSNcheck!B2", "[lib]ISSNcheck!B3"], [160.0, 6.0], 0),
]


@pytest.mark.parametrize("books, input_cell, text, cells, expected, value_calls", SHIPPED_BODIES)
def test_shipped_bodies_reduce_their_constants_without_the_builtins(
    books, input_cell, text, cells, expected, value_calls
):
    from conftest import engine_for

    eng = engine_for(*books)
    context = CellAddress(books[0].removesuffix(".gwb"), "Sheet1", 1, 1)
    eng.set_formula(parse_address(input_cell, context), f'"{text}"')
    reductions = (functions._fn_sumproduct, functions._fn_match, functions.sum_of_products)
    with calls_of(*reductions) as counts:
        eng.full_recalc()
    assert counts["_fn_sumproduct"] == counts["_fn_match"] == 0
    assert counts["sum_of_products"] > 0
    with calls_of(*reductions, functions._fn_mid, functions._fn_value) as counts:
        values = []
        for cell in cells:
            addr = parse_address(cell, context)
            values.append(evaluated(eng.workspace, eng.workspace.cell(addr).content))
            assert same_value(eng.get_value(addr), values[-1])
    assert values == expected
    assert counts["_fn_sumproduct"] == counts["_fn_match"] == 0
    assert counts["sum_of_products"] > 0
    assert (counts["_fn_mid"], counts["_fn_value"]) == (0, value_calls)


# each constant is indexed, and coerced for a kernel, once: XADR reads its
# OFFSET argument as a reference only, so the MATCH inside compiles once
COMPILE_ONCE = [
    ('MATCH(A1,{"a";"b"},0)', 1, 0),
    ('IF(A1,MATCH(A1,{"a";"b"},0),1)', 1, 0),
    ('XADR(OFFSET(A1,MATCH(B1,{"a";"b"},0),0))', 1, 0),
    ('SUMPRODUCT(VALUE(MID(A2,{1;2;3},1)),{3;2;1})+MATCH(RIGHT(A2),{"0";"X"},0)', 1, 1),
]


@pytest.mark.parametrize("source, indexes, coercions", COMPILE_ONCE)
def test_each_constant_is_indexed_and_coerced_once(source, indexes, coercions):
    from gridcalc import engine, formula

    ws = workspace()
    template = formula.shared_formula(source, ANCHOR, ws.templates).template
    with calls_of(functions.match_index, engine._coerced_array) as counts:
        engine.compile_template(template, ws)
    assert counts == {"match_index": indexes, "_coerced_array": coercions}
