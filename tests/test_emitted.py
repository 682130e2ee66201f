"""The emitted functions a template compiles to: constants reach them
through their namespace, never as source text; a workspace compiles each
source text once; two floats meet in a Python operator where the constants
let them; INDEX over a reference reads one cell; nesting stays within the
depth limit; a function lives as long as its template, and a dropped
workspace leaves no garbage cycle behind."""

from __future__ import annotations

import ast
import gc
import importlib
import inspect
import re
import sys
import textwrap
import weakref
from pathlib import Path
from types import FunctionType

import pytest

from gridcalc import engine, formula, functions, load_workspace
from gridcalc.engine import MAX_DEPTH, Engine
from gridcalc.model import Array, CellAddress, Error, Literal, Workspace, to_number
from conftest import calls_of, engine_for, evaluated
from reference_eval import compiled_and_reference, same_value

HOME = CellAddress("B", "S", 1, 1)
AT = HOME.moved(5, 5)  # E5


def workspace() -> Workspace:
    ws = Workspace()
    sheet = ws.add_workbook("B").ensure_sheet("S")
    sheet.set_content(1, 1, Literal("b"))  # A1
    sheet.set_content(2, 1, Literal("zz"))  # A2
    sheet.set_content(3, 3, Literal(True))  # C3
    return ws


@pytest.fixture
def compiles(monkeypatch) -> list:
    """The source text of each ``compile`` call the engine makes."""
    made = []

    def counting(source, *args, **kwargs):
        made.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(engine, "compile", counting, raising=False)
    return made


# ---------------------------------------------------------------------------
# constants never become code
# ---------------------------------------------------------------------------


def test_shapes_that_differ_only_in_text_constants_share_one_code_object(compiles):
    ws = workspace()
    hostile = 'x"); import os; ("'
    made = [formula.shared_formula('"a"&A1', AT, ws.templates)]
    made.append(formula.shared_formula(formula.quote(hostile + "#") + "&A1", AT, ws.templates))
    # a line break no formula source holds, in a template built from a tree
    # and from no source: its one reference is given its corner by hand
    ast = formula.Binary("&", formula.Literal(hostile + "\n"), formula.Ref(HOME))
    made.append(formula.Template(ast, AT.sheet_key, "", [], []).at(AT, [(HOME.row, HOME.column)], "no source"))
    values = [evaluated(ws, f) for f in made]
    assert values == ["ab", hostile + "#b", hostile + "\nb"]
    assert len({id(f.template) for f in made}) == 3
    assert len(compiles) == len(ws.codes) == 1
    assert len({ws.compiled[f.template].__code__ for f in made}) == 1
    (source,) = ws.codes
    assert "import" not in source and '"' not in source


def test_shapes_that_differ_only_in_a_defined_name_share_one_code_object(compiles):
    ws = workspace()
    ws.define_name("Rate", HOME)
    ws.define_name("os.system", HOME.moved(1, 2))  # a valid name that reads as code
    made = [formula.shared_formula(f"{name}&A1", AT, ws.templates) for name in ("Rate", "os.system", "Nope")]
    assert [evaluated(ws, f) for f in made] == ["bb", "zzb", Error.NAME]
    assert len(compiles) == len(ws.codes) == 1
    (source,) = ws.codes
    assert "os" not in source.replace("reader", "") and "Rate" not in source


# ---------------------------------------------------------------------------
# code objects are shared within a workspace, not between workspaces
# ---------------------------------------------------------------------------


def test_copies_of_one_tree_compile_once(compiles):
    ws = workspace()
    eng = Engine(ws)
    d2 = HOME.moved(4, 2)
    eng.set_literal(d2, "text")
    cells = [HOME.moved(2, 2 * k + 4) for k in range(64)]
    for cell in cells:
        eng.set_formula(cell, "=D2")
    eng.full_recalc()
    assert [ws.value(cell) for cell in cells] == ["text"] * 64
    assert len({id(ws.cell(cell).content.template) for cell in cells}) == 1
    assert len(compiles) == 1


def test_each_workspace_compiles_its_own_shapes(compiles):
    first, second = engine_for("bench_body.gwb"), engine_for("bench_body.gwb")
    first.full_recalc()
    count = len(compiles)
    second.full_recalc()
    assert count > 0 and len(compiles) == 2 * count
    assert compiles[:count] == compiles[count:]
    one, two = first.workspace.codes, second.workspace.codes
    assert one.keys() == two.keys() and all(one[k] is not two[k] for k in one)


# ---------------------------------------------------------------------------
# a special builtin's arguments are emitted in line, in the formula's one
# function; an argument's reference only for a builtin that reads it
# ---------------------------------------------------------------------------


def test_isblank_compiles_no_function_for_its_arguments_reference(compiles):
    ws = workspace()
    made = formula.shared_formula('IF(ISBLANK(A2),"",B2)', AT, ws.templates)
    assert evaluated(ws, made) is None  # A2 holds "zz", B2 is blank
    # the formula's one function, which reads A2's value and not its reference
    assert len(compiles) == 1
    assert "reference_at(" not in compiles[0]
    # A2's value is read by its coordinates, the key of its sheet's cells
    assert "k0.get(f.refs[0], BLANK).cached" in compiles[0] and ".row" not in compiles[0]
    row = formula.shared_formula("ROW(A2)", AT, ws.templates)
    assert evaluated(ws, row) == 2.0
    # ROW reads A2's reference and not its value
    assert len(compiles) == 2
    assert "= reference_at(k0, f.refs[0])\n" in compiles[1] and ".cached" not in compiles[1]


@pytest.mark.parametrize("name", sorted(n for n, b in functions.REGISTRY.items() if b.kind in ("special", "reference")))
def test_reads_reference_says_whether_the_builtin_reads_one(name):
    spec = functions.REGISTRY[name]
    if spec.fn is None:  # IF, compiled in line
        return
    fn = getattr(spec.fn, "func", spec.fn)
    ref = [*inspect.signature(fn).parameters][-1]  # fn(f, args, ref)
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    reads = any(type(n) is ast.Name and n.id == ref and type(n.ctx) is ast.Load for n in ast.walk(tree))
    assert spec.reads_reference == reads


# ---------------------------------------------------------------------------
# an element kernel holds only scalars
# ---------------------------------------------------------------------------


def test_a_kernel_forms_only_where_no_held_argument_gives_an_array():
    ws = workspace()
    assert "for e in" in emitted(ws, "VALUE(MID(A2,{1;2},1))")
    # a held range: no kernel, and so no guard for an array
    text = emitted(ws, "VALUE(MID(C3:C4,{1;2},1))")
    assert "for e in" not in text and "lifted_links" not in text


# ---------------------------------------------------------------------------
# each benchmark workload compiles one function per template and, in a
# steady recalc, calls no other
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name, templates", [("call-small", 3), ("call-large", 3), ("edit-batch", 20)])
def test_a_workload_makes_one_function_per_template_and_calls_only_those(name, templates, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    w = importlib.import_module("workloads").WORKLOADS[name](1)
    for file_name, text in w.files.items():
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    made = []
    monkeypatch.setattr(engine, "FunctionType", lambda *args: made.append(FunctionType(*args)) or made[-1])
    eng = Engine(load_workspace([tmp_path / file_name for file_name in w.load]))
    eng.full_recalc()
    ws = eng.workspace
    assert len(made) == len(ws.compiled) == templates
    assert not any("lifted_links" in source or "sumproduct(" in source for source in ws.codes)
    own = {id(fn.__globals__) for fn in ws.compiled.values()}
    calls = {True: 0, False: 0}  # by whether a template's function runs

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "<formula>":
            calls[id(frame.f_globals) in own] += 1

    sys.setprofile(profile)
    try:
        eng.full_recalc()
    finally:
        sys.setprofile(None)
    assert calls[True] > 0 and calls[False] == 0


# ---------------------------------------------------------------------------
# the float path: an operator with a Python form (Builtin.python) runs it in
# line on two floats, unless a constant operand is no float or a constant
# divisor is zero
# ---------------------------------------------------------------------------


def emitted(ws: Workspace, source: str) -> str:
    """The source text that *source*'s template compiles to in *ws*."""
    code = engine.bind(ws, formula.shared_formula(source, AT, ws.templates)).__code__
    return next(text for text, c in ws.codes.items() if c is code)


# each source with the Python operator its float path runs
FLOAT_PATH = [
    ("A1+B2", "+"), ("A1-2", "-"), ('"3"*A1', "*"), ("TRUE+A1", "+"), ("A1/B2", "/"), ("A1/2", "/"),
    ("A1/-0", "/"), ("MOD(A1,3)", "%"), ("MOD(3,A1)", "%"), ("A1=B2", "=="), ("A1<>2", "!="),
    ("A1<B2", "<"), ("1<=A1", "<="), ("A1>0", ">"), ("A1>=B2", ">="),
]
NO_FLOAT_PATH = [
    "A1^B2", "A1^2", "A1&B2", "1&A1", "-A1", "1+2",
    'A1+"x"', '"x"=A1', 'A1<""', "A1=TRUE", "A1-#N/A", "#DIV/0!<A1", "A1*{1;2}", "{1,2}<>A1",
    "A1/0", 'A1/"0"', "MOD(A1,0)", "MOD(A1,FALSE)",
]


@pytest.mark.parametrize("source, python", FLOAT_PATH)
def test_an_operator_emits_its_python_operator_for_two_floats(source, python):
    text = emitted(workspace(), source)
    assert "is float" in text and "functions.array_lift" in text
    assert re.search(rf"\n        v\d+ = [kv]\d+ {re.escape(python)} [kv]\d+\n", text), text


@pytest.mark.parametrize("source", NO_FLOAT_PATH)
def test_no_float_path_without_a_python_operator_or_for_a_constant_it_cannot_take(source):
    assert "is float" not in emitted(workspace(), source)


def test_a_divisor_that_is_not_constant_must_be_nonzero_to_take_the_float_path():
    ws = workspace()
    assert "if type(v1) is float and type(v2) is float and v2:\n" in emitted(ws, "A1/B2")
    assert "if type(v1) is float and v1:\n" in emitted(ws, "MOD(3,A1)")
    assert "if type(v1) is float:\n" in emitted(ws, "A1/2")
    assert "if type(v1) is float and type(v2) is float:\n" in emitted(ws, "A1-B2")


def test_constant_divisors_share_one_code_object_and_a_zero_one_its_own(compiles):
    ws = workspace()
    ws.resolve_sheet(HOME).set_content(4, 4, Literal(8.0))  # D4
    nonzero = [formula.shared_formula(f"D4/{d}", AT, ws.templates) for d in ("2", "0.5", "1E300", '"4"')]
    zero = [formula.shared_formula(f"D4/{d}", AT, ws.templates) for d in ("0", '"0"', "FALSE")]
    assert [evaluated(ws, f) for f in nonzero] == [4.0, 16.0, 8e-300, 2.0]
    assert [evaluated(ws, f) for f in zero] == [Error.DIV0] * 3
    assert len({id(f.template) for f in nonzero + zero}) == 7
    assert len(compiles) == len(ws.codes) == 2
    assert len({ws.compiled[f.template].__code__ for f in nonzero}) == 1


def test_copies_of_an_operator_tree_compile_once_and_two_floats_run_no_wrapper(compiles):
    eng = Engine(workspace())
    d2 = HOME.moved(4, 2)
    eng.set_literal(d2, 6.0)
    cells = [HOME.moved(2, 2 * k + 4) for k in range(16)]
    for cell in cells:
        eng.set_formula(cell, "=MOD($D$2,4)*2-1=$D$2/4+0.5")
    eng.full_recalc()
    assert [eng.get_value(cell) for cell in cells] == [False] * 16  # 3 = 2
    assert len(compiles) == 1
    with calls_of(functions._finite, functions._order_key, functions.array_lift, to_number) as counts:
        eng.set_literal(d2, 10.0)
        eng.full_recalc()
    assert [eng.get_value(cell) for cell in cells] == [True] * 16  # 3 = 3
    assert counts == {"_finite": 0, "_order_key": 0, "array_lift": 0, "to_number": 0}


# ---------------------------------------------------------------------------
# INDEX whose first argument denotes a reference reads the one cell it picks;
# over any other value it takes the value path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source", ["INDEX(INDIRECT(A2),1)", "INDEX(B1:E1,2)", "INDEX(Rate,1,1)", "INDEX(OFFSET(A1,1,1),1)"]
)
def test_index_over_a_reference_emits_one_cell_read(source):
    ws = workspace()
    ws.define_name("Rate", HOME)
    text = emitted(ws, source)
    assert "index(reader, " in text and "range_values" not in text, text


@pytest.mark.parametrize("source", ["INDEX({1,2},2)", "INDEX(B1:E1+1,1)", "INDEX(,1)", "INDEX(1,1)"])
def test_index_over_a_value_keeps_the_value_path(source):
    assert "index(" not in emitted(workspace(), source)


def test_no_emitted_namespace_holds_a_weak_proxy():
    # every dynamic read: a defined name, INDIRECT, OFFSET, INDEX over one,
    # and a sheet missing when its template compiles
    ws = workspace()
    ws.define_name("Rate", HOME)
    sources = ["Rate&1", 'INDIRECT("A1")', "OFFSET(A1,1,0)", "INDEX(INDIRECT(A2),1)", "Nope!A1", "SUM(Nope!A1:B2)"]
    functions_made = [engine.bind(ws, formula.shared_formula(s, AT, ws.templates)) for s in sources]
    assert functions_made[0].__globals__["reader"] is ws.reader
    assert functions_made[0].__globals__["names"] is ws.defined_names
    for fn in functions_made:
        for v in fn.__globals__.values():
            assert type(v) is not weakref.ProxyType, fn.__globals__


# ---------------------------------------------------------------------------
# depth: IF nests the emitted code one level per IF, bounded by MAX_DEPTH
# ---------------------------------------------------------------------------

# conditions that hold (a literal, a cell, kernels, a special call), shallow
# enough to stay within the limit where they are nested
_CONDITIONS = ["TRUE", "C3", "{TRUE;FALSE}", "1<{2;0}", "ISBLANK(P20)", "-{1;2}", 'LEN(MID("ab",{1;2},1))=1']


def nested_ifs(levels: int, inner: str, last: str = "TRUE") -> str:
    """*levels* IFs, each nesting the next in the branch its condition
    takes, the last one's condition *last*, around *inner*."""
    conditions = [_CONDITIONS[i % len(_CONDITIONS)] if i < levels - 8 else "TRUE" for i in range(levels - 1)]
    text = inner
    for c in reversed([*conditions, last]):
        text = f"IF({c},{text},0)"
    return text


def test_nested_ifs_around_a_kernel_at_the_depth_limit_compile_and_agree():
    # the kernel's operands, a cell and a constant, sit exactly MAX_DEPTH deep
    source = nested_ifs(MAX_DEPTH - 2, "A1&{1;2}")
    ws = workspace()
    results = compiled_and_reference(ws, source, AT, 1, 2)
    for compiled, reference in results:
        assert same_value(compiled, reference), (compiled, reference)
    assert results[0][0] == Array([["b1"], ["b2"]])


@pytest.mark.parametrize("taken, expected", [("TRUE", Error.VALUE), ("FALSE", 0.0)])
def test_one_level_deeper_gives_value_error_only_where_evaluated(taken, expected):
    source = nested_ifs(MAX_DEPTH - 1, "A1&{1;2}", taken)
    ws = workspace()
    results = compiled_and_reference(ws, source, AT, 1, 2)
    for compiled, reference in results:
        assert same_value(compiled, reference), (compiled, reference)
    assert same_value(results[0][0], expected), results[0][0]  # C3, which the copy moves, holds TRUE


# ---------------------------------------------------------------------------
# a function lives as long as its template; no garbage cycle
# ---------------------------------------------------------------------------


def test_a_compiled_function_dies_with_its_template():
    # the workspace keeps a template's function only while a formula of the
    # template holds the template: replacing them frees both, with no
    # help from the cyclic collector
    eng = Engine(workspace())
    for row in range(1, 4):
        eng.set_formula(HOME.moved(2, row), f"A{row}&1")
    eng.full_recalc()
    ws = eng.workspace
    assert len(ws.templates) == len(ws.compiled) == 1
    gc.disable()
    try:
        for row in range(1, 4):
            eng.set_literal(HOME.moved(2, row), 1.0)
        assert len(ws.templates) == len(ws.compiled) == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("book", ["bench_body.gwb", "lib.gwb"])
def test_compiling_leaves_no_garbage_cycle(book):
    # a workspace whose formulas compiled and ran, dropped with its engine,
    # is freed by reference counting: no cell reaches a compiled function
    gc.collect()
    gc.disable()
    try:
        eng = engine_for(book)
        eng.full_recalc()
        eng.full_recalc()
        assert eng.workspace.compiled
        del eng
        dropped = gc.collect()
    finally:
        gc.enable()
    assert dropped == 0
