"""The emitted functions a template compiles to: constants reach them
through their namespace, never as source text; a workspace compiles each
source text once; nesting stays within the depth limit; a function lives
as long as its template, and a dropped workspace leaves no garbage cycle
behind."""

from __future__ import annotations

import gc
import inspect

import pytest

from gridcalc import engine, formula, functions
from gridcalc.engine import MAX_DEPTH, Engine
from gridcalc.model import Array, CellAddress, Error, Literal, Workspace
from conftest import engine_for, evaluated
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
    made.append(formula.Template(ast, AT.sheet_key, "", [], []).at(AT, [(HOME.column, HOME.row)], "no source"))
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
    assert "os" not in source.replace("workspace", "") and "Rate" not in source


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
# an argument's reference is emitted only for a builtin that reads it
# ---------------------------------------------------------------------------


def test_isblank_compiles_no_function_for_its_arguments_reference(compiles):
    ws = workspace()
    made = formula.shared_formula('IF(ISBLANK(A2),"",B2)', AT, ws.templates)
    assert evaluated(ws, made) is None  # A2 holds "zz", B2 is blank
    # the formula's function and the one of A2's value; none gives A2's reference
    assert len(compiles) == 2
    assert not any("= f.refs[0]\n" in source for source in compiles)
    row = formula.shared_formula("ROW(A2)", AT, ws.templates)
    assert evaluated(ws, row) == 2.0
    assert any("= f.refs[0]\n" in source for source in compiles[2:])


@pytest.mark.parametrize("name", sorted(n for n, b in functions.REGISTRY.items() if b.kind in ("special", "reference")))
def test_reads_reference_says_whether_the_builtin_reads_one(name):
    spec = functions.REGISTRY[name]
    if spec.fn is None:  # IF, compiled in line
        return
    body = inspect.getsource(getattr(spec.fn, "func", spec.fn))
    assert spec.reads_reference == (".reference(f)" in body)


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
