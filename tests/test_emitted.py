"""The emitted functions a template compiles to: constants reach them
through their namespace, never as source text; a workspace compiles each
source text once; nesting stays within the depth limit; compiling leaves
no reference cycle behind."""

from __future__ import annotations

import gc

import pytest

from gridcalc import engine, formula
from gridcalc.engine import MAX_DEPTH, Engine
from gridcalc.model import Array, CellAddress, Error, Literal, Workspace
from conftest import engine_for, load_assets
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
    # a line break no formula source holds, in a tree built by hand
    ast = formula.Binary("&", formula.Literal(hostile + "\n"), formula.Ref(HOME))
    made.append(formula.Template(ast, AT).at(AT, "built by hand"))
    values = [engine.evaluate(ws, AT, f) for f in made]
    assert values == ["ab", hostile + "#b", hostile + "\nb"]
    assert len({id(f.template) for f in made}) == 3
    assert len(compiles) == len(ws.codes) == 1
    assert len({f.template.code.__code__ for f in made}) == 1
    (source,) = ws.codes
    assert "import" not in source and '"' not in source


def test_shapes_that_differ_only_in_a_defined_name_share_one_code_object(compiles):
    ws = workspace()
    ws.define_name("Rate", HOME)
    ws.define_name("os.system", HOME.moved(1, 2))  # a valid name that reads as code
    made = [formula.shared_formula(f"{name}&A1", AT, ws.templates) for name in ("Rate", "os.system", "Nope")]
    assert [engine.evaluate(ws, AT, f) for f in made] == ["bb", "zzb", Error.NAME]
    assert len(compiles) == len(ws.codes) == 1
    (source,) = ws.codes
    assert "os" not in source.replace("ctx.workspace", "") and "Rate" not in source


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
    assert len({id(ws.cell(cell).content.template) for cell in cells}) == 64
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
# compiling makes no reference cycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("book", ["bench_body.gwb", "lib.gwb"])
def test_compiling_leaves_no_garbage_cycle(book):
    ws = load_assets(book)
    templates = list(ws.templates.values())  # kept alive, as the workspace keeps them
    assert templates
    gc.collect()
    gc.disable()
    try:
        for template in templates:
            engine.compile_template(template, ws.codes)
        compiled = [template.code for template in templates]
        unreachable = gc.collect()
        for template in templates:
            template.code = None  # no function holds itself, so reference counting frees it
        del compiled
        dropped = gc.collect()
    finally:
        gc.enable()
    assert unreachable == dropped == 0
