"""Every cross-reference in a ``gridcalc`` docstring names something that
exists, so that deleting code cannot leave its name behind in the docs."""

from __future__ import annotations

import ast
import builtins
import importlib
import pkgutil
import re
from types import SimpleNamespace

import pytest

import gridcalc

ROLE = re.compile(r":(func|meth|class|data|mod):`~?([\w.]+)`")
MODULES = {m.name: importlib.import_module(f"gridcalc.{m.name}") for m in pkgutil.iter_modules(gridcalc.__path__)}


def _docstrings(tree: ast.Module):
    """Each docstring of *tree*, with the name of the class it is in (or
    None): the module's, and every class's and function's, nested ones too."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield doc, owner
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, child.name if owner is None else owner))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, owner))


def _resolves(target: str, roots: list) -> bool:
    missing = object()
    for root in roots:
        obj = root
        for part in target.split("."):
            obj = getattr(obj, part, missing)
            if obj is missing:
                break
        else:
            return True
    return False


@pytest.mark.parametrize("name", sorted(MODULES))
def test_docstring_references_resolve(name):
    module = MODULES[name]
    with open(module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    # a target is looked up in its module, then in the package, then as an
    # absolute name, then among the builtins (``str.splitlines``); a bare
    # :meth: first in the class whose docstring holds it
    roots = [module, gridcalc, SimpleNamespace(gridcalc=gridcalc), builtins]
    stale = []
    for doc, owner in _docstrings(tree):
        for role, target in ROLE.findall(doc):
            scope = [getattr(module, owner)] if role == "meth" and owner is not None else []
            if not _resolves(target, scope + roots):
                stale.append(f":{role}:`{target}`")
    assert not stale, stale
