"""Rules on the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import pytest
from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "eqcurv"


def private_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, ".name")`` of every read of a single-underscore attribute off
    anything but ``self`` or ``cls``; dunders are allowed."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, f".{name}"))
    return found


def test_no_module_reads_another_objects_private_attribute():
    sites = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in private_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert sites == []


def test_the_rule_flags_a_private_read_and_nothing_else():
    tree = ast.parse(
        "x = result._point\n"
        "y = self._cache\n"
        "z = cls._registry\n"
        "t = type(a).__name__\n"
        "a.b._c\n"
        "obj._field = 1\n"
    )
    assert private_reads(tree) == [(1, "._point"), (5, "._c")]


def function_source(module: str, qualname: str) -> str:
    """Source of the function or method ``qualname`` in ``src/eqcurv/<module>.py``."""
    text = (SRC / f"{module}.py").read_text()
    scope = ast.parse(text)
    for name in qualname.split("."):
        scope = next(node for node in scope.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
    return ast.get_source_segment(text, scope)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.function}:{m.replacement}")
def test_every_mutant_snippet_occurs_once_inside_its_function(mutant):
    # the mutation table in tests/mutants.py cannot go stale silently
    assert sum(path.read_text().count(mutant.snippet) for path in SRC.glob("*.py")) == 1
    module, qualname = mutant.function.split(".", 1)
    assert function_source(module, qualname).count(mutant.snippet) == 1
    ast.parse((SRC / f"{module}.py").read_text().replace(mutant.snippet, mutant.replacement))
