"""Rules on the package source itself, checked by parsing it."""

import ast
from pathlib import Path

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
