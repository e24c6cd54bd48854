"""Unused-import guard: every name a module of `src/`, `tests/` or
`tools/` imports is read somewhere in that module.

No linter is part of the toolchain, so this `ast` scan stands in for one.
A name counts as read where the module loads it, names it inside a quoted
annotation, or lists it in `__all__`.  `from __future__` imports are
directives, not names.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(path for tree in ("src", "tests", "tools")
                 for path in (REPO / tree).rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        if (isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)):
            read |= _read(ast.parse(annotation.value, mode="eval"))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return read


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(REPO)) for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in read}
    assert not unused, f"{path.relative_to(REPO)}: unused imports {unused}"
