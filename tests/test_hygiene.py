"""Source hygiene that no installed linter checks: every module-level import
in the package and the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/obstructor/*.py"), *ROOT.glob("tests/*.py")])


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose name is never read.
    ``from __future__`` imports and names listed in ``__all__`` count as
    used."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.lineno, a.asname or a.name) for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported = {e.value for e in node.value.elts}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound
            if name not in used and name not in exported]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from x import a, b as c\n__all__ = ['a']\nprint(sys.argv)\n")
    assert _unused_imports(source) == [(2, "os"), (3, "c")]


def test_no_unused_module_level_imports():
    assert len(FILES) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.name != "__init__.py"
             for line, name in _unused_imports(path.read_text())]
    assert not found, found
