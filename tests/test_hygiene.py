"""Source hygiene that no installed linter checks: every file parses at the
oldest Python that ``pyproject.toml`` admits, every module-level import in
the package and the tests is used, every module-level private name of the
package is referenced somewhere besides its definition, and the package
keeps no mutable module state."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/obstructor/*.py"), *ROOT.glob("tests/*.py")])


def test_every_file_parses_at_the_python_floor():
    # tomllib needs Python 3.11, above the floor itself, so read it by regex.
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    assert len(FILES) > 10
    for path in FILES:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(int(major), int(minor)))


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose name is never read.
    ``from __future__`` imports count as used."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from x import a, b as c\nprint(sys.argv)\n")
    assert _unused_imports(source) == [(2, "os"), (3, "a"), (3, "c")]


def test_no_unused_module_level_imports():
    assert len(FILES) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES
             for line, name in _unused_imports(path.read_text())]
    assert not found, found


def _private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level private function, class or constant:
    a name with one leading underscore, not a dunder."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def _references(source: str) -> set[str]:
    """Every name the source reads: loaded names, attributes, imported names
    and the last dotted part of each string (as in ``monkeypatch.setattr``)."""
    refs = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs.add(n.value.rsplit(".", 1)[-1])
    return refs


def test_the_check_sees_an_unreferenced_private_name():
    source = ("_A = 1\n_B = 2\n__version__ = '0'\nclass _C: pass\n"
              "def _d(): return _B\ndef e(): pass\n")
    defined = _private_definitions(source)
    assert defined == [(1, "_A"), (2, "_B"), (4, "_C"), (5, "_d")]
    assert [d for d in defined if d[1] not in _references(source)] == [
        (1, "_A"), (4, "_C"), (5, "_d")]


def test_no_unreferenced_module_level_private_names():
    refs = set().union(*(_references(path.read_text()) for path in FILES))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.parent.name == "obstructor"
             for line, name in _private_definitions(path.read_text())
             if name not in refs]
    assert len(FILES) > 10
    assert not found, found


_MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _module_state(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level name bound to a dict, list or set
    display or to None, and of each ``global`` statement: the makings of a
    hand-rolled cache. Memoize a pure function with ``functools.cache``."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, _MUTABLE)
                or isinstance(node.value, ast.Constant) and node.value.value is None):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    found += [(n.lineno, "global " + ", ".join(n.names))
              for n in ast.walk(tree) if isinstance(n, ast.Global)]
    return found


def test_the_check_sees_module_state():
    source = ("_A = {}\n_B: list = []\n_C = None\n_D = (1, 2)\n_E = {1: 2}.get\n"
              "_F = {k: k for k in 'ab'}\nX = frozenset()\n"
              "def f():\n    global _C\n    _C = 1\n")
    assert _module_state(source) == [(1, "_A"), (2, "_B"), (3, "_C"), (6, "_F"),
                                     (9, "global _C")]


def test_no_mutable_module_state():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.parent.name == "obstructor"
             for line, name in _module_state(path.read_text())]
    assert len(FILES) > 10
    assert not found, found
