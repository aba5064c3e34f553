"""Every import binds a name its module uses.

Each module under src/, tests/ and benchmarks/ is parsed with `ast`. A name
bound by an import must be read somewhere in the module, or be listed in its
`__all__` when it is there to be re-exported.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "benchmarks")
                 for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for each imported name the source never reads."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n"
        "    from g import h\n"
        "    return os.sep, d\n"
    )
    assert unused_imports(source) == ["js (line 3)", "b (line 4)",
                                      "h (line 7)"]


def test_every_import_is_used():
    assert MODULES
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
             for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


PLANNER = ("tensortier.eviction", "tensortier.prefetch",
           "tensortier.reservations")


def planner_imports(source: str) -> list[str]:
    """'module (line n)' for each planner module the source imports from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
            if node.module == "tensortier":
                modules += [f"tensortier.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{module} (line {node.lineno})" for module in modules
                  if module.startswith(PLANNER)]
    return found


def test_layering_checker_flags_planner_imports():
    source = (
        "import tensortier.eviction\n"
        "from tensortier import prefetch, config\n"
        "from tensortier.reservations import LaneReservations\n"
        "from tensortier.config import Destination\n"
    )
    assert planner_imports(source) == [
        "tensortier.eviction (line 1)", "tensortier.prefetch (line 2)",
        "tensortier.reservations (line 3)"]


def test_replay_imports_nothing_from_the_planner():
    """The replay (simulate) and the program it runs (instrument) read the
    planner's output, and import none of its modules."""
    replay = ("simulate.py", "instrument.py")
    found = {name: planner_imports(
        (ROOT / "src" / "tensortier" / name).read_text()) for name in replay}
    assert found == {name: [] for name in replay}
