"""The modules of ``zecap`` import one another without a cycle.

Every intra-package import counts, at module level or inside a function: a
deferred import is how a cycle hides, so one of those is a failure too.  The
package facade ``__init__`` is a node like any other; a module that needs a
name the facade binds has to import it from where the facade gets it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zecap"
FACADE = "__init__"


def _intra_package_imports(path: Path, modules: set[str]) -> set[str]:
    """Modules of the package that ``path`` imports, ``__init__`` for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "zecap":
                    continue
                target = parts[1:]
            elif node.level == 1:
                target = node.module.split(".") if node.module else []
            else:
                continue
            if target:
                found.add(target[0])
            else:  # from . import name: a submodule, or a name bound by the facade
                found.update(a.name if a.name in modules else FACADE for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "zecap":
                    found.add(parts[1] if len(parts) > 1 else FACADE)
    return found


def import_graph(package: Path = PACKAGE) -> dict[str, set[str]]:
    modules = {p.stem for p in package.glob("*.py")}
    return {m: _intra_package_imports(package / f"{m}.py", modules) - {m} for m in modules}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path of module names, or None."""
    state: dict[str, int] = {}  # 1 while on the current path, 2 when done
    path: list[str] = []

    def visit(m: str) -> list[str] | None:
        state[m] = 1
        path.append(m)
        for t in sorted(graph.get(m, ())):
            if state.get(t) == 1:
                return path[path.index(t) :] + [t]
            if t not in state:
                cycle = visit(t)
                if cycle:
                    return cycle
        path.pop()
        state[m] = 2
        return None

    for m in sorted(graph):
        if m not in state:
            cycle = visit(m)
            if cycle:
                return cycle
    return None


def test_the_package_import_graph_has_no_cycle():
    graph = import_graph()
    # The walk sees what it should: the facade imports the modules, and
    # modules import each other.
    assert {"channels", "search"} <= graph[FACADE]
    assert "channels" in graph["formats"]
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_the_cycle_finder_sees_a_deferred_import_and_a_facade_import(tmp_path):
    pkg = tmp_path / "zecap"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from ._version import v\nfrom .b import g\n")
    (pkg / "_version.py").write_text("v = 1\n")
    (pkg / "a.py").write_text("def f():\n    from .b import g\n    return g\n")
    (pkg / "b.py").write_text("from .a import f\n\ndef g():\n    return f\n")
    assert find_cycle(import_graph(pkg)) == ["b", "a", "b"]
    (pkg / "a.py").write_text("from . import v\n")
    (pkg / "b.py").write_text("import zecap.a\n")
    graph = import_graph(pkg)
    assert graph["a"] == {FACADE} and graph["b"] == {"a"}
    assert find_cycle(graph) == [FACADE, "b", "a", FACADE]
