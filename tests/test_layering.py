"""The modules of ``zecap`` import one another without a cycle.

Every intra-package import counts, at module level or inside a function: a
deferred import is how a cycle hides, so one of those is a failure too.  The
package facade ``__init__`` is a node like any other; a module that needs a
name the facade binds has to import it from where the facade gets it.

The vertex cap of exact computation is decided in ``graphs`` alone: no other
module reads ``MAX_VERTICES``, except ``build_code`` as the default of its
``max_vertices``.  Importing the name (the facade re-exports it) is no read.
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


CAP = "MAX_VERTICES"


def cap_reads(path: Path) -> list[int]:
    """Lines of ``path`` that read ``MAX_VERTICES``, other than build_code's default."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {CAP}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name == CAP and a.asname)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "build_code":
            allowed.update(id(d) for d in node.args.defaults + node.args.kw_defaults if d)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed
        and isinstance(getattr(node, "ctx", None), ast.Load)
        and (
            (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr == CAP)
        )
    )


def test_only_the_graph_module_reads_the_vertex_cap():
    reads = {
        p.name: cap_reads(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "graphs.py"
    }
    assert {name: lines for name, lines in reads.items() if lines} == {}
    assert cap_reads(PACKAGE / "graphs.py")


def test_the_cap_scan_sees_a_read_and_allows_build_codes_default(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .graphs import MAX_VERTICES, MAX_VERTICES as LIMIT\n"
        "def build_code(g, max_vertices=MAX_VERTICES):\n"
        "    return g\n"
    )
    assert cap_reads(path) == []
    path.write_text(
        "from . import graphs\n"
        "from .graphs import MAX_VERTICES as LIMIT\n"
        "def capacity_bounds(g, n):\n"
        "    if g.vertex_count**n > LIMIT:\n"
        "        return graphs.MAX_VERTICES\n"
    )
    assert cap_reads(path) == [4, 5]
