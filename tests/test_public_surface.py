"""Every name the package exports has a caller outside the tests.

A name is public only if the pipeline, the CLI, a demo or the benchmark
harness uses it; one that only the tests call is a test helper and belongs
under ``tests/``.  A use is a load in the syntax tree, a bare name
(``Graph(...)``) or an attribute (``zecap.Graph``), anywhere in ``src/zecap``,
``demos/*.py`` or ``perfbench/*.py``.  Importing a name, listing it in
``__all__`` and loading it inside its own definition are no uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zecap"


def exported_names(facade: Path) -> set[str]:
    """Names the facade binds by its imports."""
    tree = ast.parse(facade.read_text(), filename=str(facade))
    return {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }


def _loads(node: ast.AST, inside: frozenset[str] = frozenset()):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside |= {node.name}
    if isinstance(getattr(node, "ctx", None), ast.Load):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name and name not in inside:
            yield name
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, inside)


def loaded_names(paths) -> set[str]:
    """Names loaded in ``paths``, other than inside a definition of the same name."""
    return {name for p in paths for name in _loads(ast.parse(p.read_text(), filename=str(p)))}


def callers(root: Path = ROOT) -> list[Path]:
    return [
        *sorted((root / "src" / "zecap").glob("*.py")),
        *sorted((root / "demos").glob("*.py")),
        *sorted((root / "perfbench").glob("*.py")),
    ]


def test_every_exported_name_is_used_outside_the_tests():
    names = exported_names(PACKAGE / "__init__.py")
    # The scan sees the facade's imports, and the callers are all there.
    assert {"__version__", "Graph", "capacity_bounds", "lovasz_theta"} <= names
    assert {"cli.py", "run.py", "workloads.py"} <= {p.name for p in callers()}
    assert sorted(names - loaded_names(callers())) == []


def test_the_scan_counts_loads_but_not_imports_all_or_self_reference(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .a import helper, used, spare\n"
        '__all__ = ["helper", "spare"]\n'
        "def helper():\n"
        "    return helper() or used\n"
        "class Spare:\n"
        "    def copy(self) -> 'Spare':\n"
        "        return Spare()\n"
        "x = zecap.attr_only\n"
    )
    assert loaded_names([path]) == {"used", "zecap", "attr_only"}
