"""Every module-level function and class of the library is reached by a
command, an acceptance check or a benchmark.

The library modules and the benchmark scripts are parsed with ``ast``.  The
roots are everything the benchmark scripts reference, the library's
module-level statements other than imports (``cli``'s ``__main__`` guard
among them) and the scalar reference routes below; a definition is reached
when a reached definition references its name.  Names, attributes, imported
names and the identifiers inside string constants (``benchmarks/tracer.py``
names its targets by string) count as references; docstrings do not.
``__init__``'s re-exports and the tests are not callers, so a function that
only the tests reach fails this check.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blaschkelab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# public scalar entry points, kept as the tests' reference routes
REFERENCE_ROUTES = {"evaluate", "derivative", "cauchy_segment_closed_form", "mobius", "hyper_distance"}


def _references(nodes: list[ast.AST]) -> set[str]:
    # a string standing alone as a statement is a docstring
    docstrings = {
        id(node.value)
        for top in nodes
        for node in ast.walk(top)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    names: set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _library() -> dict[str, list[ast.stmt]]:
    return {
        path.stem: ast.parse(path.read_text(), str(path)).body
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _unreached() -> list[str]:
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    reached = set(REFERENCE_ROUTES)
    for module, body in _library().items():
        for node in body:
            if isinstance(node, DEFINITIONS):
                definitions.setdefault(node.name, []).append((module, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _references([node])
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        reached |= _references([ast.parse(path.read_text(), str(path))])
    frontier = reached & definitions.keys()
    while frontier:
        refs = _references([node for name in frontier for _, node in definitions[name]])
        frontier = (refs & definitions.keys()) - reached
        reached |= frontier
    return sorted(f"{module}.{name}" for name, defs in definitions.items() for module, _ in defs if name not in reached)


def test_every_library_definition_is_reached():
    assert _unreached() == []


def test_the_reference_routes_are_library_definitions():
    defined = {node.name for body in _library().values() for node in body if isinstance(node, DEFINITIONS)}
    assert REFERENCE_ROUTES <= defined
