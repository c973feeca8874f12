"""Every module-level function and class of the library is reached by a
command, an acceptance check or a benchmark, and every defaulted parameter is
set by one.

The library modules and the benchmark scripts are parsed with ``ast``.  The
roots are everything the benchmark scripts reference, the library's
module-level statements other than imports (``cli``'s ``__main__`` guard
among them) and the scalar reference routes below; a definition is reached
when a reached definition references its name.  Names, attributes, imported
names and the identifiers inside string constants (``benchmarks/tracer.py``
names its targets by string) count as references; docstrings do not.
``__init__``'s re-exports and the tests are not callers, so a function that
only the tests reach fails this check.

A defaulted parameter is set when some call in the library or the benchmark
scripts (their tests excluded) passes it, by keyword or by position, to a
callee of that name, matched as ``_references`` matches names; a call of a
class counts for its ``__init__``.  A parameter that only the tests set is a
module constant instead, which a test can still change with ``monkeypatch``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blaschkelab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# public scalar entry points, kept as the tests' reference routes
REFERENCE_ROUTES = {"evaluate", "derivative", "cauchy_segment_closed_form", "mobius", "hyper_distance"}
# defaulted parameters no call needs to pass: the command line's own arguments
UNSET_PARAMETERS = {"cli.main(argv)"}


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


def _defaulted(fn: ast.FunctionDef, offset: int) -> list[tuple[str, int | None]]:
    """Each defaulted parameter with its index among the positional arguments
    of a call (None for keyword-only); ``offset`` skips self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(p.arg, i - offset) for i, p in enumerate(positional) if i >= first]
    return out + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _callables() -> list[tuple[str, str, ast.FunctionDef, int]]:
    """(qualified name, name a call uses, definition, bound-argument offset)
    of every library function and method."""
    out = []
    for module, body in _library().items():
        for node in body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{module}.{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                        name = node.name if fn.name == "__init__" else fn.name
                        out.append((f"{module}.{node.name}.{fn.name}", name, fn, 0 if static else 1))
    return out


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the library and the benchmark scripts, by callee name."""
    trees = [ast.Module(body=body, type_ignores=[]) for body in _library().values()]
    trees += [
        ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "benchmarks").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: a **mapping
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def _unset_parameters() -> list[str]:
    calls = _calls()
    return sorted(
        f"{qualified}({param})"
        for qualified, name, fn, offset in _callables()
        for param, index in _defaulted(fn, offset)
        if not any(_passes(call, param, index) for call in calls.get(name, []))
    )


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert [p for p in _unset_parameters() if p not in UNSET_PARAMETERS] == []


def test_the_exempt_parameters_exist_and_are_unset():
    assert UNSET_PARAMETERS <= set(_unset_parameters())
