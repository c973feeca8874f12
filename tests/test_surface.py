"""Every definition of the library is reached by a command, an acceptance
check or a benchmark, and every parameter and option value it offers is
chosen by one.

The library modules and the benchmark scripts (their tests excluded) are
parsed with ``ast``.  ``__init__``'s re-exports and the tests are not
callers, so anything that only the tests reach or set fails here.

Reach.  The roots are everything the benchmark scripts reference, the
library's module-level statements other than imports (``cli``'s
``__main__`` guard among them) and the scalar reference routes below; a
definition is reached when a reached definition references it.  Names,
attributes, imported names and the identifiers inside string constants
(``benchmarks/tracer.py`` names its targets by string) count as references;
docstrings do not.  The units are module-level functions and classes and
the methods of classes:

- a module-level function is reached by its name or an attribute of that
  name;
- a class likewise, but a class named only as the second argument of
  ``isinstance`` is not reached: nothing builds one;
- a method is reached only through an attribute access (``x.m``), so the
  builtin ``reversed`` does not reach a method ``reversed``;
- a classmethod is reached only through ``<ClassName>.m`` or ``cls.m``, so
  one ``ZeroList.from_json`` does not reach every other ``from_json``;
- a dunder method is reached with its class.

A method is reached only once its class is.  A method that shares its name
with a method of ``numpy`` or of another library class (``mean``,
``to_json``) is reached by that one's calls; no rule here tells them apart.

Parameters.  A call in the library or the benchmark scripts passes a
parameter, by keyword or by position, to a callee of that name, matched as
the references are; a call of a class counts for its ``__init__``.

- Every defaulted parameter is passed by some call.  A parameter that only
  the tests set is a module constant instead, which a test can still change
  with ``monkeypatch``.
- No defaulted parameter is passed the same literal by every call: then it
  is that literal.
- Every string literal that a guard (``p == "x"``, ``p in ("x", "y")``)
  compares a parameter against is passed as that parameter by some call, or
  is its default and some call leaves it there.
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
# an argument a call passes through * or **, which cannot be read statically
UNKNOWN = object()


def _references(nodes: list[ast.AST]) -> set[str]:
    """Names ``x``, attributes ``.x`` and, for an attribute of a name,
    ``owner.x``; a name standing as the class of an ``isinstance`` is left
    out."""
    skipped = set()
    for top in nodes:
        for node in ast.walk(top):
            # a string standing alone as a statement is a docstring
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                skipped.add(id(node.value))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                classes = node.args[1]
                skipped.update(id(c) for c in (classes.elts if isinstance(classes, ast.Tuple) else [classes]))
    names: set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add("." + node.attr)
                if isinstance(node.value, ast.Name):
                    names.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _library() -> dict[str, list[ast.stmt]]:
    return {
        path.stem: ast.parse(path.read_text(), str(path)).body
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _benchmarks() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "benchmarks").glob("*.py"))
        if not path.name.startswith("test_")
    ]


def _decorated(fn: ast.FunctionDef, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in fn.decorator_list)


def _units(library: dict[str, list[ast.stmt]]) -> list[tuple[str, set[str] | None, str | None, list[ast.AST]]]:
    """(qualified name, references that reach it, qualified name of its
    class, nodes whose references it makes) of every function, class and
    method; a dunder method has no references of its own."""
    units = []
    for module, body in library.items():
        for node in body:
            if not isinstance(node, DEFINITIONS):
                continue
            qualified = f"{module}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                units.append((qualified, {node.name, "." + node.name}, None, [node]))
                continue
            methods = [fn for fn in node.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
            rest = node.decorator_list + node.bases + node.keywords + [s for s in node.body if s not in methods]
            units.append((qualified, {node.name, "." + node.name}, None, rest))
            for fn in methods:
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    keys = None
                elif _decorated(fn, "classmethod"):
                    keys = {f"{node.name}.{fn.name}", f"cls.{fn.name}"}
                else:
                    keys = {"." + fn.name}
                units.append((f"{qualified}.{fn.name}", keys, qualified, [fn]))
    return units


def _unreached(library=None, benchmarks=None) -> list[str]:
    library = _library() if library is None else library
    benchmarks = _benchmarks() if benchmarks is None else benchmarks
    refs = set(REFERENCE_ROUTES) | _references(benchmarks)
    for body in library.values():
        refs |= _references([node for node in body if not isinstance(node, DEFINITIONS + (ast.Import, ast.ImportFrom))])
    units = _units(library)
    reached: set[str] = set()
    grown = True
    while grown:
        grown = False
        for qualified, keys, owner, nodes in units:
            if qualified in reached or (owner is not None and owner not in reached):
                continue
            if keys is None or keys & refs:
                reached.add(qualified)
                refs |= _references(nodes)
                grown = True
    # a method of an unreached class is named with its class
    return sorted(q for q, _, owner, _ in units if q not in reached and (owner is None or owner in reached))


def test_every_library_definition_is_reached():
    assert _unreached() == []


def test_the_reference_routes_are_library_definitions():
    defined = {node.name for body in _library().values() for node in body if isinstance(node, DEFINITIONS)}
    assert REFERENCE_ROUTES <= defined


def _parameters(fn: ast.FunctionDef, offset: int) -> list[tuple[str, int | None, ast.expr | None]]:
    """Each parameter with its index among the positional arguments of a
    call (None for keyword-only) and its default; ``offset`` skips self or
    cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    out = [(p.arg, i - offset, d) for i, (p, d) in enumerate(zip(positional, defaults)) if i >= offset]
    return out + [(p.arg, None, d) for p, d in zip(args.kwonlyargs, args.kw_defaults)]


def _callables(library: dict[str, list[ast.stmt]]) -> list[tuple[str, str, ast.FunctionDef, int]]:
    """(qualified name, name a call uses, definition, bound-argument offset)
    of every library function and method."""
    out = []
    for module, body in library.items():
        for node in body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{module}.{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        name = node.name if fn.name == "__init__" else fn.name
                        out.append((f"{module}.{node.name}.{fn.name}", name, fn, 0 if _decorated(fn, "staticmethod") else 1))
    return out


def _calls(library: dict[str, list[ast.stmt]], benchmarks: list[ast.Module]) -> dict[str, list[ast.Call]]:
    """Every call in the library and the benchmark scripts, by callee name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in [ast.Module(body=body, type_ignores=[]) for body in library.values()] + benchmarks:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _argument(call: ast.Call, param: str, index: int | None):
    """What a call passes as the parameter: an expression, None when it
    leaves the parameter at its default, or ``UNKNOWN``."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if index is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return UNKNOWN
            if i == index:
                return arg
    return UNKNOWN if any(kw.arg is None for kw in call.keywords) else None


def _audit(library=None, benchmarks=None) -> tuple[list[str], list[str], list[str]]:
    """Defaulted parameters that no call passes, defaulted parameters that
    every call passes one literal, and guarded option values no call chooses."""
    library = _library() if library is None else library
    calls = _calls(library, _benchmarks() if benchmarks is None else benchmarks)
    unset, one_value, unchosen = [], [], []
    for qualified, name, fn, offset in _callables(library):
        params = _parameters(fn, offset)
        passed = {p: [_argument(call, p, i) for call in calls.get(name, [])] for p, i, _ in params}
        for param, _, default in params:
            if default is None:
                continue
            args = passed[param]
            if all(a is None for a in args):
                unset.append(f"{qualified}({param})")
            elif all(isinstance(a, ast.Constant) for a in args) and len({repr(a.value) for a in args}) == 1:
                one_value.append(f"{qualified}({param})")
        defaults = {p: d for p, _, d in params}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id in passed):
                continue
            if not all(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
                continue
            param = node.left.id
            for comparator in node.comparators:
                for lit in comparator.elts if isinstance(comparator, (ast.Tuple, ast.List, ast.Set)) else [comparator]:
                    if not (isinstance(lit, ast.Constant) and isinstance(lit.value, str)):
                        continue
                    chosen = any(
                        a is UNKNOWN
                        or (isinstance(a, ast.Constant) and a.value == lit.value)
                        or (a is None and isinstance(defaults[param], ast.Constant) and defaults[param].value == lit.value)
                        for a in passed[param]
                    )
                    if not chosen:
                        unchosen.append(f"{qualified}({param}={lit.value!r})")
    return sorted(unset), sorted(one_value), sorted(set(unchosen))


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert [p for p in _audit()[0] if p not in UNSET_PARAMETERS] == []


def test_the_exempt_parameters_exist_and_are_unset():
    assert UNSET_PARAMETERS <= set(_audit()[0])


def test_no_defaulted_parameter_takes_one_literal_from_every_caller():
    assert _audit()[1] == []


def test_every_guarded_option_value_is_chosen_by_a_caller():
    assert _audit()[2] == []


_TOY_LIBRARY = '''
class Point:
    def __complex__(self):
        return 0j

    def flipped(self):
        return self

    @classmethod
    def load(cls, data):
        return cls()

    @classmethod
    def dump(cls, data):
        return cls()


class Unbuilt:
    pass


def area(p, mode="fast", scale=1, *, kind="a"):
    if mode not in ("fast", "slow", "medium"):
        raise ValueError(mode)
    return isinstance(p, Unbuilt)
'''

_TOY_BENCHMARK = '''
from shapes import Point, area

flipped(Point.load({}))
other.dump
area(Point(), "slow", 2)
area(Point(), scale=2, kind="b")
'''


def test_the_rules_on_a_toy_library():
    library, benchmarks = {"shapes": ast.parse(_TOY_LIBRARY).body}, [ast.parse(_TOY_BENCHMARK)]
    assert _unreached(library, benchmarks) == ["shapes.Point.dump", "shapes.Point.flipped", "shapes.Unbuilt"]
    assert _audit(library, benchmarks) == ([], ["shapes.area(scale)"], ["shapes.area(mode='medium')"])
