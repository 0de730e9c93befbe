"""The two routes stay separate: the matrix oracle and the closed rules
import nothing of each other, read off the package's import statements.
And the public surface is what the package and the bench call, with no
defaulted parameter that no caller sets, and every name the traced bench
wraps is still there.  A cold CLI import stays free of dataclasses."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import hopfore

PACKAGE = Path(hopfore.__file__).parent


def _imports(name: str) -> set:
    """Package modules that hopfore.<name> imports, at any depth in its body."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                mods = [node.module]
            elif node.module:
                mods = [f"hopfore.{node.module}"]
            else:  # from . import name
                mods = [f"hopfore.{a.name}" for a in node.names]
        else:
            continue
        for mod in mods:
            parts = mod.split(".")
            if parts[0] == "hopfore" and len(parts) > 1:
                out.add(parts[1])
    return out


def _closure(name: str) -> set:
    seen, todo = set(), [name]
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            todo.extend(_imports(mod))
    return seen - {name}


def test_oracle_does_not_reach_closed_rules():
    reach = _closure("decompose")
    # syntax is reached only through imports inside functions
    assert {"modules", "linalg", "groups", "syntax"} <= reach
    assert not reach & {"fusion", "greenring"}, sorted(reach)


def test_closed_rules_do_not_reach_oracle():
    reach = _closure("fusion")
    assert "labels" in reach
    assert not reach & {"decompose", "modules"}, sorted(reach)


def test_syntax_reaches_neither_ring_nor_route():
    # the parser maps atoms through a caller's function instead of
    # building ring elements or modules itself
    reach = _closure("syntax")
    assert {"cyclotomic", "labels"} <= reach
    assert not reach & {"greenring", "fusion", "decompose", "modules"}, sorted(reach)


def _unused_package_imports(name: str) -> list:
    """Names hopfore.<name> imports from another package module and never
    reads; `__future__` and the re-exports of `__init__` do not count."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hopfore")):
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name}.py:{line} {alias}" for alias, line in imported
            if alias not in used]


def test_no_unused_package_imports():
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert "decompose" in names
    unused = [hit for name in names for hit in _unused_package_imports(name)]
    assert not unused, unused


# Public names that nothing in the package or the bench calls, each with
# the reason a library user needs it anyway.
UNCALLED_EXPORTS = {
    "validate": "the representation check a caller runs on a hand-built "
                "ExplicitModule before decompose, which decompose's docstring cites",
}


def _references(path: Path) -> set:
    """Names that a Name or Attribute node of the file reads, outside the
    function or class that defines that same name (a def does not call
    itself into use).  Strings, so docstrings and __all__ lists, are no
    references."""
    out = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and node.id not in defining:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text()), frozenset())
    return out


def test_every_export_has_a_caller():
    bench = PACKAGE.parents[1] / "bench"
    files = [p for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    files += sorted(bench.glob("*.py"))
    assert len(files) > len(list(PACKAGE.glob("*.py")))
    used = set().union(*(_references(p) for p in files))
    uncalled = {name for name in hopfore.__all__ if name not in used}
    assert uncalled == set(UNCALLED_EXPORTS), (
        f"exports with no caller and no listed reason: "
        f"{sorted(uncalled - set(UNCALLED_EXPORTS))}; listed exports that "
        f"gained a caller: {sorted(set(UNCALLED_EXPORTS) - uncalled)}")


# Defaulted parameters of package functions that no call in the package,
# the bench or the tests passes, each with the reason it stays.
UNPASSED_DEFAULTS = {}


def _defaulted_params(path: Path) -> list:
    """(callee, parameter, position) for each defaulted parameter of a
    function or method in the file.  The callee is the function's name, or
    the class name for __init__; the position is the one a call passes the
    parameter at, past a method's self or cls, or None if keyword-only."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                callee = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                out.extend((callee, a.arg, k - bound)
                           for k, a in enumerate(positional[first:], first))
                out.extend((callee, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None)
                visit(child, None)

    visit(ast.parse(path.read_text()), None)
    return out


def _passed(path: Path) -> set:
    """(callee, keyword or position) for every argument a call in the file
    passes, the callee matched by name; (callee, "*") for a call that
    unpacks *args or **kwargs, which may pass anything."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        else:
            continue
        out.update((callee, k) for k in range(len(node.args)))
        out.update((callee, kw.arg) for kw in node.keywords if kw.arg)
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            out.add((callee, "*"))
    return out


def test_every_default_is_passed():
    root = PACKAGE.parents[1]
    files = sorted(PACKAGE.glob("*.py"))
    callers = files + sorted((root / "bench").glob("*.py")) + sorted(
        (root / "tests").glob("*.py"))
    passed = set().union(*(_passed(p) for p in callers))
    defaults = [d for p in files for d in _defaulted_params(p)]
    assert ("grid_labels", "betas", 3) in defaults, defaults
    unpassed = {f"{callee}.{param}" for callee, param, pos in defaults
                if not {(callee, param), (callee, pos), (callee, "*")} & passed}
    assert unpassed == set(UNPASSED_DEFAULTS), (
        f"defaulted parameters that no call passes and no listed reason "
        f"keeps: {sorted(unpassed - set(UNPASSED_DEFAULTS))}; listed "
        f"parameters that a call now passes: "
        f"{sorted(set(UNPASSED_DEFAULTS) - unpassed)}")


def test_traced_bench_names_resolve():
    # bench/tracing.py wraps these (module, attribute path) pairs by name
    # and reports a name it cannot find as missing: each must still be a
    # plain function of the package
    path = PACKAGE.parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(layer, attr) for layer, attr, _ in tracing.EXTRA_SPANS + tracing.COUNTED]
    assert ("decompose", "_count_strings") in names
    unresolved = []
    for layer, attr in names:
        obj = importlib.import_module(f"hopfore.{layer}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not isinstance(obj, types.FunctionType):
            unresolved.append(f"{layer}.{attr}")
    assert not unresolved, unresolved


def test_cli_import_leaves_dataclasses_out():
    # a cold CLI process pays for every module it imports; dataclasses
    # brings inspect, ast, dis and tokenize with it
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, hopfore.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
