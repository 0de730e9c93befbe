"""The two routes stay separate: the matrix oracle and the closed rules
import nothing of each other, read off the package's import statements.
And the public surface is what the package and the bench call."""

import ast
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
