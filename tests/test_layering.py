"""The two routes stay separate: the matrix oracle and the closed rules
import nothing of each other, read off the package's import statements."""

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
