"""Every name a package module imports is used in that module, every
private name it defines at module level is read there, and every name it
counts in the work ledger is a string literal that README documents."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attdiag"
README = PACKAGE.parents[1] / "README.md"
# __init__.py imports names to re-export them.
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ALL_MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom dataclasses import dataclass, field\nfield()\n"
    assert _unused_imports(source) == ["dataclass (line 2)", "os (line 1)"]


def _bound_names(statements) -> list[tuple[str, int]]:
    """(name, line) of each function, class and plain name the statements bind."""
    bound = []
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            bound.extend((target.id, node.lineno) for target in node.targets
                         if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.append((node.target.id, node.lineno))
    return bound


def _unread_private_names(source: str) -> list[str]:
    """Private constants, functions and classes (one leading underscore)
    defined at module level, and private methods and attributes of its
    classes, that nothing in the module reads."""
    tree = ast.parse(source)
    defined = _bound_names(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defined += _bound_names(node.body)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(defined)
            if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unread_private_name(module):
    assert _unread_private_names((PACKAGE / module).read_text()) == []


def test_an_unread_private_name_is_found():
    source = ("_U = 2.0 ** -53\n_ETA: float = 2.0 ** -1074\nPUBLIC = 1\n"
              "def _bound():\n    return _ETA\n"
              "def _extreme():\n    _local = 1\n    return _local\n"
              "class _Window:\n    _HALF = 16\n"
              "    def _widen(self):\n        return self._rounding_bound()\n"
              "    def _rounding_bound(self):\n        return 0\n"
              "_extreme()\n")
    assert _unread_private_names(source) == [
        "_HALF (line 10)", "_U (line 1)", "_Window (line 9)", "_bound (line 4)",
        "_widen (line 11)"]


def _undocumented_ledger_names(source: str, readme: str) -> list[str]:
    """Each `COUNTS[...]` key in the source that is not a string literal
    named in backticks in the readme text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "COUNTS"):
            key = node.slice
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                found.append(f"non-literal key (line {node.lineno})")
            elif f"`{key.value}`" not in readme:
                found.append(f"{key.value} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_ledger_name_is_documented(module):
    assert _undocumented_ledger_names((PACKAGE / module).read_text(),
                                      README.read_text()) == []


def test_an_undocumented_ledger_name_is_found():
    source = ('COUNTS["matches"] += 1\nCOUNTS["ghost_units"] += n\n'
              'for name in ("a", "b"):\n    COUNTS[name] += 1\n')
    assert _undocumented_ledger_names(source, "logs `matches` per call") == [
        "ghost_units (line 2)", "non-literal key (line 4)"]
