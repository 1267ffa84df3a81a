"""Package structure: modules use each other only through public names."""

from __future__ import annotations

import ast
from pathlib import Path

import surveyrisk

PACKAGE = Path(surveyrisk.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "surveyrisk":
                continue
            names = [module, *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name.split(".")[0] == "surveyrisk"]
        else:
            continue
        found += [f"{path.name}:{node.lineno} imports {name}" for name in names
                  if any(part.startswith("_") for part in name.split("."))]
    return found


def _uses_operator_index(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr == "index"
                and isinstance(node.value, ast.Name)
                and node.value.id == "operator"):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == "operator"
                and any(alias.name == "index" for alias in node.names)):
            return True
    return False


def test_no_module_imports_a_private_name_from_another():
    leaks = [leak for path in sorted(PACKAGE.glob("*.py"))
             for leak in _private_imports(path)]
    assert leaks == []


def test_one_module_decides_what_an_integer_size_is():
    """``model.as_int`` is the only size rule; a second ``operator.index``
    check elsewhere would be a second rule free to drift from it."""
    users = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if _uses_operator_index(path)]
    assert users == ["model.py"]
