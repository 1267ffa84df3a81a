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


def test_no_module_imports_a_private_name_from_another():
    leaks = [leak for path in sorted(PACKAGE.glob("*.py"))
             for leak in _private_imports(path)]
    assert leaks == []
