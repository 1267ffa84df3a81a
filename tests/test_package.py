"""Package structure: modules use each other only through public names."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import surveyrisk
from surveyrisk import errors

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


def test_package_exports_exactly_the_modules_public_names():
    """The package re-exports every library module's ``__all__`` and
    nothing else, so a name removed from a module cannot linger in the
    package's export list, nor a new one be left out of it.  ``cli`` is
    the command line, imported as ``surveyrisk.cli``; ``errors`` has no
    ``__all__``, and its exception classes are its public names."""
    modules = [importlib.import_module(f"surveyrisk.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))
               if not path.stem.startswith("_") and path.stem != "cli"]
    public = {name for module in modules
              for name in getattr(module, "__all__", ())}
    public |= {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, Exception)
               and value.__module__ == errors.__name__}
    assert set(surveyrisk.__all__) - {"__version__"} == public
