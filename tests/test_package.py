"""Package structure: modules use each other only through public names."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import surveyrisk
from surveyrisk import errors

PACKAGE = Path(surveyrisk.__file__).parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
    the command line, imported as ``surveyrisk.cli``; every exception
    class in ``errors`` is public."""
    modules = [importlib.import_module(f"surveyrisk.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))
               if not path.stem.startswith("_") and path.stem != "cli"]
    public = {name for module in modules
              for name in getattr(module, "__all__", ())}
    public |= {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, Exception)
               and value.__module__ == errors.__name__}
    assert set(surveyrisk.__all__) - {"__version__"} == public


def test_each_public_name_comes_from_one_module():
    """The package's ``__all__`` is built from the modules' lists, so a
    name exported by two modules would shadow one of them silently."""
    assert len(surveyrisk.__all__) == len(set(surveyrisk.__all__))
    modules = [importlib.import_module(f"surveyrisk.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))
               if not path.stem.startswith("_") and path.stem != "cli"]
    shadowed = [f"{module.__name__}.{name}" for module in modules
                for name in module.__all__
                if getattr(surveyrisk, name) is not getattr(module, name)]
    assert shadowed == []


def test_demos_import_only_names_that_exist():
    """No test runs the demos; reading their imports catches a public
    name they use being removed."""
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "surveyrisk"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}:{node.lineno} {node.module}."
                            f"{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
    assert missing == []


def _identifiers(path: Path) -> set[str]:
    """Every name, attribute and imported name the code in ``path`` uses."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_function_has_a_caller_besides_the_tests():
    """A public function that only tests call is surface to keep working
    for no user; each one is used by another package module, a demo or
    the benchmark."""
    bench = PACKAGE.parents[1] / "perfbench"
    callers = [path for path in (*sorted(PACKAGE.glob("*.py")),
                                 *sorted(DEMOS.glob("*.py")),
                                 *sorted(bench.glob("*.py")))
               if not path.name.startswith("test_")]
    uses = {path: _identifiers(path) for path in callers}
    unused = []
    for name in surveyrisk.__all__:
        value = getattr(surveyrisk, name)
        if not inspect.isfunction(value):
            continue
        home = PACKAGE / f"{value.__module__.rsplit('.', 1)[-1]}.py"
        if not any(name in used for path, used in uses.items() if path != home):
            unused.append(name)
    assert unused == []
