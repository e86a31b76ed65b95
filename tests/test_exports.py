"""Every exported name resolves, and every top-level export has a use.

A deleted function cannot stay listed in ``__all__``, and a name cannot
join ``covmem.__all__`` without a test, demo or README line that uses it.
"""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import covmem

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(covmem.__path__, "covmem."))


@pytest.mark.parametrize("module_name", ["covmem", *MODULES])
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "a name is listed twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists names it does not define: {missing}"


def names_imported_from_covmem(path: Path) -> set[str]:
    """Names a script takes from the top-level package: ``from covmem import x`` or ``covmem.x``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "covmem":
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "covmem"):
            names.add(node.attr)
    return names


def test_every_top_level_name_has_a_documented_or_tested_use():
    """The public surface cannot grow back unnoticed: each name in ``covmem.__all__``
    is imported from ``covmem`` by a test or demo, or named in README."""
    scripts = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
    used = set().union(*(names_imported_from_covmem(path) for path in scripts))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [name for name in covmem.__all__
              if name not in used and not re.search(rf"`(covmem\.)?{name}\b", readme)]
    assert not unused, f"exported from covmem with no test, demo or README use: {unused}"
