"""Every exported name resolves: a deleted function cannot stay listed in ``__all__``."""
import importlib
import pkgutil

import pytest

import covmem

MODULES = sorted(m.name for m in pkgutil.iter_modules(covmem.__path__, "covmem."))


@pytest.mark.parametrize("module_name", ["covmem", *MODULES])
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "a name is listed twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists names it does not define: {missing}"

