import importlib
import pkgutil

import pytest

import fdqme

MODULES = sorted(m.name for m in pkgutil.iter_modules(fdqme.__path__, "fdqme."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"
