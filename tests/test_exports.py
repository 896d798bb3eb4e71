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


LIBRARY = ("baths", "fdme", "liouville", "measures", "oracle", "redfield", "waveguide")


def test_package_exports_every_library_module_all():
    expected = [name for mod in LIBRARY for name in importlib.import_module(f"fdqme.{mod}").__all__]
    assert fdqme.__all__ == expected
    assert len(set(expected)) == len(expected), "a name is exported by two modules"
    assert all(hasattr(fdqme, name) for name in fdqme.__all__)
    assert "main" not in fdqme.__all__  # the cli runner is not re-exported


def test_package_exports_the_exceptions_its_functions_raise():
    from fdqme import InversionAccuracyError, TruncationError

    assert issubclass(InversionAccuracyError, RuntimeError)
    assert issubclass(TruncationError, RuntimeError)
