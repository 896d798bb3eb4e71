import ast
import importlib
import pkgutil
from pathlib import Path

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


CAVITY_BATHS = {"ThermalBathParams", "SqueezedBathParams"}
# the functions that test a cavity bath's type: the shared check, the measure's line and gap, the
# oracle's physics and the CLI's pick of the propagator builder that the benchmark's propagator span
# names; the mode tables and the independent kernel reference read the bath's cavity_mode
BATH_TYPE_TESTS = {"baths._cavity_bath", "measures._mapped_divergence", "oracle.build_full_model", "cli._emission"}


def _bath_type_tests(node, scope, found):
    """Add to ``found`` the innermost enclosing scope of each isinstance that names a cavity bath class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _bath_type_tests(child, f"{scope}.{child.name}", found)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "isinstance":
            if CAVITY_BATHS & {n.id for n in ast.walk(child) if isinstance(n, ast.Name)}:
                found.add(scope)
        _bath_type_tests(child, scope, found)


def test_cavity_bath_types_are_tested_in_known_functions_only():
    # every other reader takes the bath's frame and features from omega_ref and features
    found = set()
    for path in sorted(Path(fdqme.__file__).parent.glob("*.py")):
        _bath_type_tests(ast.parse(path.read_text()), path.stem, found)
    assert found == BATH_TYPE_TESTS
