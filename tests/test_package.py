"""The package's export list matches what its library modules define."""
import importlib
import inspect

import pytest

import dle3q

#: Modules whose public API the package re-exports; cli and serialize are front ends.
LIBRARY_MODULES = ("amplitudes", "entangle", "errors", "hilbert", "oracle", "params", "perturb")


def test_every_export_resolves():
    assert len(set(dle3q.__all__)) == len(dle3q.__all__)
    for name in dle3q.__all__:
        assert getattr(dle3q, name, None) is not None, name


@pytest.mark.parametrize("module_name", LIBRARY_MODULES)
def test_public_definitions_are_exported(module_name):
    module = importlib.import_module(f"dle3q.{module_name}")
    public = [name for name, obj in vars(module).items()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__ and not name.startswith("_")]
    assert public
    missing = [name for name in public if name not in dle3q.__all__]
    assert not missing, f"dle3q.{module_name} defines {missing} but __all__ lacks them"
