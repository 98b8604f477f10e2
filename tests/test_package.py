"""The package's export list matches what its library modules define."""
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dle3q

#: Modules whose public API the package re-exports; cli and serialize are front ends.
LIBRARY_MODULES = ("amplitudes", "entangle", "errors", "oracle", "params")


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


def test_cli_loads_no_product_space():
    # the product basis is a test-side reference; the package runs on Dicke labels
    probe = ("import sys, dle3q, dle3q.cli\n"
             "print('dle3q.hilbert' in sys.modules)\n"
             "print(sorted(n for n in ('BasisState', 'symmetrizer', 'perturbed_state')"
             " if hasattr(dle3q, n)))\n")
    src = str(Path(dle3q.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == ["False", "[]"]


def test_oracle_loads_on_first_use():
    # report, sweep and --help never import the oracle; validate does
    probe = ("import contextlib, io, sys\n"
             "from dle3q import cli\n"
             "point = ['--omega1-ghz', '5', '--e0-ghz', '3.721', '--lambda-ghz', '0.02']\n"
             "grid = ['--omega2-min-ghz', '4', '--omega2-max-ghz', '4.5']\n"
             "for argv in (['report', *point, '--omega2-ghz', '4.5'], ['sweep', *point, *grid],\n"
             "             ['--help'], ['validate', *point, '--omega2-ghz', '4.5']):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        try:\n"
             "            cli.main(argv)\n"
             "        except SystemExit:\n"
             "            pass\n"
             "    print(argv[0], 'dle3q.oracle' in sys.modules)\n"
             "import dle3q\n"
             "print(dle3q.dressed_state is dle3q.oracle.dressed_state)\n")
    src = str(Path(dle3q.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == ["report False", "sweep False", "--help False",
                                "validate True", "True"]
