"""The package's export list matches what its library modules define, and each
CLI command loads only the modules it runs."""
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import AMPLITUDES_NOT_FINITE
from test_golden import CASES, GOLDEN

import dle3q

#: Modules whose public API the package re-exports; cli and serialize are front ends.
LIBRARY_MODULES = ("amplitudes", "entangle", "errors", "oracle", "params")


def test_every_export_resolves(monkeypatch):
    assert len(set(dle3q.__all__)) == len(dle3q.__all__)
    for name in dle3q.__all__:
        module = importlib.import_module(f"dle3q.{dle3q._HOME[name]}")
        assert getattr(dle3q, name) is getattr(module, name), name
        assert getattr(dle3q, name).__module__ == module.__name__, name
    # the package caches nothing, so a rebinding in the home module shows through
    from dle3q import oracle
    monkeypatch.setattr(oracle, "dressed_state", sentinel := object())
    assert dle3q.dressed_state is sentinel
    namespace: dict = {}
    exec("from dle3q import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dle3q.__all__)
    # names the package no longer serves, the product-space ones included
    for name in ("no_such_name", "BasisState", "symmetrizer", "perturbed_state"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(dle3q, name)


@pytest.mark.parametrize("module_name", LIBRARY_MODULES)
def test_public_definitions_are_exported(module_name):
    module = importlib.import_module(f"dle3q.{module_name}")
    public = [name for name, obj in vars(module).items()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__ and not name.startswith("_")]
    assert public
    missing = [name for name in public if name not in dle3q.__all__]
    assert not missing, f"dle3q.{module_name} defines {missing} but __all__ lacks them"


def _fresh_run(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a new interpreter with args as sys.argv[1:], its output captured."""
    src = str(Path(dle3q.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _fresh_process(code: str, *args: str) -> list[str]:
    """The stdout lines of code run by a new interpreter with args as sys.argv[1:]."""
    result = _fresh_run(code, *args)
    result.check_returncode()
    return result.stdout.splitlines()


LOADED = ("print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'dle3q'))\n"
          "print('json' in sys.modules, 'numpy' in sys.modules)\n")


FRONT = {"dle3q", "dle3q.cli", "dle3q.errors", "dle3q.params"}
EVALUATOR = FRONT | {"dle3q.amplitudes", "dle3q.entangle", "dle3q.serialize"}
ORACLE = FRONT | {"dle3q.amplitudes", "dle3q.oracle", "dle3q.serialize"}
POINT = ["--omega1-ghz", "5", "--e0-ghz", "3.721", "--lambda-ghz", "0.02"]


def test_bare_import_loads_no_layer():
    probe = "import sys\nimport dle3q\n" + LOADED + "import dle3q.cli\n" + LOADED
    bare, bare_libs, cli, cli_libs = _fresh_process(probe)
    assert (bare, bare_libs) == ("dle3q", "False False")
    # benchmarks/run.py import_times reads numpy's import time from `import dle3q.cli`
    assert (cli.split(), cli_libs) == (sorted(FRONT), "False True")

#: Each command's argv, the dle3q modules a fresh process holds after it, and whether
#: json is loaded. None loads dle3q.hilbert: the product basis is a test-side reference.
COMMAND_LOADS = {
    "help": (["--help"], FRONT, False),
    "report": (["report", *POINT, "--omega2-ghz", "4.5"], EVALUATOR, False),
    "sweep": (["sweep", *POINT, "--omega2-min-ghz", "4", "--omega2-max-ghz", "4.5"],
              EVALUATOR, False),
    "validate": (["validate", *POINT, "--omega2-ghz", "4.5"], ORACLE, False),
    "report-config": (["report", "--config", "{config}", "--omega2-ghz", "4.5"],
                      EVALUATOR, True),
}


@pytest.mark.parametrize("case", COMMAND_LOADS)
def test_command_loads_only_its_layers(case, tmp_path):
    argv, modules, json_loaded = COMMAND_LOADS[case]
    config = tmp_path / "point.json"
    config.write_text('{"omega1_ghz": 5, "e0_ghz": 3.721, "lambda_ghz": 0.02}')
    probe = ("import contextlib, io, sys\n"
             "from dle3q import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    try:\n"
             "        code = cli.main(sys.argv[1:])\n"
             "    except SystemExit as exc:  # --help exits after printing\n"
             "        code = exc.code\n"
             "print(code)\n" + LOADED)
    code, loaded, libs = _fresh_process(probe, *(a.format(config=config) for a in argv))
    assert code == "0"
    assert loaded.split() == sorted(modules)
    assert libs == f"{json_loaded} True"


#: Replaces every public numpy callable with one that raises, then runs the CLI.
NUMPY_REFUSED = """\
import sys
import numpy
from dle3q import amplitudes, cli, entangle, errors, params, serialize

def refuse(*args, **kwargs):
    raise AssertionError("report called numpy")

# listed before any is replaced: looking a name up may import a numpy submodule
public = [name for name in dir(numpy)
          if not name.startswith("_") and callable(getattr(numpy, name))]
for name in public:
    setattr(numpy, name, refuse)
sys.exit(cli.main(sys.argv[1:]))
"""


#: A report point whose products of two detunings underflow to 0 and divide by zero.
UNDERFLOW = ["report", "--omega1-ghz", "1e-200", "--omega2-ghz", "2e-200",
             "--e0-ghz", "1.5e-200", "--lambda-ghz", "0.2"]


@pytest.mark.parametrize("name", ["report_paper.json", "report_paper.csv"])
def test_report_calls_no_numpy(name):
    lines = _fresh_process(NUMPY_REFUSED, *CASES[name])
    assert lines == (GOLDEN / name).read_text().splitlines()
    refused = _fresh_run(NUMPY_REFUSED, *UNDERFLOW, "--format", name.rpartition(".")[2])
    assert (refused.returncode, refused.stdout, refused.stderr) == (2, "", AMPLITUDES_NOT_FINITE)
