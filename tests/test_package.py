"""The package's export list matches what its library modules define, README's Library
and CLI blocks run as shown, the console script is the module's entry point, and each
CLI command loads only the modules it runs."""
import ast
import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest
from reference import run_cli
from test_cli import AMPLITUDES_NOT_FINITE
from test_golden import CASES, GOLDEN, UNDERFLOW, fresh_run

import dle3q
from dle3q import cli

#: Modules whose public API the package re-exports; cli and serialize are front ends, and
#: amplitudes holds only the private channel formulas and their constants.
LIBRARY_MODULES = ("entangle", "errors", "oracle", "params")


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
    for name in ("no_such_name", "BasisState", "symmetrizer", "perturbed_state",
                 "amplitude_table", "sector_measures", "concurrence_mixed"):
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


README = Path(__file__).resolve().parent.parent / "README.md"

#: A README comment that shows its line's value: "= -0.67101" or "= 5.6212e-08".
SHOWN = re.compile(r"= (-?\d+\.(\d+)(e[-+]\d+)?)")


def test_readme_library_block_runs():
    # each value a comment shows is the line's value, rounded to the digits shown
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    got, want = [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        match = SHOWN.search(comment)
        if match is None:
            exec(line, namespace)
            continue
        value, digits = eval(code, namespace), len(match[2])
        got.append(f"{value:.{digits}e}" if match[3] else f"{value:.{digits}f}")
        want.append(match[1])
    assert len(want) == 8
    assert got == want


#: A value the CLI prose quotes: "w_1 = 1.47e-5", "tau|2> = 5.62e-8", "C|0>_AB1 = 0.2".
QUOTED = re.compile(r"(w_\d|tau\|\d>|C\|\d>_AB\d) = (\d+\.(\d+)(e-\d+)?)")


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # README's CLI section alternates prose and fenced blocks of dle3q commands
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    chunks = section.split("\n### ", 1)[0].split("```\n")
    commands = [shlex.split(line) for block in chunks[1::2]
                for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["dle3q", "report"], ["dle3q", "report"], ["dle3q", "sweep"], ["dle3q", "validate"]]
    # --config params.json holds the paper point of the first command
    flags = commands[0][2:]
    paper = {flag[2:].replace("-", "_"): float(value)
             for flag, value in zip(flags[::2], flags[1::2])}
    (tmp_path / "params.json").write_text(json.dumps(paper))
    monkeypatch.chdir(tmp_path)
    outputs = []
    for argv in commands:
        code, out, _ = run_cli(argv[1:])
        assert code == 0, argv
        outputs.append(out)
    # the prose after the first block quotes its summary, to the digits shown
    summary = json.loads(outputs[0])["summary"]
    quoted = {re.sub(r"\|(\d)>", r"_\1", name.lower()): (value, len(digits), exponent)
              for name, value, digits, exponent in QUOTED.findall(chunks[2])}
    assert sorted(quoted) == sorted(summary)
    for key, (value, digits, exponent) in quoted.items():
        shown = f"{summary[key]:.{digits}e}" if exponent else f"{summary[key]:.{digits}f}"
        assert float(shown) == float(value), (key, summary[key], value)


#: A memory figure, "47.8 MB", or the first of a pair, "40.4" in "40.4 and 80.2 MB".
MEMORY_FIGURE = re.compile(r"\d+(?:\.\d+)?(?=(?: and \d+(?:\.\d+)?)? [KMG]B\b)")


def test_readme_quotes_the_sweep_memory_figures():
    # the comment above cli.MAX_SWEEP_STEPS is the one record of the measured figures
    source = Path(cli.__file__).read_text(encoding="utf-8")
    comment = re.search(r"((?:#:.*\n)+)MAX_SWEEP_STEPS =", source)[1].replace("#:", "")
    measured = MEMORY_FIGURE.findall(" ".join(comment.split()))
    assert len(measured) == 6, measured
    paragraph = next(chunk for chunk in README.read_text(encoding="utf-8").split("\n\n")
                     if "MAX_SWEEP_STEPS" in chunk)
    assert MEMORY_FIGURE.findall(" ".join(paragraph.split())) == measured


PYPROJECT = README.parent / "pyproject.toml"


def test_console_script_is_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["dle3q"]
    assert entry == "dle3q.cli:main"
    module_name, _, name = entry.partition(":")
    module = importlib.import_module(module_name)
    # python -m dle3q.cli runs the module's last statement, its __main__ guard
    guard = ast.parse(inspect.getsource(module)).body[-1]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    called = [node.func.id for node in ast.walk(guard) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id != "SystemExit"]
    assert [getattr(module, f) for f in called] == [getattr(module, name)]


def _fresh_process(code: str, *args: str) -> list[str]:
    """The stdout lines of code run by a new interpreter with args as sys.argv[1:]."""
    result = fresh_run("-c", code, *args)
    result.check_returncode()
    return result.stdout.decode().splitlines()


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
#: json is loaded. None loads a product basis: that is the test-side reference.py.
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


@pytest.mark.parametrize("name", ["report_paper.json", "report_paper.csv"])
def test_report_calls_no_numpy(name):
    lines = _fresh_process(NUMPY_REFUSED, *CASES[name])
    assert lines == (GOLDEN / name).read_text().splitlines()
    refused = fresh_run("-c", NUMPY_REFUSED, *UNDERFLOW, "--format", name.rpartition(".")[2])
    assert (refused.returncode, refused.stdout, refused.stderr.decode()) == (
        2, b"", AMPLITUDES_NOT_FINITE)
