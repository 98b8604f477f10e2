"""CLI output compared byte for byte with committed golden files, from cold processes.

Every case runs as ``python -W error::RuntimeWarning -m dle3q.cli <argv>`` in
a fresh interpreter at the repo root, so numpy's error state starts clean and
a RuntimeWarning anywhere on the command's path fails it. The exit code, the
stdout bytes and the stderr text are all checked. Each sweep and validate
case runs under the OpenBLAS kernel the build picks for this machine and,
where OPENBLAS_CORETYPE can be seen to choose the kernel, under two older
ones (KERNELS). The report cases run under the build's kernel only, because
tests/test_package.py::test_report_calls_no_numpy shows that their
processes call no numpy function, so no kernel can change their bytes.
The mixed-state tests run again under the two older kernels. The refused
cases (REFUSED) are underflow points that exit 2 with no stdout; the validate
ones run under all three kernels, since validate solves before it refuses.

work.json holds what each case and refusal costs, counted in this process:
numpy.linalg.eigh calls, the rows of the matrices they solve, and the values
that go through serialize.format_float. A change that solves or formats more
or less than before fails test_work_matches_golden even when its bytes stay.

The report and sweep files were captured before the oracle moved to the
Dicke-basis block solve and must never change. The two skip-path sweeps (one
grid point on E0 inside the guard band; every grid point inside it) were
captured before sweep rows were emitted from column arrays. The two
subnormal sweeps (lambda 1e-80: exact zeros, three-digit exponents and
subnormal values, the last of which the vectorized float formatter hands to
format_float) were captured before sweep tables were formatted as one byte
matrix. The nmax-20 validate files were captured once sudden overlaps
became dot products of Dicke-basis vectors.
Against the earlier product-space projection they differ only in the H0+V
(2,0)/(0,2) oracle values (round-off below 1e-18, now exactly 0) and in the
tenth digit of a few rel_dev values. Those digits are round-off: rel_dev
divides a difference that cancels about six digits, and
tests/test_oracle.py checks it against a 50-digit reference to 1e-8. The
nmax-160 validate files were captured while every V_RWA block was still
diagonalized at all 160 photons, before the oracle solved on a ladder of
certified photon cutoffs. All four validate files were last re-captured when
A(1;1) stopped subtracting 1/(omega1 + E0) from 1/(omega2 + E0): the H0+V
(1;1) rel_dev at scales 0.5 and 0.25 each moved by one in the tenth digit.

To regenerate one after a deliberate output change, run its argv from CASES
at the repo root, e.g.
``PYTHONPATH=src python -m dle3q.cli report --omega1-ghz 5 ... > tests/golden/report_paper.json``,
and check the diff line by line. After a deliberate change of work, edit the
counts in work.json that the test's failure message shows.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference import run_cli
from test_cli import AMPLITUDES_NOT_FINITE

from dle3q import serialize

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

PAPER = ["--omega1-ghz", "5", "--omega2-ghz", "3.75", "--e0-ghz", "3.721",
         "--lambda-ghz", "0.2"]
SWEEP = ["sweep", "--omega1-ghz", "5", "--e0-ghz", "3.721", "--lambda-ghz", "0.2",
         "--omega2-min-ghz", "3.73", "--omega2-max-ghz", "4.5", "--steps", "100"]
SWEEP_STRADDLE = ["sweep", "--omega1-ghz", "5", "--e0-ghz", "3.721", "--lambda-ghz", "0.05",
                  "--omega2-min-ghz", "3.221", "--omega2-max-ghz", "4.221", "--steps", "21"]
SWEEP_ALL_SKIPPED = ["sweep", "--omega1-ghz", "5", "--e0-ghz", "3.721", "--lambda-ghz", "0.2",
                     "--omega2-min-ghz", "3.720999", "--omega2-max-ghz", "3.721001",
                     "--steps", "3"]
SWEEP_SUBNORMAL = ["sweep", "--omega1-ghz", "5", "--e0-ghz", "3.721", "--lambda-ghz", "1e-80",
                   "--omega2-min-ghz", "3.221", "--omega2-max-ghz", "4.221", "--steps", "5"]
VALIDATE = ["validate", "--omega1-ghz", "5", "--omega2-ghz", "4.5", "--e0-ghz", "3.721",
            "--lambda-ghz", "0.02", "--nmax", "20", "--rwa", "both"]
VALIDATE_160 = [*VALIDATE[:-4], "--nmax", "160", "--rwa", "both"]

CASES = {
    "report_paper.json": ["report", *PAPER],
    "report_paper.csv": ["report", *PAPER, "--format", "csv"],
    "sweep_100.json": SWEEP,
    "sweep_100.csv": [*SWEEP, "--format", "csv"],
    "sweep_straddle_e0.json": SWEEP_STRADDLE,
    "sweep_straddle_e0.csv": [*SWEEP_STRADDLE, "--format", "csv"],
    "sweep_all_skipped.json": SWEEP_ALL_SKIPPED,
    "sweep_all_skipped.csv": [*SWEEP_ALL_SKIPPED, "--format", "csv"],
    "sweep_subnormal.json": SWEEP_SUBNORMAL,
    "sweep_subnormal.csv": [*SWEEP_SUBNORMAL, "--format", "csv"],
    "validate_nmax20.json": VALIDATE,
    "validate_nmax20.csv": [*VALIDATE, "--format", "csv"],
    "validate_nmax160.json": VALIDATE_160,
    "validate_nmax160.csv": [*VALIDATE_160, "--format", "csv"],
}


#: stderr of the golden cases that print any: sweep's CSV notes skipped points and
#: whether tau_2 falls monotonically on each side of E0 (None: no rows there).
STDERR = {
    "sweep_100.csv":
        "skipped: 0\ntau_2_monotone_below_e0: None\ntau_2_monotone_above_e0: True\n",
    "sweep_straddle_e0.csv":
        "skipped: 1\ntau_2_monotone_below_e0: True\ntau_2_monotone_above_e0: True\n",
    "sweep_all_skipped.csv":
        "skipped: 3\ntau_2_monotone_below_e0: None\ntau_2_monotone_above_e0: None\n",
    "sweep_subnormal.csv":
        "skipped: 1\ntau_2_monotone_below_e0: False\ntau_2_monotone_above_e0: False\n",
}

#: A report point whose products of two detunings underflow to 0 and divide by zero.
UNDERFLOW = ["report", "--omega1-ghz", "1e-200", "--omega2-ghz", "2e-200",
             "--e0-ghz", "1.5e-200", "--lambda-ghz", "0.2"]

#: A validate point whose lambda^2 and detuning products underflow: A(2;0), A(0;2)
#: and A(2;2) are 0/0, refused after the ground and (2, 0) solves of the first scale.
VALIDATE_UNDERFLOW = ["validate", "--omega1-ghz", "5e-170", "--omega2-ghz", "4.5e-170",
                      "--e0-ghz", "3.721e-170", "--lambda-ghz", "2e-172"]

CLOSED_FORM_NOT_FINITE = ("error: closed_form of channel (2, 0) (include_rwa=False) at "
                          "lambda scale 1.0 is not finite at these parameters "
                          "(outside double-precision range)\n")

#: Each underflow point in each format, refused, as (argv, stderr): exit 2, no stdout,
#: one stderr line.
REFUSED = {f"{name}.{fmt}": ([*argv, "--format", fmt], stderr)
           for name, argv, stderr in (
               ("report_underflow", UNDERFLOW, AMPLITUDES_NOT_FINITE),
               ("validate_underflow", VALIDATE_UNDERFLOW, CLOSED_FORM_NOT_FINITE))
           for fmt in ("json", "csv")}

#: OPENBLAS_CORETYPE of each cold run; None leaves the choice to the OpenBLAS build.
#: The report cases run under None only: tests/test_package.py::test_report_calls_no_numpy
#: shows that their processes call no numpy function, so no kernel can change their bytes.
KERNELS = (None, "Prescott", "Nehalem")

#: The report cases, run under the build's kernel only (see KERNELS).
REPORT = ("report_paper.json", "report_paper.csv", "report_underflow.json",
          "report_underflow.csv")

#: The mixed-state tests (the monogamy residual, criterion 7 and its rounding bound,
#: and TestMixedConcurrence's reference Wootters solve with the package's rank-2 pair
#: concurrences checked against it).  The package's path reads no LAPACK spectrum,
#: but the reference's eigh and svd do, so these tolerances must hold under the older
#: kernels too.
MIXED_STATE = ("tests/test_entangle.py::TestMonogamy",
               "tests/test_entangle.py::TestMixedConcurrence",
               "tests/test_acceptance.py::test_criterion_7_monogamy_property_suite",
               "tests/test_acceptance.py::test_criterion_7_residuals_at_rounding")


def _coretype_ignored() -> str:
    """Why OPENBLAS_CORETYPE cannot choose numpy's kernels here; empty where it can.

    It can where numpy's BLAS is an OpenBLAS DYNAMIC_ARCH build on x86-64.
    """
    machine = platform.machine()
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    config = blas.get("openblas configuration", "")
    if machine.lower() in ("x86_64", "amd64") and "DYNAMIC_ARCH" in config.split():
        return ""
    return (f"OPENBLAS_CORETYPE chooses no kernel on {machine} with BLAS "
            f"{blas.get('name')} {config}").strip()


CORETYPE_IGNORED = _coretype_ignored()


def _on_kernel(kernel: str | None, *values, id: str):
    """A parameter set run under kernel; an older kernel skips where it cannot be chosen."""
    skip = kernel is not None and bool(CORETYPE_IGNORED)
    return pytest.param(kernel, *values, id=id,
                        marks=pytest.mark.skipif(skip, reason=CORETYPE_IGNORED))


def fresh_run(*args: str, kernel: str | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter at the repo root, its output captured as bytes.

    PYTHONPATH is src, and OPENBLAS_CORETYPE is kernel, or unset for None.
    """
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = "src"
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


def first_difference(actual: bytes, expected: bytes) -> str:
    """Where two outputs first differ: the line number and both lines."""
    actual_lines = actual.splitlines(keepends=True)
    expected_lines = expected.splitlines(keepends=True)
    for number, (got, want) in enumerate(zip(actual_lines, expected_lines), start=1):
        if got != want:
            return f"line {number} differs:\n  got  {got!r}\n  want {want!r}"
    number = min(len(actual_lines), len(expected_lines)) + 1
    return (f"line {number} differs: got {len(actual_lines)} lines, "
            f"want {len(expected_lines)}")


@pytest.mark.parametrize(("kernel", "name"), [
    _on_kernel(kernel, name, id="-".join(filter(None, (name, kernel))))
    for kernel in KERNELS for name in [*CASES, *REFUSED]
    if kernel is None or name not in REPORT])
def test_stdout_matches_golden(kernel, name):
    if name in CASES:
        argv, code, out, err = CASES[name], 0, (GOLDEN / name).read_bytes(), STDERR.get(name, "")
    else:
        (argv, err), code, out = REFUSED[name], 2, b""
    result = fresh_run("-W", "error::RuntimeWarning", "-m", "dle3q.cli", *argv, kernel=kernel)
    stderr = result.stderr.decode()
    if (result.returncode, stderr) != (code, err):
        pytest.fail(f"{name}: exit {result.returncode}, want {code}\n"
                    f"stderr:\n{stderr}want:\n{err}", pytrace=False)
    if result.stdout != out:
        pytest.fail(f"{name}: {first_difference(result.stdout, out)}", pytrace=False)


def test_work_matches_golden(monkeypatch):
    # each case in this process, counting the eigensolves, the rows they solve and the
    # values that take the exact formatter; work.json holds the counts per case
    eigh, format_float = np.linalg.eigh, serialize.format_float
    work = {}

    def counted_eigh(h):
        work["eigh_calls"] += 1
        work["eigh_rows"] += h.shape[0]
        return eigh(h)

    def counted_format_float(x):
        work["format_float_calls"] += 1
        return format_float(x)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(serialize, "format_float", counted_format_float)
    measured = {}
    for name, argv in [*CASES.items(), *((name, argv) for name, (argv, _) in REFUSED.items())]:
        work.update(eigh_calls=0, eigh_rows=0, format_float_calls=0)
        code, _, _ = run_cli(argv)
        assert code == (0 if name in CASES else 2), name
        measured[name] = dict(work)
    assert measured == json.loads((GOLDEN / "work.json").read_text())


@pytest.mark.parametrize("kernel", [_on_kernel(kernel, id=kernel) for kernel in KERNELS[1:]])
def test_mixed_state_tests_pass_under_older_kernel(kernel):
    # a renamed or missing node id exits 4 or 5, which fails as well
    result = fresh_run("-m", "pytest", "-q", *MIXED_STATE, kernel=kernel)
    if result.returncode:
        pytest.fail(f"exit {result.returncode} under OPENBLAS_CORETYPE={kernel}:\n"
                    f"{result.stdout.decode()}{result.stderr.decode()}", pytrace=False)


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == (
        "line 2 differs:\n  got  b'b\\n'\n  want b'x\\n'")
    assert first_difference(b"a\n", b"a\nb\n") == "line 2 differs: got 1 lines, want 2"
