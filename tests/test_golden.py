"""CLI stdout compared byte for byte with committed golden files.

The report and sweep files were captured before the oracle moved to the
Dicke-basis block solve and must never change. The two skip-path sweeps (one
grid point on E0 inside the guard band; every grid point inside it) were
captured before sweep rows were emitted from column arrays. The two
subnormal sweeps (lambda 1e-80: exact zeros, three-digit exponents and
subnormal values, the last of which the vectorized float formatter hands to
format_float) were captured before sweep tables were formatted as one byte
matrix. The nmax-20 validate files were last captured once sudden overlaps
became dot products of Dicke-basis vectors.
Against the earlier product-space projection they differ only in the H0+V
(2,0)/(0,2) oracle values (round-off below 1e-18, now exactly 0) and in the
tenth digit of a few rel_dev values. Those digits are round-off: rel_dev
divides a difference that cancels about six digits, and
tests/test_oracle.py checks it against a 50-digit reference to 1e-8. The
nmax-160 validate files were captured while every V_RWA block was still
diagonalized at all 160 photons, before the oracle solved on a ladder of
certified photon cutoffs.

To regenerate one after a deliberate output change, run the listed argv,
e.g. ``python -m dle3q.cli report --omega1-ghz 5 ... > tests/golden/report_paper.json``.
"""
from pathlib import Path

import pytest

from dle3q.cli import main

GOLDEN = Path(__file__).parent / "golden"

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


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    expected = (GOLDEN / name).read_bytes()
    if out != expected:
        pytest.fail(f"{name}: {first_difference(out, expected)}", pytrace=False)


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == (
        "line 2 differs:\n  got  b'b\\n'\n  want b'x\\n'")
    assert first_difference(b"a\n", b"a\nb\n") == "line 2 differs: got 1 lines, want 2"
