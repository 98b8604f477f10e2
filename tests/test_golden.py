"""CLI stdout compared byte for byte with committed golden files.

The report and sweep files were captured before the oracle moved to the
Dicke-basis block solve and must never change. The validate files were last
captured once sudden overlaps became dot products of Dicke-basis vectors.
Against the earlier product-space projection they differ only in the H0+V
(2,0)/(0,2) oracle values (round-off below 1e-18, now exactly 0) and in the
tenth digit of a few rel_dev values. Those digits are round-off: rel_dev
divides a difference that cancels about six digits, and
tests/test_oracle.py checks it against a 50-digit reference to 1e-8.

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
VALIDATE = ["validate", "--omega1-ghz", "5", "--omega2-ghz", "4.5", "--e0-ghz", "3.721",
            "--lambda-ghz", "0.02", "--nmax", "20", "--rwa", "both"]

CASES = {
    "report_paper.json": ["report", *PAPER],
    "report_paper.csv": ["report", *PAPER, "--format", "csv"],
    "sweep_100.json": SWEEP,
    "sweep_100.csv": [*SWEEP, "--format", "csv"],
    "validate_nmax20.json": VALIDATE,
    "validate_nmax20.csv": [*VALIDATE, "--format", "csv"],
}


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
