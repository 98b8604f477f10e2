"""Metamorphic test: every output is a ratio of frequencies.

Rescaling omega1, omega2, E0 and lambda together by a power of two is exact
in binary floating point, so it must leave every closed form, entanglement
measure, validity ratio and oracle value bit-identical, and a point that
raises must raise the same error at every scale.  At the CLI, report and
sweep must print the same bytes outside the rescaled inputs.

The closed forms are products of the coupling ratios lambda/(omega +- E0),
formed before any product, so this holds for report and for validate's
closed_form column across the whole double range: at 2^k for k from -1000
to 1000, while lambda^2 alone would leave the range near k = +-500.
"""
import json
import re
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from reference import run_cli

from dle3q import (SystemParams, compare_with_closed_forms, entanglement_report, oracle,
                   validate_params)
from dle3q.cli import _report_doc
from dle3q.params import JSON_KEYS

GOLDEN = Path(__file__).resolve().parent / "golden"

SCALES = (2.0, 0.5, 1024.0, 2.0 ** -10)


def _outputs(omega1, omega2, e0, lam, include_rwa):
    """Everything the package computes at one point, or the type of the error it raises."""
    try:
        p = SystemParams(omega1, omega2, e0, lam, nmax=40)
        cf = entanglement_report(omega1, omega2, e0, lam)
        rows = compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=include_rwa)
    except (ValueError, RuntimeError) as exc:  # every error type dle3q raises
        return type(exc)
    return (cf.amplitudes, vars(cf.sectors),
            astuple(validate_params(p))[:4],
            [(r["closed_form"], r["oracle"], r["rel_dev"]) for r in rows])


@settings(max_examples=40, deadline=None)
@given(omega1=st.floats(1.0, 10.0), omega2=st.floats(1.0, 10.0),
       e0=st.floats(1.0, 10.0), lam=st.floats(1e-3, 0.5), include_rwa=st.booleans())
def test_power_of_two_rescaling_changes_no_bit(omega1, omega2, e0, lam, include_rwa):
    want = _outputs(omega1, omega2, e0, lam, include_rwa)
    for k in SCALES:
        assert _outputs(k * omega1, k * omega2, k * e0, k * lam, include_rwa) == want, k


def _without_inputs(text: str, fmt: str) -> str:
    """CLI stdout without its parameter inputs and sweep's omega2 column."""
    if fmt == "json":
        text = re.sub(r'^  "inputs": \{\n(?:    .*\n)*?  \},\n', "", text, flags=re.M)
        return re.sub(r'^      "omega2": .*\n', "", text, flags=re.M)
    lines = text.splitlines(keepends=True)
    if lines and lines[0].startswith("omega2,"):  # a sweep table
        return "".join(line.split(",", 1)[1] for line in lines)
    return "".join(line for line in lines if line.split(",")[1] not in JSON_KEYS)


@settings(max_examples=15, deadline=None)
@given(omega1=st.floats(1.0, 10.0), omega2=st.floats(1.0, 10.0), e0=st.floats(1.0, 10.0),
       lam=st.floats(1e-3, 0.5), width=st.floats(0.01, 5.0), fmt=st.sampled_from(["json", "csv"]))
def test_cli_rescaling_changes_no_byte_outside_inputs(omega1, omega2, e0, lam, width, fmt):
    def outputs(k):
        point = ["--omega1-ghz", repr(k * omega1), "--e0-ghz", repr(k * e0),
                 "--lambda-ghz", repr(k * lam), "--format", fmt]
        report = run_cli(["report", *point, "--omega2-ghz", repr(k * omega2)])
        sweep = run_cli(["sweep", *point, "--omega2-min-ghz", repr(k * omega2),
                         "--omega2-max-ghz", repr(k * (omega2 + width)), "--steps", "5"])
        return [(code, _without_inputs(text, fmt)) for code, text, _ in (report, sweep)]

    want = outputs(1.0)
    for k in SCALES:
        assert outputs(k) == want, k


def _closed_forms_bits(p):
    """report's document at p without its inputs, and validate's closed_form column, as repr.

    The oracle is stubbed out: its columns are left out of the property, since LAPACK
    rescales tiny matrices and may move their last digit, and at these couplings the
    oracle loses labels at some of these couplings and refuses blocks at huge scales.
    """
    doc = _report_doc(p)
    del doc["inputs"]
    with mock.patch.object(oracle, "_dressed", lambda *args: None), \
            mock.patch.object(oracle, "_overlap", lambda *args: 0.0):
        rows = compare_with_closed_forms(p, [1.0, 0.5, 0.25])
    return repr(doc), repr([r["closed_form"] for r in rows])  # repr keeps the sign of zero


@settings(max_examples=200, deadline=None)
@given(omega1=st.floats(1.0, 10.0), omega2=st.floats(1.0, 10.0), e0=st.floats(1.0, 10.0),
       lam=st.floats(1e-3, 0.5), k=st.integers(-1000, 1000))
# omega1 - omega2 is subnormal at this scale: A(1;1) divides it by omega2 + E0 first
@example(omega1=1.0, omega2=1.0000000000000002, e0=5.0, lam=0.5, k=-1000)
@example(omega1=5.0, omega2=3.75, e0=3.721, lam=0.2, k=1000)
def test_closed_forms_bit_identical_at_any_power_of_two(omega1, omega2, e0, lam, k):
    assume(abs(omega1 - e0) >= 1e-3 and abs(omega2 - e0) >= 1e-3)
    scale = 2.0 ** k
    scaled = SystemParams(omega1 * scale, omega2 * scale, e0 * scale, lam * scale)
    assert _closed_forms_bits(scaled) == _closed_forms_bits(SystemParams(omega1, omega2, e0, lam))


@pytest.mark.parametrize("e", [-160, 160])
def test_report_at_extreme_uniform_scale_prints_the_golden(e):
    # the paper point x 1e-160, where lambda^2 would be subnormal with 13 bits and a_2_0
    # printed -6.718750000e-01 for the golden's -6.710145842e-01, and x 1e160, where
    # lambda^2 would overflow and report would refuse its amplitudes as not finite
    code, out, err = run_cli(["report", "--omega1-ghz", f"5e{e}", "--omega2-ghz", f"3.75e{e}",
                              "--e0-ghz", f"3.721e{e}", "--lambda-ghz", f"2e{e - 1}"])
    assert (code, err) == (0, "")
    golden = (GOLDEN / "report_paper.json").read_text()
    assert _without_inputs(out, "json") == _without_inputs(golden, "json")


@pytest.mark.parametrize("e", [-158, -170])
def test_validate_at_tiny_uniform_scale_prints_the_golden_columns(e):
    # the validate golden point x 1e-158, where the products of detunings would be
    # subnormal and the (1, 1) shrink factors [3.45, 0.94] failed the gate, and x 1e-170,
    # where lambda^2 and those products would underflow to 0 and validate refused 0/0
    code, out, err = run_cli(["validate", "--omega1-ghz", f"5e{e}", "--omega2-ghz", f"4.5e{e}",
                              "--e0-ghz", f"3.721e{e}", "--lambda-ghz", f"2e{e - 2}"])
    assert (code, err) == (0, "")
    golden = json.loads((GOLDEN / "validate_nmax20.json").read_text())
    assert ([(r["closed_form"], r["oracle"]) for r in json.loads(out)["rows"]]
            == [(r["closed_form"], r["oracle"]) for r in golden["rows"]])
