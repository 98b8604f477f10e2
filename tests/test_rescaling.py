"""Metamorphic test: every output is a ratio of frequencies.

Rescaling omega1, omega2, E0 and lambda together by a power of two is exact
in binary floating point, so it must leave every closed form, entanglement
measure, validity ratio and oracle value bit-identical, and a point that
raises must raise the same error at every scale.  At the CLI, report and
sweep must print the same bytes outside the rescaled inputs.
"""
import contextlib
import io
import re

from hypothesis import given, settings, strategies as st

from dle3q import (SystemParams, amplitude_table, compare_with_closed_forms,
                   entanglement_report, validate_params)
from dle3q.cli import main
from dle3q.params import JSON_KEYS

SCALES = (2.0, 0.5, 1024.0, 2.0 ** -10)


def _outputs(omega1, omega2, e0, lam, include_rwa):
    """Everything the package computes at one point, or the type of the error it raises."""
    try:
        p = SystemParams(omega1, omega2, e0, lam, nmax=40)
        sectors = entanglement_report(omega1, omega2, e0, lam).sectors
        rows = compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=include_rwa)
    except (ValueError, RuntimeError) as exc:  # every error type dle3q raises
        return type(exc)
    return (amplitude_table(omega1, omega2, e0, lam).tolist(),
            {key: value.tolist() for key, value in vars(sectors).items()},
            validate_params(p).ratios(),
            [(r["closed_form"], r["oracle"], r["rel_dev"]) for r in rows])


@settings(max_examples=40, deadline=None)
@given(omega1=st.floats(1.0, 10.0), omega2=st.floats(1.0, 10.0),
       e0=st.floats(1.0, 10.0), lam=st.floats(1e-3, 0.5), include_rwa=st.booleans())
def test_power_of_two_rescaling_changes_no_bit(omega1, omega2, e0, lam, include_rwa):
    want = _outputs(omega1, omega2, e0, lam, include_rwa)
    for k in SCALES:
        assert _outputs(k * omega1, k * omega2, k * e0, k * lam, include_rwa) == want, k


def _stdout(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


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
        report = _stdout(["report", *point, "--omega2-ghz", repr(k * omega2)])
        sweep = _stdout(["sweep", *point, "--omega2-min-ghz", repr(k * omega2),
                         "--omega2-max-ghz", repr(k * (omega2 + width)), "--steps", "5"])
        return [(code, _without_inputs(text, fmt)) for code, text in (report, sweep)]

    want = outputs(1.0)
    for k in SCALES:
        assert outputs(k) == want, k
