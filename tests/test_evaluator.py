"""Properties of the closed-form evaluator behind report and sweep.

The paper's per-n closed forms live here as the reference the evaluator is
checked against; the package derives every sector measure from the
amplitude table through residual_tangle_general and concurrence_pair_general.
sweep runs the formula lines on numpy arrays and report on the Python floats
of its one point; both must print the same bits.
"""
import contextlib
import io
import json
import math
from dataclasses import is_dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from reference import normalized_sectors

from dle3q import SystemParams, cli, entanglement_report, sector_measures
from dle3q.cli import main
from dle3q.serialize import json_dumps

SQRT2 = math.sqrt(2.0)

frequencies = st.floats(min_value=0.1, max_value=20.0)
couplings = st.floats(min_value=1e-4, max_value=1.0)


def far_from_resonance(omega2: float, e0: float) -> bool:
    # the CLI sweep skips points inside this relative band
    return abs(omega2 - e0) >= 1e-6 * e0


def paper_closed_forms(omega1, omega2, e0, lam) -> dict:
    """The published per-n sector measures, written out term by term.

    |omega2^2 - E0^2| is kept factored as |omega2 - E0| (omega2 + E0), the
    form that stays exact near resonance.
    """
    lam2 = lam ** 2
    s1, s2, d2 = omega1 + e0, omega2 + e0, omega2 - e0
    pair = 3.0 * SQRT2 * lam2 / (s1 * abs(d2))  # |A(2;0)|
    double = 2.0 * SQRT2 * lam2 / (s2 * s1)  # |A(2;2)|
    return {
        "tau_2": 16.0 * pair * double ** 3,
        "c_0_ab1": 2.0 * (2.0 * lam2 / (d2 * s1)) ** 2,
        "c_1_ab0": 2.0 * lam2 * (1.0 / s2 - 1.0 / s1) ** 2,
        "c_2_ab0": 24.0 * lam2 ** 2 / (abs(d2) * s2 * s1 ** 2),
        "c_2_ab1": 8.0 * lam2 ** 2 / (s2 ** 2 * s1 ** 2),
    }


def fields(cf) -> dict:
    return {"amplitudes": cf.amplitudes, "w": cf.w, "product_gap": cf.product_gap,
            **{f"sectors.{k}": v for k, v in vars(cf.sectors).items()},
            **{f"validity.{k}": v for k, v in vars(cf.validity).items()}}


@settings(max_examples=60, deadline=None)
@given(omega1=frequencies, e0=frequencies, lam=couplings,
       grid=st.lists(frequencies, min_size=1, max_size=12))
def test_size_n_equals_size_one_bit_for_bit(omega1, e0, lam, grid):
    grid = [w for w in grid if far_from_resonance(w, e0)]
    assume(grid and omega1 != e0)
    batch = fields(entanglement_report(omega1, np.array(grid), e0, lam))
    for i, omega2 in enumerate(grid):
        single = fields(entanglement_report(omega1, omega2, e0, lam))
        for name, value in single.items():
            assert np.asarray(value).tobytes() == np.asarray(batch[name][i]).tobytes(), name


@settings(max_examples=200, deadline=None)
@given(omega1=frequencies, omega2=frequencies, e0=frequencies, lam=couplings)
def test_sector_measures_match_paper_closed_forms(omega1, omega2, e0, lam):
    assume(omega1 != e0 and far_from_resonance(omega2, e0))
    s = entanglement_report(omega1, omega2, e0, lam).sectors
    ref = paper_closed_forms(omega1, omega2, e0, lam)
    got = {"tau_2": s.tau_abc[2], "c_0_ab1": s.c_ab1[0], "c_1_ab0": s.c_ab0[1],
           "c_2_ab0": s.c_ab0[2], "c_2_ab1": s.c_ab1[2]}
    for key, value in got.items():
        assert value == pytest.approx(ref[key], rel=1e-12, abs=1e-300), key
    assert s.c_ab1_formula_path[2] == pytest.approx(2.0 * ref["c_2_ab1"], rel=1e-12)
    assert s.tau_abc[0] == s.tau_abc[1] == s.c_ab0[0] == s.c_ab1[1] == 0.0


@pytest.mark.parametrize("offset", [1e-9, 1e-11])
def test_c2_ab0_exact_near_resonance(offset):
    # C|2>_AB0 = 2|A(2;0) A(2;2)| = 24 lam^4 / ((w1+E0)^2 (w2+E0) |w2-E0|), exactly
    omega1, e0, lam = 5.0, 3.721, 0.2
    omega2 = e0 * (1 + offset)
    got = entanglement_report(omega1, omega2, e0, lam).sectors.c_ab0[2]
    w1, w2, e, g = map(Fraction, (omega1, omega2, e0, lam))
    exact = float(24 * g ** 4 / ((w1 + e) ** 2 * (w2 + e) * abs(w2 - e)))
    assert abs(got - exact) <= 1e-12 * exact


def run_json(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=25, deadline=None)
@given(omega1=frequencies, e0=frequencies, lam=couplings,
       lo=frequencies, width=st.floats(min_value=0.01, max_value=5.0),
       steps=st.integers(min_value=2, max_value=6))
def test_sweep_rows_equal_report_at_their_omega2(omega1, e0, lam, lo, width, steps):
    hi = lo + width
    grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    assume(omega1 != e0 and all(far_from_resonance(w, e0) for w in grid))
    flags = ["--omega1-ghz", repr(omega1), "--e0-ghz", repr(e0), "--lambda-ghz", repr(lam)]
    rows = json.loads(run_json(["sweep", *flags, "--omega2-min-ghz", repr(lo),
                                        "--omega2-max-ghz", repr(hi),
                                        "--steps", str(steps)]))["rows"]
    assert len(rows) == steps
    for omega2, row in zip(grid, rows):
        doc = json.loads(run_json(["report", *flags, "--omega2-ghz", repr(omega2)]))
        expected = {**doc["summary"], "w_0": doc["probabilities"]["w_0"],
                    "perturbative_ok": doc["validity"]["perturbative_ok"]}
        assert {k: v for k, v in row.items() if k != "omega2"} == expected


@settings(max_examples=40, deadline=None)
@given(omega1=frequencies, omega2=frequencies, e0=frequencies, lam=couplings)
def test_report_json_round_trips(omega1, omega2, e0, lam):
    assume(omega1 != e0 and far_from_resonance(omega2, e0))
    out = run_json(["report", "--omega1-ghz", repr(omega1), "--omega2-ghz", repr(omega2),
                            "--e0-ghz", repr(e0), "--lambda-ghz", repr(lam)])
    assert json_dumps(json.loads(out)) == out


def as_python(forms):
    """A ClosedForms, SectorMeasures or ValidityReport of numpy values as Python values."""
    return type(forms)(**{key: as_python(value) if is_dataclass(value) else value.tolist()
                          for key, value in vars(forms).items()})


def array_point_forms(p):
    """cli._point_forms evaluated by entanglement_report on 0-d arrays."""
    # a zero divisor or an overflow surfaces as inf or nan, which _report_doc refuses
    with np.errstate(all="ignore"):
        cf = entanglement_report(p.omega1, p.omega2, p.e0, p.lambda_)
        normalized = sector_measures(normalized_sectors(cf.amplitudes))
    return as_python(cf), as_python(normalized)


def report_doc(p, forms):
    """report's document at p with its closed forms from forms, or the error line it prints."""
    with mock.patch.object(cli, "_point_forms", forms):
        try:
            return repr(cli._report_doc(p))  # repr keeps every bit and the sign of zero
        except ValueError as exc:  # the errors main prints as one line
            return type(exc), str(exc)


#: Frequency scales from the top of double range to where products of detunings underflow.
scales = st.integers(min_value=-175, max_value=150).map(lambda k: 10.0 ** k)


@settings(max_examples=300, deadline=None)
@given(omega1=frequencies, omega2=frequencies, e0=frequencies, scale=scales,
       lam=st.one_of(couplings, st.floats(min_value=5e-324, max_value=2.2e-308),
                     st.floats(min_value=1e-200, max_value=1e200)))
@example(omega1=1.0, omega2=2.0, e0=1.5, scale=1e-200, lam=0.2)  # float division by zero
@example(omega1=5.0, omega2=3.75, e0=3.721, scale=1e150, lam=1e-323)
@example(omega1=5.0, omega2=3.75, e0=3.721, scale=1e-150, lam=1e-140)
@example(omega1=5.0, omega2=3.75, e0=3.721, scale=1.0, lam=1e100)  # squares overflow
def test_report_floats_equal_one_point_arrays(omega1, omega2, e0, scale, lam):
    omega1, omega2, e0 = omega1 * scale, omega2 * scale, e0 * scale
    assume(omega1 != e0 and omega2 != e0)
    p = SystemParams(omega1, omega2, e0, lam)
    assert report_doc(p, cli._point_forms) == report_doc(p, array_point_forms)
