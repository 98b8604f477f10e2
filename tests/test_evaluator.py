"""Properties of the closed-form evaluator behind report and sweep.

The paper's per-n closed forms live here as the reference the evaluator is
checked against; the package derives every sector measure from the
amplitude table through residual_tangle_general and concurrence_pair_general.
entanglement_report runs on numpy arrays for sweep and on the Python floats
of report's one point; both must give the same bits.
"""
import json
import math
from dataclasses import is_dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from reference import normalized_sector, normalized_sector_exact, run_cli

from dle3q import SystemParams, cli, entanglement_report
from dle3q.entangle import TABULATED_C_AB1_FACTOR, _measures, _normalized
from dle3q.params import SINGULARITY_GUARD
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
    form that stays exact near resonance, and 1/(omega2 + E0) - 1/(omega1 + E0)
    as (omega1 - omega2) / ((omega1 + E0)(omega2 + E0)), which does not cancel
    as omega2 -> omega1.
    """
    lam2 = lam ** 2
    s1, s2, d2 = omega1 + e0, omega2 + e0, omega2 - e0
    pair = 3.0 * SQRT2 * lam2 / (s1 * abs(d2))  # |A(2;0)|
    double = 2.0 * SQRT2 * lam2 / (s2 * s1)  # |A(2;2)|
    return {
        "tau_2": 16.0 * pair * double ** 3,
        "c_0_ab1": 2.0 * (2.0 * lam2 / (d2 * s1)) ** 2,
        "c_1_ab0": 2.0 * lam2 * ((omega1 - omega2) / (s1 * s2)) ** 2,
        "c_2_ab0": 24.0 * lam2 ** 2 / (abs(d2) * s2 * s1 ** 2),
        "c_2_ab1": 8.0 * lam2 ** 2 / (s2 ** 2 * s1 ** 2),
    }


def leaves(cf) -> dict:
    """Every value of a ClosedForms by name: each amplitude, w_m and per-n measure apart."""
    out = {f"a_{n}_{m}": a for n, row in enumerate(cf.amplitudes) for m, a in enumerate(row)}
    out.update((f"w_{m}", w) for m, w in enumerate(cf.w))
    out["product_gap"] = cf.product_gap
    out.update((f"{key}_{n}", value) for key, values in vars(cf.sectors).items()
               for n, value in enumerate(values))
    out.update((f"validity.{key}", value) for key, value in vars(cf.validity).items())
    return out


@settings(max_examples=60, deadline=None)
@given(omega1=frequencies, e0=frequencies, lam=couplings,
       grid=st.lists(frequencies, min_size=1, max_size=12))
def test_size_n_equals_size_one_bit_for_bit(omega1, e0, lam, grid):
    grid = [w for w in grid if far_from_resonance(w, e0)]
    assume(grid and omega1 != e0)
    batch = leaves(entanglement_report(omega1, np.array(grid), e0, lam))
    for i, omega2 in enumerate(grid):
        single = leaves(entanglement_report(omega1, omega2, e0, lam))
        for name, value in single.items():
            # a value that does not depend on omega2 (a zero channel, eta_sum1) stays a scalar
            row = np.broadcast_to(batch[name], len(grid))[i]
            assert np.asarray(value).tobytes() == row.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(omega1=frequencies, omega2=frequencies, e0=frequencies, lam=couplings)
@example(omega1=1.0, omega2=0.99999, e0=2.0, lam=1.0)  # 1/s2 - 1/s1 cancels five digits
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


#: Unit roundoff of binary64, 2^-53.
U = Fraction(1, 2 ** 53)

#: (omega1, omega2) within a factor 2 of each other, where omega1 - omega2 is exact
#: (Sterbenz's lemma), often nearly degenerate: omega2 = omega1 (1 + delta).
close_pairs = frequencies.flatmap(lambda w1: st.tuples(st.just(w1), st.one_of(
    st.floats(-1e-6, 1e-6).filter(bool).map(lambda delta: w1 * (1 + delta)),
    st.floats(w1 / 2, 2 * w1))))


@settings(max_examples=200, deadline=None)
@given(pair=close_pairs, e0=frequencies, lam=couplings)
@example(pair=(5.0, 5.000000001), e0=3.721, lam=0.02)  # 1/s2 - 1/s1 was off by 8.5e-7
def test_one_photon_fields_within_rounding_of_exact(pair, e0, lam):
    omega1, omega2 = pair
    assume(omega1 != e0 and far_from_resonance(omega2, e0))
    doc = cli._report_doc(SystemParams(omega1, omega2, e0, lam))
    w1, w2, e, g = map(Fraction, (omega1, omega2, e0, lam))
    a11 = g * (w1 - w2) / ((w1 + e) * (w2 + e))
    # five roundings, to first order: s1, s2, s1 s2, lam (w1 - w2) and the quotient
    # (w1 - w2 itself is exact)
    got = doc["amplitudes"]["a_1_1"]
    assert abs(Fraction(got) - a11) <= 5 * U * abs(a11), (got, float(a11))
    # a square doubles the relative error and rounds once more; the factor 2 is exact
    for key, exact in (("w_1", a11 * a11), ("c_1_ab0", 2 * a11 * a11)):
        got = doc["summary"][key]
        assert abs(Fraction(got) - exact) <= 11 * U * exact, (key, got, float(exact))


def gamma(n: int) -> Fraction:
    """Relative error bound of n roundings multiplied or divided together, n u / (1 - n u).

    Each sum, product, quotient and correctly rounded constant is one rounding,
    fl(x op y) = (x op y)(1 + d) with |d| <= u, and n such factors, each to the
    power +-1, stay within gamma(n) of 1 (Higham, Accuracy and Stability of
    Numerical Algorithms, Lemma 3.1).
    """
    return n * U / (1 - n * U)


#: omega2 / E0 = 1 +- 10^-k for k in 3..11, where omega2 - E0 is exact and the lambda^2
#: channels grow as 1/|omega2 - E0|.
near_resonance = st.builds(lambda sign, k: 1 + sign * 10.0 ** -k,
                           st.sampled_from((-1, 1)), st.integers(3, 11))

#: (E0, omega2): omega2 anywhere, or near_resonance.
detuned_points = frequencies.flatmap(lambda e0: st.tuples(st.just(e0), st.one_of(
    frequencies, near_resonance.map(lambda ratio: e0 * ratio))))


@settings(max_examples=200, deadline=None)
@given(point=detuned_points, omega1=frequencies, lam=couplings)
@example(point=(3.721, 3.721 * (1 + 1e-11)), omega1=5.0, lam=0.2)
def test_rational_report_fields_within_rounding_of_exact(point, omega1, lam):
    e0, omega2 = point
    assume(omega1 != e0 and abs(omega2 - e0) >= SINGULARITY_GUARD * e0)
    doc = cli._report_doc(SystemParams(omega1, omega2, e0, lam))
    w1, w2, e, g = map(Fraction, (omega1, omega2, e0, lam))
    s1, s2, d2 = w1 + e, w2 + e, w2 - e
    g4 = g ** 4
    a02 = 2 * g * g / (d2 * s1)
    a20_sq = 18 * g4 / (s1 * d2) ** 2
    a22_sq = 8 * g4 / (s2 * s1) ** 2
    w_1 = (g * (w1 - w2) / (s1 * s2)) ** 2
    w_2 = a02 * a02 + a22_sq
    amps, probs, summary = doc["amplitudes"], doc["probabilities"], doc["summary"]
    # Roundings: lam^2, s1, s2 and d2 are one each.  A(0;2) = 2 lam^2 / (d2 s1) adds the
    # product and the quotient: 5.  A(2;0) = -3 sqrt2 lam^2 / (s1 d2) adds sqrt2, 3 sqrt2
    # and its product with lam^2: 8.  A(2;2) the same with 2 sqrt2 exact: 7.  A square
    # doubles a count, one more for its rounding.  Products with the zero amplitudes
    # are exact.
    rounded = {
        "a_0_2": (amps["a_0_2"], a02, 5),
        "a_2_0^2": (Fraction(amps["a_2_0"]) ** 2, a20_sq, 16),
        "a_2_2^2": (Fraction(amps["a_2_2"]) ** 2, a22_sq, 14),
        "w_0": (probs["w_0"], a20_sq, 17),
        "w_2": (summary["w_2"], w_2, 16),  # two positive squares (11, 15) and their sum
        "c_0_ab1": (summary["c_0_ab1"], 2 * a02 * a02, 11),  # 2 A(0;2)^2
        "c_2_ab0": (summary["c_2_ab0"], 24 * g4 / (s1 ** 2 * s2 * abs(d2)), 16),
        "c_2_ab1": (summary["c_2_ab1"], a22_sq, 15),  # 0.5 * 2 A(2;2)^2
        # 16 |A(2;0) A(2;2)^3|, three products
        "tau_2": (summary["tau_2"], 1536 * g4 * g4 / (s1 ** 4 * s2 ** 3 * abs(d2)), 32),
        # lambda over one sum or difference: 2
        "eta_sum1": (doc["validity"]["eta_sum1"], g / s1, 2),
        "eta_sum2": (doc["validity"]["eta_sum2"], g / s2, 2),
        "eta_diff1": (doc["validity"]["eta_diff1"], g / abs(w1 - e), 2),
        "eta_diff2": (doc["validity"]["eta_diff2"], g / abs(d2), 2),
    }
    for key, (got, exact, roundings) in rounded.items():
        error = abs(Fraction(got) - exact)
        assert error <= gamma(roundings) * abs(exact), (key, got, float(exact))
    # w_2 - w_1^2: A(1;1) takes 6 roundings, w_1 13, w_1^2 27, and the difference one
    # more, so its error is bounded relative to w_2 + w_1^2, not to the difference
    gap = probs["product_gap"]
    assert abs(Fraction(gap) - (w_2 - w_1 * w_1)) <= gamma(28) * (w_2 + w_1 * w_1), gap


#: (omega1, omega2, E0): half near_resonance, half close_pairs with E0 anywhere.
normalized_points = st.one_of(
    st.tuples(frequencies, frequencies, near_resonance).map(
        lambda t: (t[0], t[1] * t[2], t[1])),
    st.tuples(close_pairs, frequencies).map(lambda t: (*t[0], t[1])))

# The roundings of entangle._normalized and _sector_values on a sector of floats,
# counted to first order: each rounding is a factor (1 + d), |d| <= u, and k is the
# sum of the magnitudes of their exponents in the result, which gamma(k) bounds.
# n = 0 and 1 hold one nonzero class, of size 3.  Its unit entry is +-1 and 3 u u is 3,
# exactly; norm = fl(sqrt 3) rounds once and the entry u / norm once more: k = 2.  The
# one nonzero measure, 2 v v (the factor 2 is exact), doubles that and rounds: k = 5.
# The other two multiply a zero into every term: exactly 0, k = 0.
# n = 2 holds a0 = A(2;0) and a2 = A(2;2).  The larger is the peak, whose unit entry is
# +-1 exactly; the other's, r = fl(a / peak), rounds once (d1).  With the peak at a0:
#   r r (d2), 3 r r (d3), S = 1 + 3 r r (d4), norm = fl(sqrt S) (d5), v0 = fl(1/norm) (d6)
#   and v2 = fl(r / norm) (d7).  S carries the error of 3 r r weighted by w = 3r^2/S <= 3/4,
#   and the square root halves it, so
#   v0:   -w (2 d1 + d2 + d3)/2 - d4/2 - d5 + d6               k = 2w + 5/2 <= 4
#   v2:   (1 - w) d1 - w (d2 + d3)/2 - d4/2 - d5 + d7          k = 7/2
#   c_ab0 = 2 |v0 v2| (d8), the sum of both and d8:            k = |1 - 2w| + 2w + 6 <= 8
#   c_ab1 = 0.5 * 2 v2 v2 (d8), twice v2 and d8:               k = 8
#   tau = 16 |v0 v2 v2 v2| (three products): (3 - 4w) d1 - 2w (d2 + d3) - 2 d4 - 4 d5
#         + d6 + 3 d7 + 3 roundings                              k = 3 + 13 = 16
# With the peak at a2, w = r^2/(r^2 + 3) <= 1/4 and each k is smaller: 7/2, 23/8, 7,
# 27/4 and 14.  gamma(k) - k u covers the second-order terms.
#: k of each normalized field per n: every sector entry, then the three measures.
NORMALIZED_ROUNDINGS = (
    {"sector": 2, "tau_abc": 0, "c_ab0": 0, "c_ab1": 5},
    {"sector": 2, "tau_abc": 0, "c_ab0": 5, "c_ab1": 0},
    {"sector": 4, "tau_abc": 16, "c_ab0": 8, "c_ab1": 8},
)


@settings(max_examples=200, deadline=None)
@given(point=normalized_points, lam=couplings)
@example(point=(5.0, 3.75, 3.721), lam=0.2)  # the paper point
@example(point=(5.0, 5.000000001, 3.721), lam=0.02)  # A(1;1) 2.6e-13
@example(point=(1.0, 1.0, 2.0), lam=1.0)  # A(1;1) = 0: the sector stays zero
def test_normalized_variant_within_rounding_of_exact(point, lam):
    omega1, omega2, e0 = point
    assume(omega1 != e0 and abs(omega2 - e0) >= SINGULARITY_GUARD * e0)
    p = SystemParams(omega1, omega2, e0, lam)
    amplitudes = entanglement_report(omega1, omega2, e0, lam).amplitudes
    rows = cli._report_doc(p)["entanglement"]
    for n, (a, factor, k) in enumerate(zip(amplitudes, TABULATED_C_AB1_FACTOR,
                                           NORMALIZED_ROUNDINGS)):
        sector, measures = normalized_sector_exact(a, factor)
        fields = [(f"v_{m}", v, sector[m], k["sector"]) for m, v in enumerate(_normalized(a))]
        fields += [(key, rows[n]["normalized_variant"][key], exact, k[key])
                   for key, exact in measures.items()]
        for key, got, exact, roundings in fields:
            exact = Fraction(exact)
            assert abs(Fraction(got) - exact) <= gamma(roundings) * abs(exact), (
                n, key, got, float(exact))


@settings(max_examples=25, deadline=None)
@given(omega1=frequencies, e0=frequencies, lam=couplings,
       lo=frequencies, width=st.floats(min_value=0.01, max_value=5.0),
       steps=st.integers(min_value=2, max_value=6))
def test_sweep_rows_equal_report_at_their_omega2(omega1, e0, lam, lo, width, steps):
    hi = lo + width
    grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    assume(omega1 != e0 and all(far_from_resonance(w, e0) for w in grid))
    flags = ["--omega1-ghz", repr(omega1), "--e0-ghz", repr(e0), "--lambda-ghz", repr(lam)]
    code, out, _ = run_cli(["sweep", *flags, "--omega2-min-ghz", repr(lo),
                            "--omega2-max-ghz", repr(hi), "--steps", str(steps)])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == steps
    for omega2, row in zip(grid, rows):
        code, out, _ = run_cli(["report", *flags, "--omega2-ghz", repr(omega2)])
        assert code == 0
        doc = json.loads(out)
        expected = {**doc["summary"], "w_0": doc["probabilities"]["w_0"],
                    "perturbative_ok": doc["validity"]["perturbative_ok"]}
        assert {k: v for k, v in row.items() if k != "omega2"} == expected


@settings(max_examples=40, deadline=None)
@given(omega1=frequencies, omega2=frequencies, e0=frequencies, lam=couplings)
def test_report_json_round_trips(omega1, omega2, e0, lam):
    assume(omega1 != e0 and far_from_resonance(omega2, e0))
    code, out, _ = run_cli(["report", "--omega1-ghz", repr(omega1), "--omega2-ghz", repr(omega2),
                            "--e0-ghz", repr(e0), "--lambda-ghz", repr(lam)])
    assert code == 0
    assert json_dumps(json.loads(out)) == out


def one_point(value):
    """value, a dataclass, list or leaf, with each one-element array as its Python element."""
    if is_dataclass(value):
        return type(value)(**{key: one_point(v) for key, v in vars(value).items()})
    if isinstance(value, list):
        return list(map(one_point, value))
    return value.item() if isinstance(value, np.ndarray) else value


def array_point_forms(p):
    """cli._point_forms evaluated by entanglement_report on one-element arrays."""
    # a zero divisor or an overflow surfaces as inf or nan, which _report_doc refuses
    with np.errstate(all="ignore"):
        cf = entanglement_report(*(np.array([v]) for v in (p.omega1, p.omega2, p.e0, p.lambda_)))
        normalized = _measures(map(normalized_sector, cf.amplitudes))
    return one_point(cf), one_point(normalized)


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
