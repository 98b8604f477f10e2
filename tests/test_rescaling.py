"""Metamorphic test: every output is a ratio of frequencies.

Rescaling omega1, omega2, E0 and lambda together by a power of two is exact
in binary floating point, so it must leave every closed form, entanglement
measure, validity ratio and oracle value bit-identical, and a point that
raises must raise the same error at every scale.
"""
from hypothesis import given, settings, strategies as st

from dle3q import (SystemParams, amplitude_table, compare_with_closed_forms,
                   entanglement_report, validate_params)

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
