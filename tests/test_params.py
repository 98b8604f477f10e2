import math
from dataclasses import astuple
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dle3q import ParameterDomainError, SystemParams, dressed_state, validate_params


def ratios(p):
    """The four coupling-over-detuning ratios validate_params reports for p."""
    return astuple(validate_params(p))[:4]


class TestSystemParams:
    def test_accepts_paper_point(self, paper_params):
        assert paper_params.omega2 == 3.75
        assert paper_params.nmax == 20

    @pytest.mark.parametrize("field,value", [
        ("omega1", 0.0), ("omega1", -1.0), ("omega2", float("nan")),
        ("omega2", float("inf")), ("e0", -3.0), ("lambda_", 0.0),
        # a JSON config can hold an int past the double range
        pytest.param("omega1", 10 ** 400, id="omega1-int-past-double-range"),
    ])
    def test_rejects_nonpositive_or_nonfinite(self, field, value):
        kwargs = dict(omega1=5.0, omega2=3.75, e0=3.721, lambda_=0.2)
        kwargs[field] = value
        with pytest.raises(ParameterDomainError, match=field):
            SystemParams(**kwargs)

    def test_rejects_exact_resonance(self):
        with pytest.raises(ParameterDomainError, match="omega2"):
            SystemParams(5.0, 3.721, 3.721, 0.2)
        with pytest.raises(ParameterDomainError, match="omega1"):
            SystemParams(3.721, 3.75, 3.721, 0.2)

    def test_rejects_small_nmax(self):
        with pytest.raises(ParameterDomainError, match="nmax"):
            SystemParams(5.0, 3.75, 3.721, 0.2, nmax=1)

    def test_flat_dict_round_trip(self, paper_params):
        flat = {"omega1_ghz": 5.0, "omega2_ghz": 3.75, "e0_ghz": 3.721, "lambda_ghz": 0.2,
                "nmax": 20}
        assert paper_params.to_flat_dict() == flat
        assert SystemParams.from_flat_dict(flat) == paper_params
        del flat["nmax"]  # an absent nmax keeps the default
        assert SystemParams.from_flat_dict(flat) == paper_params

    def test_numpy_integer_nmax_kept_as_int(self):
        # the integer rule of the (n, m) labels: a numpy integer is the int it holds
        p = SystemParams(5.0, 4.5, 3.721, 0.02, nmax=np.int64(40))
        assert type(p.nmax) is int and p.nmax == 40
        nmax = p.to_flat_dict()["nmax"]
        assert type(nmax) is int and nmax == 40

    @pytest.mark.parametrize("nmax", [20.7, "20", True])
    def test_flat_dict_rejects_non_integer_nmax(self, paper_params, nmax):
        flat = {**paper_params.to_flat_dict(), "nmax": nmax}
        with pytest.raises(ParameterDomainError, match="nmax must be an integer"):
            SystemParams.from_flat_dict(flat)

    def test_flat_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterDomainError, match="unknown"):
            SystemParams.from_flat_dict({"omega1_ghz": 5.0, "bogus": 1.0})

    def test_flat_dict_names_missing_keys(self):
        with pytest.raises(ParameterDomainError,
                           match=r"missing parameter keys: \['e0_ghz', 'lambda_ghz'\]"):
            SystemParams.from_flat_dict({"omega1_ghz": 5.0, "omega2_ghz": 3.75})

    @pytest.mark.parametrize("value", ["5", None, 5 + 0j])
    def test_rejects_non_real_value(self, value):
        with pytest.raises(ParameterDomainError, match="omega1 must be a real number"):
            SystemParams(value, 3.75, 3.721, 0.2)


# numpy's integer and floating scalars are numbers.Real; each is checked as a
# Python float or int, never against the double range in its own narrow type
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.float32(4.6), np.float16(4.5), np.int64(5)],
                         ids=["float32", "float16", "int64"])
def test_numpy_real_scalars_accepted_as_their_float(value):
    p = SystemParams(value, value, 3.721, 0.02)
    assert type(p.omega1) is float and p.omega1 == float(value)
    assert (p.omega2, p.e0, p.lambda_) == (float(value), 3.721, 0.02)
    state, expected = dressed_state(1, 1, p, value), dressed_state(1, 1, p, float(value))
    assert state.eigenvalue == expected.eigenvalue
    assert np.array_equal(state.vector, expected.vector)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.True_, True, "5", Decimal("5")],
                         ids=["np.bool_", "bool", "str", "Decimal"])
def test_non_real_scalars_refused(value):
    with pytest.raises(ParameterDomainError) as refused:
        SystemParams(value, 3.75, 3.721, 0.2)
    assert str(refused.value) == f"omega1 must be a real number, got {value!r}"
    p = SystemParams(5.0, 4.5, 3.721, 0.02)
    with pytest.raises(ParameterDomainError) as refused:
        dressed_state(1, 1, p, value)
    assert str(refused.value) == f"omega must be a real number, got {value!r}"


class TestValidateParams:
    def test_paper_point_flagged_near_resonant(self, paper_params):
        report = validate_params(paper_params)
        # lambda / |omega2 - E0| = 0.2 / 0.029
        assert report.eta_diff2 == pytest.approx(6.896551724137931, rel=1e-12)
        assert not report.perturbative_ok

    def test_weak_coupling_point_ok(self):
        p = SystemParams(5.0, 5.0, 3.721, 0.005)
        assert all(r < 0.004 for r in ratios(p))
        assert validate_params(p).perturbative_ok

    def test_ratios_linear_in_lambda(self):
        base = ratios(SystemParams(5.0, 4.5, 3.721, 0.1))
        half = ratios(SystemParams(5.0, 4.5, 3.721, 0.05))
        for b, h in zip(base, half):
            assert h == pytest.approx(b / 2, rel=1e-12)

    @given(k=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, k):
        p = SystemParams(5.0, 3.75, 3.721, 0.2)
        scaled = SystemParams(5.0 * k, 3.75 * k, 3.721 * k, 0.2 * k)
        for a, b in zip(ratios(p), ratios(scaled)):
            assert b == pytest.approx(a, rel=1e-12)

    def test_ratios_always_finite(self, paper_params):
        assert all(math.isfinite(r) and r > 0 for r in ratios(paper_params))
