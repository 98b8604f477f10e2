import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dle3q import (ParameterDomainError, SingularityError, SystemParams,
                   compare_with_closed_forms, dressed_state, entanglement_report)
from dle3q.amplitudes import DLE_CHANNELS
from dle3q.cli import _report_doc
from dle3q.params import _channel
from dle3q.oracle import sudden_overlap
from reference import BasisState, amplitude_via_overlap, energy_second_order, evaluate


def closed_form(n, m, p: SystemParams) -> float:
    """A(n; m) read from the closed-form table, for n = 0..2."""
    return evaluate(p).amplitudes[n][m]


class TestClosedForms:
    def test_paper_point_values(self, paper_params):
        a = evaluate(paper_params).amplitudes
        assert [len(row) for row in a] == [4, 4, 4]
        assert a[2][0] == pytest.approx(-0.671014584236905, rel=1e-12)
        assert a[1][1] == pytest.approx(+0.003837028153549456, rel=1e-12)
        assert a[0][2] == pytest.approx(+0.3163193085259916, rel=1e-12)
        assert a[2][2] == pytest.approx(-0.001736440721266251, rel=1e-12)

    def test_zero_contract(self, paper_params):
        for n in range(3):
            for m in range(4):
                if (n, m) in DLE_CHANNELS:
                    continue
                assert closed_form(n, m, paper_params) == 0.0

    def test_three_qubit_channel_forbidden(self, paper_params):
        for n in range(3):
            assert closed_form(n, 3, paper_params) == 0.0

    def test_no_switch_means_no_single_excitation(self):
        p = SystemParams(5.0, 5.0, 3.721, 0.2)
        assert closed_form(1, 1, p) == 0.0

    def test_sign_flips_with_detuning_side(self):
        above = SystemParams(5.0, 4.0, 3.721, 0.2)
        below = SystemParams(5.0, 3.5, 3.721, 0.2)
        assert closed_form(0, 2, above) > 0 > closed_form(0, 2, below)
        assert closed_form(2, 0, above) < 0 < closed_form(2, 0, below)

    def test_singular_channels_guarded(self, paper_params):
        # validate, the closed forms' caller with a guard, refuses the point
        p = SystemParams(5.0, 3.721 * (1 + 1e-14), 3.721, 0.2)
        with pytest.raises(SingularityError):
            compare_with_closed_forms(p, [1.0, 0.5])
        # the regular channels still evaluate there
        assert closed_form(1, 1, p) != 0.0
        assert closed_form(2, 2, p) != 0.0


#: Every entry point that takes an (n, m) label, as f(n, m, p) -> float, and
#: (as closed_form) the label check in params that they share.
CHANNEL_ROUTES = {
    "closed_form": lambda n, m, p: _channel(n, m), "via_overlap": amplitude_via_overlap,
    "sudden_overlap": sudden_overlap,
    "dressed_state": lambda n, m, p: dressed_state(n, m, p, p.omega2).eigenvalue,
    "energy_second_order": lambda n, m, p: energy_second_order(n, m, p.omega2, p),
}


@pytest.mark.parametrize("route", list(CHANNEL_ROUTES))
@pytest.mark.parametrize("channel", [(1.5, 1), (1, 1.0), (np.float64(2.0), 0), ("1", 1),
                                     (None, 2), (True, 1), (1, False)])
def test_non_integer_channel_rejected(route, channel):
    p = SystemParams(5.0, 4.5, 3.721, 0.02)
    with pytest.raises(ParameterDomainError, match="n and m must be integers"):
        CHANNEL_ROUTES[route](*channel, p)


@pytest.mark.parametrize("route", list(CHANNEL_ROUTES))
@pytest.mark.parametrize("channel", [(-1, 0), (0, 4), (0, -1)])
def test_out_of_range_channel_rejected(route, channel):
    p = SystemParams(5.0, 4.5, 3.721, 0.02)
    with pytest.raises(ParameterDomainError, match="invalid channel"):
        CHANNEL_ROUTES[route](*channel, p)


@pytest.mark.parametrize("route", list(CHANNEL_ROUTES))
def test_numpy_integer_channel_accepted(route):
    p = SystemParams(5.0, 4.5, 3.721, 0.02)
    route = CHANNEL_ROUTES[route]
    assert route(np.int64(1), np.int8(1), p) == route(1, 1, p)


class TestOverlapRoute:
    @pytest.mark.parametrize("channel", DLE_CHANNELS)
    def test_matches_closed_form(self, paper_params, channel):
        # first-order-state overlaps reproduce the closed forms identically
        closed = closed_form(*channel, paper_params)
        via = amplitude_via_overlap(*channel, paper_params)
        assert via == pytest.approx(closed, rel=1e-12)

    def test_weak_coupling_example(self):
        p = SystemParams(5.0, 4.5, 3.721, 0.005)
        assert amplitude_via_overlap(1, 1, p) == pytest.approx(
            closed_form(1, 1, p), rel=1e-4)

    @pytest.mark.parametrize("target_qubits", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    def test_target_permutation_equality(self, paper_params, target_qubits):
        value = amplitude_via_overlap(1, 1, paper_params,
                                      target=BasisState(1, target_qubits))
        assert value == pytest.approx(closed_form(1, 1, paper_params), rel=1e-12)

    @pytest.mark.parametrize("target_qubits", [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    def test_two_excitation_targets_equal(self, paper_params, target_qubits):
        value = amplitude_via_overlap(0, 2, paper_params,
                                      target=BasisState(0, target_qubits))
        assert value == pytest.approx(closed_form(0, 2, paper_params), rel=1e-12)

    def test_survival_channel_excludes_unity(self, paper_params):
        # switch-induced part of the (0,0) overlap, O(lambda^2), not ~1
        value = amplitude_via_overlap(0, 0, paper_params)
        assert 0.0 < value < 0.01
        expected = 3 * 0.04 / ((3.75 + 3.721) * (5.0 + 3.721))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_forbidden_channels_vanish_at_first_order(self, paper_params):
        for channel in ((0, 1), (1, 0), (0, 3), (1, 3), (3, 1), (2, 1)):
            assert amplitude_via_overlap(*channel, paper_params) == pytest.approx(0.0, abs=1e-15)

    def test_mismatched_target_rejected(self, paper_params):
        with pytest.raises(ParameterDomainError):
            amplitude_via_overlap(1, 1, paper_params, target=BasisState(1, (1, 1, 0)))

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.25])
    def test_agreement_at_every_coupling_scale(self, scale):
        # the two routes agree identically, so the deviation trivially
        # satisfies the quadratic-shrink requirement at every scale
        p = SystemParams(5.0, 4.5, 3.721, 0.02 * scale)
        closed = closed_form(1, 1, p)
        assert abs(amplitude_via_overlap(1, 1, p) - closed) <= 1e-14 * abs(closed)


class TestTable:
    def test_broadcast_shape(self):
        a = entanglement_report(5.0, np.array([[3.0], [4.0]]), 3.721,
                                np.array([0.1, 0.2, 0.3])).amplitudes
        for n, m in DLE_CHANNELS:
            assert a[n][m].shape == (2, 3)
        assert a[1][1][1, 2] == entanglement_report(5.0, 4.0, 3.721, 0.3).amplitudes[1][1]
        # a channel outside DLE_CHANNELS is the float 0.0 at every shape
        assert [type(a[n][m]) for n in range(3) for m in range(4)].count(float) == 8
        assert a[0][0] == a[2][3] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(omega1=st.floats(0.5, 10.0), omega2=st.floats(0.5, 10.0),
           e0=st.floats(0.5, 10.0), lam=st.floats(1e-4, 0.05))
    def test_closed_form_reads_the_table(self, omega1, omega2, e0, lam):
        # validate's closed_form column is report's table at each scaled coupling, bit for bit
        for include_rwa in (False, True):
            try:
                p = SystemParams(omega1, omega2, e0, lam)
                rows = compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=include_rwa)
            except (ValueError, RuntimeError):  # a point validate refuses prints no row
                assume(False)
            for r in rows:
                lam_s = p.lambda_ * r["lambda_scale"]
                table = entanglement_report(p.omega1, p.omega2, p.e0, lam_s).amplitudes
                assert repr(r["closed_form"]) == repr(table[r["channel_n"]][r["channel_m"]])


class TestProbabilities:
    def test_paper_values(self, paper_params):
        w = evaluate(paper_params).w
        assert w[0] == pytest.approx(0.4502605722586265, rel=1e-12)
        assert w[1] == pytest.approx(1.472278505113115e-05, rel=1e-12)
        assert w[2] == pytest.approx(0.1000609201727399, rel=1e-12)
        assert w[3] == 0.0

    def test_composition(self, paper_params):
        cf = evaluate(paper_params)
        a, w = cf.amplitudes, cf.w
        assert w[1] == a[1][1] ** 2
        assert w[2] == a[0][2] ** 2 + a[2][2] ** 2
        assert w[0] == a[2][0] ** 2

    def test_nonnegative_on_generic_grid(self):
        omega2 = np.array([0.5, 2.0, 3.7, 3.8, 6.0, 12.0])
        w = entanglement_report(5.0, omega2, 3.721, 0.1).w
        assert [np.shape(v) for v in w] == [(6,), (6,), (6,), ()]
        assert all((v >= 0.0).all() for v in w[:3])
        assert w[3] == 0.0


class TestWitnessGap:
    def test_paper_point(self, paper_params):
        gap = evaluate(paper_params).product_gap
        assert gap == pytest.approx(0.1000609199559795, rel=1e-12)
        assert gap > 0

    def test_no_switch_still_gapped(self):
        cf = evaluate(SystemParams(5.0, 5.0, 3.721, 0.2))
        assert cf.w[1] == 0.0
        assert cf.product_gap == pytest.approx(cf.w[2], rel=1e-15)
        assert cf.w[2] > 0

    def test_vanishing_coupling(self):
        p = SystemParams(5.0, 3.75, 3.721, 1e-300)
        assert evaluate(p).product_gap == pytest.approx(0.0, abs=1e-290)


class TestReportRows:
    def test_rows_cover_channels(self, paper_params):
        rows = _report_doc(paper_params)["channels"]
        assert [(r["n"], r["m"]) for r in rows] == list(DLE_CHANNELS)
        for r in rows:
            assert r["probability"] == pytest.approx(r["amplitude"] ** 2, rel=1e-15)
