import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dle3q import (NormalizationError, SingularityError, SystemParams,
                   compare_with_closed_forms, concurrence_pair_general,
                   entanglement_report, guard_detuning, monogamy_residual,
                   residual_tangle_general)
from dle3q.entangle import _EXCITATIONS, _PAIR_INDEX, _measures, _normalized, _wootters
from reference import reduced_pair

GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2)
W_STATE = np.zeros(8)
W_STATE[[4, 2, 1]] = 1 / math.sqrt(3)  # |100>, |010>, |001>


def random_pure_states(count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, 8)) + 1j * rng.normal(size=(count, 8))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class TestResidualTangleGeneral:
    def test_ghz(self):
        assert residual_tangle_general(GHZ) == pytest.approx(1.0, abs=1e-12)

    def test_w(self):
        assert residual_tangle_general(W_STATE) == pytest.approx(0.0, abs=1e-12)

    def test_product_state(self):
        product = np.zeros(8)
        product[0] = 1.0
        assert residual_tangle_general(product) == 0.0

    @given(scale=st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                                    allow_nan=False, allow_infinity=False))
    @settings(max_examples=50)
    def test_quartic_homogeneity(self, scale):
        rng = np.random.default_rng(7)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert residual_tangle_general(scale * a) == pytest.approx(
            abs(scale) ** 4 * residual_tangle_general(a), rel=1e-9)

    @pytest.mark.parametrize("count", [7, 9])
    def test_coefficient_count_enforced(self, count):
        a = [1.0] + [0.0] * (count - 2) + [5.0]
        with pytest.raises(ValueError, match=f"expected 8 coefficients.*got {count}"):
            residual_tangle_general(a)

    def test_permutation_invariance(self):
        for a in random_pure_states(20, seed=11):
            tensor = a.reshape(2, 2, 2)
            base = residual_tangle_general(a)
            for perm in itertools.permutations(range(3)):
                permuted = np.transpose(tensor, perm).reshape(8)
                assert residual_tangle_general(permuted) == pytest.approx(base, rel=1e-10, abs=1e-12)


def evaluate(p: SystemParams):
    return entanglement_report(p.omega1, p.omega2, p.e0, p.lambda_)


def closed_form_sector(n, p):
    """The eight coefficients a_ijk = A(n; i+j+k) as plain Python complex numbers.

    The closed-form table stops at n = 2; every sector past it vanishes.
    """
    a = evaluate(p).amplitudes
    return [complex(a[n][bin(bits).count("1")]) if n <= 2 else 0j for bits in range(8)]


class TestConditionalTangle:
    def test_paper_value(self, paper_params):
        tau = evaluate(paper_params).sectors.tau_abc
        assert tau[2] == pytest.approx(5.621236116202375e-08, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_zero_outside_two_photons(self, paper_params, n):
        if n <= 2:
            assert evaluate(paper_params).sectors.tau_abc[n] == 0.0
        else:  # the table stops at n = 2 because every higher sector vanishes
            assert residual_tangle_general(closed_form_sector(n, paper_params)) == 0.0

    def test_closed_form_equals_general_route(self):
        for omega2 in (3.0, 3.7, 3.73, 3.9, 4.5, 7.0):
            p = SystemParams(5.0, omega2, 3.721, 0.17)
            tau = evaluate(p).sectors.tau_abc
            for n in (0, 1, 2):
                general = residual_tangle_general(closed_form_sector(n, p))
                assert tau[n] == pytest.approx(general, rel=1e-12, abs=1e-300)

    def test_monotone_toward_resonance(self):
        # tau grows as omega2 approaches E0, on either side
        above = entanglement_report(5.0, np.array([3.73, 3.8, 4.0, 4.5]), 3.721, 0.2)
        tau = above.sectors.tau_abc[2]
        assert (tau[:-1] > tau[1:]).all()
        below = entanglement_report(5.0, np.array([3.0, 3.4, 3.6, 3.71]), 3.721, 0.2)
        tau = below.sectors.tau_abc[2]
        assert (tau[:-1] < tau[1:]).all()

    def test_singularity_guard(self):
        # the evaluator leaves the guard to its callers (report, validate)
        p = SystemParams(5.0, 3.721 * (1 + 1e-14), 3.721, 0.2)
        with pytest.raises(SingularityError):
            guard_detuning(p.omega2, p.e0)
        with pytest.raises(SingularityError):
            compare_with_closed_forms(p, [1.0, 0.5])


class TestPairConcurrence:
    def test_bell(self):
        s = 1 / math.sqrt(2)
        assert concurrence_pair_general(s, 0, 0, s) == pytest.approx(1.0, rel=1e-15)

    def test_product(self):
        assert concurrence_pair_general(1, 0, 0, 0) == 0.0

    def test_antidiagonal(self):
        for x in (0.3, 0.9, 2.0):
            assert concurrence_pair_general(0, x, x, 0) == pytest.approx(2 * x ** 2, rel=1e-15)

    @given(scale=st.floats(min_value=0.01, max_value=100))
    def test_quadratic_homogeneity(self, scale):
        a, b, c, d = 0.3 + 0.1j, -0.4, 0.2j, 0.8
        base = concurrence_pair_general(a, b, c, d)
        assert concurrence_pair_general(scale * a, scale * b, scale * c, scale * d) == \
            pytest.approx(scale ** 2 * base, rel=1e-12)


class TestConditionalConcurrence:
    def test_paper_values(self, paper_params):
        s = evaluate(paper_params).sectors
        assert s.c_ab1[0] == pytest.approx(0.2001158098927229, rel=1e-12)
        assert s.c_ab0[1] == pytest.approx(2.944557010226229e-05, rel=1e-12)
        assert s.c_ab0[2] == pytest.approx(2.33035409726501e-03, rel=1e-12)
        assert s.c_ab1[2] == pytest.approx(3.015226378471659e-06, rel=1e-12)

    @pytest.mark.parametrize("n,third_excited", [(0, False), (1, True), (3, False), (9, True)])
    def test_zero_entries(self, paper_params, n, third_excited):
        if n <= 2:
            s = evaluate(paper_params).sectors
            assert (s.c_ab1 if third_excited else s.c_ab0)[n] == 0.0
        else:  # the table stops at n = 2 because every higher sector vanishes
            a = closed_form_sector(n, paper_params)
            quad = (a[1], a[3], a[5], a[7]) if third_excited else (a[0], a[2], a[4], a[6])
            assert concurrence_pair_general(*quad) == 0.0

    def test_formula_path_matches_except_flagged_entry(self, paper_params):
        s = evaluate(paper_params).sectors
        for n in (0, 1, 2):
            a = closed_form_sector(n, paper_params)
            # coefficients a_ij0, i.e. a[000], a[100], a[010], a[110]
            formula = concurrence_pair_general(a[0], a[4], a[2], a[6])
            assert formula == pytest.approx(s.c_ab0[n], rel=1e-12, abs=1e-300)
        assert s.c_ab1_formula_path[0] == pytest.approx(s.c_ab1[0], rel=1e-12)
        assert s.c_ab1_formula_path[1] == 0.0
        # the documented factor-2 tension in the two-photon third-excited entry
        assert s.c_ab1_formula_path[2] == pytest.approx(2 * s.c_ab1[2], rel=1e-12)

    def test_report_flags_only_that_entry(self, paper_params):
        s = evaluate(paper_params).sectors
        assert s.formula_path_mismatch == [False, False, True]

    def test_report_normalized_variant_scaling(self, paper_params):
        cf = evaluate(paper_params)
        normalized = _measures(map(_normalized, cf.amplitudes))
        for n in (0, 1, 2):
            norm2 = sum(abs(c) ** 2 for c in closed_form_sector(n, paper_params))
            assert normalized.tau_abc[n] == pytest.approx(
                cf.sectors.tau_abc[n] / norm2 ** 2, rel=1e-12)
            assert normalized.c_ab1[n] == pytest.approx(cf.sectors.c_ab1[n] / norm2, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(sectors=st.lists(st.lists(
        st.one_of(st.just(0.0),
                  st.builds(math.copysign, st.floats(min_value=1e-320, max_value=1e300),
                            st.sampled_from([1.0, -1.0]))),
        min_size=4, max_size=4), min_size=3, max_size=3))
    def test_normalized_measures_always_finite(self, sectors):
        # the invariant report rests on: once the amplitudes are finite, every
        # normalized coefficient lies in [-1, 1], so no normalized measure can overflow
        normalized = _measures(map(_normalized, sectors))
        for key in ("tau_abc", "c_ab0", "c_ab1", "c_ab1_formula_path"):
            assert all(math.isfinite(x) for x in getattr(normalized, key)), key

    def test_complementarity_at_paper_point(self, paper_params):
        # the two-photon sector is pair-dominated, not three-way-dominated
        s = evaluate(paper_params).sectors
        assert s.tau_abc[2] < s.c_ab0[2]


class TestConditionalStateMapping:
    def test_sector_contract(self, paper_params):
        table = evaluate(paper_params).amplitudes
        for n in (0, 1, 2):
            cs = [table[n][m] for m in _EXCITATIONS]
            assert cs == closed_form_sector(n, paper_params)
            assert cs[0b111] == 0.0


class TestMixedConcurrence:
    """The Wootters solve _wootters, one matrix at a time (rho[None]) or stacked."""

    def test_reduces_to_pure_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.normal(size=4) + 1j * rng.normal(size=4)
            phi /= np.linalg.norm(phi)
            rho = np.outer(phi, phi.conj())
            expected = concurrence_pair_general(*phi)
            assert _wootters(rho[None])[0] == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_is_separable(self):
        assert _wootters(np.eye(4)[None] / 4) == [0.0]

    def test_werner_state_threshold(self):
        # Werner states are entangled iff p > 1/3, with C = (3p - 1)/2
        bell = np.zeros(4)
        bell[[0, 3]] = 1 / math.sqrt(2)
        proj = np.outer(bell, bell)
        for prob, expected in ((0.2, 0.0), (0.5, 0.25), (1.0, 1.0)):
            rho = prob * proj + (1 - prob) * np.eye(4) / 4
            assert _wootters(rho[None])[0] == pytest.approx(expected, abs=1e-12)

    def test_stacked_pairs_match_single_matrix_path(self):
        for psi in random_pure_states(200, seed=20261019):
            pairs = [reduced_pair(psi, (0, 1)), reduced_pair(psi, (0, 2))]
            m = psi[_PAIR_INDEX]  # the stack monogamy_residual solves
            np.testing.assert_allclose(m @ m.conj().swapaxes(1, 2), pairs, rtol=0, atol=1e-15)
            for value, rho in zip(_wootters(np.stack(pairs)), pairs):
                assert value == pytest.approx(_wootters(rho[None])[0], abs=1e-12)


class TestMonogamy:
    def test_ghz(self):
        assert monogamy_residual(GHZ) == pytest.approx(0.0, abs=1e-12)

    def test_w_state_pieces(self):
        # tau_A(BC) = 8/9, C_AB^2 = C_AC^2 = 4/9, tau_ABC = 0
        assert monogamy_residual(W_STATE) == pytest.approx(0.0, abs=1e-12)
        assert _wootters(reduced_pair(W_STATE, (0, 1))[None])[0] ** 2 == \
            pytest.approx(4 / 9, abs=1e-12)

    @pytest.mark.parametrize("ones", [(0,), (0, 6), (0, 5), (0, 3)],
                             ids=["000", "phiAB-0C", "phiAC-0B", "0A-phiBC"])
    def test_product_and_biseparable_states(self, ones):
        # rank-1 reduced pairs: their zero eigenvalues pass the clip before the square root
        psi = np.zeros(8)
        psi[list(ones)] = 1 / math.sqrt(len(ones))
        assert abs(monogamy_residual(psi)) <= 1e-12

    def test_thousand_random_states(self):
        for psi in random_pure_states(1000, seed=20260809):
            assert abs(monogamy_residual(psi)) <= 1e-10

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            monogamy_residual(GHZ * 1.001)

    @pytest.mark.parametrize("count", [7, 9])
    def test_coefficient_count_enforced(self, count):
        a = np.zeros(count)
        a[0] = 1.0
        with pytest.raises(ValueError):
            monogamy_residual(a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        state = GHZ.astype(complex)
        state[3] = bad
        with pytest.raises(NormalizationError):
            monogamy_residual(state)
