import itertools
import math

import numpy as np
import pytest

from dle3q import (ParameterDomainError, SingularityError, SystemParams,
                   TruncationHeadroomError)
from dle3q.oracle import dressed_state
from reference import (BasisState, diagonalize_total, dicke, energy_second_order,
                       energy_unperturbed, hamiltonian_v, hamiltonian_v_rwa, index_of,
                       lamb_shift, padded, perturbed_state, state_at,
                       symmetric_class_shift, symmetrizer)

W1, W2, E0 = 5.0, 3.75, 3.721


class TestUnperturbedEnergy:
    def test_vacuum(self):
        assert energy_unperturbed(BasisState(0, (0, 0, 0)), W1, E0) == 0.0

    def test_two_photons_two_qubits(self):
        # 2*5 + 2*3.721
        s = BasisState(2, (1, 0, 1))
        assert energy_unperturbed(s, W1, E0) == pytest.approx(17.442, rel=1e-12)

    def test_class_members_degenerate(self):
        values = {energy_unperturbed(BasisState(1, q), W1, E0)
                  for q in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]}
        assert len(values) == 1


class TestLambShift:
    def test_ground_class_at_omega1(self, paper_params):
        shift = lamb_shift(0, W1, paper_params)
        assert shift == pytest.approx(-1.37598899208806e-2, rel=1e-12)
        assert shift < 0

    def test_all_excited_near_resonance(self, paper_params):
        # -3 * 0.04 / 0.029, large because omega2 is close to E0
        assert lamb_shift(3, W2, paper_params) == pytest.approx(-4.137931034, rel=1e-9)

    def test_ground_class_negative_for_any_omega(self, paper_params):
        for omega in (0.1, 1.0, 3.0, 7.7, 40.0):
            assert lamb_shift(0, omega, paper_params) < 0

    def test_quadratic_in_lambda(self):
        p = SystemParams(W1, W2, E0, 0.2)
        half = SystemParams(W1, W2, E0, 0.1)
        for m in range(4):
            assert lamb_shift(m, W1, half) == pytest.approx(
                lamb_shift(m, W1, p) / 4, rel=1e-12)

    def test_singularity_guard(self, paper_params):
        for m in (1, 2, 3):
            with pytest.raises(SingularityError):
                lamb_shift(m, E0 * (1 + 1e-14), paper_params)
        lamb_shift(0, E0, paper_params)  # ground class is regular at resonance

    @pytest.mark.parametrize("m", [1.0, 1.5, "1", None, 4, -1, True])
    def test_invalid_excitation_count_rejected(self, paper_params, m):
        with pytest.raises(ParameterDomainError) as info:
            lamb_shift(m, W1, paper_params)
        assert str(info.value) == (
            f"invalid excitation count m={m!r}: must be an integer in 0..3")

    def test_numpy_integer_excitation_count(self, paper_params):
        assert lamb_shift(np.int64(1), W1, paper_params) == lamb_shift(1, W1, paper_params)


class TestSecondOrderEnergy:
    def test_ground_equals_lamb_shift_at_n0(self, paper_params):
        s = BasisState(0, (0, 0, 0))
        assert energy_second_order(*dicke(s), W1, paper_params) == pytest.approx(
            lamb_shift(0, W1, paper_params), rel=1e-12)

    def test_zero_coupling_is_unperturbed(self):
        p = SystemParams(W1, W2, E0, 1e-300)
        s = BasisState(3, (1, 1, 0))
        assert energy_second_order(*dicke(s), W1, p) == pytest.approx(
            energy_unperturbed(s, W1, E0), abs=1e-290)

    def test_all_excited_at_one_photon(self, paper_params):
        # 5 + 11.163 - 0.12*(7.442/11.154159 + 1/1.279)
        s = BasisState(1, (1, 1, 1))
        assert energy_second_order(*dicke(s), W1, paper_params) == pytest.approx(
            15.9891132910155, rel=1e-12)

    def test_decomposition_identity(self, paper_params):
        # E2 = E0 + n-dependent dynamic part + Lamb shift, class by class
        for m, q in [(0, (0, 0, 0)), (1, (0, 1, 0)), (2, (1, 0, 1)), (3, (1, 1, 1))]:
            for n in (0, 1, 4):
                s = BasisState(n, q)
                dyn = (3 - 2 * m) * 2 * E0 * n * 0.04 / (W1 ** 2 - E0 ** 2)
                expected = energy_unperturbed(s, W1, E0) + dyn + lamb_shift(m, W1, paper_params)
                assert energy_second_order(*dicke(s), W1, paper_params) == pytest.approx(
                    expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_degenerate_class_centroid_at_two_photons(self, m):
        # the per-label energy of a degenerate class is the mean of its three
        # exact eigenvalues under H0 + V + V_RWA, at criterion 9b's point
        p = SystemParams(W1, W2, E0, 0.005, nmax=20)
        w, v = diagonalize_total(p, W1, include_rwa=True)
        class_idx = [index_of(BasisState(2, q)) for q in itertools.product((0, 1), repeat=3)
                     if sum(q) == m]
        class_weight = (np.abs(v[class_idx, :]) ** 2).sum(axis=0)
        members = np.argsort(class_weight)[::-1][:3]
        assert abs(float(w[members].mean()) - energy_second_order(2, m, W1, p)) <= 1e-8


class TestPerturbedState:
    def test_ground_state_sidebands(self, paper_params):
        ps = perturbed_state(BasisState(0, (0, 0, 0)), W1, paper_params)
        coef = -0.2 / (W1 + E0)
        for q in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert ps[index_of(BasisState(1, q))] == pytest.approx(coef, rel=1e-12)
        assert np.count_nonzero(ps) == 4  # no n-1 sidebands from the vacuum
        assert ps[index_of(BasisState(0, (0, 0, 0)))] == 1.0

    def test_vanishing_coupling_identity(self):
        # lambda = 0 itself is rejected by the constructor; the limit is exact
        p = SystemParams(W1, W2, E0, 1e-300)
        s = BasisState(1, (1, 0, 0))
        ps = perturbed_state(s, W1, p)
        assert ps[index_of(s)] == 1.0
        assert ps @ ps == pytest.approx(1.0, abs=1e-280)

    def test_ground_norm(self, paper_params):
        ps = perturbed_state(BasisState(0, (0, 0, 0)), W1, paper_params)
        assert ps @ ps == pytest.approx(1.00157778808862, rel=1e-12)

    def test_support_pattern(self, paper_params):
        # every sideband differs by exactly one qubit flip and one photon
        for s in [BasisState(1, (1, 0, 0)), BasisState(2, (1, 1, 0)), BasisState(1, (1, 1, 1))]:
            ps = perturbed_state(s, W2, paper_params)
            support = [state_at(i) for i in np.flatnonzero(ps)]
            assert len(support) <= 7
            for t in support:
                if t == s:
                    continue
                assert abs(t.photons - s.photons) == 1
                flips = sum(a != b for a, b in zip(t.qubits, s.qubits))
                assert flips == 1
                assert abs(t.excitation_count - s.excitation_count) == 1

    def test_one_excited_sideband_coefficients(self, paper_params):
        # |1;100>: raise partners at n=0 carry 1/(omega-E0), own lowering at
        # n=0 carries 1/(omega+E0); sqrt(2) enhancement on the n=2 side
        lam = 0.2
        ps = perturbed_state(BasisState(1, (1, 0, 0)), W1, paper_params)
        assert ps[index_of(BasisState(0, (1, 1, 0)))] == pytest.approx(lam / (W1 - E0), rel=1e-12)
        assert ps[index_of(BasisState(0, (1, 0, 1)))] == pytest.approx(lam / (W1 - E0), rel=1e-12)
        assert ps[index_of(BasisState(0, (0, 0, 0)))] == pytest.approx(lam / (W1 + E0), rel=1e-12)
        assert ps[index_of(BasisState(2, (1, 1, 0)))] == pytest.approx(
            -lam * math.sqrt(2) / (W1 + E0), rel=1e-12)
        assert ps[index_of(BasisState(2, (0, 0, 0)))] == pytest.approx(
            -lam * math.sqrt(2) / (W1 - E0), rel=1e-12)

    def test_headroom_guard(self):
        p = SystemParams(W1, W2, E0, 0.2, nmax=2)
        with pytest.raises(TruncationHeadroomError):
            perturbed_state(BasisState(2, (0, 0, 0)), W1, p)

    def test_singularity_guard(self, paper_params):
        with pytest.raises(SingularityError):
            perturbed_state(BasisState(1, (1, 0, 0)), E0 * (1 + 1e-14), paper_params)


class TestCouplingInsideMultiplets:
    def test_v_vanishes_within_degenerate_classes(self):
        # the premise that makes per-class energy formulas meaningful at
        # first order: no direct coupling inside any excitation class
        p = SystemParams(W1, W2, E0, 0.2, nmax=3)
        for matrix in (hamiltonian_v(p), hamiltonian_v_rwa(p)):
            for n in range(4):
                for qa in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                    for qb in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                        ia, ib = index_of(BasisState(n, qa)), index_of(BasisState(n, qb))
                        assert matrix[ia, ib] == 0.0


class TestOracleAgreement:
    @pytest.mark.parametrize("label", [BasisState(0, (0, 0, 0)), BasisState(1, (1, 1, 1))])
    def test_nondegenerate_classes_quartic_error(self, label):
        # halving lambda drops the energy error by ~16x for m = 0, 3
        errs = []
        for lam in (0.01, 0.005):
            p = SystemParams(W1, W2, E0, lam, nmax=20)
            ds = dressed_state(*dicke(label), p, W1, include_rwa=True)
            errs.append(abs(ds.eigenvalue - energy_second_order(*dicke(label), W1, p)))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0

    @pytest.mark.parametrize("label,m", [
        (BasisState(1, (1, 0, 0)), 1), (BasisState(1, (1, 1, 0)), 2)])
    def test_degenerate_classes_match_with_cross_term(self, label, m):
        # the closed-form energies carry the full-coupling content, so the
        # comparison Hamiltonian is H0 + V + V_RWA; the symmetric combination
        # picks up degenerate second-order cross terms, and adding them
        # restores lambda^4 agreement
        p = SystemParams(W1, W2, E0, 0.005, nmax=20)
        ds = dressed_state(*dicke(label), p, W1, include_rwa=True)
        predicted = (energy_second_order(*dicke(label), W1, p)
                     + symmetric_class_shift(m, W1, p, True))
        assert abs(ds.eigenvalue - predicted) <= 1e-8
        # and without the cross term the gap is the documented 2*W_ab
        assert abs(ds.eigenvalue - energy_second_order(*dicke(label), W1, p)) == pytest.approx(
            abs(symmetric_class_shift(m, W1, p, True)), rel=1e-2)

    def test_one_photon_one_qubit_coincidence_without_rwa(self):
        # at (n, m) = (1, 1) the rotating-coupling second-order contributions
        # cancel, so even the H0 + V eigenvalue lands on the closed form once
        # the degenerate cross term is added
        p = SystemParams(W1, W2, E0, 0.005, nmax=20)
        label = BasisState(1, (1, 0, 0))
        ds = dressed_state(*dicke(label), p, W1, include_rwa=False)
        predicted = (energy_second_order(*dicke(label), W1, p)
                     + symmetric_class_shift(1, W1, p, False))
        assert abs(ds.eigenvalue - predicted) <= 1e-8

    def test_perturbed_state_matches_eigenvector(self, weak_params):
        # symmetrized first-order state vs exact eigenvector of H0 + V + V_RWA
        p = weak_params
        labels = [BasisState(1, q) for q in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
        vec = sum(perturbed_state(s, W1, p) for s in labels)
        vec = vec / np.linalg.norm(vec)
        ds = dressed_state(*dicke(labels[0]), p, W1, include_rwa=True)
        assert np.linalg.norm(vec - symmetrizer(p.nmax) @ padded(ds.vector, p.nmax)) <= 1e-4
