import itertools
import math

import numpy as np
import pytest

from dle3q import SystemParams
from reference import (BasisState, build_basis, dimension, hamiltonian_h0,
                       hamiltonian_total, hamiltonian_v, hamiltonian_v_rwa,
                       index_of, state_at)


def excitations(i: int) -> int:
    return state_at(i).excitation_count


class TestBasis:
    def test_nmax0_enumeration(self):
        basis = build_basis(0)
        assert len(basis) == 8
        assert basis[0] == BasisState(0, (0, 0, 0))
        assert basis[-1] == BasisState(0, (1, 1, 1))

    def test_nmax2_size(self):
        assert len(build_basis(2)) == 24

    def test_index_formula(self):
        assert index_of(BasisState(1, (1, 0, 0))) == 12

    def test_index_round_trip(self):
        for i, s in enumerate(build_basis(3)):
            assert index_of(s) == i
            assert state_at(i) == s

    def test_rejects_bad_states(self):
        with pytest.raises(ValueError):
            BasisState(-1, (0, 0, 0))
        with pytest.raises(ValueError):
            BasisState(0, (0, 2, 0))


@pytest.fixture
def p4():
    return SystemParams(5.0, 3.75, 3.721, 0.2, nmax=4)


class TestHamiltonians:
    def test_h0_diagonal_entries(self, p4):
        h0 = hamiltonian_h0(p4, omega=5.0)
        assert h0[0, 0] == 0.0
        i = index_of(BasisState(1, (1, 1, 0)))
        assert h0[i, i] == pytest.approx(5.0 + 2 * 3.721)
        j = index_of(BasisState(3, (1, 1, 1)))
        assert h0[j, j] == pytest.approx(3 * 5.0 + 3 * 3.721)
        assert np.count_nonzero(h0 - np.diag(np.diag(h0))) == 0

    def test_v_elements(self, p4):
        v = hamiltonian_v(p4)
        assert v[index_of(BasisState(1, (1, 0, 0))), 0] == pytest.approx(0.2)
        assert v[index_of(BasisState(2, (1, 1, 0))),
                 index_of(BasisState(1, (1, 0, 0)))] == pytest.approx(0.2 * math.sqrt(2))
        # V cannot move an excitation between qubits
        assert v[index_of(BasisState(1, (0, 1, 0))),
                 index_of(BasisState(1, (1, 0, 0)))] == 0.0

    def test_v_changes_total_excitation_by_two(self, p4):
        v = hamiltonian_v(p4)
        for i, j in zip(*np.nonzero(v)):
            total_i = state_at(i).photons + excitations(i)
            total_j = state_at(j).photons + excitations(j)
            assert abs(total_i - total_j) == 2

    def test_v_magnitudes(self, p4):
        v = hamiltonian_v(p4)
        for i, j in zip(*np.nonzero(v)):
            n_hi = max(state_at(i).photons, state_at(j).photons)
            assert abs(v[i, j]) == pytest.approx(p4.lambda_ * math.sqrt(n_hi))

    def test_v_rwa_elements(self, p4):
        vr = hamiltonian_v_rwa(p4)
        assert vr[index_of(BasisState(0, (1, 0, 0))),
                  index_of(BasisState(1, (0, 0, 0)))] == pytest.approx(0.2)
        assert vr[index_of(BasisState(1, (1, 0, 0))), 0] == 0.0

    def test_v_rwa_conserves_excitation(self, p4):
        vr = hamiltonian_v_rwa(p4)
        for i, j in zip(*np.nonzero(vr)):
            assert state_at(i).photons + excitations(i) == state_at(j).photons + excitations(j)

    def test_v_rwa_coupling_counts(self, p4):
        # row pattern: each ground qubit gives one excitation-raising partner
        # (one photon down), each excited qubit one lowering partner (one up)
        vr = hamiltonian_v_rwa(p4)
        for i, s in enumerate(build_basis(p4.nmax)):
            partners = np.nonzero(vr[i])[0]
            raised = [j for j in partners if excitations(j) == s.excitation_count + 1]
            lowered = [j for j in partners if excitations(j) == s.excitation_count - 1]
            assert len(raised) == ((3 - s.excitation_count) if s.photons >= 1 else 0)
            assert len(lowered) == (s.excitation_count if s.photons < p4.nmax else 0)

    def test_total_reduces_to_h0_at_zero_coupling(self):
        p0 = SystemParams(5.0, 3.75, 3.721, 1e-300, nmax=3)
        h = hamiltonian_total(p0, omega=5.0)
        assert np.allclose(h, hamiltonian_h0(p0, 5.0), atol=1e-290)

    def test_total_symmetric_exactly(self, p4):
        for rwa in (False, True):
            h = hamiltonian_total(p4, omega=4.2, include_rwa=rwa)
            assert np.array_equal(h, h.T)

    def test_parity_block_structure(self, p4):
        # H0 + V couples only states of equal (n + excitation) parity
        h = hamiltonian_total(p4, omega=5.0, include_rwa=False)
        for i, j in zip(*np.nonzero(h)):
            pi = (state_at(i).photons + excitations(i)) % 2
            pj = (state_at(j).photons + excitations(j)) % 2
            assert pi == pj

    def test_permutation_symmetry(self, p4):
        h = hamiltonian_total(p4, omega=5.0, include_rwa=True)
        dim = dimension(p4.nmax)
        for perm in itertools.permutations(range(3)):
            mapping = np.empty(dim, dtype=int)
            for i in range(dim):
                s = state_at(i)
                mapping[i] = index_of(BasisState(s.photons, tuple(s.qubits[k] for k in perm)))
            assert np.array_equal(h, h[np.ix_(mapping, mapping)])

