import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dle3q import (DegeneracyAmbiguityError, ParameterDomainError,
                   SolverDiagnosticsError, SystemParams, TruncationHeadroomError,
                   compare_with_closed_forms, dressed_state, entanglement_report,
                   sudden_overlap)
from dle3q import oracle
from dle3q.amplitudes import CLASS_MULTIPLICITY, DLE_CHANNELS
from dle3q.cli import main
from dle3q.oracle import _block_hamiltonian, _symmetric_eig, shrink_factors
from reference import (CLASS_REPRESENTATIVE, BasisState, build_basis, diagonalize_total,
                       dicke, energy_unperturbed, hamiltonian_total, index_of, padded,
                       state_at, symmetrizer)
from test_golden import CLOSED_FORM_NOT_FINITE

W1, E0 = 5.0, 3.721


@pytest.fixture
def tiny_coupling():
    return SystemParams(W1, 4.5, E0, 1e-300, nmax=8)


class TestDiagonalizeTotal:
    def test_vanishing_coupling_spectrum(self, tiny_coupling):
        w, _ = diagonalize_total(tiny_coupling, omega=W1)
        expected = sorted(energy_unperturbed(s, W1, E0) for s in build_basis(8))
        assert np.allclose(w, expected, atol=1e-9)

    def test_ground_level_repulsion(self, paper_params):
        w, _ = diagonalize_total(paper_params, omega=W1)
        assert w[0] < 0.0
        # second-order prediction -3 lam^2 / (omega + E0)
        assert w[0] == pytest.approx(-3 * 0.04 / (W1 + E0), rel=5e-3)

    def test_orthonormal_and_ascending(self, paper_params):
        w, v = diagonalize_total(paper_params, omega=W1, include_rwa=True)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1e-10

    def test_spectrum_invariant_under_qubit_relabeling(self):
        p = SystemParams(W1, 3.75, E0, 0.2, nmax=3)
        w, _ = diagonalize_total(p, omega=3.75)
        # conjugate by the (q1 <-> q3) relabeling permutation
        h = hamiltonian_total(p, 3.75)
        perm = [index_of(BasisState(state_at(i).photons, state_at(i).qubits[::-1]))
                for i in range(h.shape[0])]
        w_perm = np.linalg.eigvalsh(h[np.ix_(perm, perm)])
        assert np.allclose(w, w_perm, atol=1e-10)

    def test_dimension_cap(self):
        p = SystemParams(W1, 3.75, E0, 0.2, nmax=1300)
        with pytest.raises(SolverDiagnosticsError, match="dimension"):
            diagonalize_total(p, omega=W1)


class TestSymmetrizer:
    def test_isometry(self):
        s = symmetrizer(5)
        assert np.allclose(s.T @ s, np.eye(4 * 6), atol=1e-14)

    def test_column_weights(self):
        s = symmetrizer(2)
        col = s[:, 4 * 1 + 2]  # (n=1, m=2) symmetric combination
        nz = np.nonzero(col)[0]
        assert len(nz) == 3
        assert np.allclose(col[nz], 1 / math.sqrt(3))


def _projected(p, omega, rwa):
    """Product-space H projected onto the symmetric sector: the reference build."""
    s = symmetrizer(p.nmax)
    return s, s.T @ hamiltonian_total(p, omega, include_rwa=rwa) @ s


def _reference_dressed(label, p, omega, rwa):
    """Eigenvalue and full-basis vector matched in the whole projected sector."""
    s, h_sym = _projected(p, omega, rwa)
    w, v = np.linalg.eigh(h_sym)
    target = 4 * label.photons + label.excitation_count
    best = int(np.argmax(np.abs(v[target])))
    return w[best], s @ (v[:, best] * np.sign(v[target, best]))


class TestBlockSolve:
    @pytest.mark.parametrize("rwa", [False, True])
    def test_direct_build_equals_projection(self, rwa):
        # every block of the direct Dicke build equals the projected
        # product-space H on its rows, and no element couples two blocks
        p = SystemParams(W1, 3.75, E0, 0.2, nmax=9)
        _, h_sym = _projected(p, 3.75, rwa)
        n, m = np.divmod(np.arange(h_sym.shape[0]), 4)
        blocks = (n + m) % 2 if rwa else n - m
        assert np.all(h_sym[blocks[:, None] != blocks[None, :]] == 0.0)
        for block in np.unique(blocks):
            rows, h = _block_hamiltonian(3.75, E0, 0.2, 9, rwa, int(block))
            assert np.array_equal(rows, np.flatnonzero(blocks == block))
            assert np.abs(h - h_sym[np.ix_(rows, rows)]).max() <= 1e-13

    @pytest.mark.parametrize("rwa,size", [(False, 4), (True, 2 * (160 + 1))])
    def test_ground_block_size(self, rwa, size):
        _, h = _block_hamiltonian(W1, E0, 0.02, 160, rwa, 0)
        assert h.shape == (size, size)

    @settings(max_examples=40, deadline=None)
    @given(omega1=st.floats(4.8, 5.2), omega2=st.floats(4.3, 4.7),
           e0=st.floats(3.6, 3.8), lam=st.floats(1e-3, 1e-2),
           nmax=st.integers(6, 12), rwa=st.booleans())
    def test_matches_projected_product_space(self, omega1, omega2, e0, lam, nmax, rwa):
        p = SystemParams(omega1, omega2, e0, lam, nmax=nmax)
        s = symmetrizer(nmax)
        ground = BasisState(0, (0, 0, 0))
        g_val, g_vec = _reference_dressed(ground, p, omega1, rwa)
        ds = dressed_state(*dicke(ground), p, omega1, include_rwa=rwa)
        assert abs(ds.eigenvalue - g_val) <= 1e-10
        assert np.abs(s @ padded(ds.vector, nmax) - g_vec).max() <= 1e-10
        for n, m in DLE_CHANNELS:
            label = BasisState(n, CLASS_REPRESENTATIVE[m])
            t_val, t_vec = _reference_dressed(label, p, omega2, rwa)
            ds = dressed_state(n, m, p, omega2, include_rwa=rwa)
            assert abs(ds.eigenvalue - t_val) <= 1e-10
            assert np.abs(s @ padded(ds.vector, nmax) - t_vec).max() <= 1e-10
            reference = float(t_vec @ g_vec) / math.sqrt(CLASS_MULTIPLICITY[m])
            assert abs(sudden_overlap(n, m, p, include_rwa=rwa) - reference) <= 1e-12


def _full_block_state(n, m, p, omega, rwa):
    """(eigenvalue, Dicke vector) of |n; m> from one eigh of its whole nmax block.

    The block is built here from the matrix elements in the oracle module
    docstring.  None when the match is not dominant or not separated from
    the runner-up by 1e-6, where dressed_state must raise.
    """
    states = [(k, j) for k in range(p.nmax + 1) for j in range(4)
              if ((k + j) % 2 == (n + m) % 2 if rwa else k - j == n - m)]
    index = {state: i for i, state in enumerate(states)}
    h = np.diag([k * omega + j * p.e0 for k, j in states])
    for (k, j), i in index.items():
        if j == 3:
            continue
        spin = math.sqrt((j + 1) * (3 - j))
        up = index.get((k + 1, j + 1))
        if up is not None:
            h[i, up] = h[up, i] = p.lambda_ * math.sqrt(k + 1) * spin
        down = index.get((k - 1, j + 1))
        if rwa and down is not None:
            h[i, down] = h[down, i] = p.lambda_ * math.sqrt(k) * spin
    w, v = np.linalg.eigh(h)
    target = index[(n, m)]
    overlaps = np.abs(v[target])
    first, second = np.sort(overlaps)[::-1][:2]
    if first <= 1 / math.sqrt(2) or first - second < 1e-6:
        return None
    col = int(np.argmax(overlaps))
    vector = np.zeros(4 * (p.nmax + 1))
    vector[[4 * k + j for k, j in states]] = v[:, col] * np.sign(v[target, col])
    return w[col], vector


def _record_calls(monkeypatch, name, keep):
    """keep(arguments) of each call the oracle makes to its function name, in call order."""
    calls = []
    real = getattr(oracle, name)

    def recording(*args):
        calls.append(keep(args))
        return real(*args)

    monkeypatch.setattr(oracle, name, recording)
    return calls


@pytest.fixture
def solved_cutoffs(monkeypatch):
    """The photon cutoffs dressed_state diagonalizes at, in call order."""
    return _record_calls(monkeypatch, "_symmetric_eig", lambda args: args[3])


@pytest.fixture
def solved_rungs(monkeypatch):
    """The arguments of each block solve, in call order."""
    return _record_calls(monkeypatch, "_symmetric_eig", lambda args: args)


GOLDEN_POINT = ["--omega1-ghz", "5", "--omega2-ghz", "4.5", "--e0-ghz", "3.721",
                "--lambda-ghz", "0.02"]
PAPER_POINT = ["--omega1-ghz", "5", "--omega2-ghz", "3.75", "--e0-ghz", "3.721",
               "--lambda-ghz", "0.2"]


class TestCutoffLadder:
    @pytest.mark.parametrize("nmax,n,ladder", [
        (160, 2, [20, 40, 80, 160]), (100, 2, [20, 40, 80, 100]), (20, 2, [20]),
        (12, 0, [12]), (160, 17, [40, 80, 160]), (21, 17, [21])])
    def test_ladder(self, nmax, n, ladder):
        assert list(oracle._cutoffs(nmax, n)) == ladder

    @pytest.mark.parametrize("rwa", [False, True])
    def test_truncation_residual_is_the_next_layer(self, rwa):
        # strong coupling, so the n = cutoff components are far from zero
        cutoff, lam = 6, 1.0
        largest = 0.0
        for block in ((0, 1) if rwa else (3, 4, 5, 6)):
            w, v, rows, edge = _symmetric_eig(4.5, E0, lam, cutoff, rwa, block, 160)
            assert edge.base is None  # the rung store keeps no larger matrix alive
            big_rows, h = _block_hamiltonian(4.5, E0, lam, cutoff + 3, rwa, block)
            padded = np.zeros((big_rows.size, w.size))
            padded[np.searchsorted(big_rows, rows)] = v
            outside = big_rows >= 4 * (cutoff + 1)
            expected = np.linalg.norm((h @ padded)[outside], axis=0)
            got = [np.linalg.norm(edge @ v[:, k]) for k in range(w.size)]
            assert np.allclose(got, expected, rtol=1e-12, atol=0)
            largest = max(largest, *got)
        assert largest > 0.1

    def test_certified_cutoff_shared_across_nmax(self, solved_cutoffs):
        p20 = SystemParams(W1, 4.5, E0, 0.02, nmax=20)
        ds20 = dressed_state(1, 1, p20, 4.5, include_rwa=True)
        for nmax in (21, 57, 160, 100_000):
            ds = dressed_state(1, 1, SystemParams(W1, 4.5, E0, 0.02, nmax=nmax), 4.5,
                               include_rwa=True)
            assert ds.eigenvalue == ds20.eigenvalue
            assert np.array_equal(ds.vector[:ds20.vector.size], ds20.vector)
            assert not ds.vector[ds20.vector.size:].any()
        assert solved_cutoffs == [20] * 5

    @pytest.mark.parametrize("n,m", [(0, 0), *DLE_CHANNELS])
    def test_v_only_blocks_bit_for_bit(self, n, m):
        # H0 + V blocks hold no state at the first cutoff, so they certify
        # with a zero residual and equal one eigh of the nmax block exactly
        p = SystemParams(W1, 4.5, E0, 0.2, nmax=160)
        rows, h = _block_hamiltonian(4.5, E0, 0.2, 160, False, n - m)
        w, v = np.linalg.eigh(h)
        target = int(np.searchsorted(rows, 4 * n + m))
        col = int(np.argmax(np.abs(v[target])))
        ds = dressed_state(n, m, p, 4.5)
        assert ds.eigenvalue == w[col]
        assert np.array_equal(ds.vector[rows], v[:, col] * np.sign(v[target, col]))

    def test_truncation_residual_climbs_the_ladder(self, solved_cutoffs):
        # at lam 2 with V_RWA the ground state keeps its label (overlap 0.72)
        # at 20 photons, but its 20-photon tail still couples onward, with a
        # residual of about 1e-6; 40 photons are below rounding
        p = SystemParams(W1, 4.5, E0, 2.0, nmax=160)
        w, v, rows, _ = _symmetric_eig(W1, E0, 2.0, 20, True, 0, p.nmax)
        assert np.abs(v[0]).max() > 0.7 + 1e-6
        ds = dressed_state(0, 0, p, W1, include_rwa=True)
        assert solved_cutoffs == [20, 40]
        g_val, g_vec = _full_block_state(0, 0, p, W1, True)
        assert abs(ds.eigenvalue - g_val) <= 1e-12 * abs(g_val)
        assert np.abs(padded(ds.vector, p.nmax) - g_vec).max() <= 1e-12
        rung_20 = np.zeros_like(g_vec)
        rung_20[rows] = v[:, np.argmax(np.abs(v[0]))]
        assert np.abs(np.abs(rung_20) - np.abs(g_vec)).max() > 1e-8

    @settings(max_examples=30, deadline=None)
    @given(omega1=st.floats(4.8, 5.2), omega2=st.floats(4.3, 4.7),
           e0=st.floats(3.6, 3.8), lam=st.floats(1e-3, 0.2),
           nmax=st.integers(24, 96), rwa=st.booleans())
    def test_matches_full_block(self, omega1, omega2, e0, lam, nmax, rwa):
        p = SystemParams(omega1, omega2, e0, lam, nmax=nmax)
        g_val, g_vec = _full_block_state(0, 0, p, omega1, rwa)
        ds = dressed_state(0, 0, p, omega1, include_rwa=rwa)
        assert abs(ds.eigenvalue - g_val) <= 1e-12 * abs(g_val) + 1e-12
        assert np.abs(padded(ds.vector, p.nmax) - g_vec).max() <= 1e-12
        for n, m in DLE_CHANNELS:
            full = _full_block_state(n, m, p, omega2, rwa)
            if full is None:
                with pytest.raises(DegeneracyAmbiguityError):
                    dressed_state(n, m, p, omega2, include_rwa=rwa)
                continue
            t_val, t_vec = full
            ds = dressed_state(n, m, p, omega2, include_rwa=rwa)
            assert abs(ds.eigenvalue - t_val) <= 1e-12 * abs(t_val)
            assert np.abs(padded(ds.vector, p.nmax) - t_vec).max() <= 1e-12
            reference = float(t_vec @ g_vec) / math.sqrt(CLASS_MULTIPLICITY[m])
            assert abs(sudden_overlap(n, m, p, include_rwa=rwa) - reference) <= 1e-15

    def test_lost_label_still_reported_from_nmax(self, solved_cutoffs, capsys):
        code = main(["validate", *PAPER_POINT, "--nmax", "160"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "solver error: best overlap 0.6296 with |n=2, m=0> is not dominant "
            "(needs > 0.7071); state has lost its label character\n")
        assert solved_cutoffs[-4:] == [20, 40, 80, 160]

    def test_lost_v_only_label_reported_after_one_solve(self, monkeypatch, capsys):
        # each H0+V label is solved once, on its own block, whatever nmax is:
        # the ground block at omega1, then the n - m = 2, 0, -2 blocks at
        # omega2; (2;2) shares the n - m = 0 block and has lost its label
        built = _record_calls(monkeypatch, "_block_hamiltonian", lambda args: args[3])
        for nmax in (160, 10 ** 6):  # the first run also warms the CLI's one-time imports
            built.clear()
            tracemalloc.start()
            try:
                code = main(["validate", "--omega1-ghz", "5", "--omega2-ghz", "4.5",
                             "--e0-ghz", "3.721", "--lambda-ghz", "2", "--rwa", "off",
                             "--nmax", str(nmax)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err == (
                "solver error: best overlap 0.6851 with |n=2, m=2> is not dominant "
                "(needs > 0.7071); state has lost its label character\n")
            assert built == [4, 6, 4, 2]
        assert peak < 1024 * 1024  # a climb to 10**6 photons peaks near 100 MB

    def test_nothing_outlives_a_call(self):
        # the lost label climbs to the 160-photon rung; once the error is
        # handled, no rung of that call is still allocated
        p = SystemParams(W1, 3.75, E0, 0.2, nmax=160)
        message = None
        tracemalloc.start()
        try:
            try:
                dressed_state(2, 0, p, 3.75, include_rwa=True)
            except DegeneracyAmbiguityError as exc:
                message = str(exc)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert message == ("best overlap 0.6296 with |n=2, m=0> is not dominant "
                           "(needs > 0.7071); state has lost its label character")
        assert kept < 64 * 1024

    def test_block_over_limit_refused(self, monkeypatch, solved_cutoffs, capsys):
        monkeypatch.setattr(oracle, "MAX_BLOCK_STATES", 50)
        p = SystemParams(W1, 3.75, E0, 0.2, nmax=160)
        with pytest.raises(ParameterDomainError, match="nmax=160 is too large"):
            dressed_state(2, 0, p, 3.75, include_rwa=True)
        assert solved_cutoffs == [20]  # 42 states; the 40-photon block has 82
        code = main(["validate", *PAPER_POINT, "--nmax", "160", "--rwa", "on"])
        assert code == 2
        assert "error: nmax=160 is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("rwa", [False, True])
    def test_nmax_rung_has_no_next_layer(self, rwa):
        w, v, rows, edge = _symmetric_eig(W1, E0, 0.2, 12, rwa, 0, 12)
        assert edge.shape == (0, w.size)
        assert rows[-1] < 4 * 13
        # the leading block of a build one photon further holds the same entries
        w_next, v_next, rows_next, _ = _symmetric_eig(W1, E0, 0.2, 12, rwa, 0, 13)
        assert np.array_equal(rows, rows_next)
        assert np.array_equal(w, w_next) and np.array_equal(v, v_next)

    def test_no_rung_builds_past_nmax(self, monkeypatch):
        built = []
        real = oracle._block_hamiltonian

        def recording(omega, e0, lam, cutoff, include_rwa, block):
            built.append(cutoff)
            return real(omega, e0, lam, cutoff, include_rwa, block)

        monkeypatch.setattr(oracle, "_block_hamiltonian", recording)
        p = SystemParams(W1, 3.75, E0, 0.2, nmax=160)
        with pytest.raises(DegeneracyAmbiguityError):  # climbs every rung to nmax
            dressed_state(2, 0, p, 3.75, include_rwa=True)
        assert built == [21, 41, 81, 160]
        built.clear()
        dressed_state(0, 0, SystemParams(W1, 4.5, E0, 0.02, nmax=12), W1, include_rwa=True)
        assert built == [12]

    def test_block_of_exactly_the_limit_accepted(self, monkeypatch):
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=20)
        monkeypatch.setattr(oracle, "MAX_BLOCK_STATES", 42)  # the 20-photon V_RWA half
        dressed_state(0, 0, p, W1, include_rwa=True)
        monkeypatch.setattr(oracle, "MAX_BLOCK_STATES", 41)
        with pytest.raises(ParameterDomainError) as refused:
            dressed_state(0, 0, p, W1, include_rwa=True)
        assert str(refused.value) == (
            "nmax=20 is too large: no cutoff below 20 photons certifies |n=0, m=0>, "
            "and the 20-photon block has 42 states, over the 41-state limit")

    def test_certified_cutoff_never_reaches_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "MAX_BLOCK_STATES", 50)
        assert main(["validate", *GOLDEN_POINT, "--nmax", "100000"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert main(["validate", *GOLDEN_POINT, "--nmax", "20"]) == 0
        want = json.loads(capsys.readouterr().out)
        assert [r["oracle"] for r in got["rows"]] == [r["oracle"] for r in want["rows"]]
        assert {r["nmax"] for r in got["rows"]} == {100_000}


def _no_convergence(w, v):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


CORRUPTIONS = {
    "Gram": lambda w, v: (w, v * (1 + 1e-6)),          # not orthonormal
    "reconstruction": lambda w, v: (w[::-1], v),       # eigenpairs mismatched
    "eigensolver failed": _no_convergence,
}


@pytest.fixture
def corrupt_eigh(monkeypatch):
    """Make np.linalg.eigh, as the oracle sees it, return corrupted output."""
    real = np.linalg.eigh

    def install(corruption):
        monkeypatch.setattr(oracle.np.linalg, "eigh", lambda a: corruption(*real(a)))

    return install


class TestResidualChecks:
    @pytest.mark.parametrize("residual", list(CORRUPTIONS))
    def test_dressed_state_raises(self, corrupt_eigh, residual):
        corrupt_eigh(CORRUPTIONS[residual])
        with pytest.raises(SolverDiagnosticsError, match=residual):
            dressed_state(0, 0, SystemParams(W1, 4.5, E0, 0.01), omega=W1,
                          include_rwa=True)

    def test_diagonalize_total_raises(self, corrupt_eigh):
        corrupt_eigh(CORRUPTIONS["Gram"])
        with pytest.raises(SolverDiagnosticsError, match="Gram"):
            diagonalize_total(SystemParams(W1, 4.5, E0, 0.01, nmax=4), omega=W1)

    def test_cli_exits_2(self, corrupt_eigh, capsys):
        corrupt_eigh(CORRUPTIONS["Gram"])
        code = main(["validate", "--omega1-ghz", "5", "--omega2-ghz", "4.5",
                     "--e0-ghz", "3.721", "--lambda-ghz", "0.02"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "solver error: eigenvector Gram residual" in captured.err


class TestDressedState:
    def test_vanishing_coupling_limits(self, tiny_coupling):
        label = BasisState(1, (1, 0, 0))
        ds = dressed_state(*dicke(label), tiny_coupling, omega=W1)
        assert ds.eigenvalue == pytest.approx(energy_unperturbed(label, W1, E0), abs=1e-9)
        assert ds.overlap_with_label == pytest.approx(1.0, abs=1e-9)
        sym = sum(1 for x in symmetrizer(8) @ padded(ds.vector, 8) if abs(x) > 1e-8)
        assert sym == 3  # the symmetric combination of the class

    def test_unit_norm_and_positive_phase(self, weak_params):
        ds = dressed_state(2, 2, weak_params, omega=4.5, include_rwa=True)
        vec = symmetrizer(weak_params.nmax) @ padded(ds.vector, weak_params.nmax)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert vec[index_of(BasisState(2, (1, 1, 0)))] > 0
        assert ds.overlap_with_label > 1 / math.sqrt(2)

    def test_headroom_guard(self):
        p = SystemParams(W1, 3.75, E0, 0.2, nmax=2)
        with pytest.raises(TruncationHeadroomError):
            dressed_state(2, 0, p, omega=W1)

    def test_overflowing_block_refused_without_warning(self):
        p = SystemParams(W1, 4.5, E0, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError, match="no finite norm"):
                dressed_state(0, 0, p, omega=W1)

    def test_near_crossing_raises(self, capsys):
        # omega2 found by bisection: the two best overlaps of |2; 0> agree to
        # about 1e-12, far inside MIN_MATCH_MARGIN
        flags = ["--omega1-ghz", "5", "--omega2-ghz", "2.8718391055", "--e0-ghz", "1",
                 "--lambda-ghz", "0.2", "--rwa", "on"]
        p = SystemParams(W1, 2.8718391055, 1.0, 0.2)
        with pytest.raises(DegeneracyAmbiguityError, match="near-crossing"):
            dressed_state(2, 0, p, omega=p.omega2, include_rwa=True)
        assert main(["validate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver error: two eigenvectors match |n=2, m=0> equally well "
            "(0.675653 vs 0.675653); near-crossing\n")

    @pytest.mark.parametrize("omega,message", [
        (-4.5, "omega must be finite and > 0, got -4.5"),
        (0.0, "omega must be finite and > 0, got 0.0"),
        (math.nan, "omega must be finite and > 0, got nan"),
        (math.inf, "omega must be finite and > 0, got inf"),
        (True, "omega must be a real number, got True"),
        ("4.5", "omega must be a real number, got '4.5'"),
    ], ids=["negative", "zero", "nan", "inf", "bool", "str"])
    def test_invalid_omega_refused(self, omega, message):
        # the rule SystemParams applies to its frequencies; omega = E0 is
        # allowed, since the exact solve is defined there
        p = SystemParams(W1, 4.5, E0, 0.02)
        with pytest.raises(ParameterDomainError) as refused:
            dressed_state(1, 1, p, omega)
        assert str(refused.value) == message
        assert dressed_state(1, 1, p, E0).overlap_with_label > 1 / math.sqrt(2)

    def test_compared_and_hashed_by_identity(self):
        # the vector is an array, so equal fields cannot decide equality
        p = SystemParams(W1, 4.5, E0, 0.02)
        a, b = dressed_state(1, 1, p, 4.5), dressed_state(1, 1, p, 4.5)
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    def test_lost_label_character_raises(self):
        # deep ultrastrong coupling: no eigenvector keeps a dominant label
        p = SystemParams(W1, 3.75, E0, 3.0, nmax=16)
        with pytest.raises(DegeneracyAmbiguityError):
            dressed_state(0, 2, p, omega=3.75, include_rwa=True)


class TestSuddenOverlap:
    def test_vanishing_coupling_is_delta(self, tiny_coupling):
        assert sudden_overlap(0, 0, tiny_coupling) == pytest.approx(1.0, abs=1e-9)
        for channel in ((1, 1), (0, 2), (2, 0), (2, 2)):
            assert abs(sudden_overlap(*channel, tiny_coupling)) < 1e-9

    @pytest.mark.parametrize("channel", [(0, 4), (0, -1), (-1, 0)])
    def test_invalid_channel_rejected(self, channel):
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=20)
        with pytest.raises(ParameterDomainError, match="invalid channel"):
            sudden_overlap(*channel, p)

    def test_one_qubit_channel_ratio(self):
        # lam = 0.001 * omega1, omega2 = 0.9 * omega1
        p = SystemParams(W1, 4.5, E0, 0.005, nmax=20)
        closed = entanglement_report(W1, 4.5, E0, 0.005).amplitudes[1][1]
        ratio = sudden_overlap(1, 1, p) / closed
        assert 0.999 <= ratio <= 1.001

    @pytest.mark.parametrize("rwa", [False, True])
    def test_one_qubit_channel_shrink(self, rwa):
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=20)
        rows = compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=rwa)
        factors = shrink_factors(rows, (1, 1))
        assert all(f >= 3.0 for f in factors)

    def test_shrink_factors_mark_undefined_and_exact_deviations(self):
        # nan and inf are as undefined as None: each fails a gate, never passes it
        rows = [{"channel_n": 1, "channel_m": 1, "rel_dev": dev}
                for dev in (1e-2, 1e-3, 0.0, None, 1e-4, math.nan, 1e-5, math.inf, 1e-6)]
        assert shrink_factors(rows, (1, 1)) == [10.0, math.inf, 0.0, 0.0,
                                                0.0, 0.0, 0.0, 0.0]

    def test_shrink_factors_read_the_channel_as_dressed_state_does(self):
        # a list or numpy integers name the channel; a channel with fewer than two
        # rows has no factor, which a gate would pass vacuously, so it is refused
        rows = [{"channel_n": 1, "channel_m": 1, "rel_dev": dev} for dev in (1e-2, 1e-3)]
        assert shrink_factors(rows, [1, 1]) == [10.0]
        assert shrink_factors(rows, (np.int64(1), np.int8(1))) == [10.0]
        for channel, rows_of_channel in (((3, 3), rows), ((1, 1), rows[:1])):
            with pytest.raises(ParameterDomainError, match="need at least two rows"):
                shrink_factors(rows_of_channel, channel)

    @pytest.mark.parametrize("channel", [(1,), (1, 1, 1), 1, None])
    def test_shrink_factors_refuse_a_channel_that_is_not_a_pair(self, channel):
        rows = [{"channel_n": 1, "channel_m": 1, "rel_dev": dev} for dev in (1e-2, 1e-3)]
        with pytest.raises(ParameterDomainError, match="a channel is a pair"):
            shrink_factors(rows, channel)

    def test_v_only_pair_channels_exactly_zero(self):
        # H0 + V conserves n - m: the (2,0) and (0,2) targets share no block,
        # hence no basis state, with the dressed ground state
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=20)
        assert sudden_overlap(2, 0, p, include_rwa=False) == 0.0
        assert sudden_overlap(0, 2, p, include_rwa=False) == 0.0

    def test_parity_forbidden_channels(self, paper_params):
        # V_total changes n + m by 0 or +-2, so odd-parity overlaps vanish
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=20)
        for channel in ((0, 1), (1, 0), (1, 2), (0, 3), (2, 1)):
            for rwa in (False, True):
                assert abs(sudden_overlap(*channel, p, include_rwa=rwa)) <= 1e-12

    def test_triple_excitation_bound(self):
        p = SystemParams(W1, 4.5, E0, 0.005, nmax=20)
        bound = 10 * (p.lambda_ / (W1 + E0)) ** 3
        assert abs(sudden_overlap(0, 3, p, include_rwa=True)) <= bound

    @pytest.mark.parametrize("channel", [(1, 3), (3, 1)])
    def test_even_forbidden_channel_cubic_scaling(self, channel):
        # parity-allowed channels outside the table ((., 3) and n > 2) first
        # appear at third order, so doubling lambda scales them by ~8
        values = []
        for lam in (0.005, 0.01, 0.02):
            p = SystemParams(W1, 4.5, E0, lam, nmax=20)
            values.append(abs(sudden_overlap(*channel, p, include_rwa=True)))
        for small, big in zip(values, values[1:]):
            assert 6.0 <= big / small <= 11.0

    def test_ground_state_stays_in_symmetric_sector(self, paper_params):
        # no antisymmetric admixture anywhere in the product-space ground
        # state, the premise that lets the oracle solve in the Dicke basis
        _, v = diagonalize_total(paper_params, omega=W1, include_rwa=True)
        ground = v[:, 0]
        for n in range(paper_params.nmax):
            for qa, qb in [((1, 0, 0), (0, 1, 0)), ((1, 1, 0), (1, 0, 1))]:
                anti = (ground[index_of(BasisState(n, qa))]
                        - ground[index_of(BasisState(n, qb))])
                assert abs(anti) <= 1e-12

    def test_lambda_squared_channels_differ_from_closed_forms(self):
        # the closed forms isolate the Lamb-modulation part; the full quench
        # overlap differs at the same order for these channels (exact
        # orthogonality forces zero at omega2 = omega1, e.g. channel (2,2))
        p_same = SystemParams(W1, W1, E0, 0.02, nmax=20)
        assert abs(sudden_overlap(2, 2, p_same, include_rwa=True)) <= 1e-10
        assert entanglement_report(W1, W1, E0, 0.02).amplitudes[2][2] != 0.0
        # analytic second-order value of the full overlap at omega2 != omega1
        # (path sum over V intermediates: cross terms plus both second-order
        # state corrections collapse to a perfect square)
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=20)
        exact_second_order = math.sqrt(2) * p.lambda_ ** 2 * (
            1 / (W1 + E0) - 1 / (4.5 + E0)) ** 2
        assert sudden_overlap(2, 2, p, include_rwa=False) == pytest.approx(
            exact_second_order, rel=1e-3)

    @pytest.mark.parametrize("omega2,lam,nmaxes", [
        (3.75, 0.2, (6, 8, 12, 16, 20, 10 ** 12)),
        (4.5, 1e-300, (6, 7, 8, 10 ** 12))], ids=["paper_point", "vanishing_coupling"])
    def test_v_only_overlaps_independent_of_nmax(self, omega2, lam, nmaxes):
        # an H0 + V block holds at most 4 states, all of them inside every
        # cutoff from the headroom floor (nmax 6 for n = 2) up, so truncation
        # cannot move a single bit
        values = [[sudden_overlap(n, m, SystemParams(W1, omega2, E0, lam, nmax=nmax)).hex()
                   for n, m in DLE_CHANNELS] for nmax in nmaxes]
        assert values == [values[0]] * len(nmaxes)

    @settings(max_examples=60, deadline=None)
    @given(omega1=st.floats(4.8, 5.2), omega2=st.floats(4.3, 4.7),
           e0=st.floats(3.6, 3.8), lam=st.floats(1e-6, 0.5), delta=st.floats(-0.5, 0.5))
    def test_v_only_overlaps_depend_on_omega_plus_e0(self, omega1, omega2, e0, lam, delta):
        # the n - m = b block is b*omega + (omega + E0)*diag(m) + lam*T_b, with
        # T_b fixed by b, so its eigenvectors see only omega + E0 and lam; the
        # shift moves them by rounding, on vectors of unit norm
        shifted = (omega1 + delta, omega2 + delta, e0 - delta)
        assume(e0 not in (omega1, omega2) and shifted[2] not in shifted[:2])
        p = SystemParams(omega1, omega2, e0, lam)
        q = SystemParams(*shifted, lam)
        for n, m in DLE_CHANNELS:
            assert abs(sudden_overlap(n, m, p) - sudden_overlap(n, m, q)) <= 1e-15


class TestCompareTable:
    def test_row_schema(self, paper_params):
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=12)
        rows = compare_with_closed_forms(p, [1.0, 0.5])
        assert len(rows) == 8
        assert set(rows[0]) == {"channel_n", "channel_m", "closed_form", "oracle",
                                "rel_dev", "nmax", "lambda_scale", "include_rwa"}

    @pytest.mark.parametrize("scales", [[0.25, 0.5, 1.0], [1.0], [1.0, 1.0]],
                             ids=["ascending", "single", "repeated"])
    def test_rejects_scales_that_cannot_gate(self, paper_params, scales):
        with pytest.raises(ParameterDomainError):
            compare_with_closed_forms(paper_params, scales)

    @pytest.mark.parametrize("scales,bad", [([True, 0.5], "[True]"), (["1", 0.5], "['1']"),
                                            ([10 ** 400, 1.0], f"[{10 ** 400}]")],
                             ids=["bool", "str", "int-past-double"])
    def test_scales_read_by_the_real_number_rule(self, paper_params, scales, bad):
        # SystemParams' rule for a frequency: a bool and a string are not real
        # numbers, and an integer past the double range is not finite
        with pytest.raises(ParameterDomainError) as refused:
            compare_with_closed_forms(paper_params, scales)
        assert str(refused.value) == (
            f"lambda scales must keep lambda * scale finite and > 0, got {bad}")

    def test_non_finite_closed_form_refused_as_validate_refuses(self, solved_rungs):
        # test_golden's VALIDATE_UNDERFLOW point: the coupling ratios are near 1e199, so
        # g1 h2 overflows and A(2;0) is inf; validate prints this refusal before any solve
        p = SystemParams(1e-200, 2e-200, 1.5e-200, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError) as refused:
                compare_with_closed_forms(p, [1.0, 0.5, 0.25])
        assert f"error: {refused.value}\n" == CLOSED_FORM_NOT_FINITE
        assert solved_rungs == []

    def test_one_solve_per_distinct_rung(self, solved_rungs):
        # per scale, H0+V solves the ground block at omega1 and the n - m = 2,
        # 0, -2 target blocks at omega2; V_RWA the ground half and one target half
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=160)
        for rwa in (False, True):
            compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=rwa)
        assert len(solved_rungs) == 18
        assert len(set(solved_rungs)) == 18

    @pytest.mark.parametrize("rwa", [False, True])
    def test_one_ground_match_per_scale(self, monkeypatch, rwa):
        # the ground state at omega1 is matched once and shared by the four channels
        matched = _record_calls(monkeypatch, "_dressed", lambda args: args[:2])
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=160)
        compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=rwa)
        assert matched == [(0, 0), *DLE_CHANNELS] * 3

    @settings(max_examples=25, deadline=None)
    @given(omega1=st.floats(4.8, 5.2), omega2=st.floats(4.3, 4.7),
           lam=st.floats(1e-3, 0.05), nmax=st.integers(6, 40), rwa=st.booleans())
    def test_shared_solves_match_separate_calls(self, omega1, omega2, lam, nmax, rwa):
        # the channels of one scale share solves; none may leak into another
        # channel's block, frequency or scale
        p = SystemParams(omega1, omega2, E0, lam, nmax=nmax)
        for r in compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=rwa):
            p_s = SystemParams(omega1, omega2, E0, lam * r["lambda_scale"], nmax=nmax)
            alone = sudden_overlap(r["channel_n"], r["channel_m"], p_s, include_rwa=rwa)
            assert r["oracle"] == alone


#: 50-digit reference for ``validate --rwa both`` at the golden point
#: (omega1 5, omega2 4.5, E0 3.721, lam 0.02, nmax 20, scales 1/0.5/0.25),
#: keyed (include_rwa, lambda_scale, n, m).  Computed with mpmath at 50
#: digits from the exact binary values of those float inputs: each Dicke
#: block was built from the matrix elements in the oracle module docstring,
#: diagonalized with mpmath.eigsy, and the dressed states were matched to
#: the label's row with positive phase, as dressed_state does.  Under H0+V
#: the (2,0) and (0,2) targets share no block with the ground state, so
#: their references are exactly 0.
ORACLE_REFERENCE = {
    (False, 1.0, 2, 0): 0.0, (False, 1.0, 1, 1): 1.3948218840625566e-04,
    (False, 1.0, 0, 2): 0.0, (False, 1.0, 2, 2): 2.7506832736494382e-08,
    (False, 0.5, 2, 0): 0.0, (False, 0.5, 1, 1): 6.9739927499685428e-05,
    (False, 0.5, 0, 2): 0.0, (False, 0.5, 2, 2): 6.8778072902112719e-09,
    (False, 0.25, 2, 0): 0.0, (False, 0.25, 1, 1): 3.4869817906985103e-05,
    (False, 0.25, 0, 2): 0.0, (False, 0.25, 2, 2): 1.7195205180729768e-09,
    (True, 1.0, 2, 0): 1.1656953296846271e-05, (True, 1.0, 1, 1): 1.3913491168882054e-04,
    (True, 1.0, 0, 2): -7.9020666802745680e-06, (True, 1.0, 2, 2): 2.7357438657575093e-08,
    (True, 0.5, 2, 0): 2.9252187623522289e-06, (True, 0.5, 1, 1): 6.9696352424985379e-05,
    (True, 0.5, 0, 2): -1.9773113296693887e-06, (True, 0.5, 2, 2): 6.8684418304161744e-09,
    (True, 0.25, 2, 0): 7.3199562980794202e-07, (True, 0.25, 1, 1): 3.4864365816596877e-05,
    (True, 0.25, 0, 2): -4.9444012906395310e-07, (True, 0.25, 2, 2): 1.7189347321242420e-09,
}


def _exact_a11(lam: float) -> Fraction:
    """A(1;1) = lam (w1 - w2) / ((w1 + E0)(w2 + E0)) at the golden point, exactly."""
    w1, w2, e0 = Fraction(W1), Fraction(4.5), Fraction(E0)
    return Fraction(lam) * (w1 - w2) / ((w1 + e0) * (w2 + e0))


#: Channel (1,1) rel_dev of the same solve, |oracle - closed_form| /
#: |closed_form| against the exact closed form of the float inputs, keyed
#: (include_rwa, lambda_scale).  The difference cancels about six digits, so
#: only about eight of the ten printed rel_dev digits are accurate.
REL_DEV_REFERENCE = {
    (rwa, scale): float(abs(Fraction(value) / _exact_a11(0.02 * scale) - 1))
    for (rwa, scale, n, m), value in ORACLE_REFERENCE.items() if (n, m) == (1, 1)
}


def test_validate_rows_match_high_precision_reference():
    # the reference solves nmax 20; at lam 0.02 the truncation beyond 20
    # photons is far below the 1e-13 bound, so larger nmax must agree too
    for nmax in (20, 80, 160):
        p = SystemParams(W1, 4.5, E0, 0.02, nmax=nmax)
        rows = [r for rwa in (False, True)
                for r in compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=rwa)]
        assert len(rows) == len(ORACLE_REFERENCE)
        for r in rows:
            key = (r["include_rwa"], r["lambda_scale"], r["channel_n"], r["channel_m"])
            assert abs(r["oracle"] - ORACLE_REFERENCE[key]) <= 1e-13, (nmax, key)
            if key[2:] == (1, 1):
                ref = REL_DEV_REFERENCE[key[:2]]
                assert abs(r["rel_dev"] - ref) <= 1e-8 * ref, (nmax, key)
