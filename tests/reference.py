"""Product-space reference: the independent cross-check of the Dicke-block oracle.

The package solves only the permutation-symmetric Dicke sector, labelled by
(n, m).  The tests compare it against the full truncated photon (x)
three-qubit product basis kept here, together with the first-order
perturbed states, the overlap route to the closed-form amplitudes, and the
closed-form second-order energies (Lamb shifts) checked against both.

Basis order is lexicographic in (n, q1 q2 q3 as a 3-bit integer, q1 most
significant), so state |n; q1 q2 q3> sits at index 8*n + (4*q1 + 2*q2 + q3).
All Hamiltonians are real symmetric dense arrays in GHz:

  H0     diagonal, n*omega + E0 * (number of excited qubits)
  V      counter-rotating part, lam * sum_j (sigma_j^+ a^dag + sigma_j^- a);
         raises/lowers photon number and qubit excitation together
  V_RWA  rotating part, lam * sum_j (sigma_j^+ a + sigma_j^- a^dag);
         conserves the total excitation number

The photon cutoff follows the hard-truncation convention: transitions that
would leave the cutoff are simply dropped.

First-order states attach one sideband per qubit flip and photon change:
from a state with n photons, raising a ground qubit contributes
-lam*sqrt(n+1)/(omega+E0) at n+1 and +lam*sqrt(n)/(omega-E0) at n-1;
lowering an excited qubit contributes +lam*sqrt(n)/(omega+E0) at n-1 and
-lam*sqrt(n+1)/(omega-E0) at n+1.  The states are left unnormalized
(norm^2 = 1 + O(lam^2)), which is what the amplitude algebra consumes.

normalized_sectors is the array route to report's normalized variant: the
package scales one sector at a time on Python floats, and the tests compare
it with this whole-table evaluation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from dle3q.amplitudes import CLASS_MULTIPLICITY, _channel, _integer
from dle3q.errors import (ParameterDomainError, SolverDiagnosticsError,
                          TruncationHeadroomError)
from dle3q.oracle import _eigh_checked
from dle3q.params import SystemParams, guard_detuning

#: Bit masks of the three qubit slots, q1 first.
QUBIT_BITS = (4, 2, 1)

#: Representative target configuration for each qubit excitation count.
CLASS_REPRESENTATIVE = {0: (0, 0, 0), 1: (1, 0, 0), 2: (1, 1, 0), 3: (1, 1, 1)}


@dataclass(frozen=True, order=True)
class BasisState:
    """Product state |n; q1 q2 q3> of the cavity mode and the three qubits."""

    photons: int
    qubits: tuple[int, int, int]

    def __post_init__(self):
        if self.photons < 0:
            raise ValueError(f"photon number must be >= 0, got {self.photons}")
        if len(self.qubits) != 3 or any(q not in (0, 1) for q in self.qubits):
            raise ValueError(f"qubits must be a triple of bits, got {self.qubits!r}")

    @property
    def excitation_count(self) -> int:
        return sum(self.qubits)

    @property
    def qubit_bits(self) -> int:
        q1, q2, q3 = self.qubits
        return 4 * q1 + 2 * q2 + q3

    @property
    def label(self) -> str:
        return f"{self.photons};{''.join(str(q) for q in self.qubits)}"

    @classmethod
    def from_bits(cls, photons: int, bits: int) -> "BasisState":
        return cls(photons, ((bits >> 2) & 1, (bits >> 1) & 1, bits & 1))


def dicke(s: BasisState) -> tuple[int, int]:
    """Dicke label (n, m) of the excitation class a product state belongs to."""
    return s.photons, s.excitation_count


def build_basis(nmax: int) -> list[BasisState]:
    """All 8*(nmax+1) basis states in lexicographic (n, qubit-bits) order."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    return [BasisState.from_bits(n, b) for n in range(nmax + 1) for b in range(8)]


def index_of(state: BasisState) -> int:
    return 8 * state.photons + state.qubit_bits


def state_at(index: int) -> BasisState:
    return BasisState.from_bits(index // 8, index % 8)


def dimension(nmax: int) -> int:
    return 8 * (nmax + 1)


def hamiltonian_h0(p: SystemParams, omega: float) -> np.ndarray:
    """Non-interacting Hamiltonian: n*omega + E0 * excitation count, diagonal."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    diag = [s.photons * omega + s.excitation_count * p.e0 for s in build_basis(p.nmax)]
    return np.diag(np.array(diag, dtype=float))


def _coupling(p: SystemParams, rotating: bool) -> np.ndarray:
    dim = dimension(p.nmax)
    m = np.zeros((dim, dim))
    for n in range(p.nmax + 1):
        for bits in range(8):
            i = 8 * n + bits
            for b in QUBIT_BITS:
                if bits & b:
                    continue  # sigma^+ only acts on a ground qubit
                if rotating:
                    # sigma^+ a: qubit up, photon down
                    if n >= 1:
                        j = 8 * (n - 1) + (bits | b)
                        el = p.lambda_ * math.sqrt(n)
                        m[i, j] += el
                        m[j, i] += el
                else:
                    # sigma^+ a^dag: qubit up, photon up (dropped at the cutoff)
                    if n + 1 <= p.nmax:
                        j = 8 * (n + 1) + (bits | b)
                        el = p.lambda_ * math.sqrt(n + 1)
                        m[i, j] += el
                        m[j, i] += el
    return m


def hamiltonian_v(p: SystemParams) -> np.ndarray:
    """Counter-rotating coupling; changes total excitation number by +-2."""
    return _coupling(p, rotating=False)


def hamiltonian_v_rwa(p: SystemParams) -> np.ndarray:
    """Rotating-wave coupling; conserves the total excitation number."""
    return _coupling(p, rotating=True)


def hamiltonian_total(p: SystemParams, omega: float, include_rwa: bool = False) -> np.ndarray:
    """H0 + V, plus V_RWA when include_rwa is set."""
    h = hamiltonian_h0(p, omega) + hamiltonian_v(p)
    if include_rwa:
        h += hamiltonian_v_rwa(p)
    return h


def symmetrizer(nmax: int) -> np.ndarray:
    """Isometry from the (n, m) symmetric-sector basis into the full basis.

    Column 4*n + m is the normalized uniform superposition of the
    binom(3, m) product states with n photons and m excited qubits, so
    symmetrizer(nmax) @ padded(dressed_state(...).vector, nmax) is the
    product-space state.
    """
    cols = np.zeros((dimension(nmax), 4 * (nmax + 1)))
    for s in build_basis(nmax):
        m = s.excitation_count
        cols[index_of(s), 4 * s.photons + m] = 1.0 / math.sqrt(CLASS_MULTIPLICITY[m])
    return cols


def padded(vector: np.ndarray, nmax: int) -> np.ndarray:
    """A Dicke-basis vector extended with zeros to all 4*(nmax+1) rows.

    dressed_state returns its vector over the rows of the photon cutoff it
    was solved at; every row past that cutoff is zero.
    """
    out = np.zeros(4 * (nmax + 1))
    out[:vector.size] = vector
    return out


def diagonalize_total(p: SystemParams, omega: float,
                      include_rwa: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Full product-space eigendecomposition of H(omega), with accuracy checks.

    Returns (eigenvalues ascending, eigenvectors as columns).  Raises
    SolverDiagnosticsError if the solver fails or the orthonormality /
    reconstruction residuals exceed their bounds.
    """
    if dimension(p.nmax) > 10_000:
        raise SolverDiagnosticsError(f"dimension {dimension(p.nmax)} exceeds the 1e4 limit")
    return _eigh_checked(hamiltonian_total(p, omega, include_rwa=include_rwa))


def energy_unperturbed(s: BasisState, omega: float, e0: float) -> float:
    """Bare energy n*omega + m*E0 of a product state."""
    return s.photons * omega + s.excitation_count * e0


def perturbed_state(s: BasisState, omega: float, p: SystemParams) -> np.ndarray:
    """First-order perturbed state of s, unnormalized, support <= 7 states.

    Returns the dense real product-space coefficients, length
    dimension(nmax), indexed by index_of.  Every admixed state differs from
    s by exactly one qubit flip and one photon.  Requires n+1 <= nmax so the
    upper sidebands exist in truncation.
    """
    n = s.photons
    if n + 1 > p.nmax:
        raise TruncationHeadroomError(
            f"state |{s.label}> needs photon level {n + 1} > nmax = {p.nmax}"
        )
    if s.excitation_count >= 1 or n >= 1:
        # Only these states carry a 1/(omega - E0) sideband with nonzero weight.
        guard_detuning(omega, p.e0)
    lam = p.lambda_
    sum_den = omega + p.e0
    diff_den = omega - p.e0
    out = np.zeros(dimension(p.nmax))
    out[index_of(s)] = 1.0
    bits = s.qubit_bits
    up, down = 8 * (n + 1), 8 * (n - 1)  # index_of(|n +- 1; 000>)
    for b in QUBIT_BITS:
        if not bits & b:
            out[up + (bits | b)] = -lam * math.sqrt(n + 1) / sum_den
            if n >= 1:
                out[down + (bits | b)] = lam * math.sqrt(n) / diff_den
        else:
            if n >= 1:
                out[down + (bits & ~b)] = lam * math.sqrt(n) / sum_den
            out[up + (bits & ~b)] = -lam * math.sqrt(n + 1) / diff_den
    return out


def amplitude_via_overlap(n: int, m: int, p: SystemParams,
                          target: BasisState | None = None) -> float:
    """Switch amplitude from first-order state overlaps, one target label.

    Independent route to the closed forms: builds the first-order states at
    both frequencies and takes <target, omega2 | ground, omega1>.  For the
    survival channel (0, 0) the zeroth-order term is excluded so that only
    the switch-induced piece remains.
    """
    n, m = _channel(n, m)
    if target is None:
        target = BasisState(n, CLASS_REPRESENTATIVE[m])
    if target.photons != n or target.excitation_count != m:
        raise ParameterDomainError(f"target {target.label} is not in channel ({n}, {m})")
    bra = perturbed_state(target, p.omega2, p)
    ket = perturbed_state(BasisState(0, (0, 0, 0)), p.omega1, p)
    value = float(bra @ ket)
    if (n, m) == (0, 0):
        value -= 1.0  # remove the zeroth-order survival term
    return value


# -- closed-form second-order energies --------------------------------------
#
# Time-independent perturbation theory to second order in the coupling,
# treating the full qubit-photon interaction as the perturbation on top of
# H0.  All states within one excitation class (same number of excited
# qubits) share the same energy expressions, so a class is named by its
# Dicke label (n, m).
#
# For the threefold-degenerate classes m = 1, 2 these expressions are the
# per-label (diagonal) second-order energies E, which are also the class
# centroid: second-order cross terms W_ab through shared intermediates split
# the class into the symmetric combination at E + 2*W_ab and two states at
# E - W_ab, whose mean is E.  The symmetric state, which the oracle's
# dressed matching returns, therefore sits at E + symmetric_class_shift.  As
# E carries the full coupling, this holds for H0 + V + V_RWA; under H0 + V
# alone it holds only at (n, m) = (1, 1), where the rotating-coupling terms
# cancel.
#
# Per-class second-order energies decompose as
#
#     E(n, m) = n*omega + m*E0 + (3 - 2m) * 2*E0*n*lam^2 / (omega^2 - E0^2)
#               + Lamb shift E_L,m(omega)
#
# with the photon-number-independent Lamb shifts
#
#     E_L,0 = -3 lam^2 / (omega + E0)     E_L,1 = lam^2 (E0 - 3 omega) / (omega^2 - E0^2)
#     E_L,3 = -3 lam^2 / (omega - E0)     E_L,2 = -lam^2 (E0 + 3 omega) / (omega^2 - E0^2)


def _excitation_count(m: int) -> int:
    """m as a Python int, checked to count excited qubits: 0 <= m <= 3."""
    m_int = _integer(m)
    if m_int is None or not 0 <= m_int <= 3:
        raise ParameterDomainError(
            f"invalid excitation count m={m!r}: must be an integer in 0..3")
    return m_int


def lamb_shift(m: int, omega: float, p: SystemParams) -> float:
    """Total Lamb shift of the m-excited class at cavity frequency omega.

    Raises ParameterDomainError unless m is an integer in 0..3.
    """
    m = _excitation_count(m)
    lam2 = p.lambda_ ** 2
    if m == 0:
        value = -3.0 * lam2 / (omega + p.e0)
    else:
        guard_detuning(omega, p.e0)
        # (omega - E0)(omega + E0) keeps the detuning exact near resonance,
        # where omega^2 - E0^2 would cancel.
        if m == 1:
            value = lam2 * (p.e0 - 3.0 * omega) / ((omega - p.e0) * (omega + p.e0))
        elif m == 2:
            value = -lam2 * (p.e0 + 3.0 * omega) / ((omega - p.e0) * (omega + p.e0))
        else:
            value = -3.0 * lam2 / (omega - p.e0)
    return value


def energy_second_order(n: int, m: int, omega: float, p: SystemParams) -> float:
    """Second-order energy of the Dicke class (n, m) at frequency omega.

    For the degenerate classes m = 1, 2 this is the per-label diagonal
    energy, equal to the centroid of the three exact class eigenvalues of
    H0 + V + V_RWA; the symmetric dressed state lies at this value plus
    symmetric_class_shift(m, omega, p, include_rwa=True).  Raises
    ParameterDomainError unless n >= 0 and 0 <= m <= 3 are integers.
    """
    n, m = _channel(n, m)
    if m in (1, 2, 3) or n > 0:
        guard_detuning(omega, p.e0)
    dynamic = 0.0
    if n > 0:
        dynamic = ((3 - 2 * m) * 2.0 * p.e0 * n * p.lambda_ ** 2
                   / ((omega - p.e0) * (omega + p.e0)))
    return n * omega + m * p.e0 + dynamic + lamb_shift(m, omega, p)


def symmetric_class_shift(m: int, omega: float, p: SystemParams,
                          include_rwa: bool = False) -> float:
    """Degenerate second-order correction to the symmetric-combination energy.

    The m = 1 and m = 2 classes are threefold degenerate, and second-order
    cross terms through shared intermediates shift the symmetric combination
    by 2*W_ab relative to the per-label closed form, with

        W_ab = -lam^2/(omega + E0)                      (H0 + V)
        W_ab = -lam^2/(omega + E0) - lam^2/(omega - E0)  (H0 + V + V_RWA)

    independent of n.  Zero for the nondegenerate m = 0 and m = 3 classes.
    """
    if m in (0, 3):
        return 0.0
    w_ab = -p.lambda_ ** 2 / (omega + p.e0)
    if include_rwa:
        w_ab -= p.lambda_ ** 2 / (omega - p.e0)
    return 2.0 * w_ab


def _divide_positive(x, d, keep: bool):
    """x / d where d > 0; elsewhere x if keep, else 0.  An array x is overwritten if keep."""
    return np.divide(x, d, out=x if keep else np.zeros_like(x), where=d > 0)


def _normalized(a):
    """One sector a = (A(n; 0), ..., A(n; 3)) of arrays scaled to unit norm, elementwise.

    A zero sector stays zero.  Dividing by the largest |A(n; m)| first keeps
    the norm representable for sectors far below or above unit size.
    """
    peak, sqrt = functools.reduce(np.maximum, map(abs, a)), np.sqrt
    unit = [_divide_positive(x, peak, keep=False) for x in a]
    t0, t1, t2, t3 = [u * u * k for u, k in zip(unit, CLASS_MULTIPLICITY)]
    norm = sqrt(((t0 + t1) + t2) + t3)
    return [_divide_positive(u, norm, keep=True) for u in unit]


def normalized_sectors(table) -> np.ndarray:
    """A[..., n, m] with each n-photon sector scaled to unit norm; zero sectors stay zero."""
    return np.stack(_normalized(np.moveaxis(np.asarray(table, dtype=float), -1, 0)), axis=-1)
