"""Product-space reference: the independent cross-check of the Dicke-block oracle.

The package solves only the permutation-symmetric Dicke sector, labelled by
(n, m).  The tests compare it against the full truncated photon (x)
three-qubit product basis kept here, together with the first-order
perturbed states and the overlap route to the closed-form amplitudes.

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dle3q.amplitudes import _channel
from dle3q.errors import (ParameterDomainError, SolverDiagnosticsError,
                          TruncationHeadroomError)
from dle3q.oracle import CLASS_MULTIPLICITY, _eigh_checked
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
    symmetrizer(nmax) @ dressed_state(...).vector is the product-space state.
    """
    cols = np.zeros((dimension(nmax), 4 * (nmax + 1)))
    for s in build_basis(nmax):
        m = s.excitation_count
        cols[index_of(s), 4 * s.photons + m] = 1.0 / math.sqrt(CLASS_MULTIPLICITY[m])
    return cols


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
