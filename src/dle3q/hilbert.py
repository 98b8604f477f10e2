"""Truncated photon (x) three-qubit product basis and Hamiltonian matrices.

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams

#: Bit masks of the three qubit slots, q1 first.
QUBIT_BITS = (4, 2, 1)


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

