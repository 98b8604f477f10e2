"""Closed-form time-independent perturbation theory for the coupled system.

Energies to second order and states to first order in the coupling, treating
the full qubit-photon interaction as the perturbation on top of H0.  All
states within one excitation class (same number of excited qubits) share the
same energy expressions.

For the threefold-degenerate classes m = 1, 2 these expressions are the
per-label (diagonal) second-order energies E, which are also the class
centroid: second-order cross terms W_ab through shared intermediates split
the class into the symmetric combination at E + 2*W_ab and two states at
E - W_ab, whose mean is E.  The symmetric state, which the oracle's dressed
matching returns, therefore sits at E + oracle.symmetric_class_shift.  As
E carries the full coupling, this holds for H0 + V + V_RWA; under H0 + V
alone it holds only at (n, m) = (1, 1), where the rotating-coupling terms
cancel.

Per-class second-order energies decompose as

    E(n, m) = n*omega + m*E0 + (3 - 2m) * 2*E0*n*lam^2 / (omega^2 - E0^2)
              + Lamb shift E_L,m(omega)

with the photon-number-independent Lamb shifts

    E_L,0 = -3 lam^2 / (omega + E0)          E_L,1 = lam^2 (E0 - 3 omega) / (omega^2 - E0^2)
    E_L,3 = -3 lam^2 / (omega - E0)          E_L,2 = -lam^2 (E0 + 3 omega) / (omega^2 - E0^2)

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

from .errors import TruncationHeadroomError
from .hilbert import BasisState, QUBIT_BITS, dimension, index_of
from .params import SystemParams, guard_detuning


@dataclass(frozen=True)
class LambShift:
    """Photon-number-independent second-order shift of an m-qubit-excited class."""

    m: int
    omega: float
    value: float


def energy_unperturbed(s: BasisState, omega: float, e0: float) -> float:
    """Bare energy n*omega + m*E0 of a product state."""
    return s.photons * omega + s.excitation_count * e0


def lamb_shift(m: int, omega: float, p: SystemParams) -> LambShift:
    """Total Lamb shift of the m-excited class at cavity frequency omega."""
    if m not in (0, 1, 2, 3):
        raise ValueError(f"excitation count m must be 0..3, got {m}")
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
    return LambShift(m=m, omega=omega, value=value)


def energy_second_order(s: BasisState, omega: float, p: SystemParams) -> float:
    """Second-order energy of the excitation class of s at frequency omega.

    For the degenerate classes m = 1, 2 this is the per-label diagonal
    energy, equal to the centroid of the three exact class eigenvalues of
    H0 + V + V_RWA; the symmetric dressed state lies at this value plus
    oracle.symmetric_class_shift(m, omega, p, include_rwa=True).
    """
    m = s.excitation_count
    n = s.photons
    if m in (1, 2, 3) or n > 0:
        guard_detuning(omega, p.e0)
    dynamic = 0.0
    if n > 0:
        dynamic = ((3 - 2 * m) * 2.0 * p.e0 * n * p.lambda_ ** 2
                   / ((omega - p.e0) * (omega + p.e0)))
    return energy_unperturbed(s, omega, p.e0) + dynamic + lamb_shift(m, omega, p).value


def perturbed_state(s: BasisState, omega: float, p: SystemParams) -> np.ndarray:
    """First-order perturbed state of s, unnormalized, support <= 7 states.

    Returns the dense real product-space coefficients, length
    dimension(nmax), indexed by hilbert.index_of.  Every admixed state
    differs from s by exactly one qubit flip and one photon.  Requires
    n+1 <= nmax so the upper sidebands exist in truncation.
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
