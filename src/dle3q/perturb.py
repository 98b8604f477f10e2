"""Closed-form time-independent perturbation theory for the coupled system.

Energies to second order in the coupling, treating the full qubit-photon
interaction as the perturbation on top of H0.  All states within one
excitation class (same number of excited qubits) share the same energy
expressions, so a class is named by its Dicke label (n, m).

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
"""
from __future__ import annotations

from .amplitudes import _channel, _excitation_count
from .params import SystemParams, guard_detuning


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
    oracle.symmetric_class_shift(m, omega, p, include_rwa=True).  Raises
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
