"""Transition amplitudes and excitation probabilities of the sudden switch.

The boundary change is modeled as a sudden quench omega1 -> omega2; the
amplitude for ending with n created photons and m excited qubits is the
overlap of the first-order dressed target state at omega2 with the
first-order dressed ground state at omega1.  Only four channels survive:

    A(2;0) = -3 sqrt(2) lam^2 / ((w1+E0)(w2-E0))      photon pair, no qubits
    A(1;1) =  lam (w1-w2) / ((w1+E0)(w2+E0))          one photon, one qubit
    A(0;2) =  2 lam^2 / ((w2-E0)(w1+E0))              no photons, two qubits
    A(2;2) = -2 sqrt(2) lam^2 / ((w2+E0)(w1+E0))      photon pair, two qubits

and every other (n, m) vanishes, including all m = 3.  Amplitudes are quoted
per target configuration; the three targets within an excitation class give
identical values.  The tests rebuild each value from those first-order
overlaps in the product basis (tests/reference.py), an independent route
to the table.  The four formulas are written once, in _channel_values.
entangle.entanglement_report assembles the one closed-form table from it,
indexed amplitudes[n][m] for n = 0..2 and m = 0..3, and the oracle reads
the four values at each scaled coupling of validate without loading
entangle.  The module holds only these formulas and their constants: the
check that an (n, m) label names a channel is params._channel.

Convention: the (0, 0) survival overlap (which is ~1) is not an excitation
amplitude; the closed-form channel set carries only the switch-induced
values, so the zero-photon conditional state has a_000 = 0.  Probabilities
follow the closed-form table, w_m = sum over n of A(n;m)^2.  (The running
text's expression for w_2 omits a square on one Lamb-shift factor; the
tabulated form used here is the dimensionally consistent one and reproduces
the quoted numbers.)
"""
from __future__ import annotations

import math

#: The only (n, m) channels with nonzero switch amplitude.
DLE_CHANNELS = ((2, 0), (1, 1), (0, 2), (2, 2))

#: Size of each excitation class, binom(3, m): the product targets sharing A(n; m).
CLASS_MULTIPLICITY = (1, 3, 3, 1)

_SQRT2 = math.sqrt(2.0)


def _channel_values(omega1, omega2, e0, lam):
    """A(2;0), A(1;1), A(0;2) and A(2;2), the DLE_CHANNELS in order.

    Elementwise on Python floats, numpy float64 scalars or broadcast numpy
    arrays, through the same lines: squares are written as products, since
    Python's x ** 2 rounds through C pow. A float product of detunings that
    underflows to 0 raises ZeroDivisionError where numpy values give inf or
    nan.
    """
    lam2 = lam * lam
    s1 = omega1 + e0
    s2 = omega2 + e0
    d2 = omega2 - e0
    return (-3.0 * _SQRT2 * lam2 / (s1 * d2),
            lam * (omega1 - omega2) / (s1 * s2),
            2.0 * lam2 / (d2 * s1),
            -2.0 * _SQRT2 * lam2 / (s2 * s1))

