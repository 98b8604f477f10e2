"""Transition amplitudes and excitation probabilities of the sudden switch.

The boundary change is modeled as a sudden quench omega1 -> omega2; the
amplitude for ending with n created photons and m excited qubits is the
overlap of the first-order dressed target state at omega2 with the
first-order dressed ground state at omega1.  Only four channels survive:

    A(2;0) = -3 sqrt(2) lam^2 / ((w1+E0)(w2-E0))      photon pair, no qubits
    A(1;1) =  lam (1/(w2+E0) - 1/(w1+E0))             one photon, one qubit
    A(0;2) =  2 lam^2 / ((w2-E0)(w1+E0))              no photons, two qubits
    A(2;2) = -2 sqrt(2) lam^2 / ((w2+E0)(w1+E0))      photon pair, two qubits

and every other (n, m) vanishes, including all m = 3.  Amplitudes are quoted
per target configuration; the three targets within an excitation class give
identical values.  The tests rebuild each value from those first-order
overlaps in the product basis (tests/reference.py), an independent route
to the table.  The four formulas are written once, in _channel_values,
which the CLI's report runs on the Python floats of its one point and
amplitude_table on numpy arrays.

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
import operator

import numpy as np

from .errors import ParameterDomainError

#: The only (n, m) channels with nonzero switch amplitude.
DLE_CHANNELS = ((2, 0), (1, 1), (0, 2), (2, 2))

#: Size of each excitation class, binom(3, m): the product targets sharing A(n; m).
CLASS_MULTIPLICITY = (1, 3, 3, 1)

_SQRT2 = math.sqrt(2.0)


def _channel_values(omega1, omega2, e0, lam):
    """A(2;0), A(1;1), A(0;2) and A(2;2), the DLE_CHANNELS in order.

    Elementwise on Python floats or on broadcast numpy arrays, through the
    same lines: squares are written as products, since Python's x ** 2 rounds
    through C pow. A float product of detunings that underflows to 0 raises
    ZeroDivisionError where arrays give inf or nan.
    """
    lam2 = lam * lam
    s1 = omega1 + e0
    s2 = omega2 + e0
    d2 = omega2 - e0
    return (-3.0 * _SQRT2 * lam2 / (s1 * d2),
            lam * (1.0 / s2 - 1.0 / s1),
            2.0 * lam2 / (d2 * s1),
            -2.0 * _SQRT2 * lam2 / (s2 * s1))


def amplitude_table(omega1, omega2, e0, lam) -> np.ndarray:
    """Closed-form switch amplitudes A[..., n, m] for n = 0..2, m = 0..3.

    The four frequencies are broadcast against each other; the result has
    their common shape plus the two trailing channel axes.  No guard is
    applied: points with omega2 at E0 divide by zero, and callers mask them.
    """
    omega1, omega2, e0, lam = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega1, omega2, e0, lam)))
    table = np.zeros(lam.shape + (3, 4))
    for (n, m), value in zip(DLE_CHANNELS, _channel_values(omega1, omega2, e0, lam)):
        table[..., n, m] = value
    return table


def _integer(value) -> int | None:
    """value as a Python int, or None if it is not an integer (a bool is not)."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _channel(n: int, m: int) -> tuple[int, int]:
    """(n, m) as Python ints, checked to name a channel: n >= 0 and 0 <= m <= 3."""
    n_int, m_int = _integer(n), _integer(m)
    if n_int is None or m_int is None:
        raise ParameterDomainError(
            f"invalid channel (n={n!r}, m={m!r}): n and m must be integers")
    if n_int < 0 or not 0 <= m_int <= 3:
        raise ParameterDomainError(f"invalid channel (n={n_int}, m={m_int})")
    return n_int, m_int

