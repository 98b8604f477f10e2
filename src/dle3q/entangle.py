"""Conditional three-tangle, conditional concurrence, and monogamy checks.

Conditional measures evaluate the standard pure-state entanglement measures
on the (unnormalized) amplitude sector with a fixed number n of created
photons.  Coefficients a_ijk are indexed by the qubit bits, a[4i + 2j + k],
and inherit permutation symmetry from the amplitudes:

    a_000 = A(n;0)   a_100 = a_010 = a_001 = A(n;1)
    a_111 = A(n;3)   a_110 = a_101 = a_011 = A(n;2)

The residual tangle uses the Cayley hyperdeterminant form

    tau = 4 |d1 - 2 d2 + 4 d3|

(+4 d3 is the Coffman-Kundu-Wootters convention, required for the monogamy
equality tau_A(BC) = C_AB^2 + C_AC^2 + tau_ABC on normalized pure states;
it is degree-4 homogeneous, so unnormalized sectors scale as |k|^4).  The
pair concurrence with the third qubit fixed to 0 or 1 is 2|ad - bc| of the
remaining 2x2 block: C|n>_AB0 = 2|a0 a2 - a1^2|, C|n>_AB1 = 2|a1 a3 - a2^2|.

monogamy_residual needs the concurrence of the mixed pairs rho_AB and rho_AC
of a pure three-qubit state, and takes it from the rank-2 form of Wootters'
formula (PRL 80, 2245, 1998).  Each pair is rho = M M^dagger with M its 4x2
factor, so rank(rho) <= 2.  With S = sy (x) sy (real, S^2 = 1) and the
symmetric 2x2 T = M^T S M, rho rho_tilde = M M^dagger S M* M^T S = M T* M^T S,
whose nonzero spectrum is that of T* T = T^dagger T.  Wootters' l1 >= l2 are
therefore the singular values of T, and C^2 = (l1 - l2)^2 = |T|_F^2 - 2|det T|:
no eigensolve, so this module calls nothing in numpy.linalg.

Each closed form is written once, in a private helper that runs
elementwise on Python floats or on numpy arrays: _probabilities (w_m and the
product gap) and _sector_values (the SectorMeasures fields of one sector).
entanglement_report is the one assembly of the closed-form table: the CLI's
report calls it on the Python floats of its one point, and sweep on an
array of omega2.  Its layout is the same for both, amplitudes[n][m],
w[m] and each sector field a list over n, and on floats it calls no numpy
function.  Raw sector values reproduce the published numbers; report
prints a normalized variant alongside as a diagnostic, each sector scaled
to unit norm by _normalized, which takes Python floats only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .amplitudes import CLASS_MULTIPLICITY, DLE_CHANNELS, _channel_values
from .errors import NormalizationError
from .params import ValidityReport, validate_params

#: sigma_y (x) sigma_y, the two-qubit spin-flip kernel (real in this basis).
_SPIN_FLIP = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


#: Published C|n>_AB1 over the formula-path value 2|a1 a3 - a2^2|, for n = 0, 1, 2.
#: The paper tabulates C|2>_AB1 = 8 lam^4 / ((w2+E0)(w1+E0))^2, half the
#: formula value; the report prints both and flags the mismatch.
TABULATED_C_AB1_FACTOR = (1.0, 1.0, 0.5)

#: Number of excited qubits of each coefficient a[4i + 2j + k].
_EXCITATIONS = (0, 1, 1, 2, 1, 2, 2, 3)


@dataclass(frozen=True)
class SectorMeasures:
    """Entanglement of the photon-number sectors; each field is a list over n = 0, 1, 2.

    Each entry is a float (a bool for formula_path_mismatch) at one point,
    or an array of the parameters' broadcast shape.
    """

    tau_abc: list
    c_ab0: list
    c_ab1: list  # the published convention, TABULATED_C_AB1_FACTOR * c_ab1_formula_path
    c_ab1_formula_path: list
    formula_path_mismatch: list


@dataclass(frozen=True)
class ClosedForms:
    """Every closed-form result, in one layout for a point and for arrays.

    Each leaf is a float or bool at one point of Python floats, and an
    array of the parameters' broadcast shape over arrays.  A channel
    outside DLE_CHANNELS is the Python float 0.0 in either case, so a leaf
    computed from such zeros alone stays 0.0: w[3] and the eight zero
    amplitudes.  A validity ratio is an array only if a parameter it reads
    is one, so when only omega2 is an array, eta_sum1 and eta_diff1 are
    floats.
    """

    amplitudes: list[list]  # amplitudes[n][m], A(n; m) for n = 0..2, m = 0..3
    w: list  # w[m], the sum over n of A(n; m)^2
    product_gap: float | np.ndarray  # w_2 - w_1^2
    sectors: SectorMeasures  # of the raw, unnormalized sectors
    validity: ValidityReport


def _d_invariants(a):
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    # d1 and d2 are sums over the products of complementary coefficients
    # a_ijk a_(1-i)(1-j)(1-k): d1 of their squares, d2 of their distinct pairs.
    p000, p001, p010, p100 = a000 * a111, a001 * a110, a010 * a101, a100 * a011
    d1 = p000 * p000 + p001 * p001 + p010 * p010 + p100 * p100
    d2 = (p000 * p100 + p000 * p010 + p000 * p001
          + p100 * p010 + p100 * p001 + p010 * p001)
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return d1, d2, d3


def residual_tangle_general(a):
    """Three-tangle 4|d1 - 2 d2 + 4 d3| of eight coefficients a[4i + 2j + k] (any norm).

    Each coefficient may be a number or an array; arrays give the tangle
    elementwise, so a[k] may hold coefficient k of many states.  Raises
    ValueError unless there are exactly eight coefficients.
    """
    if len(a) != 8:
        raise ValueError(f"expected 8 coefficients a[4i + 2j + k], got {len(a)}")
    d1, d2, d3 = _d_invariants(a)
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def concurrence_pair_general(a, b, c, d):
    """Pure two-qubit concurrence 2|ad - bc| of coefficients (a, b, c, d), elementwise."""
    return 2.0 * abs(a * d - b * c)


def _probabilities(columns):
    """w_m = A(0; m)^2 + A(1; m)^2 + A(2; m)^2 for each column, and the gap w_2 - w_1^2.

    columns holds (A(0; m), A(1; m), A(2; m)) for m = 0..3, as Python floats
    or as arrays, elementwise.  Squares are products and the sum a left fold.
    """
    w = [(a0 * a0 + a1 * a1) + a2 * a2 for a0, a1, a2 in columns]
    return w, w[2] - w[1] * w[1]


def _sector_values(a, factor):
    """The SectorMeasures fields, in order, of one sector a = (A(n; 0), ..., A(n; 3)).

    Elementwise on Python floats or on arrays; factor is the sector's
    TABULATED_C_AB1_FACTOR.  The factor is 1.0 or 0.5, so c_ab1 differs from
    the formula value exactly where the tabulated convention changes it.
    """
    a0, a1, a2, a3 = a
    formula = concurrence_pair_general(a1, a2, a2, a3)
    c_ab1 = factor * formula
    return (residual_tangle_general([a[m] for m in _EXCITATIONS]),
            concurrence_pair_general(a0, a1, a1, a2), c_ab1, formula, c_ab1 != formula)


def _normalized(a):
    """One sector a = (A(n; 0), ..., A(n; 3)) of Python floats scaled to unit norm.

    A zero sector stays zero.  Dividing by the largest |A(n; m)| first keeps
    the norm representable for sectors far below or above unit size.
    """
    peak = max(map(abs, a))
    unit = [x / peak if peak > 0 else 0.0 for x in a]
    t0, t1, t2, t3 = [u * u * k for u, k in zip(unit, CLASS_MULTIPLICITY)]
    norm = math.sqrt(((t0 + t1) + t2) + t3)
    return [u / norm if norm > 0 else u for u in unit]


def _measures(sectors) -> SectorMeasures:
    """The SectorMeasures of the sectors n = 0, 1, 2, each field a list over n."""
    return SectorMeasures(*map(list, zip(*map(_sector_values, sectors, TABULATED_C_AB1_FACTOR))))


def entanglement_report(omega1, omega2, e0, lam) -> ClosedForms:
    """Amplitudes, probabilities, sector measures and validity ratios (see ClosedForms).

    The four frequencies are Python floats for one point, or numpy arrays
    (and floats) that broadcast together.  Nothing is guarded or masked
    here: callers exclude omega2 = E0 and check that the values they print
    are finite.  On Python floats a product of detunings that underflows
    to 0 raises ZeroDivisionError, where arrays hold inf or nan.
    """
    values = dict(zip(DLE_CHANNELS, _channel_values(omega1, omega2, e0, lam)))
    amplitudes = [[values.get((n, m), 0.0) for m in range(4)] for n in range(3)]
    w, product_gap = _probabilities(zip(*amplitudes))
    point = SimpleNamespace(omega1=omega1, omega2=omega2, e0=e0, lambda_=lam)
    return ClosedForms(amplitudes, w, product_gap, _measures(amplitudes),
                       validate_params(point))


#: psi[_PAIR_INDEX] is the (2, 4, 2) stack of factors M with rho = M M^dagger
#: for the qubit pairs AB and AC: row 2i + j (AB) or 2i + k (AC), column the
#: traced qubit, entry a[4i + 2j + k].
_PAIR_INDEX = np.array([[[0, 1], [2, 3], [4, 5], [6, 7]],
                        [[0, 2], [1, 3], [4, 6], [5, 7]]])


def _pair_concurrences_squared(psi: np.ndarray) -> list[float]:
    """[C_AB^2, C_AC^2] of a complex array psi of eight coefficients a[4i + 2j + k].

    The rank-2 form on the stacked factors psi[_PAIR_INDEX], clipped at 0.
    The input is not checked.
    """
    m = psi[_PAIR_INDEX]
    t = m.swapaxes(1, 2) @ _SPIN_FLIP @ m
    det = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]
    c2 = (t.real * t.real + t.imag * t.imag).sum(axis=(1, 2)) - 2.0 * abs(det)
    return [max(0.0, x) for x in c2.tolist()]


def monogamy_residual(a) -> float:
    """tau_A(BC) - C_AB^2 - C_AC^2 - tau_ABC for eight coefficients.

    tau_A(BC) = 4 det(rho_A).  Zero (to numerical precision) for normalized
    pure states; that equality is the Coffman monogamy relation, stated here
    only where it is a theorem, hence the normalization check.  Both pair
    concurrences come from the rank-2 form of the module docstring (Wootters,
    PRL 80, 2245, 1998): rho_AB and rho_AC have rank at most 2, so Wootters'
    l1, l2 are the singular values of the 2x2 T = M^T (sy x sy) M of each
    pair's factor M, and C^2 = |T|_F^2 - 2|det T|.  Both T come from one
    stack of small matmuls; rho_A and the three-tangle are evaluated on
    Python scalars.  Raises ValueError unless a holds eight coefficients,
    and NormalizationError (a ValueError) unless their norm is 1 within
    1e-10, which a NaN, an infinite entry or an overflowing norm fails.
    """
    psi = np.asarray(a, dtype=complex).reshape(8)
    c = psi.tolist()
    # rho_A = [[r00, r01], [conj(r01), r11]]: sums over the B and C bits
    r00 = sum(z.real * z.real + z.imag * z.imag for z in c[:4])
    r11 = sum(z.real * z.real + z.imag * z.imag for z in c[4:])
    r01 = sum(x * y.conjugate() for x, y in zip(c[:4], c[4:]))
    norm = math.sqrt(r00 + r11)
    if not abs(norm - 1.0) <= 1e-10:
        raise NormalizationError(f"state norm {norm} differs from 1 beyond 1e-10")
    tau_a_bc = 4.0 * (r00 * r11 - (r01.real * r01.real + r01.imag * r01.imag))
    c2_ab, c2_ac = _pair_concurrences_squared(psi)
    return tau_a_bc - c2_ab - c2_ac - residual_tangle_general(c)
