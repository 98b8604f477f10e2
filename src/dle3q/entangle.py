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

entanglement_report evaluates every closed form once over numpy parameter
arrays; the CLI's report runs it at one point and its sweep over a grid.
Raw sector values reproduce the published numbers; a normalized variant
(each sector scaled to unit norm) is reported alongside as a diagnostic.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .amplitudes import CLASS_MULTIPLICITY, amplitude_table
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
TABULATED_C_AB1_FACTOR = np.array([1.0, 1.0, 0.5])

#: Qubit bits (i, j, k) of coefficient a[4i + 2j + k].
_BITS = tuple(itertools.product((0, 1), repeat=3))

#: Number of excited qubits of each coefficient a[4i + 2j + k].
_EXCITATIONS = np.array([sum(bits) for bits in _BITS])


@dataclass(frozen=True)
class SectorMeasures:
    """Entanglement of the photon-number sectors; each field's last axis is n = 0, 1, 2."""

    tau_abc: np.ndarray
    c_ab0: np.ndarray
    c_ab1: np.ndarray  # the published convention, TABULATED_C_AB1_FACTOR * c_ab1_formula_path
    c_ab1_formula_path: np.ndarray
    formula_path_mismatch: np.ndarray


@dataclass(frozen=True)
class ClosedForms:
    """Every closed-form result at the broadcast shape of the parameter arrays."""

    amplitudes: np.ndarray  # A[..., n, m], n = 0..2, m = 0..3
    w: np.ndarray  # w[..., m], the sum over n of A(n; m)^2
    product_gap: np.ndarray  # w_2 - w_1^2
    sectors: SectorMeasures  # of the raw, unnormalized sectors
    validity: ValidityReport


def _d_invariants(a):
    c = dict(zip(_BITS, a))
    # d1 and d2 are sums over the products of complementary coefficients
    # a_ijk a_(1-i)(1-j)(1-k): d1 of their squares, d2 of their distinct pairs.
    p000, p001, p010, p100 = (c[0, 0, 0] * c[1, 1, 1], c[0, 0, 1] * c[1, 1, 0],
                              c[0, 1, 0] * c[1, 0, 1], c[1, 0, 0] * c[0, 1, 1])
    d1 = p000 ** 2 + p001 ** 2 + p010 ** 2 + p100 ** 2
    d2 = (p000 * p100 + p000 * p010 + p000 * p001
          + p100 * p010 + p100 * p001 + p010 * p001)
    d3 = (c[0, 0, 0] * c[1, 1, 0] * c[1, 0, 1] * c[0, 1, 1]
          + c[1, 1, 1] * c[0, 0, 1] * c[0, 1, 0] * c[1, 0, 0])
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


def symmetric_sector(table) -> list[np.ndarray]:
    """Coefficients a[4i + 2j + k] = A[..., n, i + j + k] of every photon-number sector.

    Each entry is a view of the table with shape table.shape[:-1].
    """
    table = np.asarray(table)
    return [table[..., m] for m in _EXCITATIONS]


def sector_measures(table) -> SectorMeasures:
    """Tangle and pair concurrences of each photon-number sector of A[..., n, m]."""
    a0, a1, a2, a3 = np.moveaxis(np.asarray(table), -1, 0)
    formula = concurrence_pair_general(a1, a2, a2, a3)
    c_ab1 = TABULATED_C_AB1_FACTOR * formula
    scale = np.maximum(np.maximum(abs(formula), abs(c_ab1)), 1e-300)
    return SectorMeasures(
        tau_abc=residual_tangle_general(symmetric_sector(table)),
        c_ab0=concurrence_pair_general(a0, a1, a1, a2),
        c_ab1=c_ab1,
        c_ab1_formula_path=formula,
        formula_path_mismatch=abs(formula - c_ab1) > 1e-12 * scale)


def normalized_sectors(table) -> np.ndarray:
    """A[..., n, m] with each n-photon sector scaled to unit norm; zero sectors stay zero.

    Dividing by the largest |A(n; m)| first keeps the norm representable for
    sectors far below or above unit size.
    """
    table = np.asarray(table, dtype=float)
    peak = abs(table).max(axis=-1, keepdims=True)
    unit = np.divide(table, peak, out=np.zeros_like(table), where=peak > 0)
    norm = np.sqrt((unit ** 2 * CLASS_MULTIPLICITY).sum(axis=-1, keepdims=True))
    return np.divide(unit, norm, out=unit, where=norm > 0)


def entanglement_report(omega1, omega2, e0, lam) -> ClosedForms:
    """Amplitudes, probabilities, sector measures and validity ratios over arrays.

    The four frequencies broadcast against each other as in amplitude_table;
    scalars give one point.  Nothing is guarded or masked here: callers
    exclude omega2 = E0 and check that the values they print are finite.
    """
    omega1, omega2, e0, lam = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega1, omega2, e0, lam)))
    table = amplitude_table(omega1, omega2, e0, lam)
    w = (table ** 2).sum(axis=-2)
    point = SimpleNamespace(omega1=omega1, omega2=omega2, e0=e0, lambda_=lam)
    return ClosedForms(amplitudes=table, w=w,
                       product_gap=w[..., 2] - w[..., 1] ** 2,
                       sectors=sector_measures(table),
                       validity=validate_params(point))


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive-semidefinite matrix."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def concurrence_mixed(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Standard spin-flip construction: C = max(0, l1 - l2 - l3 - l4) with l_i
    the decreasing square roots of the eigenvalues of rho * rho_tilde.
    Computed as the singular values of sqrt(rho)^T (sy x sy) sqrt(rho),
    which is the same spectrum evaluated without differencing noisy
    near-zero eigenvalues.  Raises ValueError for a matrix that is not 4x4,
    holds a NaN or infinite entry, or is not Hermitian.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    peak = float(np.abs(rho).max())
    if not math.isfinite(peak):
        raise ValueError("density matrix has a non-finite entry")
    scale = max(peak, 1e-300)
    if np.abs(rho - rho.conj().T).max() > 1e-10 * scale:
        raise ValueError("density matrix is not Hermitian")
    root = _sqrt_psd(rho)
    lam = np.linalg.svd(root.T @ _SPIN_FLIP @ root, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _reduced_pair(psi: np.ndarray, keep: tuple[int, int]) -> np.ndarray:
    """Density matrix of two qubit slots of a pure 3-qubit state."""
    t = psi.reshape(2, 2, 2)
    other = next(ax for ax in range(3) if ax not in keep)
    m = np.transpose(t, (*keep, other)).reshape(4, 2)
    return m @ m.conj().T


def monogamy_residual(a, normalized: bool = True) -> float:
    """tau_A(BC) - C_AB^2 - C_AC^2 - tau_ABC for eight coefficients.

    tau_A(BC) = 4 det(rho_A).  Zero (to numerical precision) for normalized
    pure states; that equality is the Coffman monogamy relation, stated here
    only where it is a theorem, hence the normalization check, which a NaN
    or infinite coefficient fails too.  Raises ValueError unless a holds
    eight finite coefficients.
    """
    psi = np.asarray(a, dtype=complex).reshape(8)
    if normalized:
        norm = float(np.linalg.norm(psi))
        if not abs(norm - 1.0) <= 1e-10:
            raise NormalizationError(f"state norm {norm} differs from 1 beyond 1e-10")
    t = psi.reshape(2, 2, 2)
    rho_a = np.einsum("ijk,ljk->il", t, t.conj())
    tau_a_bc = 4.0 * float(np.linalg.det(rho_a).real)
    c_ab = concurrence_mixed(_reduced_pair(psi, (0, 1)))
    c_ac = concurrence_mixed(_reduced_pair(psi, (0, 2)))
    return tau_a_bc - c_ab ** 2 - c_ac ** 2 - residual_tangle_general(psi)
