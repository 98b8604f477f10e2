"""Exact-diagonalization verification path, solved block by block.

The initial state and both couplings are permutation symmetric, so
everything reachable from the ground state lives in the permutation-symmetric
sector.  The oracle builds H directly in that sector's Dicke basis |n; m>
(n photons, m of the three qubits excited, row 4*n + m) and never forms the
8*(nmax+1)-dimensional product space:

    diagonal          n*omega + m*E0
    V      (n, m) <-> (n+1, m+1)   lam*sqrt(n+1)*sqrt((m+1)(3-m))
    V_RWA  (n, m) <-> (n-1, m+1)   lam*sqrt(n)*sqrt((m+1)(3-m))

with transitions past the photon cutoff dropped, as in the product space.
H0 + V conserves n - m, so it splits into blocks of at most 4 states.
H0 + V + V_RWA conserves only the parity of n + m, the Z2 symmetry that
makes the Rabi model tractable (Braak, PRL 107, 100401, 2011), so it splits
into two halves of 2*(nmax+1) states.  Only the block holding the requested
label is diagonalized, and every eigendecomposition must pass the Gram and
reconstruction residual checks.  Dressed states are matched inside their
block, which keeps the assignment deterministic inside otherwise-degenerate
excitation classes, and are returned as Dicke-basis vectors that are zero
outside that block.  Sudden overlaps are divided by sqrt(multiplicity) of
the target class so they are quoted per target configuration, matching the
closed-form convention.

States are named by their Dicke label (n, m) alone.  The product-space
Hamiltonian, its full eigendecomposition and the map from the Dicke basis
onto the product basis live in tests/reference.py, the independent
cross-check the tests compare the block solve against.

Defaults diagonalize H0 + V only (the counter-rotating coupling that drives
the switch transitions); include_rwa=True adds the rotating part.  Both are
reported by the validation layer: the rotating sidebands are required for
the (2,0) and (0,2) channels to be reachable at all (under H0 + V their
targets sit in other n - m blocks than the ground state, so those overlaps
are exactly zero), while channel (1,1) agrees with the closed form under
either Hamiltonian.

Caveat established by this oracle (see compare_with_closed_forms): the
closed-form table isolates the Lamb-modulation part of each amplitude, which
for the lambda^2-order channels differs at that same order from the full
quench overlap (second-order dressing paths contribute equally there).  The
(1,1) channel is the one whose full overlap converges to the closed form as
lambda -> 0, and it is the gated channel.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .amplitudes import DLE_CHANNELS, _channel, amplitude_closed_form
from .errors import (DegeneracyAmbiguityError, ParameterDomainError,
                     SolverDiagnosticsError, TruncationHeadroomError)
from .params import SystemParams

#: Size of each excitation class, binom(3, m).
CLASS_MULTIPLICITY = (1, 3, 3, 1)

#: Minimum photon headroom between a dressed label and the cutoff.
HEADROOM = 4

#: Dominant-character acceptance threshold for dressed matching.
MIN_LABEL_OVERLAP = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class DressedState:
    """Eigenstate continuously connected to an unperturbed Dicke label (n, m).

    vector holds the Dicke-basis coefficients: length 4*(nmax+1), row
    4*n + m, unit norm, zero outside the label's conserved-quantity block,
    and positive at the label's row.
    """

    eigenvalue: float
    vector: np.ndarray
    overlap_with_label: float


def _eigh_checked(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a real symmetric matrix, with its accuracy contract enforced.

    Raises SolverDiagnosticsError if the solver fails, or if the eigenvector
    Gram residual exceeds 1e-10 or the reconstruction residual |H v - v w|
    exceeds 1e-9*|H| (NaN residuals fail too).
    """
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise SolverDiagnosticsError(f"eigensolver failed: {exc}") from exc
    gram = np.abs(v.T @ v - np.eye(v.shape[1])).max()
    if not gram <= 1e-10:
        raise SolverDiagnosticsError(f"eigenvector Gram residual {gram:.3e} > 1e-10")
    norm_h = float(np.abs(w).max()) or 1.0
    recon = np.linalg.norm(h @ v - v * w, axis=0).max()
    if not recon <= 1e-9 * norm_h:
        raise SolverDiagnosticsError(f"reconstruction residual {recon:.3e} > 1e-9*|H|")
    return w, v


def _block_of(n, m, include_rwa: bool):
    """Conserved quantity of Dicke state (n, m): n + m parity with V_RWA, else n - m."""
    return (n + m) % 2 if include_rwa else n - m


def _block_hamiltonian(omega: float, e0: float, lam: float, nmax: int,
                       include_rwa: bool, block: int) -> tuple[np.ndarray, np.ndarray]:
    """One conserved-quantity block of H in the Dicke basis.

    Returns (rows, h): the Dicke indices 4*n + m of the block's states in
    ascending order, and the block matrix over them.
    """
    n, m = np.divmod(np.arange(4 * (nmax + 1)), 4)
    rows = np.flatnonzero(_block_of(n, m, include_rwa) == block)
    n, m = n[rows], m[rows]
    h = np.diag(n * omega + m * e0)
    spin = np.sqrt((m + 1) * (3 - m))  # collective sigma^+ on the Dicke state m
    # V: (n, m) -> (n+1, m+1), Dicke index + 5; V_RWA: (n, m) -> (n-1, m+1), index - 3
    hops = [(n < nmax, 5, n + 1)]
    if include_rwa:
        hops.append((n >= 1, -3, n))
    for allowed, step, photons in hops:
        src = np.flatnonzero(allowed & (m < 3))
        dst = np.searchsorted(rows, rows[src] + step)
        h[src, dst] = h[dst, src] = lam * np.sqrt(photons[src]) * spin[src]
    return rows, h


@lru_cache(maxsize=64)
def _symmetric_eig(omega: float, e0: float, lam: float, nmax: int,
                   include_rwa: bool, block: int):
    """Checked eigendecomposition of one block of H: (w, v, Dicke rows)."""
    rows, h = _block_hamiltonian(omega, e0, lam, nmax, include_rwa, block)
    w, v = _eigh_checked(h)
    for a in (w, v, rows):
        a.setflags(write=False)
    return w, v, rows


def dressed_state(n: int, m: int, p: SystemParams, omega: float,
                  include_rwa: bool = False) -> DressedState:
    """Symmetric-sector eigenvector dominated by the Dicke state |n; m>.

    n photons, m of the three qubits excited; a non-integer label, n < 0 or
    m outside 0..3 raises ParameterDomainError.  Only the conserved-quantity
    block holding the label is diagonalized.  The match maximizes |overlap|
    with the label's row within that block; it must be dominant
    (> 1/sqrt(2)) and separated from the runner-up (0 in a one-state block)
    by at least 1e-6, otherwise a DegeneracyAmbiguityError is raised.  The
    phase is fixed so the label's component is positive.
    """
    n, m = _channel(n, m)
    label = f"|n={n}, m={m}>"
    if n > p.nmax - HEADROOM:
        raise TruncationHeadroomError(
            f"label {label} needs photon headroom: n <= nmax - {HEADROOM} "
            f"= {p.nmax - HEADROOM}")
    w, v, rows = _symmetric_eig(omega, p.e0, p.lambda_, p.nmax, include_rwa,
                                _block_of(n, m, include_rwa))
    target = int(np.searchsorted(rows, 4 * n + m))
    overlaps = np.abs(v[target, :])
    order = np.argsort(overlaps)[::-1]
    best = order[0]
    runner_up = overlaps[order[1]] if order.size > 1 else 0.0
    if overlaps[best] - runner_up < 1e-6:
        raise DegeneracyAmbiguityError(
            f"two eigenvectors match {label} equally well "
            f"({overlaps[best]:.6f} vs {runner_up:.6f}); near-crossing")
    if overlaps[best] <= MIN_LABEL_OVERLAP:
        raise DegeneracyAmbiguityError(
            f"best overlap {overlaps[best]:.4f} with {label} is not dominant "
            f"(needs > {MIN_LABEL_OVERLAP:.4f}); state has lost its label character")
    vector = np.zeros(4 * (p.nmax + 1))
    vector[rows] = v[:, best] * np.sign(v[target, best])
    return DressedState(
        eigenvalue=float(w[best]),
        vector=vector,
        overlap_with_label=float(overlaps[best]),
    )


def sudden_overlap(n: int, m: int, p: SystemParams, include_rwa: bool = False) -> float:
    """Exact quench amplitude per target configuration for channel (n, m).

    Overlap of the dressed (n, m)-class state at omega2 with the dressed
    ground state at omega1, divided by sqrt(binom(3, m)) so that it is
    quoted per product target like the closed forms.  A target in another
    conserved-quantity block than the ground state overlaps it exactly 0.
    """
    return _overlap_with_ground(dressed_state(0, 0, p, p.omega1, include_rwa), n, m, p,
                                include_rwa)


def _overlap_with_ground(ground: DressedState, n: int, m: int, p: SystemParams,
                         include_rwa: bool) -> float:
    """sudden_overlap(n, m, p, include_rwa), given its dressed ground state at omega1."""
    target = dressed_state(n, m, p, p.omega2, include_rwa)
    return float(target.vector @ ground.vector) / math.sqrt(CLASS_MULTIPLICITY[m])


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


def convergence_study(p: SystemParams, nmax_list: list[int],
                      include_rwa: bool = False,
                      channels: tuple[tuple[int, int], ...] = DLE_CHANNELS):
    """Sudden overlaps per channel across truncations.

    Returns (rows, summary): rows are dicts with keys nmax, channel_n,
    channel_m, value; summary maps each channel to {"converged", "monotone"}
    where converged means the last successive difference is below 1e-10
    relative (values below 1e-14 count as converged zeros) and monotone
    reports whether |successive difference| never grew along the list.
    """
    nmax_list = [operator.index(nm) for nm in nmax_list]
    if nmax_list != sorted(nmax_list) or len(nmax_list) < 2:
        raise ValueError("nmax_list must be ascending with at least two entries")
    rows = []
    values: dict[tuple[int, int], list[float]] = {ch: [] for ch in channels}
    for nm in nmax_list:
        p_nm = SystemParams(p.omega1, p.omega2, p.e0, p.lambda_, nmax=nm)
        for ch in channels:
            val = sudden_overlap(ch[0], ch[1], p_nm, include_rwa=include_rwa)
            values[ch].append(val)
            rows.append({"nmax": nm, "channel_n": ch[0], "channel_m": ch[1],
                         "value": val})
    summary = {}
    for ch, vals in values.items():
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        tiny = abs(vals[-1]) <= 1e-14 and abs(vals[-2]) <= 1e-14
        converged = tiny or diffs[-1] <= 1e-10 * max(abs(vals[-1]), 1e-14)
        monotone = all(d2 <= d1 or d2 <= 1e-14 for d1, d2 in zip(diffs, diffs[1:]))
        summary[ch] = {"converged": converged, "monotone": monotone}
    return rows, summary


def compare_with_closed_forms(p: SystemParams, lambda_scales: list[float],
                              include_rwa: bool = False,
                              channels: tuple[tuple[int, int], ...] = DLE_CHANNELS):
    """Oracle-vs-closed-form table over coupling scalings.

    One row per (channel, scale): closed form and sudden overlap evaluated
    at coupling scale * lambda, with their relative deviation.
    """
    if any(s <= 0 for s in lambda_scales):
        raise ParameterDomainError("lambda scales must be positive")
    if list(lambda_scales) != sorted(lambda_scales, reverse=True):
        raise ParameterDomainError("lambda scales must descend, e.g. 1, 0.5, 0.25")
    rows = []
    for scale in lambda_scales:
        p_s = SystemParams(p.omega1, p.omega2, p.e0, p.lambda_ * scale, nmax=p.nmax)
        ground = dressed_state(0, 0, p_s, p_s.omega1, include_rwa)
        for ch in channels:
            closed = amplitude_closed_form(ch[0], ch[1], p_s)
            orac = _overlap_with_ground(ground, ch[0], ch[1], p_s, include_rwa)
            # undefined when the closed form vanishes (e.g. (1,1) at w2 = w1)
            rel = abs(orac - closed) / abs(closed) if closed != 0.0 else None
            rows.append({
                "channel_n": ch[0], "channel_m": ch[1],
                "closed_form": closed, "oracle": orac, "rel_dev": rel,
                "nmax": p.nmax, "lambda_scale": scale, "include_rwa": include_rwa,
            })
    return rows


#: Channels whose closed form the exact overlap converges to, per Hamiltonian.
GATED_CHANNELS = ((1, 1),)


def shrink_factors(rows, channel: tuple[int, int]) -> list[float]:
    """Deviation shrink factors between successive lambda scales for one channel.

    A factor of zero marks an undefined deviation (vanishing closed form),
    which a gate should treat as failing rather than silently passing.
    """
    devs = [r["rel_dev"] for r in rows
            if (r["channel_n"], r["channel_m"]) == channel]
    out = []
    for a, b in zip(devs, devs[1:]):
        if a is None or b is None:
            out.append(0.0)
        elif b > 0:
            out.append(a / b)
        else:
            out.append(math.inf)
    return out
