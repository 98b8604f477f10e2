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
Only the block holding the requested label is diagonalized, every
eigendecomposition must pass the Gram and reconstruction residual checks,
and a block whose matrix norm overflows is refused with ParameterDomainError
before it is solved.  Under either Hamiltonian a label needs HEADROOM
photons below the cutoff: n <= nmax - HEADROOM.

H0 + V is solved on an exact block.  It conserves n - m, so the label's
block is the chain (n - m + j, j), j = 0..3, of at most 4 states and at most
n - m + 3 photons.  That block is solved once, at the cutoff K = n - m + 3;
the headroom rule keeps its build at K + 1 <= nmax photons, so no coupling
is dropped, eigh sees the matrix of the nmax block bit for bit, and the
result is the same at every nmax.  A lost or ambiguous label is reported
after that one solve.

H0 + V + V_RWA is solved on a certified ladder.  It conserves only the
parity of n + m, the Z2 symmetry that makes the Rabi model tractable (Braak,
PRL 107, 100401, 2011), so it splits into two halves of 2*(nmax+1) states.
The half is solved on a ladder of photon cutoffs K: FIRST_CUTOFF (or nmax
if smaller), then 2K, and so on, ending with the full nmax block.  Dressed
photon amplitudes fall off roughly as (lam/omega)^n/sqrt(n!), so at weak
coupling the first rung already holds the answer to float64 rounding.  The
ladder stops at the first rung, nmax included, where

  * the matched eigenpair (w, x), padded with zeros, has a residual
    |H x - w x| in the nmax block of at most TRUNCATION_FLOOR*max|w|.  That
    residual is exactly the n = K -> K+1 couplings applied to the n = K rows.
    (w, x) is then an exact eigenpair of H plus a perturbation of that norm,
    a backward error at the level of the full solve's own rounding.  Each
    rung builds its block at min(K+1, nmax) photons and solves the leading
    K block; the slab coupling the new layer to it is returned beside the
    solution, as (w, v, rows, edge), so the residual is one matrix product
    and the couplings are written only in _block_hamiltonian.  At K = nmax
    there is no next layer: edge has 0 rows, the residual is exactly 0, and
    the matrix eigh sees has the 2*(nmax+1) states MAX_BLOCK_STATES counts;
  * the label overlap exceeds sqrt(1 - overlap^2) by MIN_MATCH_MARGIN,
    which makes it dominant (> MIN_LABEL_OVERLAP).  The squared overlaps of
    all eigenvectors with the label row sum to 1, so no other eigenvector of
    the full block can come closer, and the full solve would pass the same
    checks with the same match.

Otherwise the next rung is solved, so a near-crossing or lost label is
always reported from the full nmax block.  Rungs with fewer than HEADROOM
photons above the label are skipped, so the label lies inside every rung.
A rung whose block would exceed MAX_BLOCK_STATES states is refused with
ParameterDomainError before it is allocated.

Solved rungs go into a store keyed by _symmetric_eig's own arguments, so a
lookup is valid whatever asks.  compare_with_closed_forms keeps one store per
lambda scale, shared by the ground state at omega1 and the targets at omega2,
and matches that ground state once per scale for all four channels.

Dressed states are matched inside their block, which keeps the assignment
deterministic inside otherwise-degenerate excitation classes, and are
returned as Dicke-basis vectors over the rows of the cutoff they were solved
at, zero outside that block; rows past a vector's end are zero.  Sudden
overlaps are divided by sqrt(multiplicity) of the target class so they are
quoted per target configuration, matching the closed-form convention.

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
from dataclasses import astuple, dataclass

import numpy as np

from .amplitudes import CLASS_MULTIPLICITY, DLE_CHANNELS, _channel_values
from .errors import (DegeneracyAmbiguityError, ParameterDomainError,
                     SolverDiagnosticsError, TruncationHeadroomError, _not_finite)
from .params import SystemParams, _channel, _positive, guard_detuning

#: Minimum photon headroom between a dressed label and the cutoff.
HEADROOM = 4

#: Dominant-character acceptance threshold for dressed matching.
MIN_LABEL_OVERLAP = 1.0 / math.sqrt(2.0)

#: Least gap between the matched label overlap and the runner-up's.
MIN_MATCH_MARGIN = 1e-6

#: First photon cutoff of the ladder dressed_state solves on.
FIRST_CUTOFF = 20

#: Truncation residual accepted below nmax, relative to max|w| of the block.
TRUNCATION_FLOOR = 1e-15

#: Largest block the oracle diagonalizes; the dense solve needs several
#: matrices of this many states squared.
MAX_BLOCK_STATES = 10_000


@dataclass(frozen=True, eq=False)
class DressedState:
    """Eigenstate continuously connected to an unperturbed Dicke label (n, m).

    vector holds the Dicke-basis coefficients: length 4*(K+1) for the photon
    cutoff K <= nmax it was solved at, row 4*n + m, unit norm, zero outside
    the label's conserved-quantity block, and positive at the label's row.
    Rows past its end, up to nmax photons, are zero.  For H0 + V,
    K = n - m + 3, the extent of the label's block.  With V_RWA the row
    count says where the cutoff ladder stopped: K = vector.size // 4 - 1,
    the first rung that certified, or nmax if none below it did.
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


def _block_hamiltonian(omega: float, e0: float, lam: float, cutoff: int,
                       include_rwa: bool, block: int) -> tuple[np.ndarray, np.ndarray]:
    """One conserved-quantity block of H in the Dicke basis, up to cutoff photons.

    Returns (rows, h): the Dicke indices 4*n + m of the block's states in
    ascending order, and the block matrix over them.
    """
    n, m = np.divmod(np.arange(4 * (cutoff + 1)), 4)
    rows = np.flatnonzero(_block_of(n, m, include_rwa) == block)
    n, m = n[rows], m[rows]
    h = np.diag(n * omega + m * e0)
    spin = np.sqrt((m + 1) * (3 - m))  # collective sigma^+ on the Dicke state m
    # V: (n, m) -> (n+1, m+1), Dicke index + 5; V_RWA: (n, m) -> (n-1, m+1), index - 3
    hops = [(n < cutoff, 5, n + 1)]
    if include_rwa:
        hops.append((n >= 1, -3, n))
    for allowed, step, photons in hops:
        src = np.flatnonzero(allowed & (m < 3))
        dst = np.searchsorted(rows, rows[src] + step)
        h[src, dst] = h[dst, src] = lam * np.sqrt(photons[src]) * spin[src]
    return rows, h


def _certified(overlap: float, w: np.ndarray, vector: np.ndarray, edge: np.ndarray) -> bool:
    """Whether the match (overlap, vector) in a cutoff block stands for every larger cutoff.

    The acceptance rule of the module docstring: a label overlap that
    exceeds sqrt(1 - overlap^2) by MIN_MATCH_MARGIN, which also makes it
    dominant (overlap^2 > 1/2), and a truncation residual |edge @ vector|
    of at most TRUNCATION_FLOOR*max|w|.
    """
    return (overlap - math.sqrt(max(0.0, 1.0 - overlap ** 2)) >= MIN_MATCH_MARGIN
            and np.linalg.norm(edge @ vector) <= TRUNCATION_FLOOR * float(np.abs(w).max()))


def _symmetric_eig(omega: float, e0: float, lam: float, cutoff: int,
                   include_rwa: bool, block: int, nmax: int):
    """Checked eigendecomposition of one block of H: (w, v, Dicke rows, edge).

    Built at min(cutoff + 1, nmax) photons.  edge is the slab of H coupling
    the n = cutoff + 1 layer to the block's rows, so edge @ x is the part of
    H x past the cutoff (0 rows at cutoff == nmax); a copy, so a rung kept
    for the rest of a call does not pin the (cutoff + 1)-photon matrix.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        rows, h = _block_hamiltonian(omega, e0, lam, min(cutoff + 1, nmax), include_rwa, block)
        k = int(np.searchsorted(rows, 4 * (cutoff + 1)))  # Dicke rows ascend
        rows, edge, h = rows[:k], h[k:, :k].copy(), h[:k, :k]
        finite = np.isfinite(np.linalg.norm(h))
    if not finite:
        raise ParameterDomainError(
            f"the Hamiltonian block at omega={omega}, lambda={lam} has no finite norm "
            "(input outside double-precision range)")
    w, v = _eigh_checked(h)
    return w, v, rows, edge


def _cutoffs(nmax: int, n: int):
    """The ladder of photon cutoffs tried for a V_RWA label with n photons.

    FIRST_CUTOFF (or nmax if smaller), doubling, ending at nmax; rungs
    without HEADROOM photons above the label are skipped, which keeps the
    label inside every rung.
    """
    cutoff = min(nmax, FIRST_CUTOFF)
    while cutoff < nmax:
        if cutoff - n >= HEADROOM:
            yield cutoff
        cutoff *= 2
    yield nmax


def dressed_state(n: int, m: int, p: SystemParams, omega: float,
                  include_rwa: bool = False) -> DressedState:
    """Symmetric-sector eigenvector dominated by the Dicke state |n; m>.

    n photons, m of the three qubits excited; a non-integer label, n < 0 or
    m outside 0..3 raises ParameterDomainError, and so does an omega that
    is not a real number (a bool is not), finite and > 0.  Only the
    conserved-quantity block holding the label is diagonalized: once, for
    H0 + V, and on the ladder of photon cutoffs with V_RWA, as the module
    docstring describes; a rung whose block would exceed MAX_BLOCK_STATES
    states, or whose matrix norm overflows double precision, raises
    ParameterDomainError.  The match
    maximizes |overlap| with the label's row within the block; it must be
    dominant (> 1/sqrt(2)) and separated from the runner-up (0 in a
    one-state block) by at least MIN_MATCH_MARGIN, otherwise a
    DegeneracyAmbiguityError is raised.  The phase is fixed so the label's
    component is positive.
    """
    return _dressed(n, m, p, _positive("omega", omega), include_rwa, {})


def _dressed(n, m, p, omega, include_rwa, rungs: dict) -> DressedState:
    """dressed_state, sharing rungs: _symmetric_eig's arguments -> its result."""
    n, m = _channel(n, m)
    label = f"|n={n}, m={m}>"
    if n > p.nmax - HEADROOM:
        raise TruncationHeadroomError(
            f"label {label} needs photon headroom: n <= nmax - {HEADROOM} "
            f"= {p.nmax - HEADROOM}")
    block = _block_of(n, m, include_rwa)
    for cutoff in _cutoffs(p.nmax, n) if include_rwa else (block + 3,):
        states = 2 * (cutoff + 1) if include_rwa else 4
        if states > MAX_BLOCK_STATES:
            raise ParameterDomainError(
                f"nmax={p.nmax} is too large: no cutoff below {cutoff} photons "
                f"certifies {label}, and the {cutoff}-photon block has {states} "
                f"states, over the {MAX_BLOCK_STATES}-state limit")
        key = (omega, p.e0, p.lambda_, cutoff, include_rwa, block, p.nmax)
        if key not in rungs:
            rungs[key] = _symmetric_eig(*key)
        w, v, rows, edge = rungs[key]
        target = int(np.searchsorted(rows, 4 * n + m))
        overlaps = np.abs(v[target, :])
        order = np.argsort(overlaps)[::-1]  # the refusals after the loop read it too
        best = order[0]
        if _certified(overlaps[best], w, v[:, best], edge):
            break
    runner_up = overlaps[order[1]] if order.size > 1 else 0.0
    if overlaps[best] - runner_up < MIN_MATCH_MARGIN:
        raise DegeneracyAmbiguityError(
            f"two eigenvectors match {label} equally well "
            f"({overlaps[best]:.6f} vs {runner_up:.6f}); near-crossing")
    if overlaps[best] <= MIN_LABEL_OVERLAP:
        raise DegeneracyAmbiguityError(
            f"best overlap {overlaps[best]:.4f} with {label} is not dominant "
            f"(needs > {MIN_LABEL_OVERLAP:.4f}); state has lost its label character")
    vector = np.zeros(4 * (cutoff + 1))
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
    rungs = {}
    ground = _dressed(0, 0, p, p.omega1, include_rwa, rungs)
    return _overlap(ground, _dressed(n, m, p, p.omega2, include_rwa, rungs), m)


def _overlap(ground: DressedState, target: DressedState, m: int) -> float:
    """<target|ground> per configuration of the m-qubit target class."""
    # the shorter vector is zero past its end, so the dot runs over the common rows
    size = min(target.vector.size, ground.vector.size)
    overlap = float(target.vector[:size] @ ground.vector[:size])
    return overlap / math.sqrt(CLASS_MULTIPLICITY[m])


def compare_with_closed_forms(p: SystemParams, lambda_scales: list[float],
                              include_rwa: bool = False):
    """Oracle-vs-closed-form table over coupling scalings.

    One row per (scale, channel in DLE_CHANNELS): closed form and sudden
    overlap evaluated at coupling scale * lambda, with their relative
    deviation.  The scales must number at least two, keep lambda * scale
    finite and > 0, and strictly descend, so that shrink_factors has a
    factor to gate; otherwise ParameterDomainError, which names the scales
    that break the finite-and-positive rule.  Since SystemParams keeps
    lambda > 0, that rule is also what refuses a scale <= 0.  The first row
    whose closed form or rel_dev is not finite raises ParameterDomainError
    once its states are solved, so the table holds no inf or nan.
    """
    if len(lambda_scales) < 2:
        raise ParameterDomainError("need at least two lambda scales")
    # lambda > 0, so this refuses every scale <= 0, nan and inf scales, and
    # those that under- or overflow lambda * scale
    bad = [s for s in lambda_scales if not 0.0 < p.lambda_ * s < math.inf]
    if bad:
        raise ParameterDomainError(
            f"lambda scales must keep lambda * scale finite and > 0, got {bad}")
    if not all(a > b for a, b in zip(lambda_scales, lambda_scales[1:])):
        raise ParameterDomainError("lambda scales must strictly descend, e.g. 1, 0.5, 0.25")
    rows = []
    for scale in lambda_scales:
        p_s = SystemParams(p.omega1, p.omega2, p.e0, p.lambda_ * scale, nmax=p.nmax)
        rungs = {}  # one store per scale: a larger one would keep every scale's rungs alive
        ground = _dressed(0, 0, p_s, p_s.omega1, include_rwa, rungs)
        guard_detuning(p_s.omega2, p_s.e0)
        with np.errstate(all="ignore"):  # numpy scalars: a zero divisor gives inf or nan
            closed_forms = list(map(float, _channel_values(*np.array(astuple(p_s)[:4]))))
        for (n, m), closed in zip(DLE_CHANNELS, closed_forms):
            orac = _overlap(ground, _dressed(n, m, p_s, p_s.omega2, include_rwa, rungs), m)
            # undefined when the closed form vanishes (e.g. (1,1) at w2 = w1)
            rel = abs(orac - closed) / abs(closed) if closed != 0.0 else None
            # an oracle overlap is a dot product of two checked unit eigenvectors
            for key, value in (("closed_form", closed), ("rel_dev", rel)):
                if value is not None and not math.isfinite(value):
                    raise _not_finite(f"{key} of channel ({n}, {m}) (include_rwa={include_rwa}) "
                                      f"at lambda scale {scale}")
            rows.append({
                "channel_n": n, "channel_m": m,
                "closed_form": closed, "oracle": orac, "rel_dev": rel,
                "nmax": p.nmax, "lambda_scale": scale, "include_rwa": include_rwa})
    return rows


#: Channels whose closed form the exact overlap converges to, with or without V_RWA.
GATED_CHANNELS = ((1, 1),)


def shrink_factors(rows, channel: tuple[int, int]) -> list[float]:
    """Deviation shrink factors between successive lambda scales for one channel.

    A factor of zero marks an undefined deviation: None (a vanishing closed
    form), or nan or inf, which compare_with_closed_forms refuses, so only
    rows a caller builds hold them.  A gate should treat it as failing
    rather than silently passing.  A zero deviation after a finite nonzero
    one gives inf.
    """
    devs = [r["rel_dev"] for r in rows
            if (r["channel_n"], r["channel_m"]) == channel]
    out = []
    for a, b in zip(devs, devs[1:]):
        if a is None or b is None or not math.isfinite(a) or not math.isfinite(b):
            out.append(0.0)
        elif b > 0:
            out.append(a / b)
        else:
            out.append(math.inf)
    return out
