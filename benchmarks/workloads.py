"""Seeded inputs of the four benchmark workloads.

Every generator is a pure function of the run's seed, so the untraced run
and the traced replay see the same inputs.  CLI workloads produce argv lists
for ``dle3q``; the program receives nothing but those flags.

Each workload also fixes a cycle: a run starts a new operation after its
deadline only to finish the current cycle, so every run holds the input mix
(json/csv, or the three nmax rungs) in the same proportions.  Inputs come from
a small pool that the run walks round-robin, so every input recurs within a
run and its output bytes can be compared for determinism.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

#: The paper's parameter point (omega1, omega2, E0, lambda) in GHz.
PAPER_POINT = (5.0, 3.75, 3.721, 0.2)

SWEEP_STEPS = 20_000
VALIDATE_RUNGS = (20, 80, 160)
VALIDATE_SCALES = (1.0, 0.5, 0.25)  # the CLI's default --lambda-scales
MONOGAMY_POOL = 4096

NAMES = ("report-points", "sweep-dense", "validate-ladder", "monogamy-states")


@dataclass(frozen=True)
class CliInput:
    """One CLI invocation plus what the checks need to judge its output."""

    key: int  # index in the pool; equal keys must give equal bytes
    command: str  # report | sweep | validate
    argv: tuple[str, ...]
    point: tuple[float, float, float, float]  # omega1, omega2 (or nan), e0, lambda
    fmt: str = "json"
    grid: tuple[float, float, int] | None = None  # sweep: lo, hi, steps
    nmax: int | None = None
    items: int = 1  # parameter points this operation answers for
    cf_points: int = 1  # points at which it needs the four closed forms


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int
    inputs: tuple  # CliInput for the CLI workloads, () for monogamy-states


def _f(x: float) -> str:
    return repr(float(x))  # round-trips exactly through the CLI's float()


def _point_flags(omega1, omega2, e0, lam) -> list[str]:
    flags = ["--omega1-ghz", _f(omega1)]
    if omega2 is not None:
        flags += ["--omega2-ghz", _f(omega2)]
    return flags + ["--e0-ghz", _f(e0), "--lambda-ghz", _f(lam)]


def report_points(seed: int, pool: int = 24) -> Workload:
    rng = random.Random(f"report-points/{seed}")
    points = [PAPER_POINT]
    while len(points) < pool:
        e0 = rng.uniform(3.5, 4.0)
        omega2 = e0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 1.0)
        points.append((rng.uniform(4.5, 5.5), omega2, e0, rng.uniform(0.01, 0.2)))
    inputs = []
    for key, point in enumerate(points):
        fmt = "json" if key % 2 == 0 else "csv"
        argv = ("report", *_point_flags(*point), "--format", fmt)
        inputs.append(CliInput(key, "report", argv, point, fmt))
    return Workload("report-points", 2, tuple(inputs))


def _sweep_grid(rng: random.Random, e0: float, hit_e0: bool) -> tuple[float, float]:
    below, above = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
    lo = e0 - below
    if not hit_e0:
        return lo, e0 + above
    # Put grid point k on E0 (to rounding) so the guard-band skip is exercised.
    k = round((SWEEP_STEPS - 1) * below / (below + above))
    return lo, lo + (SWEEP_STEPS - 1) * (below / k)


def sweep_dense(seed: int, pool: int = 4) -> Workload:
    rng = random.Random(f"sweep-dense/{seed}")
    inputs = []
    for key in range(pool):
        omega1, e0, lam = rng.uniform(4.5, 5.5), rng.uniform(3.5, 4.0), rng.uniform(0.01, 0.2)
        lo, hi = _sweep_grid(rng, e0, hit_e0=key % 2 == 0)
        fmt = "json" if key % 2 == 0 else "csv"
        argv = ("sweep", *_point_flags(omega1, None, e0, lam),
                "--omega2-min-ghz", _f(lo), "--omega2-max-ghz", _f(hi),
                "--steps", str(SWEEP_STEPS), "--format", fmt)
        inputs.append(CliInput(key, "sweep", argv, (omega1, float("nan"), e0, lam), fmt,
                               grid=(lo, hi, SWEEP_STEPS), items=SWEEP_STEPS,
                               cf_points=SWEEP_STEPS))
    return Workload("sweep-dense", 2, tuple(inputs))


def validate_ladder(seed: int, pool: int = 4) -> Workload:
    rng = random.Random(f"validate-ladder/{seed}")
    inputs = []
    for _ in range(pool):
        point = (rng.uniform(4.8, 5.2), rng.uniform(4.3, 4.7),
                 rng.uniform(3.6, 3.8), rng.uniform(0.01, 0.03))
        for nmax in VALIDATE_RUNGS:
            argv = ("validate", *_point_flags(*point), "--nmax", str(nmax), "--rwa", "both")
            inputs.append(CliInput(len(inputs), "validate", argv, point, nmax=nmax,
                                   cf_points=len(VALIDATE_SCALES)))
    return Workload("validate-ladder", len(VALIDATE_RUNGS), tuple(inputs))


def build(name: str, seed: int) -> Workload:
    if name == "report-points":
        return report_points(seed)
    if name == "sweep-dense":
        return sweep_dense(seed)
    if name == "validate-ladder":
        return validate_ladder(seed)
    if name == "monogamy-states":
        return Workload("monogamy-states", 1, ())
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def monogamy_states(seed: int, pool: int = MONOGAMY_POOL):
    """Haar-random pure 3-qubit states: normalized complex Gaussian vectors."""
    import numpy as np

    rng = np.random.default_rng([seed % 2**64, 3])
    z = rng.standard_normal((pool, 8)) + 1j * rng.standard_normal((pool, 8))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


#: The paper-point validate run that fails today; reported, never timed.
KNOWN_RED_ARGV = ("validate", *_point_flags(*PAPER_POINT))
