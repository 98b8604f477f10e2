"""Independent checks of every benchmark operation's output.

The reference re-evaluates the paper's closed forms in plain Python, without
importing dle3q:

    A(2;0) = -3 sqrt2 lam^2 / ((w1+E0)(w2-E0))    A(1;1) = lam (1/(w2+E0) - 1/(w1+E0))
    A(0;2) =  2 lam^2 / ((w2-E0)(w1+E0))          A(2;2) = -2 sqrt2 lam^2 / ((w2+E0)(w1+E0))

every other A(n;m) is zero; w_m = sum_n A(n;m)^2.  The photon-number-n sector
of the final state is permutation symmetric with coefficients a_k = A(n;k)
for k excited qubits, so its residual tangle and pair concurrences are

    tau|n>   = 4 |a0^2 a3^2 - 3 a1^2 a2^2 - 6 a0 a1 a2 a3 + 4 a0 a2^3 + 4 a1^3 a3|
    C|n>_AB0 = 2 |a0 a2 - a1^2|        C|n>_AB1 = 2 |a1 a3 - a2^2|

The paper tabulates C|2>_AB1 at half the formula value; the CLI reports the
tabulated value as c_ab1 and the formula value as c_ab1_formula_path.

Each check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache

from workloads import PAPER_POINT, VALIDATE_SCALES

REL_TOL = 1e-9
PUBLISHED_TOL = 0.01
SWEEP_GUARD_BAND = 1e-6  # sweep points this close to E0 (relative) are skipped
PERTURBATIVE_THRESHOLD = 0.5
GATED_ROWS = 24  # 4 channels x 3 lambda scales x 2 Hamiltonians
MONOGAMY_TOL = 1e-10

CHANNELS = ((2, 0), (1, 1), (0, 2), (2, 2))

#: Values the paper quotes at its parameter point (omega1, omega2, E0, lam) = (5, 3.75, 3.721, 0.2).
PUBLISHED = {"w_1": 1.47e-5, "w_2": 0.1, "tau_2": 5.62e-8, "c_0_ab1": 0.2,
             "c_1_ab0": 2.95e-5, "c_2_ab0": 2.33e-3, "c_2_ab1": 3.02e-6}


def amplitudes(omega1, omega2, e0, lam) -> dict:
    s1, s2, d2 = omega1 + e0, omega2 + e0, omega2 - e0
    lam2, r2 = lam * lam, math.sqrt(2.0)
    return {(2, 0): -3.0 * r2 * lam2 / (s1 * d2),
            (1, 1): lam * (1.0 / s2 - 1.0 / s1),
            (0, 2): 2.0 * lam2 / (d2 * s1),
            (2, 2): -2.0 * r2 * lam2 / (s2 * s1)}


def sector_measures(amps: dict, n: int) -> dict:
    a0, a1, a2, a3 = (amps.get((n, k), 0.0) for k in range(4))
    tau = 4.0 * abs(a0 ** 2 * a3 ** 2 - 3.0 * a1 ** 2 * a2 ** 2 - 6.0 * a0 * a1 * a2 * a3
                    + 4.0 * a0 * a2 ** 3 + 4.0 * a1 ** 3 * a3)
    c_ab1_formula = 2.0 * abs(a1 * a3 - a2 ** 2)
    return {"tau_abc": tau, "c_ab0": 2.0 * abs(a0 * a2 - a1 ** 2),
            "c_ab1": c_ab1_formula / 2.0 if n == 2 else c_ab1_formula,
            "c_ab1_formula_path": c_ab1_formula}


def point_reference(omega1, omega2, e0, lam) -> dict:
    """Everything report and sweep print about one parameter point."""
    amps = amplitudes(omega1, omega2, e0, lam)
    w = {f"w_{m}": sum(a * a for (_, mm), a in amps.items() if mm == m) for m in range(4)}
    sectors = {n: sector_measures(amps, n) for n in (0, 1, 2)}
    etas = (lam / (omega1 + e0), lam / (omega2 + e0),
            lam / abs(omega1 - e0), lam / abs(omega2 - e0))
    return {"amps": amps, **w, "sectors": sectors,
            "tau_2": sectors[2]["tau_abc"], "c_0_ab1": sectors[0]["c_ab1"],
            "c_1_ab0": sectors[1]["c_ab0"], "c_2_ab0": sectors[2]["c_ab0"],
            "c_2_ab1": sectors[2]["c_ab1"],
            "perturbative_ok": all(r < PERTURBATIVE_THRESHOLD for r in etas)}


def _close(value, ref) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return abs(value - ref) <= REL_TOL * abs(ref)


class _Problems(list):
    def value(self, where: str, value, ref) -> None:
        if not _close(value, ref):
            self.append(f"{where}: got {value!r}, reference {ref!r}")

    def equal(self, where: str, value, ref) -> None:
        if value != ref:
            self.append(f"{where}: got {value!r}, expected {ref!r}")


SUMMARY_KEYS = ("w_1", "w_2", "tau_2", "c_0_ab1", "c_1_ab0", "c_2_ab0", "c_2_ab1")
SECTOR_KEYS = ("tau_abc", "c_ab0", "c_ab1", "c_ab1_formula_path")


def _check_published(out: _Problems, summary: dict) -> None:
    for key, published in PUBLISHED.items():
        got = summary.get(key)
        if not isinstance(got, float) or abs(got - published) > PUBLISHED_TOL * published:
            out.append(f"paper point {key}: got {got!r}, published {published!r}")


def check_report(inp, stdout: str) -> list[str]:
    out = _Problems()
    ref = point_reference(*inp.point)
    if inp.fmt == "json":
        doc = json.loads(stdout)
        for (n, m), a in ref["amps"].items():
            out.value(f"amplitudes.a_{n}_{m}", doc["amplitudes"][f"a_{n}_{m}"], a)
        channels = {(r["n"], r["m"]): r for r in doc["channels"]}
        out.equal("channels", sorted(channels), sorted(ref["amps"]))
        for ch, a in ref["amps"].items():
            if ch in channels:
                out.value(f"channel {ch} amplitude", channels[ch]["amplitude"], a)
                out.value(f"channel {ch} probability", channels[ch]["probability"], a * a)
        for m in range(4):
            out.value(f"w_{m}", doc["probabilities"][f"w_{m}"], ref[f"w_{m}"])
        rows = {r["n"]: r for r in doc["entanglement"]}
        out.equal("entanglement rows", sorted(rows), [0, 1, 2])
        for n, measures in ref["sectors"].items():
            for key in SECTOR_KEYS:
                out.value(f"entanglement n={n} {key}", rows.get(n, {}).get(key), measures[key])
        summary = doc["summary"]
    else:
        lines = stdout.splitlines()
        out.equal("csv header", lines[:1], ["n,measure,value"])
        cells = {}
        for line in lines[1:]:
            n, measure, value = line.split(",")
            cells[(n, measure)] = value

        def num(n, measure):
            return float(cells[("" if n is None else str(n), measure)])

        for (n, m), a in ref["amps"].items():
            out.value(f"amplitude_m{m} n={n}", num(n, f"amplitude_m{m}"), a)
            out.value(f"probability_m{m} n={n}", num(n, f"probability_m{m}"), a * a)
        for m in range(4):
            out.value(f"w_{m}", num(None, f"w_{m}"), ref[f"w_{m}"])
        for n, measures in ref["sectors"].items():
            for key in SECTOR_KEYS:
                out.value(f"n={n} {key}", num(n, key), measures[key])
        summary = {"w_1": num(None, "w_1"), "w_2": num(None, "w_2"),
                   "tau_2": num(2, "tau_abc"), "c_0_ab1": num(0, "c_ab1"),
                   "c_1_ab0": num(1, "c_ab0"), "c_2_ab0": num(2, "c_ab0"),
                   "c_2_ab1": num(2, "c_ab1")}
    for key in SUMMARY_KEYS:
        out.value(f"summary.{key}", summary.get(key), ref[key])
    if tuple(inp.point) == PAPER_POINT:
        _check_published(out, summary)
    return out


SWEEP_COLUMNS = ("omega2", "w_0", "w_1", "w_2", "tau_2",
                 "c_0_ab1", "c_1_ab0", "c_2_ab0", "c_2_ab1", "perturbative_ok")


@lru_cache(maxsize=8)  # a run cycles through a small pool of sweeps
def _sweep_reference(inp):
    omega1, _, e0, lam = inp.point
    lo, hi, steps = inp.grid
    rows, skipped = [], 0
    for i in range(steps):
        omega2 = lo + (hi - lo) * i / (steps - 1)
        if abs(omega2 - e0) < SWEEP_GUARD_BAND * e0:
            skipped += 1
            continue
        ref = point_reference(omega1, omega2, e0, lam)
        rows.append((omega2, ref["w_0"], ref["w_1"], ref["w_2"], ref["tau_2"], ref["c_0_ab1"],
                     ref["c_1_ab0"], ref["c_2_ab0"], ref["c_2_ab1"], ref["perturbative_ok"]))
    below = [r[4] for r in rows if r[0] < e0]
    above = [r[4] for r in rows if r[0] > e0]
    flags = {
        "tau_2_monotone_below_e0":
            all(a < b for a, b in zip(below, below[1:])) if len(below) >= 2 else None,
        "tau_2_monotone_above_e0":
            all(a > b for a, b in zip(above, above[1:])) if len(above) >= 2 else None,
    }
    return rows, skipped, flags


def check_sweep(inp, stdout: str, stderr: str) -> list[str]:
    out = _Problems()
    ref_rows, ref_skipped, ref_flags = _sweep_reference(inp)
    if inp.fmt == "json":
        doc = json.loads(stdout)
        rows = [tuple(r[c] for c in SWEEP_COLUMNS) for r in doc["rows"]]
        skipped = doc["skipped"]
        flags = {k: doc[k] for k in ref_flags}
    else:
        lines = stdout.splitlines()
        out.equal("csv header", lines[:1], [",".join(SWEEP_COLUMNS)])
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            rows.append((*map(float, cells[:-1]), {"true": True, "false": False}[cells[-1]]))
        notes = dict(line.split(": ", 1) for line in stderr.splitlines() if ": " in line)
        skipped = int(notes["skipped"])
        flags = {k: {"True": True, "False": False, "None": None}[notes[k]] for k in ref_flags}
    out.equal("rows + skipped", len(rows) + skipped, inp.grid[2])
    out.equal("skipped", skipped, ref_skipped)
    out.equal("monotone flags", flags, ref_flags)
    if len(rows) == len(ref_rows):
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            for col, value, expected in zip(SWEEP_COLUMNS[:-1], row, ref):
                out.value(f"row {i} {col}", value, expected)
            out.equal(f"row {i} perturbative_ok", row[-1], ref[-1])
            if len(out) > 20:
                break
    return out


def check_validate(inp, stdout: str) -> list[str]:
    out = _Problems()
    doc = json.loads(stdout)
    out.equal("gate_passed", doc["gate_passed"], True)
    out.equal("row count", len(doc["rows"]), GATED_ROWS)
    omega1, omega2, e0, lam = inp.point
    expected = [(rwa, scale, ch) for rwa in (False, True) for scale in VALIDATE_SCALES
                for ch in CHANNELS]
    for row, (rwa, scale, ch) in zip(doc["rows"], expected):
        out.equal("row label", ((row["channel_n"], row["channel_m"]), row["lambda_scale"],
                                row["include_rwa"], row["nmax"]), (ch, scale, rwa, inp.nmax))
        out.value(f"closed_form {ch} scale {scale}", row["closed_form"],
                  amplitudes(omega1, omega2, e0, lam * scale)[ch])
        if not (isinstance(row["oracle"], float) and math.isfinite(row["oracle"])):
            out.append(f"oracle {ch} scale {scale}: not a finite number")
    return out


def check_cli(inp, exit_code: int, stdout: bytes, stderr: bytes) -> list[str]:
    """Problems with one CLI operation's exit code and output; [] when correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {stderr.decode(errors='replace').strip()[-300:]}"]
    try:
        text, notes = stdout.decode(), stderr.decode()
        if inp.command == "report":
            return check_report(inp, text)
        if inp.command == "sweep":
            return check_sweep(inp, text, notes)
        return check_validate(inp, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]



def check_monogamy(residual: float) -> list[str]:
    """The CKW residual of a normalized pure state must vanish."""
    if abs(residual) <= MONOGAMY_TOL:  # False for NaN
        return []
    return [f"|monogamy residual| {abs(residual):.3e} > {MONOGAMY_TOL:.0e}"]


class Determinism:
    """First output digest per input key; a later, different digest is a failure."""

    def __init__(self):
        self.first: dict[int, str] = {}

    def check(self, key: int, output: bytes) -> tuple[str, list[str]]:
        digest = hashlib.sha256(output).hexdigest()
        first = self.first.setdefault(key, digest)
        return digest, [] if digest == first else [f"non-deterministic output for input {key}"]
