"""Acceptance suite: the published numbers, the oracle gates, and the timing
bounds, one criterion per test, each printing a PASS/FAIL line.

Reference parameter point throughout (linear-frequency GHz):
omega1 = 5, omega2 = 3.75, E0 = 3.721, lambda = 0.2.

Criterion 9 checks the second-order energies against the exact oracle at
lambda = 0.005 GHz to 1e-8 GHz.  The one-photon one-qubit class is threefold
degenerate, so its check (9b) compares each exact eigenvalue with degenerate
second-order theory: the symmetric dressed state sits at E + 2*W_ab
(E = energy_second_order, 2*W_ab = symmetric_class_shift), and the centroid
of the three class eigenvalues sits at E.  See the repository README.
"""
import json
import math
import time

import numpy as np
import pytest

from dle3q import (SystemParams, compare_with_closed_forms, dressed_state,
                   entanglement_report, monogamy_residual, residual_tangle_general,
                   shrink_factors)
from dle3q.cli import main
from reference import (BasisState, diagonalize_total, dicke, energy_second_order, evaluate,
                       index_of, padded, perturbed_state, symmetric_class_shift, symmetrizer)

PAPER = SystemParams(omega1=5.0, omega2=3.75, e0=3.721, lambda_=0.2)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def best_runtime(fn, repeats: int = 5) -> float:
    fn()  # warm-up
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_single_qubit_probability():
    w1 = evaluate(PAPER).w[1]
    runtime = best_runtime(lambda: evaluate(PAPER).w[1])
    ok = abs(w1 - 1.47e-5) <= 0.01 * 1.47e-5 and runtime < 1e-3
    report("1 (w_1 = 1.47e-5, < 1 ms)", ok, f"w_1 = {w1:.6e}, runtime = {runtime * 1e6:.0f} us")


def test_criterion_2_two_qubit_probability():
    w2 = evaluate(PAPER).w[2]
    runtime = best_runtime(lambda: evaluate(PAPER).w[2])
    ok = abs(w2 - 0.1) <= 0.01 * 0.1 and runtime < 1e-3
    report("2 (w_2 = 0.1, < 1 ms)", ok, f"w_2 = {w2:.6e}, runtime = {runtime * 1e6:.0f} us")


def test_criterion_3_conditional_tangle():
    tau0, tau1, tau2 = evaluate(PAPER).sectors.tau_abc
    ok = abs(tau2 - 5.62e-8) <= 0.01 * 5.62e-8 and tau0 == 0.0 and tau1 == 0.0
    report("3 (tau|2> = 5.62e-8, tau|0> = tau|1> = 0)", ok,
           f"tau|2> = {tau2:.6e}, tau|0> = {tau0}, tau|1> = {tau1}")


def test_criterion_4_conditional_concurrences():
    sectors = evaluate(PAPER).sectors
    checks = [
        (sectors.c_ab1[0], 0.2, "C|0>_AB1"),
        (sectors.c_ab0[1], 2.95e-5, "C|1>_AB0"),
        (sectors.c_ab0[2], 2.33e-3, "C|2>_AB0"),
        (sectors.c_ab1[2], 3.02e-6, "C|2>_AB1"),
    ]
    ok = all(abs(got - want) <= 0.01 * want for got, want, _ in checks)
    # the formula-path value must be emitted and flagged as twice the table value
    formula = sectors.c_ab1_formula_path[2]
    table = sectors.c_ab1[2]
    ok = ok and abs(formula - 2 * table) <= 1e-12 * formula
    code = main(["report", "--omega1-ghz", "5", "--omega2-ghz", "3.75",
                 "--e0-ghz", "3.721", "--lambda-ghz", "0.2"])
    assert code == 0
    detail = ", ".join(f"{name} = {got:.4e}" for got, _, name in checks)
    report("4 (Table-III concurrences, formula path flagged 2x)", ok,
           detail + f", formula path = {formula:.4e}")


def test_criterion_4_formula_path_emitted(capsys):
    main(["report", "--omega1-ghz", "5", "--omega2-ghz", "3.75",
          "--e0-ghz", "3.721", "--lambda-ghz", "0.2"])
    doc = json.loads(capsys.readouterr().out)
    row = next(r for r in doc["entanglement"] if r["n"] == 2)
    assert row["formula_path_mismatch"] is True
    assert row["c_ab1_formula_path"] == pytest.approx(2 * row["c_ab1"], rel=1e-9)


def test_criterion_5_zero_contracts():
    grid = [PAPER,
            SystemParams(5.0, 4.5, 3.721, 0.005),
            SystemParams(7.0, 2.0, 1.3, 0.05),
            SystemParams(1.0, 1.5, 0.7, 0.01)]
    ok = True
    for p in grid:
        cf = evaluate(p)
        ok = ok and cf.w[3] == 0.0
        for n in range(3):
            for m in range(4):
                if (n, m) not in ((2, 0), (1, 1), (0, 2), (2, 2)):
                    ok = ok and cf.amplitudes[n][m] == 0.0
    report("5 (A(n;3) = 0, w_3 = 0, zero outside the four channels)", ok,
           f"checked {len(grid)} parameter points, n = 0..2, m = 0..3")


def test_criterion_6_oracle_equivalence(capsys):
    # lambda / omega1 in {0.004, 0.002, 0.001} via base 0.02 GHz and halvings
    p = SystemParams(5.0, 4.5, 3.721, 0.02, nmax=20)
    rows = compare_with_closed_forms(p, [1.0, 0.5, 0.25], include_rwa=False)
    devs = [r["rel_dev"] for r in rows if (r["channel_n"], r["channel_m"]) == (1, 1)]
    factors = shrink_factors(rows, (1, 1))
    # the full CLI validate run (both Hamiltonian variants) carries the bound
    start = time.perf_counter()
    code = main(["validate", "--omega1-ghz", "5", "--omega2-ghz", "4.5",
                 "--e0-ghz", "3.721", "--lambda-ghz", "0.02", "--nmax", "20"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    ok = (all(f >= 3.0 for f in factors) and devs[-1] <= 1e-3
          and code == 0 and elapsed < 5.0)
    report("6 (channel (1;1): shrink >= 3 per halving, <= 1e-3 at smallest, < 5 s)",
           ok, f"rel_devs = {['%.2e' % d for d in devs]}, "
               f"factors = {['%.1f' % f for f in factors]}, validate run = {elapsed:.2f} s")


def worst_criterion_7_residual() -> float:
    """Largest |monogamy_residual| over criterion 7's 1000 seeded Haar-random states."""
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(1000):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        worst = max(worst, abs(monogamy_residual(psi)))
    return worst


def test_criterion_7_monogamy_property_suite():
    worst = worst_criterion_7_residual()
    ghz = np.zeros(8)
    ghz[[0, 7]] = 1 / math.sqrt(2)
    w_state = np.zeros(8)
    w_state[[4, 2, 1]] = 1 / math.sqrt(3)
    tau_ghz = residual_tangle_general(ghz)
    tau_w = residual_tangle_general(w_state)
    ok = worst <= 1e-10 and abs(tau_ghz - 1.0) <= 1e-12 and abs(tau_w) <= 1e-12
    report("7 (1000 random monogamy residuals <= 1e-10, GHZ -> 1, W -> 0)", ok,
           f"worst residual = {worst:.2e}, tau_GHZ = {tau_ghz:.15f}, tau_W = {tau_w:.1e}")


def test_criterion_7_residuals_at_rounding():
    # the rank-2 pair concurrences difference no eigenvalues, so the CKW identity
    # holds to a few units of rounding, far inside criterion 7's 1e-10
    worst = worst_criterion_7_residual()
    assert worst <= 1e-14, f"worst residual = {worst:.2e}"


def test_criterion_8_tunability():
    grid = np.array([3.73 + (4.5 - 3.73) * i / 99 for i in range(100)])

    def closed_forms_on_grid():
        sectors = entanglement_report(5.0, grid, 3.721, 0.2).sectors
        return sectors.tau_abc[2], sectors.c_ab1[0]

    taus, concs = closed_forms_on_grid()
    runtime = best_runtime(closed_forms_on_grid, repeats=3)
    strictly_decreasing = bool((taus[:-1] > taus[1:]).all() and (concs[:-1] > concs[1:]).all())
    ok = strictly_decreasing and runtime < 0.1
    report("8 (tau|2> and C|0>_AB1 strictly decreasing on [3.73, 4.5], < 100 ms)",
           ok, f"100 points in {runtime * 1e3:.1f} ms, "
               f"tau range [{taus[-1]:.2e}, {taus[0]:.2e}]")


# --- criterion 9: perturbation-theory internals at lambda = 0.005 GHz ---

P9 = SystemParams(5.0, 3.75, 3.721, 0.005, nmax=20)
GROUND = BasisState(0, (0, 0, 0))
ONE_PHOTON = BasisState(1, (1, 0, 0))
ONE_PHOTON_CLASS = [BasisState(1, q) for q in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]


def _normalized_symmetric_first_order(labels):
    vec = sum(perturbed_state(s, P9.omega1, P9) for s in labels)
    return vec / np.linalg.norm(vec)


def test_criterion_9_ground_state_eigenvalue():
    ds = dressed_state(*dicke(GROUND), P9, P9.omega1, include_rwa=True)
    diff = abs(ds.eigenvalue - energy_second_order(*dicke(GROUND), P9.omega1, P9))
    report("9a (ground dressed eigenvalue vs second-order energy <= 1e-8 GHz)",
           diff <= 1e-8, f"diff = {diff:.2e} GHz")


def test_criterion_9_one_photon_class_eigenvalue():
    """Degenerate second-order energies of the one-photon one-qubit class.

    The class is threefold degenerate; second-order cross terms W_ab split it
    into the symmetric combination at E + 2*W_ab and two states at E - W_ab,
    where E is the per-label energy_second_order.  For each Hamiltonian
    variant separately this checks, to 1e-8 GHz, that the symmetric dressed
    eigenvalue equals E + symmetric_class_shift, and that the mean of the
    three full-basis eigenvalues with the most weight on the class product
    states (the class centroid) equals E.
    """
    energy = energy_second_order(*dicke(ONE_PHOTON), P9.omega1, P9)
    class_idx = [index_of(s) for s in ONE_PHOTON_CLASS]
    ok = True
    details = []
    for rwa, name in ((False, "V only"), (True, "with RWA")):
        ds = dressed_state(*dicke(ONE_PHOTON), P9, P9.omega1, include_rwa=rwa)
        shift = symmetric_class_shift(1, P9.omega1, P9, include_rwa=rwa)
        symmetric_diff = abs(ds.eigenvalue - (energy + shift))
        w, v = diagonalize_total(P9, P9.omega1, include_rwa=rwa)
        class_weight = (np.abs(v[class_idx, :]) ** 2).sum(axis=0)
        class_members = np.argsort(class_weight)[::-1][:3]
        centroid_diff = abs(float(w[class_members].mean()) - energy)
        ok = ok and symmetric_diff <= 1e-8 and centroid_diff <= 1e-8
        details.append(f"{name}: symmetric vs E + 2W_ab = {symmetric_diff:.2e}, "
                       f"centroid vs E = {centroid_diff:.2e}, "
                       f"uncorrected symmetric vs E = {abs(ds.eigenvalue - energy):.2e}")
    report("9b (one-photon class: symmetric eigenvalue vs E + 2W_ab and "
           "centroid vs E, <= 1e-8 GHz)", ok, "; ".join(details) + " GHz")


def test_criterion_9_ground_state_vector():
    ds = dressed_state(*dicke(GROUND), P9, P9.omega1, include_rwa=True)
    vec = _normalized_symmetric_first_order([GROUND])
    diff = float(np.linalg.norm(symmetrizer(P9.nmax) @ padded(ds.vector, P9.nmax) - vec))
    report("9c (ground perturbed state vs oracle eigenvector <= 1e-4)",
           diff <= 1e-4, f"norm difference = {diff:.2e}")


def test_criterion_9_one_photon_class_vector():
    ds = dressed_state(*dicke(ONE_PHOTON), P9, P9.omega1, include_rwa=True)
    vec = _normalized_symmetric_first_order(ONE_PHOTON_CLASS)
    diff = float(np.linalg.norm(symmetrizer(P9.nmax) @ padded(ds.vector, P9.nmax) - vec))
    report("9d (one-photon-class perturbed state vs oracle eigenvector <= 1e-4)",
           diff <= 1e-4, f"norm difference = {diff:.2e}")
