"""Command-line front end: report, sweep and validate subcommands.

stdout carries data (JSON or CSV), stderr carries diagnostics.  Exit codes:
0 success, 1 validation-gate failure, 2 parameter or solver errors, or an
OSError such as a write to a closed pipe.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

# Only sweep calls numpy; report evaluates its point on Python floats and validate
# leaves numpy to the oracle. The import stays eager because benchmarks/run.py
# --trace 1 reads numpy's -X importtime under dle3q.cli.
import numpy as np

from .errors import (DegeneracyAmbiguityError, ParameterDomainError,
                     SingularityError, SolverDiagnosticsError,
                     TruncationHeadroomError, _not_finite)
from .params import JSON_KEYS, SystemParams, _positive, guard_detuning

# Each command imports the layers it runs where it first uses them, so --help
# loads none of them and validate never loads entangle; these are for annotations.
if TYPE_CHECKING:
    from .entangle import ClosedForms, SectorMeasures
    from .serialize import Table

#: Sweep rows closer to E0 than this relative band are skipped, not errored.
SWEEP_GUARD_BAND = 1e-6

#: Most grid points one sweep evaluates: a cap on its run time. A cold sweep at the cap
#: took 1.4 s in JSON and 1.5 s in CSV (median of 3 processes, stdout to /dev/null, no
#: bytecode cache; measured at b966e1f on 2 x86-64 cores, Python 3.11, numpy 2.4, at omega1
#: 5, E0 3.721, lambda 0.2, omega2 3 to 4.5 GHz). Its text is written in parts, so its
#: memory grows only with the evaluated columns.
MAX_SWEEP_STEPS = 10 ** 6

def _flag(key: str) -> str:
    """The command-line flag of a parameter key: omega1_ghz -> --omega1-ghz."""
    return "--" + key.replace("_", "-")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help=f"JSON file with {'/'.join(JSON_KEYS)}; flags override file values")
    for key in JSON_KEYS:
        parser.add_argument(_flag(key), type=int if key == "nmax" else float)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _collect_params(args, required=JSON_KEYS[:4]) -> SystemParams:
    """SystemParams from --config and the flags, refusing any key of required left unset."""
    flat: dict = {}
    if args.config:
        import json

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParameterDomainError(f"--config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ParameterDomainError(f"--config {args.config} does not hold a JSON object")
        flat.update(config)
    flat.update((key, getattr(args, key)) for key in JSON_KEYS
                if getattr(args, key) is not None)
    missing = [_flag(key) for key in required
               if (key not in flat if key in JSON_KEYS else getattr(args, key) is None)]
    if missing:
        raise ParameterDomainError(f"missing required parameter flag(s): {' '.join(missing)}")
    if "omega2_ghz" not in required:
        # omega2 comes from the sweep grid; a fixed value is replaced, not checked.
        flat["omega2_ghz"] = flat["omega1_ghz"]
    return SystemParams.from_flat_dict(flat)


def _all_finite(values) -> bool:
    if isinstance(values, list):
        return all(map(_all_finite, values))
    if isinstance(values, (int, float)):
        return math.isfinite(values)
    return bool(np.isfinite(values).all())


def _finite(name: str, values):
    """values, all of it finite: a Python scalar, a nested list of them, or an array.

    Python scalars and lists are checked without a numpy call.
    """
    if not _all_finite(values):
        raise _not_finite(name)
    return values


def _headline(cf: ClosedForms) -> dict:
    """report's summary block and sweep's middle columns: w indexed by m, measures by n."""
    w, s = cf.w, cf.sectors
    return {"w_1": w[1], "w_2": w[2], "tau_2": s.tau_abc[2], "c_0_ab1": s.c_ab1[0],
            "c_1_ab0": s.c_ab0[1], "c_2_ab0": s.c_ab0[2], "c_2_ab1": s.c_ab1[2]}


def _point_forms(p: SystemParams) -> tuple[ClosedForms, SectorMeasures]:
    """The closed forms at p, as Python values, and the measures of its normalized sectors.

    Nothing here raises on a value outside the double range: it holds inf
    or nan, as an array would, and _report_doc refuses it.
    """
    from .entangle import _measures, _normalized, entanglement_report

    cf = entanglement_report(p.omega1, p.omega2, p.e0, p.lambda_)
    return cf, _measures(map(_normalized, cf.amplitudes))


def _sector_rows(cf: ClosedForms, normalized: SectorMeasures) -> list[dict]:
    """One entanglement row per photon number, raw and sector-normalized."""
    raw = {key: _finite(key, value) for key, value in vars(cf.sectors).items()}
    # finite: _report_doc has checked the amplitudes, and _normalized bounds each by 1
    unit = {key: getattr(normalized, key) for key in ("tau_abc", "c_ab0", "c_ab1")}
    return [{"n": n, **{key: values[n] for key, values in raw.items()},
             "normalized_variant": {key: values[n] for key, values in unit.items()}}
            for n in range(3)]


def _report_doc(p: SystemParams) -> dict:
    """Everything report prints about one point, as Python scalars."""
    from .amplitudes import DLE_CHANNELS

    guard_detuning(p.omega2, p.e0)
    cf, normalized = _point_forms(p)
    amps = _finite("amplitudes", cf.amplitudes)
    probs = _finite("probabilities", [[a * a for a in row] for row in amps])
    w = _finite("w", cf.w)
    return {
        "inputs": p.to_flat_dict(),
        "validity": {key: _finite(key, value) for key, value in vars(cf.validity).items()},
        "amplitudes": {f"a_{n}_{m}": amps[n][m] for n, m in DLE_CHANNELS},
        "channels": [{"n": n, "m": m, "amplitude": amps[n][m], "probability": probs[n][m]}
                     for n, m in DLE_CHANNELS],
        "probabilities": {**{f"w_{m}": w[m] for m in range(4)},
                          "product_gap": _finite("product_gap", cf.product_gap)},
        "entanglement": _sector_rows(cf, normalized),
        "summary": _headline(cf),
    }


def cmd_report(args) -> int:
    from .serialize import csv_lines, json_dumps

    doc = _report_doc(_collect_params(args))
    if args.format == "json":
        sys.stdout.write(json_dumps(doc))
        return 0
    # Long-format CSV: one data row per (n, measure).
    rows: list[list] = [[None, key, value] for key, value in doc["inputs"].items()]
    rows += [[None, key, value] for key, value in doc["validity"].items()]
    for ch in doc["channels"]:
        rows.append([ch["n"], f"amplitude_m{ch['m']}", ch["amplitude"]])
        rows.append([ch["n"], f"probability_m{ch['m']}", ch["probability"]])
    rows += [[None, key, value] for key, value in doc["probabilities"].items()]
    for r in doc["entanglement"]:
        rows += [[r["n"], key, value] for key, value in r.items()
                 if key not in ("n", "normalized_variant")]
        rows += [[r["n"], f"normalized_{key}", value]
                 for key, value in r["normalized_variant"].items()]
    sys.stdout.write(csv_lines(["n", "measure", "value"], rows))
    return 0


def _monotone_flags(omega2: np.ndarray, tau_2: np.ndarray, e0: float) -> dict:
    """tau_2 should grow toward E0 on either side; None when a side has < 2 rows."""
    below = tau_2[omega2 < e0]
    above = tau_2[omega2 > e0]
    return {
        "tau_2_monotone_below_e0":
            bool((below[:-1] < below[1:]).all()) if below.size >= 2 else None,
        "tau_2_monotone_above_e0":
            bool((above[:-1] > above[1:]).all()) if above.size >= 2 else None,
    }


def _sweep_table(p_base: SystemParams, omega2: np.ndarray) -> tuple[Table, dict]:
    """Each grid point's row (omega2, w_0, _headline, perturbative_ok) as one table, and flags."""
    from .entangle import entanglement_report
    from .serialize import Table

    cf = entanglement_report(p_base.omega1, omega2, p_base.e0, p_base.lambda_)
    columns = {"omega2": omega2, "w_0": cf.w[0], **_headline(cf),
               "perturbative_ok": cf.validity.perturbative_ok}
    flags = _monotone_flags(omega2, columns["tau_2"], p_base.e0)
    return Table({key: _finite(key, value) for key, value in columns.items()}), flags


def cmd_sweep(args) -> int:
    from .serialize import _csv_parts, _json_parts

    p_base = _collect_params(args, ("omega1_ghz", "e0_ghz", "lambda_ghz",
                                    "omega2_min_ghz", "omega2_max_ghz"))
    lo = _positive("omega2_min", args.omega2_min_ghz)
    hi = _positive("omega2_max", args.omega2_max_ghz)
    steps = args.steps
    if not lo < hi:
        raise ParameterDomainError(f"need omega2_min < omega2_max, got {lo}, {hi}")
    if steps < 2:
        raise ParameterDomainError(f"steps must be >= 2, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise ParameterDomainError(f"steps must be <= {MAX_SWEEP_STEPS}, got {steps}")
    # a zero divisor or an overflow surfaces as inf or nan, which _sweep_table refuses
    with np.errstate(all="ignore"):
        grid = lo + (hi - lo) * np.arange(steps) / (steps - 1)
        omega2 = grid[~(abs(grid - p_base.e0) < SWEEP_GUARD_BAND * p_base.e0)]
        skipped = steps - omega2.size
        table, flags = _sweep_table(p_base, omega2)
        doc = {"inputs": p_base.to_flat_dict(), "rows": table, "skipped": skipped, **flags}
        del doc["inputs"]["omega2_ghz"]  # swept, not a fixed input
        # _sweep_table has checked every value finite, so a refusal leaves stdout empty;
        # the table's text is written in parts as it is formatted, never held whole
        sys.stdout.writelines(_csv_parts(list(table.columns), table) if args.format == "csv"
                              else _json_parts(doc))
    if args.format == "csv":
        print(f"skipped: {skipped}", file=sys.stderr)
        for key, value in flags.items():
            print(f"{key}: {value}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    from . import oracle
    from .serialize import csv_lines, json_dumps

    p = _collect_params(args)
    try:
        scales = [float(s) for s in args.lambda_scales.split(",")]
    except ValueError as exc:
        raise ParameterDomainError(f"bad --lambda-scales value: {exc}") from exc
    rwa_settings = {"on": (True,), "off": (False,), "both": (False, True)}[args.rwa]
    rows = []
    failures = []
    for rwa in rwa_settings:
        table = oracle.compare_with_closed_forms(p, scales, include_rwa=rwa)
        rows.extend(table)
        for channel in oracle.GATED_CHANNELS:
            factors = oracle.shrink_factors(table, channel)
            if any(f < 3.0 for f in factors):
                failures.append((channel, rwa, factors))
    if args.format == "json":
        doc = {"inputs": p.to_flat_dict(), "rows": rows,
               "gated_channels": [list(c) for c in oracle.GATED_CHANNELS],
               "gate_passed": not failures}
        sys.stdout.write(json_dumps(doc))
    else:
        # the oracle's rows are never empty and share one key order, the header
        sys.stdout.write(csv_lines(list(rows[0]), [list(r.values()) for r in rows]))
    for channel, rwa, factors in failures:
        print(f"gate failed: channel {channel} (include_rwa={rwa}) "
              f"shrink factors {['%.2f' % f for f in factors]} < 3", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dle3q",
        description="Dynamical-Lamb-effect amplitudes, probabilities and "
                    "tunable entanglement for three qubits in a non-stationary cavity.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="amplitudes, probabilities and entanglement "
                                        "measures at one parameter point")
    _add_param_flags(rep)
    rep.set_defaults(func=cmd_report)

    swp = sub.add_parser("sweep", help="sweep omega2 over a uniform grid")
    _add_param_flags(swp)
    swp.add_argument("--omega2-min-ghz", type=float, default=None)
    swp.add_argument("--omega2-max-ghz", type=float, default=None)
    swp.add_argument("--steps", type=int, default=50)
    swp.set_defaults(func=cmd_sweep)

    val = sub.add_parser("validate", help="exact-diagonalization check of the closed forms")
    _add_param_flags(val)
    val.add_argument("--lambda-scales", type=str, default="1,0.5,0.25",
                     help="descending coupling scale factors (comma separated)")
    val.add_argument("--rwa", choices=("on", "off", "both"), default="both",
                     help="which Hamiltonian variants the oracle diagonalizes")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParameterDomainError, SingularityError, TruncationHeadroomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverDiagnosticsError, DegeneracyAmbiguityError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
