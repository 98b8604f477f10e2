"""In-process half of the benchmark, run by run.py as a child process.

    python3 benchmarks/inproc.py monogamy --seed N --seconds S
    python3 benchmarks/inproc.py traced --workload W --seed N --seconds S

``monogamy`` is the warm process of the monogamy-states workload: it calls
``dle3q.monogamy_residual`` on seeded Haar-random states and times each call.
``traced`` replays a workload's generated inputs in this process, CLI
operations through ``dle3q.cli.main(argv)``.  It runs each block of
operations twice, untraced and then traced, so the tracing overhead is the
ratio of the two.  Before each CLI operation the oracle's eigensolve cache is
emptied, as it is in the fresh process the untraced benchmark starts for
every operation.

Both modes print one JSON object on stdout.  run.py sets PYTHONPATH and pins
the BLAS thread count in this process's environment.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import time
import traceback
from array import array

import checks
import workloads
from spans import Tracer

MONOGAMY_BLOCK = 256  # states per untraced/traced block in the traced replay
WARMUP_STATES = 64


def run_monogamy(seed: int, seconds: float) -> dict:
    from dle3q import monogamy_residual

    states = workloads.monogamy_states(seed)
    for state in states[:WARMUP_STATES]:
        monogamy_residual(state)
    clock, latencies, problems, failed = time.perf_counter, array("d"), [], 0
    determinism = checks.Determinism()
    deadline = clock() + seconds
    i = 0
    while clock() < deadline:
        state = states[i % len(states)]
        t0 = clock()
        residual, bad = _residual(monogamy_residual, state)
        latencies.append(clock() - t0)
        bad += checks.check_monogamy(residual)
        bad += determinism.check(i % len(states), residual.hex().encode())[1]
        if bad:
            failed += 1
            problems.extend(bad[: max(0, 20 - len(problems))])
        i += 1
    # Peak RSS of this process, read before the result is serialized.
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digest = hashlib.sha256("".join(determinism.first[k] for k in sorted(determinism.first))
                            .encode()).hexdigest()
    return {"latencies": latencies.tolist(), "failed": failed, "problems": problems,
            "maxrss_kb": maxrss_kb, "residuals_sha256": digest}


def _residual(monogamy_residual, state) -> tuple[float, list[str]]:
    """The call's result, or NaN and a problem when it raises."""
    try:
        return float(monogamy_residual(state)), []
    except Exception as exc:  # a crash is a failed operation
        return math.nan, [f"monogamy_residual raised {exc!r}"]


def _cache_info(oracle):
    """Hits and misses of the oracle's eigensolve cache, or (0, 0) without one."""
    cached = getattr(oracle, "_symmetric_eig", None)
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)


def _empty_cache(oracle) -> None:
    cached = getattr(oracle, "_symmetric_eig", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def _call_main(main, argv, tracer=None, op_id=0):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(op_id)
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, as in a cold process
            code = 1
            traceback.print_exc()
        wall = tracer.end_op() if tracer is not None else time.perf_counter() - t0
    return code, out.getvalue().encode(), err.getvalue().encode(), wall


def run_traced(name: str, seed: int, seconds: float) -> dict:
    from dle3q import cli, entangle, oracle

    workload = workloads.build(name, seed)
    tracer = Tracer()
    determinism = checks.Determinism()
    clock = time.perf_counter
    plain_s = traced_s = 0.0
    attempted = failed = cf_points = hits = misses = 0
    problems, digests = [], []
    states = workloads.monogamy_states(seed) if not workload.inputs else None
    deadline = clock() + seconds
    while clock() < deadline:
        block = range(attempted, attempted + (workload.cycle if states is None else MONOGAMY_BLOCK))
        if states is None:
            inputs = [workload.inputs[i % len(workload.inputs)] for i in block]
            plain = []
            for inp in inputs:
                _empty_cache(oracle)
                plain.append(_call_main(cli.main, inp.argv))
            tracer.install()
            traced = []
            for i, inp in zip(block, inputs):
                _empty_cache(oracle)
                traced.append(_call_main(cli.main, inp.argv, tracer, i))
                op_hits, op_misses = _cache_info(oracle)
                hits, misses = hits + op_hits, misses + op_misses
            tracer.uninstall()
            for inp, (_, out0, _, t0), (code, out, err, t1) in zip(inputs, plain, traced):
                plain_s, traced_s = plain_s + t0, traced_s + t1
                digest, bad = determinism.check(inp.key, out0)
                bad += [] if out == out0 else [f"traced output differs for input {inp.key}"]
                bad += checks.check_cli(inp, code, out, err)
                digests.append(digest)
                failed += bool(bad)
                problems.extend(bad[: max(0, 20 - len(problems))])
                cf_points += inp.cf_points
        else:
            batch = [states[i % len(states)] for i in block]
            plain = []
            for state in batch:
                t0 = clock()
                plain.append(_residual(entangle.monogamy_residual, state)[0])
                plain_s += clock() - t0
            tracer.install()
            monogamy = entangle.monogamy_residual  # the traced wrapper
            for i, state in zip(block, batch):
                tracer.begin_op(i)
                residual, bad = _residual(monogamy, state)
                traced_s += tracer.end_op()
                bad += checks.check_monogamy(residual)
                if residual.hex() != plain[i - block.start].hex():
                    bad.append("traced residual differs")
                bad += determinism.check(i % len(states), residual.hex().encode())[1]
                failed += bool(bad)
                problems.extend(bad[: max(0, 20 - len(problems))])
            tracer.uninstall()
        attempted += len(block)
        tracer.fold()
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "cf_points": cf_points, "plain_s": plain_s, "traced_s": traced_s,
            "cache_hits": hits, "cache_misses": misses, "eigh_dim": tracer.eigh_dim,
            "totals": dict(tracer.totals), "functions": tracer.functions,
            "stdout_sha256": digests}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("monogamy", "traced"))
    parser.add_argument("--workload", default="monogamy-states")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    if args.mode == "monogamy":
        result = run_monogamy(args.seed, args.seconds)
    else:
        result = run_traced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
