"""dle3q benchmark: one closed-loop client, four seeded workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is taken from ``src/`` as it
stands; nothing is installed.

With ``--trace 0`` the run measures end-to-end metrics.  report-points,
sweep-dense and validate-ladder start one cold ``python -m dle3q.cli``
process per operation; monogamy-states times ``monogamy_residual`` calls in
one warm child process.  With ``--trace 1`` the same seeded inputs are
replayed in-process under span tracing (see inproc.py and spans.py) and the
run prints per-layer metrics instead.  Every run also times cold ``--help``
processes (set-up), probes the paper-point ``validate`` that is known to fail
(reported as ``known_red``, never counted or timed), and records a machine
fingerprint.

Every operation's output is checked against an independent reference
(checks.py) and its sha256 recorded; an input repeated within a run must give
identical bytes.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record with everything else.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5  # cold --help processes before the workload, and again after it
IMPORT_REPEATS = 5
TAIL = 0.9  # latency_tail_s is the 90th percentile of per-operation wall time

#: Per-layer totals of the traced run that are reported per operation.
PER_OPERATION = {
    "cli.main.self_s": "s",
    "params.calls": "count", "params.self_s": "s",
    "amplitudes.calls": "count", "amplitudes.self_s": "s",
    "entangle.report.self_s": "s", "entangle.monogamy.self_s": "s",
    "entangle.concurrence_mixed.calls": "count",
    "hilbert.hamiltonian_total.calls": "count", "hilbert.hamiltonian_total.self_s": "s",
    "hilbert.dense_bytes": "B",
    "oracle.symmetrizer.self_s": "s", "oracle.dressed_state.calls": "count",
    "oracle.dressed_state.self_s": "s", "oracle.eigh_s": "s",
    "serialize.json_dumps.self_s": "s", "serialize.csv_lines.self_s": "s",
    "serialize.bytes_out": "B",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


class Child:
    """Result of one child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv: list[str]):
        env = child_env()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT)
        status = None
        try:
            err: list[bytes] = []
            drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            drain.start()
            self.stdout = proc.stdout.read()
            drain.join()
            self.stderr = err[0]
            # wait4 rather than wait: it also returns the child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if status is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        self.wall_s = time.perf_counter() - t0
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "dle3q.cli", *args]


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile, as statistics.quantiles computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def fingerprint(seed: int) -> dict:
    probe = ("import json, numpy; print(json.dumps({'numpy': numpy.__version__, "
             "'blas': numpy.show_config(mode='dicts')}, default=str))")
    child = Child([sys.executable, "-c", probe])
    info = json.loads(child.stdout) if child.code == 0 else {"error": child.stderr.decode()}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version, "numpy": info.get("numpy"), "blas": info.get("blas"),
            "git_commit": git_commit(), "seed": seed,
            "child_env": {k: child_env()[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def git_commit() -> str | None:
    """HEAD of a git checkout, read from .git directly; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def known_red() -> dict:
    child = Child(cli_argv(workloads.KNOWN_RED_ARGV))
    return {"argv": list(workloads.KNOWN_RED_ARGV), "exit_code": child.code,
            "stderr": child.stderr.decode(errors="replace").strip(),
            "expected": "exit 2: dressed state |2;000> lost its label character"}


def setup_times(warm: bool) -> list[float]:
    if warm:
        Child(cli_argv(["--help"]))  # untimed: fills the page cache and writes bytecode
    return [Child(cli_argv(["--help"])).wall_s for _ in range(SETUP_REPEATS)]


def run_cli(workload, seconds: float) -> dict:
    ops, problems, determinism = [], [], checks.Determinism()
    deadline = time.perf_counter() + seconds
    i = 0
    while i % workload.cycle or time.perf_counter() < deadline:
        inp = workload.inputs[i % len(workload.inputs)]
        child = Child(cli_argv(inp.argv))
        digest, bad = determinism.check(inp.key, child.stdout)
        bad += checks.check_cli(inp, child.code, child.stdout, child.stderr)
        problems.extend(f"op {i}: {p}" for p in bad[: max(0, 20 - len(problems))])
        ops.append({"input": inp.key, "nmax": inp.nmax, "format": inp.fmt,
                    "wall_s": child.wall_s, "maxrss_kb": child.maxrss_kb,
                    "items": inp.items, "sha256": digest, "ok": not bad})
        i += 1
    return {"ops": ops, "problems": problems}


def run_monogamy(seed: int, seconds: float) -> dict:
    child = Child([sys.executable, str(HERE / "inproc.py"), "monogamy",
                   "--seed", str(seed), "--seconds", str(seconds)])
    if child.code != 0:
        raise RuntimeError(f"monogamy worker failed: {child.stderr.decode()[-2000:]}")
    out = json.loads(child.stdout)
    return {"latencies": out["latencies"], "failed": out["failed"],
            "problems": out["problems"], "maxrss_kb": out["maxrss_kb"],
            "residuals_sha256": out["residuals_sha256"]}


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    setup = setup_times(warm=True)
    record = {}
    if workload.inputs:
        result = run_cli(workload, seconds)
        ops = result["ops"]
        latencies = [op["wall_s"] for op in ops]
        items = sum(op["items"] for op in ops)
        peak_kb = max(op["maxrss_kb"] for op in ops)
        failed = sum(not op["ok"] for op in ops)
        record["operations"] = ops
        if workload.name == "validate-ladder":
            record["rung_p50_s"] = {
                str(n): statistics.median(op["wall_s"] for op in ops if op["nmax"] == n)
                for n in workloads.VALIDATE_RUNGS}
    else:
        result = run_monogamy(seed, seconds)
        latencies = result["latencies"]
        items, peak_kb, failed = len(latencies), result["maxrss_kb"], result["failed"]
        record["residuals_sha256"] = result["residuals_sha256"]
    setup += setup_times(warm=False)  # before and after, so a slow spell on the host is diluted
    record["setup_s_samples"] = setup
    attempted = len(latencies)
    tail = quantile(latencies, TAIL)
    # The median and throughput swing with the host's speed from run to run,
    # so they are recorded here but not reported as bounded metrics.
    record.update(problems=result["problems"], fail_frac=failed / attempted,
                  samples=attempted, samples_beyond_tail=sum(x > tail for x in latencies),
                  latency_p50_s=statistics.median(latencies),
                  items_per_s=items / sum(latencies))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, record, attempted, failed


def import_times() -> tuple[list[float], list[float]]:
    """numpy and dle3q import times from -X importtime in cold children."""
    numpy_s, dle3q_s = [], []
    for _ in range(IMPORT_REPEATS + 1):
        child = Child([sys.executable, "-X", "importtime", "-c", "import dle3q.cli"])
        cumulative = {}
        for line in child.stderr.decode().splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) * 1e-6)
        numpy_s.append(cumulative["numpy"])
        # dle3q.cli's cumulative time includes the dle3q package and numpy.
        dle3q_s.append(cumulative["dle3q.cli"] - cumulative["numpy"])
    return numpy_s[1:], dle3q_s[1:]  # the first child also warms the page cache


def per_layer(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    numpy_s, dle3q_s = import_times()
    child = Child([sys.executable, str(HERE / "inproc.py"), "traced", "--workload",
                   workload.name, "--seed", str(seed), "--seconds", str(seconds)])
    if child.code != 0:
        raise RuntimeError(f"traced replay failed: {child.stderr.decode()[-2000:]}")
    out = json.loads(child.stdout)
    ops, t = out["attempted"], out["totals"]
    lookups = out["cache_hits"] + out["cache_misses"]

    metrics = {"import.numpy_s": (statistics.median(numpy_s), "s"),
               "import.dle3q_s": (statistics.median(dle3q_s), "s")}
    metrics.update({name: (t.get(name, 0.0) / ops, unit) for name, unit in PER_OPERATION.items()})
    metrics.update({
        "amplitudes.redundancy": (
            t.get("amplitudes.closed_form_calls", 0.0) / (4 * out["cf_points"])
            if out["cf_points"] else 0.0, "ratio"),
        "oracle.eigh_dim": (out["eigh_dim"], "rows"),
        "oracle.cache_hits": (out["cache_hits"] / ops, "count"),
        "oracle.cache_misses": (out["cache_misses"] / ops, "count"),
        "oracle.cache_hit_ratio": (out["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "trace.unattributed_frac": (t["unattributed_s"] / t["op_s"], "ratio"),
        "trace.overhead_ratio": (out["traced_s"] / out["plain_s"], "ratio"),
    })
    record = {"import_numpy_s_samples": numpy_s, "import_dle3q_s_samples": dle3q_s,
              "functions": out["functions"], "stdout_sha256": out["stdout_sha256"],
              "problems": out["problems"], "fail_frac": out["failed"] / ops,
              "traced_wall_s": out["traced_s"], "untraced_inprocess_wall_s": out["plain_s"]}
    return metrics, record, ops, out["failed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dle3q" / "cli.py").is_file():
        print(f"error: no dle3q sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(args.seed),
              "known_red": known_red()}
    measure = per_layer if args.trace else end_to_end
    metrics, details, attempted, failed = measure(workload, args.seed, args.seconds)
    record.update(details)
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
