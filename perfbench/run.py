#!/usr/bin/env python3
"""The jacobi49 benchmark: three workloads, known-answer checks, a traced run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload verify-1e6 --seed 1 --seconds 25 --trace 0

--workload is verify-1e6, classify-mod14, scan49-alln or all.  With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it runs
a fixed number of rounds twice, untraced and then traced, and reports
the per-layer metrics and the tracing overhead.  Every input's result is
checked against the known answers of oracle.py.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  Before it
come a readable summary and a `record:` line with the provenance.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import draws
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(draws.ROUNDS)
# Rounds in a traced run: fixed, so .calls and kernels.passes repeat exactly.
TRACE_ROUNDS = {"verify-1e6": 1, "classify-mod14": 2, "scan49-alln": 2}
# The traced scan runs in-process: spans made in pool workers would be lost.
SCAN_JOBS = {False: 2, True: 1}
SETUP_RUNS = 9
SETUP_CODE = "import jacobi49; from jacobi49 import _kernels; _kernels.warmup()"
WORKER_TIMEOUT_S = 160
END_TO_END = {
    "setup_s": "s",
    "primes_per_s": "1/s",
    "prime_latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "report_bytes_per_prime": "B",
}


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters running SETUP_CODE, after one untimed run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls with sleeps of up to 50 ms.
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def run_worker(spec: dict) -> dict:
    """Run worker.py on spec in its own process group; its last stdout line is the result."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def failed_primes(workload: str, item: dict, result: dict) -> int:
    """How many of the item's primes fail a known-answer check."""
    expected = {e["p"]: e["kind"] for e in draws.item_primes(item)}
    if "error" in result:
        return len(expected)
    rows = {row["p"]: row for row in result["per_prime"]}
    if set(rows) != set(expected):
        return len(expected)
    if workload == "scan49-alln":
        summary = result["summary"]
        kinds = {k: list(expected.values()).count(k)
                 for k in ("ordinary", "artiad", "hyperartiad")}
        if (result["exit_code"] != 0 or summary["mismatches"] != 0
                or summary["discrepancy_flags"] != 0
                or any(summary[k] != v for k, v in kinds.items())):
            return len(expected)
    ns = {"verify-1e6": list(range(1, 49)), "classify-mod14": [None],
          "scan49-alln": [None, *range(1, 49)]}[workload]
    return sum(1 for p, kind in expected.items()
               if rows[p]["ns"] != ns or rows[p]["kinds"] != [kind]
               or rows[p]["unmatched"] or rows[p]["discrepancies"])


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it (nearest rank)."""
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, xs[rank - 1]
    return None


def end_to_end(rounds: list[list[dict]], peak_rss_kb: int, setup: list[float]) -> dict:
    """The end-to-end metrics from the results of whole rounds; inputs that raised are left out."""
    ok = [[r for r in rnd if "error" not in r] for rnd in rounds]
    flat = [r for rnd in ok for r in rnd]
    primes = sum(r["primes"] for r in flat)
    return {
        "setup_s": statistics.median(setup),
        "primes_per_s": statistics.median(
            sum(r["primes"] for r in rnd) / sum(r["seconds"] for r in rnd) for rnd in ok if rnd),
        "prime_latency_p50_s": statistics.median(r["seconds"] / r["primes"] for r in flat),
        "peak_rss_mb": peak_rss_kb / 1024,
        "report_bytes_per_prime": sum(r["bytes"] for r in flat) / primes,
    }


def per_layer(workload: str, out: dict, results: list[dict]) -> dict:
    primes = out["traced_primes"]
    values = dict(out["layers"])
    records = sum(len(row["ns"]) for r in results if "per_prime" in r
                  for row in r["per_prime"])
    values["cli.records_per_prime"] = (
        records / sum(r["primes"] for r in results) if workload == "scan49-alln" else 0.0)
    values["trace.wall_ms"] = out["traced_seconds"] * 1e3 / primes
    values["trace.overhead_ms"] = (
        (out["traced_seconds"] - out["untraced_seconds"]) * 1e3 / primes)
    return values


def provenance(args, workload: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jacobi49").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count()}


def run_workload(args, workload: str) -> bool:
    rounds = draws.ROUNDS[workload](args.seed)
    trace = bool(args.trace)
    if trace:
        rounds = rounds[:TRACE_ROUNDS[workload]]
    else:
        setup = measure_setup()
    out = run_worker({"root": str(ROOT), "workload": workload, "rounds": rounds,
                      "seconds": args.seconds, "trace": trace,
                      "scan_jobs": SCAN_JOBS[trace]})
    by_round = out["rounds"]
    results = [r for rnd in by_round for r in rnd]
    if not trace:
        rounds = rounds[:len(by_round)]
    used = [item for rnd in rounds for item in rnd]
    if trace:
        used *= 2  # untraced, then traced, on the same inputs
    failed = sum(failed_primes(workload, item, r) for item, r in zip(used, results))
    attempted = sum(r["primes"] for r in results)
    record = provenance(args, workload)
    record.update({k: out[k] for k in ("backend", "jacobi49", "numpy", "python")})
    record["rounds"] = len(rounds)
    record["inputs"] = [[item.get("p") or [item["lo"], item["hi"]] for item in rnd]
                        for rnd in rounds]
    record["input_seconds"] = [r.get("seconds") for r in results]
    record["scan_jobs"] = SCAN_JOBS[trace]
    if trace:
        metrics = {m: (v, spans.unit(m)) for m, v in per_layer(workload, out, results).items()}
        record["samples"] = {"primes_traced": out["traced_primes"], "spans": out["spans"]}
        record["tracing_overhead_s"] = out["traced_seconds"] - out["untraced_seconds"]
        label = "traced" + (", in-process with --jobs 1" if workload == "scan49-alln" else "")
    else:
        values = end_to_end(by_round, out["peak_rss_kb"], setup) if failed < attempted else {}
        metrics = {m: (v, END_TO_END[m]) for m, v in values.items()}
        latencies = [r["seconds"] / r["primes"] for r in results if "error" not in r]
        record["setup_runs_s"] = setup
        record["samples"] = {"setup_s": len(setup), "primes_per_s": len(by_round),
                             "prime_latency_p50_s": len(latencies),
                             "peak_rss_mb": 1, "report_bytes_per_prime": attempted}
        tail = tail_percentile(latencies)
        if tail:
            record[f"prime_latency_p{tail[0]}_s"] = tail[1]
        label = "untraced" + (", --jobs 2" if workload == "scan49-alln" else "")
    record.update(attempted=attempted, failed=failed, failed_frac=failed / attempted)
    print(f"{workload} (seed {args.seed}, {label}): {attempted} primes in "
          f"{len(rounds)} rounds, failed_frac = {failed / attempted:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("record: " + json.dumps(record))
    correct = failed == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": u}
                                  for m, (v, u) in metrics.items()}}))
    return correct


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "jacobi49" / "__init__.py").is_file():
        print(f"error: no jacobi49 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        correct &= run_workload(args, workload)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
