"""Workload process: runs one workload against jacobi49 and reports what it saw.

Reads a JSON spec on stdin (see run.py) and writes one JSON object as the
last line of stdout.  Untraced, it runs whole rounds of inputs until the
next would end after the given seconds; traced, it runs each input of the
given rounds twice, untraced and then traced.  The timed region of an
input is what a user pays: `verify_prime` or `classify_prime` plus the
JSON report the matching CLI subcommand writes, or one `cli.main` scan.
Known-answer checks happen in run.py, on the summaries returned here.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import draws
import spans

SCAN_ARGS = ("--modulus", "49", "--all-n", "--format", "json")


def import_package(root: Path):
    """Import jacobi49 from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import jacobi49
    import jacobi49.cli

    if Path(jacobi49.__file__).resolve().parent.parent != src:
        raise ImportError(f"jacobi49 was imported from {jacobi49.__file__}, not {src}")
    return jacobi49


def run_verify(item: dict) -> dict:
    from jacobi49 import verify

    t0 = time.perf_counter()
    payload = [c.to_json() for c in verify.verify_prime(item["p"])]
    report = json.dumps(payload, indent=2) + "\n"
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "primes": 1, "bytes": len(report.encode()),
            "certs": payload}


def run_classify(item: dict) -> dict:
    from jacobi49 import verify

    t0 = time.perf_counter()
    payload = verify.classify_prime(item["p"]).to_json()
    report = json.dumps(payload, indent=2) + "\n"
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "primes": 1, "bytes": len(report.encode()),
            "certs": [payload]}


def run_scan(item: dict, jobs: int, out_dir: Path) -> dict:
    from jacobi49 import cli

    path = out_dir / f"scan-{item['lo']}.json"
    argv = ["scan", "--min", str(item["lo"]), "--max", str(item["hi"]),
            "--jobs", str(jobs), "--output", str(path), *SCAN_ARGS]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    try:
        nbytes = path.stat().st_size
        report = json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)
    return {"seconds": seconds, "primes": len(item["primes"]), "bytes": nbytes,
            "exit_code": code, "summary": report["summary"],
            "certs": report["certificates"]}


def summarise(result: dict) -> dict:
    """Drop the certificates, keeping per prime what the known-answer checks need."""
    per_p: dict[int, dict] = {}
    for c in result.pop("certs"):
        row = per_p.setdefault(c["p"], {"p": c["p"], "ns": [], "kinds": [],
                                        "unmatched": 0, "discrepancies": 0})
        row["ns"].append(c["n"])
        if c["classification"]["kind"] not in row["kinds"]:
            row["kinds"].append(c["classification"]["kind"])
        row["unmatched"] += c["n"] is not None and c["match"] is not True
        row["discrepancies"] += len(c["discrepancies"])
    if "summary" in result:
        result["summary"]["discrepancy_flags"] = len(result["summary"]["discrepancy_flags"])
    result["per_prime"] = list(per_p.values())
    return result


def run_item(run, item) -> dict:
    try:
        return summarise(run(item))
    except Exception as exc:  # a raising input is a failed input, not a crashed run
        return {"error": repr(exc), "primes": len(draws.item_primes(item))}


def run_rounds(run, rounds, seconds: float) -> list[list[dict]]:
    """Whole rounds until the next one would end after `seconds`; at least one."""
    done = []
    t0 = time.perf_counter()
    for rnd in rounds:
        done.append([run_item(run, item) for item in rnd])
        elapsed = time.perf_counter() - t0
        if elapsed * (len(done) + 1) / len(done) > seconds:
            break
    return done


def _seconds(rounds: list[list[dict]]) -> float:
    return sum(r.get("seconds", 0.0) for rnd in rounds for r in rnd)


def warm_up(workload: str, out_dir: Path) -> None:
    """Inputs through the same path before timing, so lazy set-up is not timed.

    classify-mod14 warms up on a prime above 2**22.  When the first large
    field a process handles is below 2**22, its arrays of just under
    32 MiB raise glibc's dynamic mmap threshold, and the heap then keeps
    60-95 MB more resident for the life of the process; peak RSS would
    follow the first prime of the draw instead of the workload.
    """
    from jacobi49 import _kernels, cli, verify

    _kernels.warmup()
    if workload == "classify-mod14":
        verify.classify_prime(draws.CLASSIFY_WARM_UP)
    elif workload == "verify-1e6":
        verify.verify_prime(197)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["scan", "--min", "190", "--max", "500", "--jobs", "1",
                      "--output", str(out_dir / "warm.json"), *SCAN_ARGS])
        (out_dir / "warm.json").unlink(missing_ok=True)


def main() -> int:
    spec = json.load(sys.stdin)
    root = Path(spec["root"])
    jacobi49 = import_package(root)
    from jacobi49 import _kernels

    workload, rounds = spec["workload"], spec["rounds"]
    out_dir = root / "perfbench" / "_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    scan_jobs = spec["scan_jobs"]
    runners = {
        "verify-1e6": run_verify,
        "classify-mod14": run_classify,
        "scan49-alln": lambda item: run_scan(item, scan_jobs, out_dir),
    }
    run = runners[workload]
    out = {"backend": "numba" if _kernels.USING_NUMBA else "numpy",
           "jacobi49": jacobi49.__version__,
           "numpy": __import__("numpy").__version__,
           "python": platform.python_version()}
    try:
        warm_up(workload, out_dir)
        if spec["trace"]:
            # Each input runs untraced and then traced, back to back, so that
            # drift in machine speed stays out of the overhead estimate.
            tracer = spans.Tracer()
            untraced, traced = [], []
            for rnd in rounds:
                untraced.append([])
                traced.append([])
                for item in rnd:
                    untraced[-1].append(run_item(run, item))
                    tracer.install()
                    try:
                        traced[-1].append(run_item(
                            lambda item: tracer.call("bench.item", run, item), item))
                    finally:
                        tracer.uninstall()
            primes = sum(r["primes"] for rnd in traced for r in rnd)
            out.update(rounds=untraced + traced,
                       untraced_seconds=_seconds(untraced), traced_seconds=_seconds(traced),
                       traced_primes=primes, spans=len(tracer.spans),
                       layers=spans.layer_metrics(tracer.spans, primes))
        else:
            out["rounds"] = run_rounds(run, rounds, spec["seconds"])
    finally:
        with contextlib.suppress(OSError):
            out_dir.rmdir()
            out_dir.parent.rmdir()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_kb"] = max(self_kb, children_kb)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
