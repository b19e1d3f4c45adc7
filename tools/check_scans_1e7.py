#!/usr/bin/env python3
"""Run the pinned CSV scans and compare their bytes and counts with the pins.

    python tools/check_scans_1e7.py [PINS.json]

PINS.json defaults to tools/scans_1e7.json: the scans of every prime up
to 10^7, which take about 15 minutes at --jobs 2.  Each scan runs as
`python -m jacobi49.cli` on this checkout's src/ and writes its CSV into a
temporary directory.  The script compares the SHA-256 of the CSV with the
pin, recounts from the rows the primes (one classification row each, with
an empty n), their kinds, the rows whose predicted residue misses and the
rows that carry a discrepancy, and compares those too.  It prints one line
per scan, with its wall time and the CPU seconds of its processes (user
plus system time of the CLI and its pool), and exits 0 when everything
agrees, 1 otherwise.
"""

import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def recount(path: Path) -> dict:
    """The counts a pin holds, read off the rows of a scan's CSV."""
    kinds = dict.fromkeys(("ordinary", "artiad", "hyperartiad"), 0)
    mismatches = flagged = 0
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            if row["n"] == "":
                kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
            mismatches += row["match"] == "False"
            flagged += row["discrepancies"] != ""
    return {"primes": sum(kinds.values()), "kinds": kinds,
            "mismatches": mismatches, "rows_with_discrepancies": flagged}


def check(scan: dict, workdir: Path) -> list[str]:
    """Run one pinned scan; the differences from its pin, empty when none."""
    out = workdir / "scan.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "jacobi49.cli", *scan["argv"], "--output", str(out)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()}"]
    got = {"sha256": hashlib.sha256(out.read_bytes()).hexdigest(), **recount(out)}
    out.unlink()
    return [f"{key}: pinned {scan[key]}, got {got[key]}"
            for key in ("sha256", "primes", "kinds", "mismatches", "rows_with_discrepancies")
            if got[key] != scan[key]]


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    pins = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "tools" / "scans_1e7.json"
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for scan in json.loads(pins.read_text())["scans"]:
            t0 = time.monotonic()
            cpu0 = cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))
            problems = check(scan, Path(tmp))
            # the finished children of this scan: the CLI and its pool
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            # ru_maxrss of the largest process among the scans so far, in kB
            peak = usage.ru_maxrss / 1024
            print(f"[{'FAIL' if problems else 'ok'}] {' '.join(scan['argv'])}: "
                  f"{time.monotonic() - t0:.0f} s, {cpu_seconds(usage) - cpu0:.0f} CPU-s, "
                  f"largest process so far {peak:.0f} MB", flush=True)
            for problem in problems:
                print(f"    {problem}")
            ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
