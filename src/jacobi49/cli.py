"""Command-line front end.

Subcommands:
  verify    one prime p = 1 (mod 49): certificate(s) on stdout
  classify  one prime p = 1 (mod 14): artiad classification on stdout
  scan      a prime range, in up to --jobs processes, to a JSON or CSV report
  selftest  the startup algebra checks

Exit codes: 0 all checks passed, 1 a record carries a discrepancy text
(every failed comparison carries one, a predicted residue that misses
included), 2 invalid input or an unusable output path or stdout.

Reports are deterministic for a fixed configuration independent of the
worker count; the only field that varies between runs is runtime_seconds.
verify and classify write json.dumps(obj, indent=2); a scan writes its
JSON report compactly, with the C encoder (_COMPACT), as whitespace
carries no data and would double the report.  A scan computes in at
most --jobs processes: with more than one, a pool of them computes and
the parent only submits primes and gathers results, with at most _WINDOW
primes per pool process pending (_scan_results), so the primes pending
at once do not grow in number with the range.  A scanned prime's records
come from one field context (_scan_one), so a p = 1 (mod 49) makes
three passes over F_p.  Each prime's records are encoded by the process
that computes them, all in one call; the parent gathers the encoded
text in p order into one buffer and writes it between the report's
header and its runtime, with the same bytes that one compact
json.dump(report) or csv.writer over all records would give.
Beside its text each prime yields its summary: its kind, its number of
mismatches and its discrepancy texts.  The parent adds each into the
report's summary as the prime arrives, so it keeps nothing per record.
verify and classify write their text to stdout in one write; if stdout
cannot take it they exit 2, as scan does for its report path.
"""

import argparse
import collections
import contextlib
import csv
import io
import json
import os
import stat
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__, verify
from .errors import DomainError, InputError
from .prime_field import MAX_PRIME, build_ctx, is_prime
from .selfcheck import run_selfchecks
from .verify import ALL_N, Certificate, classify_prime, verify_prime

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def primes_in_range(lo: int, hi: int, modulus: int) -> list[int]:
    """Primes p in [lo, hi] with p = 1 (mod modulus), by sieve."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(sieve[q * q :: q])
    first = max(lo, 2)
    first += (1 - first) % modulus  # the first p = 1 (mod modulus) from there
    return [p for p in range(first, hi + 1, modulus) if sieve[p]]


# The scan report's one JSON writer: the C encoder, compact.  Reports hold
# no cycles, so it keeps no record of the containers it is inside.
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _write_stdout(text: str) -> bool:
    """Write text to stdout in one write; False, with an error on stderr,
    when stdout cannot take it."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        # Text left in the buffer would fail again at exit and change the
        # exit code: the interpreter flushes it into /dev/null instead.
        with contextlib.suppress(OSError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return False
    return True


def cmd_verify(args) -> int:
    certs = verify_prime(args.prime, gamma=args.generator,
                         ns=None if args.all_n else (1,))
    if not _write_stdout(json.dumps([c.to_json() for c in certs], indent=2) + "\n"):
        return EXIT_USAGE
    return EXIT_MISMATCH if any(c.discrepancies for c in certs) else EXIT_OK


def cmd_classify(args) -> int:
    cert = classify_prime(args.prime, gamma=args.generator)
    if not _write_stdout(json.dumps(cert.to_json(), indent=2) + "\n"):
        return EXIT_USAGE
    return EXIT_MISMATCH if cert.discrepancies else EXIT_OK


def _scan_one(task) -> tuple[tuple[str, int, list[str]], bytes]:
    """One prime's summary and the encoded report text of its records.

    The summary is (kind, mismatches, flags): the prime's classification,
    the number of its records whose predicted residue misses, and a text
    "p=... n=...: ..." per discrepancy, in record order.  The text is
    ASCII: for json the records as they sit, comma-separated, in the
    compact report's certificates list, encoded in one call, for csv
    their rows.  The classification record comes first, then n in
    ascending order, so records are in report order without a sort.

    The records are classify_prime's and verify_prime's, from two runs on
    one field context: run_prime(ctx, None).record() and, at p = 1
    (mod 49), run_prime(ctx, ns).certificates().  The generator, the
    order-7 Jacobi sums and the factorials are the context's, computed
    once for both runs, so such a prime makes three passes over F_p: the
    factorials, the class table and its pair count.  run_prime is looked
    up in verify at each call, so a replacement of verify.run_prime
    reaches the scan as it reaches classify_prime and verify_prime.
    """
    p, all_n, fmt = task
    ctx = build_ctx(p)
    certs = [verify.run_prime(ctx, None).record()]
    if ctx.m == 49:
        certs.extend(verify.run_prime(ctx, ALL_N if all_n else (1,)).certificates())
    summary = (certs[0].classification.kind,
               sum(c.match is False for c in certs),
               [f"p={p} n={c.n}: {d}" for c in certs for d in c.discrepancies])
    if fmt == "csv":
        return summary, _csv_text(map(_csv_row, certs)).encode()
    # in the report's certificates list: their list, less its brackets
    return summary, _COMPACT.encode([c.to_json() for c in certs])[1:-1].encode()


_CSV_COLUMNS = (["p", "gamma", "n", "match", "kind"]
               + [f"predicted_t{i}" for i in range(8)]
               + [f"actual_t{i}" for i in range(8)]
               + ["discrepancies"])


def _csv_row(c: Certificate) -> list:
    blank = ("",) * 8
    return [c.p, c.gamma, "" if c.n is None else c.n, "" if c.match is None else c.match,
            c.classification.kind,
            *(blank if c.predicted is None else c.predicted.coeffs),
            *(blank if c.actual is None else c.actual.coeffs),
            "; ".join(c.discrepancies)]


def _csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


# Tasks pending per pool process.  A p = 1 (mod 49) near 10^7 in a
# modulus-14 scan costs 100-300 of its neighbours, but about one task in
# seven there is such a prime, so the pending tasks hold several: while
# one is the oldest pending, the other processes still have work queued.
_WINDOW = 32


def _scan_results(tasks: list, jobs: int):
    """_scan_one of each task, in task order.

    At most jobs processes compute, and no more than there are tasks or
    CPUs this process may run on.  With more than one, this process only
    submits to a pool of them and gathers, with at most _WINDOW pending
    tasks per pool process; a free pool process takes the next queued one.
    """
    workers = min(jobs, len(tasks), len(os.sched_getaffinity(0)))
    if workers <= 1:
        yield from map(_scan_one, tasks)
        return
    pending = collections.deque()  # futures, in task order
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            for task in tasks:
                if len(pending) == _WINDOW * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(_scan_one, task))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _scan_report(args) -> tuple[int, dict, bytearray]:
    """Scan the range of args: the number of primes, the report without
    its certificates, and the encoded certificates, in p order."""
    start = time.monotonic()
    primes = primes_in_range(args.min, args.max, args.modulus)
    tasks = [(p, args.all_n, args.format) for p in primes]
    sep = b"" if args.format == "csv" else b","
    summary = {"ordinary": 0, "artiad": 0, "hyperartiad": 0, "mismatches": 0,
               "discrepancy_flags": [], "first_artiad": None}
    body = bytearray()
    results = _scan_results(tasks, args.jobs)
    for p, ((kind, mismatches, flags), text) in zip(primes, results):
        summary[kind] += 1
        if kind != "ordinary" and summary["first_artiad"] is None:
            summary["first_artiad"] = p
        summary["mismatches"] += mismatches
        summary["discrepancy_flags"] += flags
        if body:
            body += sep
        body += text
    # jobs is execution detail, not content: the report must be byte-identical
    # for any worker count (only runtime_seconds may differ between runs).
    report = {
        "config": {
            "min": args.min,
            "max": args.max,
            "modulus": args.modulus,
            "all_n": args.all_n,
            "format": args.format,
        },
        "version": __version__,
        "summary": summary,
        "certificates": [],
        "runtime_seconds": round(time.monotonic() - start, 3),
    }
    return len(primes), report, body


def _write_report(fh, fmt: str, report: dict, body: bytearray) -> None:
    """The report as one compact json.dump or csv.writer would write it,
    with body, the encoded records, in its empty certificates list."""
    if fmt == "csv":
        fh.write(_csv_text([_CSV_COLUMNS]).encode())
        fh.write(body)
        return
    # The empty list's bracket is the one place the records go: any other
    # '"certificates":[' in the text would hold an unescaped quote.
    head, bracket, tail = _COMPACT.encode(report).partition('"certificates":[')
    fh.write((head + bracket).encode())
    fh.write(body)
    fh.write((tail + "\n").encode())


def cmd_scan(args) -> int:
    if args.min > args.max:
        raise InputError("scan range is empty the wrong way: min > max")
    if args.max > MAX_PRIME:
        raise InputError(f"scan max {args.max} exceeds the supported bound {MAX_PRIME}")
    if args.jobs < 1:
        raise InputError("jobs must be at least 1")
    # Open the report before the scan, so that an unusable path fails first.
    # Append mode leaves an existing file as it was until the report is
    # written; a file created here is removed again if the scan fails.
    existed = os.path.exists(args.output)
    try:
        fh = open(args.output, "ab")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with fh:
            n_primes, report, body = _scan_report(args)
            try:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.seek(0)
                    fh.truncate()
                _write_report(fh, args.format, report, body)
                fh.flush()
            except OSError as exc:
                print(f"error: cannot write report: {exc}", file=sys.stderr)
                return EXIT_USAGE
    except BaseException:
        if not existed:
            with contextlib.suppress(OSError):
                os.remove(args.output)
        raise
    summary = report["summary"]
    print(f"scanned {n_primes} primes, {summary['mismatches']} mismatches, "
          f"{len(summary['discrepancy_flags'])} discrepancy flags, "
          f"report written to {args.output}")
    return EXIT_MISMATCH if summary["discrepancy_flags"] else EXIT_OK


def cmd_selftest(_args) -> int:
    results = run_selfchecks()
    ok = True
    for name, passed in results:
        print(f"[{'ok' if passed else 'FAIL'}] {name}")
        ok &= passed
    return EXIT_OK if ok else EXIT_MISMATCH


def _prime_arg(value: str) -> int:
    n = int(value)
    if not is_prime(n):
        raise argparse.ArgumentTypeError(f"{n} is not prime")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobi49",
        description="Exact Jacobi-sum congruence verification and artiad "
                    "prime classification over F_p.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify the order-49 congruence at one prime")
    v.add_argument("--prime", type=_prime_arg, required=True)
    v.add_argument("--generator", type=int, default=None)
    v.add_argument("--all-n", action="store_true",
                   help="all n in 1..48 instead of n = 1 only")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="artiad classification of one prime")
    c.add_argument("--prime", type=_prime_arg, required=True)
    c.add_argument("--generator", type=int, default=None)
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("scan", help="classify/verify every prime in a range")
    s.add_argument("--min", type=int, required=True)
    s.add_argument("--max", type=int, required=True)
    s.add_argument("--modulus", type=int, choices=(14, 49), required=True,
                   help="which residue class of primes to visit")
    s.add_argument("--all-n", action="store_true")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--output", required=True)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(func=cmd_scan)

    t = sub.add_parser("selftest", help="run the startup algebra checks")
    t.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --version/help to 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
