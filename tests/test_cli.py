import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from jacobi49 import cli
from jacobi49.cli import main, primes_in_range
from jacobi49.errors import InputError
from jacobi49.prime_field import MAX_PRIME


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_primes_in_range_sieve_oracle():
    # independent trial-division oracle
    def is_prime(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    got = primes_in_range(2, 2000, 49)
    want = [p for p in range(2, 2001) if is_prime(p) and p % 49 == 1]
    assert got == want == [197, 491, 883, 1373, 1471, 1667]
    for lo, hi in [(0, 3000), (197, 1667), (198, 1666), (29, 29), (30, 42), (1, 1), (5, 4)]:
        for modulus in (14, 49):
            want = [p for p in range(lo, hi + 1) if is_prime(p) and p % modulus == 1]
            assert primes_in_range(lo, hi, modulus) == want, (lo, hi, modulus)


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--prime", "197")
    assert code == 0
    certs = json.loads(out)
    assert len(certs) == 1
    assert certs[0]["p"] == 197 and certs[0]["n"] == 1 and certs[0]["match"] is True
    assert len(certs[0]["predicted"]) == 8 and len(certs[0]["actual"]) == 8
    assert certs[0]["discrepancies"] == []


def test_verify_all_n(capsys):
    code, out, _ = run_cli(capsys, "verify", "--prime", "197", "--all-n")
    assert code == 0
    certs = json.loads(out)
    assert [c["n"] for c in certs] == list(range(1, 49))
    assert all(c["match"] for c in certs)


def test_verify_generator_override(capsys):
    code, out, _ = run_cli(capsys, "verify", "--prime", "197", "--generator", "3")
    assert code == 0
    certs = json.loads(out)
    assert certs[0]["gamma"] == 3 and certs[0]["match"] is True


def test_verify_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "verify", "--prime", "196")
    assert code == 2


def test_verify_rejects_wrong_class(capsys):
    code, _, err = run_cli(capsys, "verify", "--prime", "29")
    assert code == 2 and "49" in err


def test_classify_ok(capsys):
    code, out, _ = run_cli(capsys, "classify", "--prime", "29")
    assert code == 0
    cert = json.loads(out)
    assert cert["classification"]["kind"] in ("ordinary", "artiad", "hyperartiad")
    ev = cert["classification"]["evidence"]
    assert ev["via_x"] == ev["via_cubic"]


def test_classify_mod49_includes_lemma_evidence(capsys):
    code, out, _ = run_cli(capsys, "classify", "--prime", "197")
    assert code == 0
    ev = json.loads(out)["classification"]["evidence"]
    assert ev["lemma4"] is not None and ev["lemma5"] is not None


def _disagreeing_cubic_criterion(monkeypatch):
    # fault injection: the cubic-root criterion contradicts the x-test
    from jacobi49 import artiad
    real = artiad.classify_via_cubic
    monkeypatch.setattr(artiad, "classify_via_cubic", lambda ctx: not real(ctx))


def test_classify_exits_1_on_discrepancy(monkeypatch, capsys):
    _disagreeing_cubic_criterion(monkeypatch)
    code, out, _ = run_cli(capsys, "classify", "--prime", "29")
    assert code == 1
    assert json.loads(out)["discrepancies"] == [
        "artiad criteria disagree (x-test vs cubic roots)"]


def _off_by_one_prediction(monkeypatch):
    # fault injection: the predicted t^7 coefficient is 1 too high (mod 7) at
    # every n prime to 7, so those 42 n of a prime miss the actual residue
    from jacobi49 import verify
    real = verify.predicted_rows

    def shifted(sets):
        rows = real(sets)
        for row, cs in zip(rows, sets):
            if cs.n % 7:
                row[7] = (row[7] + 1) % 7
        return rows

    monkeypatch.setattr(verify, "predicted_rows", shifted)


def test_verify_exits_1_on_mismatch(monkeypatch, capsys):
    _off_by_one_prediction(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--prime", "197", "--all-n")
    assert code == 1
    missed = [c for c in json.loads(out) if c["match"] is False]
    assert [c["n"] for c in missed] == [n for n in range(1, 49) if n % 7]
    for c in missed:
        assert f"predicted residue differs from actual at n = {c['n']}" in c["discrepancies"]
    # classify has no congruence part to miss
    assert run_cli(capsys, "classify", "--prime", "197")[0] == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_exits_1_on_mismatch(tmp_path, monkeypatch, capsys, fmt, jobs):
    _off_by_one_prediction(monkeypatch)
    out_file = tmp_path / f"r.{fmt}"
    code, out, _ = run_cli(capsys, "scan", "--min", "190", "--max", "500", "--modulus", "49",
                           "--all-n", "--format", fmt, "--jobs", jobs,
                           "--output", str(out_file))
    assert code == 1
    assert "scanned 2 primes, 84 mismatches, 84 discrepancy flags" in out
    if fmt == "json":
        report = json.loads(out_file.read_text())
        assert report["summary"]["mismatches"] == 84
        assert len(report["summary"]["discrepancy_flags"]) == 84
        matches = [c["match"] for c in report["certificates"]]
    else:
        with open(out_file, newline="") as fh:
            matches = [row["match"] for row in csv.DictReader(fh)]
    assert matches.count(False if fmt == "json" else "False") == 84


def test_classify_wrong_class(capsys):
    code, _, err = run_cli(capsys, "classify", "--prime", "23")
    assert code == 2


def test_scan_report_and_exit(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "scan", "--min", "2", "--max", "2000",
                         "--modulus", "49", "--output", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    primes = sorted({c["p"] for c in report["certificates"]})
    assert primes == [197, 491, 883, 1373, 1471, 1667]
    assert report["summary"]["mismatches"] == 0
    assert report["summary"]["discrepancy_flags"] == []
    assert report["version"]
    # per prime: one classification record (n null) and one n=1 certificate
    for p in primes:
        ns = [c["n"] for c in report["certificates"] if c["p"] == p]
        assert ns == [None, 1]


def test_scan_exits_1_on_discrepancy_without_mismatch(tmp_path, monkeypatch, capsys):
    _disagreeing_cubic_criterion(monkeypatch)
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "scan", "--min", "2", "--max", "250",
                         "--modulus", "14", "--output", str(out_file))
    assert code == 1
    summary = json.loads(out_file.read_text())["summary"]
    assert summary["mismatches"] == 0
    assert len(summary["discrepancy_flags"]) == 8 + 1  # 197 has two records


def test_scan_deterministic_across_jobs(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert run_cli(capsys, "scan", "--min", "2", "--max", "1500", "--modulus", "49",
                   "--output", str(f1), "--jobs", "1")[0] == 0
    assert run_cli(capsys, "scan", "--min", "2", "--max", "1500", "--modulus", "49",
                   "--output", str(f2), "--jobs", "3")[0] == 0
    strip = lambda s: re.sub(r'"runtime_seconds":[0-9.]+', "", s)
    assert strip(f1.read_text()) == strip(f2.read_text())


def _reference_scan(lo, hi, modulus, all_n, fmt) -> str:
    """The report as the scan wrote it before records were encoded in the
    workers: every record dict, sorted by (p, n), then one compact
    json.dump or csv.writer over the whole report."""
    from jacobi49.verify import classify_prime, verify_prime

    records = []
    for p in reversed(primes_in_range(lo, hi, modulus)):  # the sort restores p order
        certs = [classify_prime(p)]
        if (p - 1) % 49 == 0:
            certs.extend(verify_prime(p, ns=None if all_n else (1,)))
        records.extend(c.to_json() for c in certs)
    records.sort(key=lambda c: (c["p"], c["n"] is not None, c["n"] or 0))
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["p", "gamma", "n", "match", "kind"]
                        + [f"predicted_t{i}" for i in range(8)]
                        + [f"actual_t{i}" for i in range(8)] + ["discrepancies"])
        for c in records:
            writer.writerow(
                [c["p"], c["gamma"], "" if c["n"] is None else c["n"],
                 "" if c["match"] is None else c["match"], c["classification"]["kind"]]
                + list(c["predicted"] or [""] * 8) + list(c["actual"] or [""] * 8)
                + ["; ".join(c["discrepancies"])])
        return out.getvalue()
    kinds = [c["classification"]["kind"] for c in records if c["n"] is None]
    artiads = [c["p"] for c in records
               if c["n"] is None and c["classification"]["kind"] != "ordinary"]
    summary = {
        "ordinary": kinds.count("ordinary"),
        "artiad": kinds.count("artiad"),
        "hyperartiad": kinds.count("hyperartiad"),
        "mismatches": sum(c["match"] is False for c in records),
        "discrepancy_flags": [f"p={c['p']} n={c['n']}: {d}"
                              for c in records for d in c["discrepancies"]],
        "first_artiad": artiads[0] if artiads else None,
    }
    report = {"config": {"min": lo, "max": hi, "modulus": modulus, "all_n": all_n,
                         "format": fmt},
              "version": cli.__version__, "summary": summary,
              "certificates": records, "runtime_seconds": 0.0}
    json.dump(report, out, separators=(",", ":"))
    out.write("\n")
    return out.getvalue()


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
@pytest.mark.parametrize("case", ["n1", "all-n", "fault", "long"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_matches_the_whole_report_encoding(tmp_path, capsys, monkeypatch, fmt, case, jobs):
    # the fault puts discrepancy texts in every record, through the pool too;
    # the long range has many times more primes than the scan keeps in flight
    all_n = case in ("all-n", "fault")
    if case == "fault":
        _disagreeing_cubic_criterion(monkeypatch)
    lo, hi = (2, 6000) if case == "long" else (14000, 15000)
    out_file = tmp_path / f"r.{fmt}"
    argv = ["scan", "--min", str(lo), "--max", str(hi), "--modulus", "14",
            "--format", fmt, "--jobs", jobs, "--output", str(out_file)]
    code = run_cli(capsys, *argv, *(["--all-n"] if all_n else []))[0]
    assert code == (1 if case == "fault" else 0)
    cut = lambda s: re.sub(r'"runtime_seconds":[0-9.]+', "", s)
    with open(out_file, newline="") as fh:
        got = fh.read()
    want = _reference_scan(lo, hi, 14, all_n, fmt)
    assert cut(got) == cut(want)
    if fmt == "json":
        report = json.loads(got)
        primes = primes_in_range(lo, hi, 14)
        verified = sum((p - 1) % 49 == 0 for p in primes)
        assert len(report["certificates"]) == len(primes) + verified * (48 if all_n else 1)
        assert case != "long" or (len(primes), verified) == (126, 16)
        flags = report["summary"]["discrepancy_flags"]
        assert len(flags) == (17 + 2 * 48 if case == "fault" else 0)


# a discrepancy text that holds the key the report's records are spliced
# at, quotes and backslashes: the summary, ahead of the records, lists it
_SPLICE_TEXT = 'a "certificates":[ \\ "\\"certificates\\":[" ]'


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_splices_records_past_discrepancy_texts(tmp_path, capsys, monkeypatch, jobs):
    from dataclasses import replace

    from jacobi49 import verify

    real = verify.run_prime
    monkeypatch.setattr(verify, "run_prime",
                        lambda *args: replace(real(*args), per_prime=(_SPLICE_TEXT,)))
    out_file = tmp_path / "r.json"
    code = run_cli(capsys, "scan", "--min", "190", "--max", "500", "--modulus", "49",
                   "--all-n", "--jobs", jobs, "--output", str(out_file))[0]
    assert code == 1
    got = json.loads(out_file.read_text())
    want = json.loads(_reference_scan(190, 500, 49, True, "json"))
    assert got.pop("runtime_seconds") >= 0
    want.pop("runtime_seconds")
    assert got == want
    assert got["summary"]["discrepancy_flags"][0] == f"p=197 n=None: {_SPLICE_TEXT}"
    assert len(got["certificates"]) == 2 * 49


_STDOUT_REPORTS = pytest.mark.parametrize(
    "argv", [("verify", "--prime", "197", "--all-n"), ("classify", "--prime", "197")],
    ids=lambda a: a[0])


@_STDOUT_REPORTS
def test_stdout_with_discrepancies_matches_indent_2(capsys, monkeypatch, argv):
    from jacobi49.verify import classify_prime, verify_prime

    _disagreeing_cubic_criterion(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    if argv[0] == "verify":
        payload = [c.to_json() for c in verify_prime(197)]
    else:
        payload = classify_prime(197).to_json()
    assert "artiad criteria disagree (x-test vs cubic roots)" in out
    assert out == json.dumps(payload, indent=2) + "\n"


class _Stdout(io.StringIO):
    """A stdout that counts its writes and, if full, fails every one."""

    def __init__(self, full: bool):
        super().__init__()
        self.full = full
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


@_STDOUT_REPORTS
def test_report_on_stdout_in_one_write(capsys, monkeypatch, argv):
    stdout = _Stdout(full=False)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    assert stdout.writes == 1
    json.loads(stdout.getvalue())


@_STDOUT_REPORTS
def test_unwritable_stdout_exits_2(capsys, monkeypatch, argv):
    stdout = _Stdout(full=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert stdout.writes == 1
    assert err == "error: cannot write report: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_exit_code_of_the_process():
    # stdout block-buffered, as in a shell: the text the failed write left
    # in the buffer must not fail again at exit and change the exit code
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "jacobi49.cli", "classify",
                               "--prime", "29"], stdout=full, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write report: [Errno 28] No space left on device\n"


def _inline_pool(monkeypatch, cpus: int, log: list | None = None) -> list[int]:
    """A stub pool that records its size and runs each task inline when it
    is submitted: no process starts.

    Each submission goes into log as ("submit", task).  The process may
    run on cpus CPUs, whatever the machine has.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            if log is not None:
                log.append(("submit", item))
            future = Future()
            future.set_result(fn(item))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return sizes


def test_scan_pool_sized_to_the_work(tmp_path, capsys, monkeypatch):
    sizes = _inline_pool(monkeypatch, cpus=64)
    code, _, _ = run_cli(capsys, "scan", "--min", "190", "--max", "500", "--modulus", "49",
                         "--output", str(tmp_path / "r.json"), "--jobs", "64")
    assert code == 0
    assert sizes == [2]  # 197 and 491: one pool process each


def test_scan_pool_sized_to_the_cpus(tmp_path, capsys, monkeypatch):
    # 28 primes and --jobs 5000, on a process that may run on 3 CPUs
    sizes = _inline_pool(monkeypatch, cpus=3)
    code, _, _ = run_cli(capsys, "scan", "--min", "2", "--max", "1000", "--modulus", "14",
                         "--output", str(tmp_path / "r.json"), "--jobs", "5000")
    assert code == 0
    assert sizes == [3]


@pytest.mark.parametrize("jobs", [2, 3])
def test_scan_pool_computes_every_task_in_a_bounded_window(monkeypatch, jobs):
    # every task goes to the pool, the parent runs none, at most _WINDOW
    # tasks per pool process are pending, and results come back in order
    events = []
    monkeypatch.setattr(cli, "_scan_one", lambda task: events.append(("run", task)) or task)
    sizes = _inline_pool(monkeypatch, cpus=3, log=events)
    tasks = list(range(3 * cli._WINDOW * jobs + 5))
    got = []
    for result in cli._scan_results(tasks, jobs):
        got.append(result)
        events.append(("yield", result))
    assert got == tasks
    assert sizes == [jobs]
    assert [t for kind, t in events if kind == "submit"] == tasks
    assert [t for kind, t in events if kind == "run"] == tasks
    # from its submission to its yield a task is pending
    pending = most = 0
    for kind, _ in events:
        pending += {"submit": 1, "run": 0, "yield": -1}[kind]
        most = max(most, pending)
    assert most == cli._WINDOW * jobs
    assert pending == 0


def test_scan_modulus_14_classifies(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "scan", "--min", "2", "--max", "250",
                         "--modulus", "14", "--output", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    primes = sorted({c["p"] for c in report["certificates"]})
    assert primes == [29, 43, 71, 113, 127, 197, 211, 239]
    # 197 = 1 (mod 49) also gets a congruence certificate
    ns197 = [c["n"] for c in report["certificates"] if c["p"] == 197]
    assert ns197 == [None, 1]
    ns29 = [c["n"] for c in report["certificates"] if c["p"] == 29]
    assert ns29 == [None]


def test_scan_empty_range(tmp_path, capsys):
    out_file = tmp_path / "empty.json"
    code, _, _ = run_cli(capsys, "scan", "--min", "300", "--max", "400",
                         "--modulus", "49", "--output", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["certificates"] == []


def test_scan_csv_projection(tmp_path, capsys):
    out_file = tmp_path / "r.csv"
    code, _, _ = run_cli(capsys, "scan", "--min", "2", "--max", "500",
                         "--modulus", "49", "--output", str(out_file),
                         "--format", "csv")
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert sum(1 for h in header if h.startswith("predicted_t")) == 8
    assert sum(1 for h in header if h.startswith("actual_t")) == 8
    assert len(lines) == 1 + 4  # 197 and 491, two records each


def test_scan_unwritable_output(capsys, kernel_calls):
    # the output is opened before the scan: no pass over any field runs
    code, _, err = run_cli(capsys, "scan", "--min", "2", "--max", "300",
                           "--modulus", "49", "--output",
                           "/nonexistent-dir/report.json")
    assert code == 2
    assert "cannot write report" in err
    assert sum(kernel_calls.values()) == 0, kernel_calls


@pytest.mark.parametrize("task", [(197, True, "json"), (60271, False, "csv"),
                                  (43, False, "json")])
def test_scan_one_computes_the_field_data_once(monkeypatch, kernel_calls, task):
    # classify and verify of a scanned prime share one context: one
    # generator search, one Stickelberger product and, at p = 1 (mod 49),
    # one factorial product, one class table and its one pair count
    from jacobi49 import prime_field, stickelberger

    calls = {"generator": 0, "jacobi_sums": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(prime_field, "_smallest_generator",
                        counting("generator", prime_field._smallest_generator))
    monkeypatch.setattr(stickelberger, "jacobi_sums",
                        counting("jacobi_sums", stickelberger.jacobi_sums))
    summary, _ = cli._scan_one(task)
    assert summary[2] == []
    passes = int(task[0] % 49 == 1)
    assert kernel_calls == {"factorials": passes, "index_table": passes,
                            "pair_counts": passes, "power_pair_hist": 0,
                            "power_pair_hist_variant": 0, "cubic_roots": 0}
    assert calls == {"generator": 1, "jacobi_sums": 1}


def _failing_scan_one(task):
    raise InputError(f"injected failure at p = {task[0]}")


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_failing_scan_reports_the_first_failure_in_p_order(tmp_path, capsys, monkeypatch, jobs):
    # later primes may fail first in the pool: the first in p order is reported
    out_file = tmp_path / "r.json"
    monkeypatch.setattr(cli, "_scan_one", _failing_scan_one)
    code, _, err = run_cli(capsys, "scan", "--min", "2", "--max", "5000", "--modulus", "49",
                           "--jobs", jobs, "--output", str(out_file))
    assert code == 2
    assert err == "error: injected failure at p = 197\n"
    assert not out_file.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failing_scan_leaves_existing_report_intact(tmp_path, capsys, monkeypatch, fmt):
    out_file = tmp_path / f"r.{fmt}"
    out_file.write_text("earlier report\n")
    monkeypatch.setattr(cli, "_scan_one", _failing_scan_one)
    code, _, err = run_cli(capsys, "scan", "--min", "2", "--max", "300",
                           "--modulus", "49", "--format", fmt, "--jobs", "1",
                           "--output", str(out_file))
    assert code == 2
    assert "injected failure at p = 197" in err
    assert out_file.read_text() == "earlier report\n"


def test_failing_scan_leaves_no_new_file(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "r.json"
    monkeypatch.setattr(cli, "_scan_one", _failing_scan_one)
    code, _, _ = run_cli(capsys, "scan", "--min", "2", "--max", "300",
                         "--modulus", "49", "--jobs", "1", "--output", str(out_file))
    assert code == 2
    assert not out_file.exists()


def test_scan_overwrites_longer_report(tmp_path, capsys):
    # the report replaces the old contents, it is not appended to them
    out_file = tmp_path / "r.json"
    out_file.write_text("x" * 100_000)
    code, _, _ = run_cli(capsys, "scan", "--min", "300", "--max", "400",
                         "--modulus", "49", "--output", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["certificates"] == []


def test_scan_max_above_bound_rejected_first(tmp_path, capsys, kernel_calls):
    out_file = tmp_path / "r.json"
    out_file.write_text("earlier report\n")
    code, _, err = run_cli(capsys, "scan", "--min", str(MAX_PRIME - 100),
                           "--max", str(MAX_PRIME + 1), "--modulus", "49",
                           "--output", str(out_file))
    assert code == 2
    assert "exceeds the supported bound" in err
    assert sum(kernel_calls.values()) == 0, kernel_calls
    assert out_file.read_text() == "earlier report\n"


def test_scan_bad_config(capsys):
    code, _, _ = run_cli(capsys, "scan", "--min", "100", "--max", "2",
                         "--modulus", "49", "--output", "/tmp/x.json")
    assert code == 2
    code, _, _ = run_cli(capsys, "scan", "--min", "2", "--max", "100",
                         "--modulus", "49", "--jobs", "0", "--output", "/tmp/x.json")
    assert code == 2


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "[ok]" in out and "FAIL" not in out


def test_selftest_detects_a_wrong_factorial_kernel(capsys, monkeypatch):
    # fault injection: a kernel wrong at n = 196 alone, which no table of
    # the other checks reads
    from jacobi49 import _kernels
    real = _kernels.factorials

    def wrong(p, ns):
        out = real(p, ns)
        out[np.asarray(ns) == 196] += 1
        return out

    monkeypatch.setattr(_kernels, "factorials", wrong)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "[FAIL] factorial kernel" in out


def test_selftest_reports_a_raising_check_as_failed(capsys, monkeypatch):
    # fault injection: the last factorial wrong, so the order-49 table built
    # from them at p = 197 breaks its symmetry check and cyclotomic_numbers
    # raises; at p = 29 the order-7 table comes from Stickelberger's
    # relation, which reads no factorial
    from jacobi49 import _kernels
    real = _kernels.factorials

    def wrong(p, ns):
        out = real(p, ns)
        out[-1] = 2 * out[-1] % p
        return out

    monkeypatch.setattr(_kernels, "factorials", wrong)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "[FAIL] factorial kernel" in out
    assert "[ok] elementary Jacobi-sum identities hold at p = 29" in out
    assert ("[FAIL] class-pair counts equal the cyclotomic numbers from Stickelberger's "
            "relation at p = 29 and from factorials at p = 197 (raised InvariantViolation: "
            "cyclotomic numbers of order 49 at p = 197") in out
    assert "[ok] residue of 7 vanishes" in out


def test_selftest_detects_corrupted_reduction_table(capsys):
    # fault injection: corrupt the binomial row behind the residue map
    from jacobi49 import cyclotomic_ring
    saved = cyclotomic_ring._BINOM7[1][0]
    cyclotomic_ring._BINOM7[1][0] = 5
    try:
        code, out, _ = run_cli(capsys, "selftest")
    finally:
        cyclotomic_ring._BINOM7[1][0] = saved
    assert code == 1
    assert "FAIL" in out
