"""Byte-identity of the CLI reports, pinned as SHA-256 hashes.

Every report is deterministic for a fixed configuration; the one field
that varies between runs, runtime_seconds in a JSON scan report, is cut
out before hashing.  A change to any certificate field, to the order of
the records or to the serialisation changes a hash here, so a refactor
that claims to leave the reports alone is checked by this file.

A JSON scan report is compact.  Its pin in GOLDEN_SCAN and
GOLDEN_SCAN_MORE hashes its content, re-encoded with indent=2: the bytes
such reports had when the scan wrote them indented.  GOLDEN_SCAN_COMPACT
pins the compact bytes themselves.
"""

import hashlib
import json
import re

import pytest

from jacobi49.cli import main

GOLDEN = {
    ("verify", "--prime", "197", "--all-n"):
        "137da110a19f64750f6d8c3258295106d64ceb4e45c5e910865832f2373c7f9a",
    ("verify", "--prime", "491", "--all-n"):
        "e6d2115272113277c144b6b44a5cf87460259030418fbcc2738ca33a06f7cc2a",
    ("verify", "--prime", "60271", "--all-n"):
        "a0b48d0251813e8cbd73ebd451dd09d705b2fa55e2133eb0c503d804d535e90d",
    # multi-slab factorials, multi-block class tables and the float64
    # inverse transform near its bound, up to the supported cap
    ("verify", "--prime", "1000679", "--all-n"):
        "aa5f5bd6fc9c662d69c11d0a10d778fcc039da15ff364088d8ad77890cc1dcc0",
    ("verify", "--prime", "9999823", "--all-n"):
        "cc50e874769b58c6494e8f2fd2b952d1d4eb5f9b314726a8222fd34d172068ed",
    ("classify", "--prime", "4500007"):
        "5d38f89330ef167020d485cb9ba5824cd7916a8691f304a00ded8a2505258ab7",
    ("classify", "--prime", "9999991"):
        "4a725b2a6565610cca50ccd36f6d3a4b1625f6b1543d4c955dea3cc5d545e18a",
    ("classify", "--prime", "43"):
        "2856e680daa20b97b8d0021f57e70056c366aa03c164164f5846388d05ac0e53",
    ("classify", "--prime", "197"):
        "a428fe093972cd00a546ab6609eb220d7aaa1b8c6808b00681cf16f7b78c8dcb",
    ("classify", "--prime", "14197"):
        "80e4a06f980acd1afc17269d2a9aa97dcc171c8b239d2e217d0ddee44eeaec1f",
    ("classify", "--prime", "60271"):
        "4e7e913b1502bd43dfcde72d6274c7b96f086bcf1b69da378236233e9080c26b",
    # the second smallest generator (oracles.second_generator) at p != 1 (mod 49)
    ("classify", "--prime", "14197", "--generator", "14"):
        "3033ee9eb907ced207d2d1258830c2f95862e8c5256c0fbcbe876c4165c77d83",
    ("classify", "--prime", "4500007", "--generator", "6"):
        "7643c232df94d220b991703055e6d1d8366fa02e7c07ac5a23f6248bb15cbb61",
    ("classify", "--prime", "60271", "--generator", "33"):
        "fc014009aad488afbaa3a6149c121bd87871a251002317ac95d2d9352df47afa",
}

SCAN = ("scan", "--min", "190", "--max", "2000", "--modulus", "49", "--all-n")
SCAN_MORE = ("scan", "--min", "300", "--max", "400", "--modulus", "49")
SCAN_197 = ("scan", "--min", "197", "--max", "197", "--modulus", "49", "--all-n")
SCAN_14 = ("scan", "--min", "190", "--max", "3000", "--modulus", "14")

GOLDEN_SCAN = {
    "json": "7a184e9319c6e5221191c8de4ec875446c133a04cffb109e451024bc6a3fe062",
    "csv": "ad7a3c4d8e14f0802ab66fe6f05c419c798d10d6645d39d795b4b50411d842ef",
}

# Scans pinned on the writer that encoded the whole report in the parent
# process, before records were encoded in the pool workers.
GOLDEN_SCAN_MORE = {
    (SCAN_MORE, "json"):
        "9beae5cab99458b36dbc35d4d0a05296e8090b15cfa0265087b39dd3fb334496",
    (SCAN_197, "json"):
        "992cc808d8a0848576b91cb7be8a81fdf453bd25a738d3dc683e613c911eee77",
    (SCAN_197, "csv"):
        "80b83681d2500636f56eb4835c050f6c67676aafa134dc35c32340addf750ba2",
    (SCAN_14, "json"):
        "6fbe2d1c233c387ee0d47e2afc1ed25e80239b3a6db964507fe86727437592f0",
    (SCAN_14, "csv"):
        "6ac734323211b7658c2dea3fe2cf3750dc7947f7a6c4ba318d14a72f1a22d969",
}

# The compact bytes of each JSON scan above, runtime_seconds cut: they
# equal the compact re-encoding of the content its pin there hashes.
GOLDEN_SCAN_COMPACT = {
    SCAN: "f39e9730209d016f1160d2d229c84d18fcedb354ad805882ab408fd61e6423df",
    SCAN_MORE: "70454f013d91fad0eea870ba0b9ef0b77eba5c4f9b15895935df33ddc2db4f16",
    SCAN_197: "5a7259be3b1709959d2836aaa00db627bb80ce2b0ac89fc7cd6ba04e474cf055",
    SCAN_14: "4b595d56b13e256019b92fb9d8d43dcb4a2f802ba29de944670bd8549a44b888",
}

_RUNTIME = re.compile(rb'\n *"runtime_seconds": [^\n]*')
_COMPACT_RUNTIME = re.compile(rb',"runtime_seconds":[0-9.]+')


def stdout_digest(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _cut_digest(pattern, data: bytes) -> str:
    data, n = pattern.subn(b"", data)
    assert n == 1
    return hashlib.sha256(data).hexdigest()


def scan_digest(path, fmt, argv=SCAN, jobs="1") -> str:
    """The digest of the report, of its content re-encoded with indent=2
    for json; for json the digest of its compact bytes is checked too."""
    assert main([*argv, "--format", fmt, "--jobs", jobs, "--output", str(path)]) == 0
    data = path.read_bytes()
    if fmt == "csv":
        return hashlib.sha256(data).hexdigest()
    assert _cut_digest(_COMPACT_RUNTIME, data) == GOLDEN_SCAN_COMPACT[argv]
    return _cut_digest(_RUNTIME, (json.dumps(json.loads(data), indent=2) + "\n").encode())


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_report_bytes(capsys, argv):
    assert stdout_digest(capsys, argv) == GOLDEN[argv]


@pytest.mark.parametrize("fmt", list(GOLDEN_SCAN))
def test_scan_report_bytes(tmp_path, capsys, fmt):
    assert scan_digest(tmp_path / f"scan.{fmt}", fmt) == GOLDEN_SCAN[fmt]


@pytest.mark.parametrize("fmt", list(GOLDEN_SCAN))
def test_scan_report_bytes_from_the_pool(tmp_path, capsys, fmt):
    assert scan_digest(tmp_path / f"scan.{fmt}", fmt, jobs="2") == GOLDEN_SCAN[fmt]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", list(GOLDEN_SCAN_MORE),
                         ids=lambda case: " ".join(case[0][1:]) + f" {case[1]}")
def test_scan_report_bytes_more_ranges(tmp_path, capsys, case, jobs):
    argv, fmt = case
    assert scan_digest(tmp_path / f"scan.{fmt}", fmt, argv, jobs) == GOLDEN_SCAN_MORE[case]
