"""Self-test of the benchmark: tracing, the oracle, the draws and BENCHMARK.json.

Run from the root of a checkout:

  PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import draws  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from jacobi49 import verify  # noqa: E402

COUNTS = [m for m in spans.LAYER_METRICS if m.endswith(".calls")] + [
    "kernels.passes", "kernels.bytes_computed", "verify.certificates"]


def traced(fn, *args):
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = tracer.call("bench.item", fn, *args)
    finally:
        tracer.uninstall()
    return out, spans.layer_metrics(tracer.spans, 1)


def test_traced_counts_repeat_exactly():
    _, first = traced(verify.verify_prime, 197)
    _, second = traced(verify.verify_prime, 197)
    assert {m: first[m] for m in COUNTS} == {m: second[m] for m in COUNTS}
    assert first["verify.certificates"] == 48
    assert first["kernels.index_table.calls"] == 1
    assert first["kernels.passes"] == sum(first[f"{k}.calls"] for k in spans.KERNELS)
    assert first["kernels.bytes_computed"] == first["kernels.passes"] * 197 * 8


def test_tracing_changes_no_result_and_is_removed():
    originals = [spans._resolve(module, attr) for module, attr, *_ in spans.TARGETS]
    plain = [c.to_json() for c in verify.verify_prime(197)]
    certs, _ = traced(verify.verify_prime, 197)
    assert [c.to_json() for c in certs] == plain
    cert, _ = traced(verify.classify_prime, 60271)
    assert cert.to_json() == verify.classify_prime(60271).to_json()
    assert [spans._resolve(module, attr) for module, attr, *_ in spans.TARGETS] == originals


def test_layer_metrics_on_known_spans():
    recorded = [
        ["cyclotomy.jacobi_sum", 0.0, 1.0, -1, 0],
        ["kernels.power_pair_hist", 0.1, 0.4, 0, 100],
        ["cyclotomy.jacobi_sum", 0.5, 0.7, 0, 0],
        ["congruence.closed_forms", 2.0, 3.0, -1, 0],
        ["congruence.closed_forms", 2.2, 2.6, 3, 0],
    ]
    layers = spans.layer_metrics(recorded, 2)
    assert layers["cyclotomy.jacobi_sum.calls"] == 1
    assert round(layers["cyclotomy.jacobi_sum.self_ms"], 6) == 350  # (1 - .3 - .2 + .2) / 2
    assert round(layers["kernels.power_pair_hist.ms"], 6) == 150
    assert round(layers["congruence.closed_forms.ms"], 6) == 500  # nested call counted once
    assert layers["kernels.passes"] == 0.5
    assert layers["kernels.bytes_computed"] == 400


def test_traced_scan_covers_the_cli(tmp_path):
    item = {"lo": 190, "hi": 500, "primes": [{"p": 197, "kind": "ordinary"},
                                             {"p": 491, "kind": "ordinary"}]}
    result, layers = traced(worker.run_scan, item, 1, tmp_path)
    summary = worker.summarise(result)
    assert run.failed_primes("scan49-alln", item, summary) == 0
    assert layers["verify.certificates"] == 2 * 49
    assert layers["verify.prepare_prime.calls"] == 2 * 2
    assert layers["cli.cmd_scan.self_ms"] > 0
    assert list(tmp_path.iterdir()) == []


def test_oracle_agrees_with_classify_prime():
    primes = oracle.primes_in(2, 3000, 14) + [14197, 60271, 4020409]
    kinds = {p: oracle.kind(p) for p in primes}
    assert (kinds[14197], kinds[60271], kinds[4020409]) == (
        "artiad", "artiad", "hyperartiad")
    assert kinds == {p: verify.classify_prime(p).classification.kind for p in primes}


def test_known_answer_check_fails_wrong_or_raising_results():
    right = {"p": 60271, "kind": "artiad"}
    result = worker.run_item(worker.run_classify, right)
    assert run.failed_primes("classify-mod14", right, result) == 0
    assert run.failed_primes("classify-mod14", {"p": 60271, "kind": "ordinary"}, result) == 1
    raised = worker.run_item(worker.run_classify, {"p": 60272, "kind": "ordinary"})
    assert "error" in raised
    assert run.failed_primes("classify-mod14", {"p": 60272, "kind": "ordinary"}, raised) == 1


def test_classify_warm_up_is_a_workload_input_above_2_to_22():
    p = draws.CLASSIFY_WARM_UP
    assert p > 2**22 and p % 14 == 1 and p % 49 != 1
    assert p in oracle.primes_in(*draws.CLASSIFY_RANGE, 14)


def test_draws_repeat_per_seed_and_mirror():
    for make in draws.ROUNDS.values():
        assert make(3) == make(3) != make(4)
    lo, hi = draws.VERIFY_RANGE
    for a, b in draws.verify_rounds(3):
        assert abs(a["p"] + b["p"] - lo - hi) < 5000 and a["p"] % 49 == 1
    for rnd in draws.classify_rounds(3):
        assert sum(e["kind"] != "ordinary" for e in rnd) * 4 == len(rnd) == 8
        assert all(e["p"] % 14 == 1 and e["p"] % 49 != 1 for e in rnd)
    lo, hi = draws.SCAN_RANGE
    for pair in draws.scan_rounds(3):
        assert abs(sum(w["lo"] + w["hi"] for w in pair) / 2 - lo - hi) < 2000
        for w in pair:
            assert [e["p"] for e in w["primes"]] == oracle.primes_in(w["lo"], w["hi"], 49)
            assert len(w["primes"]) == draws.SCAN_PRIMES and lo <= w["lo"] < w["hi"] <= hi


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile([float(x) for x in range(1, 41)]) == (75, 30.0)


def test_benchmark_json_matches_the_code():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    layer_names = (*spans.LAYER_METRICS, *spans.DERIVED_UNITS)
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == {
        m: spans.unit(m) for m in layer_names}
