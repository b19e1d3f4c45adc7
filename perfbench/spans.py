"""Span tracing of jacobi49's layers, installed from outside the package.

`Tracer.install` replaces each traced function with a wrapper wherever a
jacobi49 module or class holds it: `_kernels.*` is looked up per call,
while modules such as `verify` and `cli` hold names imported with
`from .x import y`, and methods live on their class.  Every call then
records a span (name, start, end, parent, size) in memory; `uninstall`
puts the originals back.  `layer_metrics` turns the spans of a run into
the per-layer metrics, normalised per prime.
"""

import sys
import time
from functools import wraps


def _p_arg(args) -> int:
    return int(args[0])


def _table_arg(args) -> int:
    return int(args[0].shape[0])


# (module, attribute, span name, size of the field the call passes over)
TARGETS = (
    ("jacobi49._kernels", "index_table", "kernels.index_table", _p_arg),
    ("jacobi49._kernels", "pair_counts", "kernels.pair_counts", _table_arg),
    ("jacobi49._kernels", "power_pair_hist", "kernels.power_pair_hist", _table_arg),
    ("jacobi49._kernels", "power_pair_hist_variant", "kernels.power_pair_hist_variant",
     _table_arg),
    ("jacobi49._kernels", "cubic_roots", "kernels.cubic_roots", _p_arg),
    ("jacobi49.prime_field", "build_ctx", "prime_field.build_ctx", None),
    ("jacobi49.prime_field", "find_generator", "prime_field.find_generator", None),
    ("jacobi49.cyclotomy", "cyclotomic_numbers", "cyclotomy.cyclotomic_numbers", None),
    ("jacobi49.cyclotomy", "dickson_hurwitz", "cyclotomy.dickson_hurwitz", None),
    ("jacobi49.cyclotomy", "jacobi_sum", "cyclotomy.jacobi_sum", None),
    ("jacobi49.cyclotomy", "jacobi_sum_variant", "cyclotomy.jacobi_sum_variant", None),
    ("jacobi49.cyclotomy", "identity_suite", "cyclotomy.identity_suite", None),
    ("jacobi49.cyclotomy", "jacobi_from_cyc", "cyclotomy.jacobi_from_cyc", None),
    ("jacobi49.cyclotomy", "jacobi_via_dh", "cyclotomy.jacobi_via_dh", None),
    ("jacobi49.cyclotomic_ring", "residue_mod_t8", "cyclotomic_ring.residue_mod_t8", None),
    ("jacobi49.cyclotomic_ring", "CyclotomicInt.__mul__", "cyclotomic_ring.mul", None),
    ("jacobi49.order7", "solution_from_tables", "order7.solution_from_tables", None),
    ("jacobi49.order7", "tu_decompose", "order7.tu_decompose", None),
    ("jacobi49.order7", "match_reconstruction", "order7.match_reconstruction", None),
    ("jacobi49.order7", "verify_diophantine", "order7.verify_diophantine", None),
    ("jacobi49.congruence", "coeffs_by_definition", "congruence.coeffs_by_definition", None),
    ("jacobi49.congruence", "s_direct", "congruence.s_direct", None),
    ("jacobi49.congruence", "s_lemma", "congruence.s_lemma", None),
    ("jacobi49.congruence", "coeffs_closed_form", "congruence.closed_forms", None),
    ("jacobi49.congruence", "c7_closed_form_fitted", "congruence.closed_forms", None),
    ("jacobi49.congruence", "adjudicate_closed_forms", "congruence.closed_forms", None),
    ("jacobi49.artiad", "classify_from_parts", "artiad.classify_from_parts", None),
    ("jacobi49.verify", "prepare_prime", "verify.prepare_prime", None),
    ("jacobi49.verify", "verify_prime", "verify.verify_prime", None),
    ("jacobi49.verify", "classify_prime", "verify.classify_prime", None),
    ("jacobi49.verify", "Certificate.__init__", "verify.certificate", None),
    ("jacobi49.verify", "Certificate.to_json", "verify.to_json", None),
    ("jacobi49.cli", "cmd_scan", "cli.cmd_scan", None),
)

KERNELS = tuple(name for _, _, name, size in TARGETS if size is not None)

# Per-layer metrics, all per prime, named <span name>.<statistic>: calls is
# an exact count, ms the wall time inside the outermost call of that name,
# self_ms that time minus the time covered by traced child calls.
LAYER_METRICS = tuple(f"{k}.{stat}" for k in KERNELS for stat in ("calls", "ms")) + (
    "prime_field.build_ctx.self_ms", "prime_field.find_generator.ms",
    "cyclotomy.cyclotomic_numbers.ms", "cyclotomy.dickson_hurwitz.ms",
    "cyclotomy.jacobi_sum.calls", "cyclotomy.jacobi_sum.self_ms",
    "cyclotomy.jacobi_sum_variant.calls", "cyclotomy.identity_suite.self_ms",
    "cyclotomy.jacobi_from_cyc.ms", "cyclotomy.jacobi_via_dh.ms",
    "cyclotomic_ring.residue_mod_t8.calls", "cyclotomic_ring.residue_mod_t8.ms",
    "cyclotomic_ring.mul.calls", "cyclotomic_ring.mul.ms",
    "order7.solution_from_tables.ms", "order7.tu_decompose.ms",
    "order7.match_reconstruction.ms", "order7.verify_diophantine.ms",
    "congruence.coeffs_by_definition.ms", "congruence.s_direct.ms",
    "congruence.s_lemma.ms", "congruence.closed_forms.ms",
    "artiad.classify_from_parts.calls", "artiad.classify_from_parts.self_ms",
    "verify.prepare_prime.calls", "verify.prepare_prime.self_ms",
    "verify.verify_prime.self_ms", "verify.classify_prime.self_ms",
    "verify.to_json.ms", "cli.cmd_scan.self_ms",
)

# Per-layer metrics derived from several spans or from the workload's output.
DERIVED_UNITS = {
    "kernels.passes": "count/prime",         # calls of all O(p) kernels
    "kernels.bytes_computed": "B/prime",     # sum over kernel calls of p * 8
    "verify.certificates": "count/prime",    # Certificate objects built
    "cli.records_per_prime": "count/prime",  # records in the scan report
    "trace.wall_ms": "ms/prime",             # traced wall time
    "trace.overhead_ms": "ms/prime",         # traced minus untraced wall time
}


def unit(metric: str) -> str:
    """The unit of a per-layer metric."""
    if metric in DERIVED_UNITS:
        return DERIVED_UNITS[metric]
    return "count/prime" if metric.endswith(".calls") else "ms/prime"


def _resolve(module: str, attr: str):
    obj = sys.modules[module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _holders():
    """Every jacobi49 module and every class defined in one."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if name != "jacobi49" and not name.startswith("jacobi49."):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if (isinstance(value, type) and value.__module__.startswith("jacobi49")
                    and id(value) not in seen):
                seen.add(id(value))
                yield value


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, size, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    size(args) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a root span of the benchmark's own."""
        return self._wrap(name, None, fn)(*args, **kwargs)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import jacobi49.cli  # noqa: F401  (cli is not imported by the package)

        wrappers = {}
        for module, attr, name, size in TARGETS:
            original = _resolve(module, attr)
            wrappers[id(original)] = (original, self._wrap(name, size, original))
        for holder in _holders():
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)


def layer_metrics(spans: list[list], primes: int) -> dict[str, float]:
    """LAYER_METRICS plus kernels.passes and kernels.bytes_computed, per prime."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    nbytes = 0
    for idx, (name, start, end, parent, size) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - covered[idx]) * 1e3
        nbytes += size * 8
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # outermost call of this name: recursion is counted once
            ms[name] = ms.get(name, 0.0) + (end - start) * 1e3
    stats = {"calls": calls, "ms": ms, "self_ms": self_ms}
    out = {}
    for metric in LAYER_METRICS:
        name, stat = metric.rsplit(".", 1)
        out[metric] = stats[stat].get(name, 0) / primes
    out["kernels.passes"] = sum(calls.get(k, 0) for k in KERNELS) / primes
    out["kernels.bytes_computed"] = nbytes / primes
    out["verify.certificates"] = calls.get("verify.certificate", 0) / primes
    return out
