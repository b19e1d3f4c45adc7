import numpy as np
import pytest

from jacobi49 import _kernels
from jacobi49.cyclotomy import CycNumberTable, check_symmetries, cyclotomic_numbers
from jacobi49.prime_field import build_ctx
from jacobi49.verify import PrimeBundle, prepare_prime


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # Run every kernel once on a tiny field, so lazy numpy set-up happens here.
    _kernels.warmup()


OP_KERNELS = ("factorials", "index_table", "pair_counts", "power_pair_hist",
              "power_pair_hist_variant", "cubic_roots")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of calls to each O(p) kernel in _kernels, by name."""
    calls = dict.fromkeys(OP_KERNELS, 0)

    def counting(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    for name in OP_KERNELS:
        monkeypatch.setattr(_kernels, name, counting(name, getattr(_kernels, name)))
    return calls


_BUNDLES: dict[tuple[int, int | None], PrimeBundle] = {}


@pytest.fixture(scope="session")
def bundle():
    """Memoized per-prime pipeline data, shared across the whole session."""

    def get(p: int, gamma: int | None = None) -> PrimeBundle:
        key = (p, gamma)
        if key not in _BUNDLES:
            _BUNDLES[key] = prepare_prime(build_ctx(p, gamma))
        return _BUNDLES[key]

    return get


@pytest.fixture(scope="session")
def with_shuffled_copy():
    """The table of order e, and a copy with its cells shuffled out of the even-f classes."""

    def get(ctx, e: int) -> tuple[CycNumberTable, CycNumberTable]:
        cyc = cyclotomic_numbers(ctx, e)
        counts = np.random.default_rng(ctx.p * e).permutation(cyc.counts.ravel())
        shuffled = CycNumberTable(e=e, p=cyc.p, counts=counts.reshape(e, e))
        assert (shuffled.counts != shuffled.counts.T).any() and check_symmetries(shuffled)
        return cyc, shuffled

    return get
