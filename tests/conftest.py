import pytest

from jacobi49 import _kernels
from jacobi49.verify import PrimeBundle, prepare_prime


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # Compile (or load from cache) every jitted kernel before any timing runs.
    _kernels.warmup()


_BUNDLES: dict[tuple[int, int | None], PrimeBundle] = {}


@pytest.fixture(scope="session")
def bundle():
    """Memoized per-prime pipeline data, shared across the whole session."""

    def get(p: int, gamma: int | None = None) -> PrimeBundle:
        key = (p, gamma)
        if key not in _BUNDLES:
            _BUNDLES[key] = prepare_prime(p, gamma)
        return _BUNDLES[key]

    return get
