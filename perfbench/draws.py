"""Seeded inputs for the three workloads, drawn in antithetic rounds.

Each round pairs a uniformly drawn input with the input nearest its
mirror image about the middle of the workload's range.  The cost of a
prime grows with p, so every round, and any run made of whole rounds,
is centred on the middle of the range whatever the seed; the median
over a run does not drift with the number of rounds that fit in it.
Every input carries its known answer from `oracle`.
"""

import bisect
import random

import oracle

VERIFY_RANGE = (1_000_000, 1_200_000)
CLASSIFY_RANGE = (4_000_000, 5_000_000)
SCAN_RANGE = (10_000, 100_000)
SCAN_PRIMES = 16
# classify-mod14 rounds: three pairs of ordinary primes, one pair of artiad ones.
CLASSIFY_ORDINARY_PAIRS = 3
MAX_ROUNDS = 64
# The warm-up input of classify-mod14 (see worker.warm_up): mid-range, above 2**22.
CLASSIFY_WARM_UP = 4_500_007


def _mirror_pair(rng: random.Random, free: list[int], lo: int, hi: int) -> list[int]:
    """Remove and return a random member of the sorted list `free` and its mirror."""
    p = free.pop(rng.randrange(len(free)))
    target = lo + hi - p
    i = bisect.bisect_left(free, target)
    q = min((free[j] for j in (i - 1, i) if 0 <= j < len(free)),
            key=lambda c: (abs(c - target), c))
    free.remove(q)
    pair = [p, q]
    rng.shuffle(pair)
    return pair


def verify_rounds(seed: int) -> list[list[dict]]:
    """Pairs of primes p = 1 (mod 49) in VERIFY_RANGE."""
    rng = random.Random(f"verify-1e6/{seed}")
    free = oracle.primes_in(*VERIFY_RANGE, 49)
    rounds = []
    while len(rounds) < MAX_ROUNDS and len(free) >= 2:
        rounds.append([{"p": p, "kind": oracle.kind(p)}
                       for p in _mirror_pair(rng, free, *VERIFY_RANGE)])
    return rounds


def classify_rounds(seed: int) -> list[list[dict]]:
    """Primes p = 1 (mod 14), p != 1 (mod 49), in CLASSIFY_RANGE; a quarter artiad."""
    rng = random.Random(f"classify-mod14/{seed}")
    kinds = {p: oracle.kind(p) for p in oracle.primes_in(*CLASSIFY_RANGE, 14)
             if p % 49 != 1}
    ordinary = [p for p, k in kinds.items() if k == "ordinary"]
    special = [p for p, k in kinds.items() if k != "ordinary"]
    rounds = []
    while (len(rounds) < MAX_ROUNDS and len(special) >= 2
           and len(ordinary) >= 2 * CLASSIFY_ORDINARY_PAIRS):
        ps = _mirror_pair(rng, special, *CLASSIFY_RANGE)
        for _ in range(CLASSIFY_ORDINARY_PAIRS):
            ps += _mirror_pair(rng, ordinary, *CLASSIFY_RANGE)
        rng.shuffle(ps)
        rounds.append([{"p": p, "kind": kinds[p]} for p in ps])
    return rounds


def scan_rounds(seed: int) -> list[list[dict]]:
    """Pairs of scan windows in SCAN_RANGE, each holding SCAN_PRIMES primes = 1 (mod 49).

    A window runs from one such prime to the SCAN_PRIMES-th, so every scan
    does the same number of primes; its mirror is the window whose centre
    lies nearest the mirror image of its centre.
    """
    rng = random.Random(f"scan49-alln/{seed}")
    lo, hi = SCAN_RANGE
    ps = oracle.primes_in(lo, hi, 49)
    centres = [(ps[i] + ps[i + SCAN_PRIMES - 1]) / 2 for i in range(len(ps) - SCAN_PRIMES + 1)]

    def window(i):
        chosen = ps[i:i + SCAN_PRIMES]
        return {"lo": chosen[0], "hi": chosen[-1],
                "primes": [{"p": p, "kind": oracle.kind(p)} for p in chosen]}

    rounds = []
    while len(rounds) < MAX_ROUNDS:
        i = rng.randrange(len(centres))
        target = lo + hi - centres[i]
        j = min(range(len(centres)), key=lambda j: (abs(centres[j] - target), j))
        pair = [window(i), window(j)]
        rng.shuffle(pair)
        rounds.append(pair)
    return rounds


def item_primes(item: dict) -> list[dict]:
    """The primes, with their known kinds, that one input covers."""
    return item["primes"] if "primes" in item else [item]


ROUNDS = {
    "verify-1e6": verify_rounds,
    "classify-mod14": classify_rounds,
    "scan49-alln": scan_rounds,
}
