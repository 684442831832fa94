"""Cost of one ``RingElement`` multiply and add, per coefficient ring.

    python3 perfbench/ringbench.py --seed 1

Times ``a * b`` and ``a + b`` with no tracing, over a fixed sample of
operand pairs drawn from the seed, for each ring a benchmark workload
uses: ``Z`` (fqsym-chains), ``Q`` (tensor-kernels), ``Z/5`` (abc-spec)
and ``Z[q]/(1,1,1)`` (binomial-qring).  Each figure is the median over
repeats of the loop time divided by the number of pairs, so it includes
the loop's own few tens of nanoseconds.  Prints one JSON object of
``rings.<ring>.<op>_ns`` values.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

PAIRS = 2000
REPEATS = 15


def operand_pairs(seed: int):
    """ring key -> (ring string, list of raw value pairs)."""
    rng = random.Random(seed)

    def sample(draw):
        return [(draw(), draw()) for _ in range(PAIRS)]

    return {
        "Z": ("Z", sample(lambda: rng.randint(-1000, 1000))),
        "Q": ("Q", sample(lambda: Fraction(rng.randint(-50, 50),
                                           rng.randint(1, 50)))),
        "zmod5": ("Z/5", sample(lambda: rng.randrange(5))),
        "zq3": ("Z[q]/(1,1,1)", sample(lambda: (rng.randint(-20, 20),
                                                rng.randint(-20, 20)))),
    }


def _ns_per_op(op, pairs) -> float:
    clock = time.perf_counter_ns
    times = []
    for _ in range(REPEATS):
        start = clock()
        for a, b in pairs:
            op(a, b)
        times.append(clock() - start)
    return statistics.median(times) / len(pairs)


def ring_costs(seed: int) -> dict:
    from operator import add, mul

    from hopfcheck.rings import ring_from_string

    out = {}
    for key, (text, raw) in operand_pairs(seed).items():
        ring = ring_from_string(text)
        pairs = [(ring.element(a), ring.element(b)) for a, b in raw]
        out[f"rings.{key}.mul_ns"] = _ns_per_op(mul, pairs)
        out[f"rings.{key}.add_ns"] = _ns_per_op(add, pairs)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    print(json.dumps(ring_costs(ap.parse_args().seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
