"""A fixed reference computation that tells how fast the machine is right now.

The benchmark runs on shared machines whose speed changes by up to 1.5x
over seconds to minutes, for the same code.  ``seconds()`` times a fixed
piece of work that does not use latlog but does what latlog's closure and
validity code does: apply a small int32 operation table to pairs of value
columns with numpy, deduplicate the results as bytes in a dict, and run a
plain Python integer loop.  Its columns take about 0.75 MB, so it also
feels a neighbour's pressure on the caches.  Dividing the time of a stretch
of queries by the reference time around it removes most of the machine's
speed from the figure, and none of the program's.
"""
from __future__ import annotations

import random
import time

import numpy as np

_rng = random.Random(20200213)
_TABLE = np.array([_rng.randrange(5) for _ in range(25)], dtype=np.int32)
_COLUMNS = np.array([[_rng.randrange(5) for _ in range(729)] for _ in range(256)],
                    dtype=np.int32)
REPEATS = 3


def _once() -> float:
    seen: dict[bytes, int] = {}
    n = len(_COLUMNS)
    t0 = time.perf_counter()
    for i in range(800):
        a = _COLUMNS[i * 7919 % n]
        b = _COLUMNS[(i * 104729 + 13) % n]
        key = _TABLE[a * 5 + b].tobytes()
        if key not in seen:
            seen[key] = len(seen)
    total = 0
    for i in range(20_000):
        total += (i * 7) % 13
    return time.perf_counter() - t0


def seconds() -> float:
    """Fastest of a few timings of the reference work (about 8 ms each)."""
    return min(_once() for _ in range(REPEATS))
