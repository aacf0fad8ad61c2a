"""Machine-speed reference for normalizing times.

The boxes this benchmark runs on are shared: the same instance can take
35% longer from one minute to the next while other tenants load the
CPU.  A fixed kernel of the same kind of work as the program (small
int64 numpy vector operations modulo 2**31 - 1 with Python ints and
dicts) runs between timed calls and slows down with them.  A time is
reported as raw seconds x REFERENCE_S / (kernel seconds measured next to
it): seconds at the speed at which the kernel takes REFERENCE_S.  The
kernel is the benchmark's own code, so a change to the program cannot
change it.
"""
from __future__ import annotations

import random
import time

import numpy as np

P = 2_147_483_647
REFERENCE_S = 0.02

_rng = random.Random(7)
_ROWS = [np.array([_rng.randrange(P) for _ in range(64)], dtype=np.int64) for _ in range(64)]


def _kernel() -> int:
    table: dict[int, int] = {}
    acc = np.zeros(64, dtype=np.int64)
    for _ in range(2):
        for i, row in enumerate(_ROWS):
            for j in range(64):
                c = int(row[j])
                acc = (acc + c * _ROWS[j]) % P
                k = (i * 64 + j) % 509
                table[k] = (table.get(k, 0) + c) % P
    return int(acc.sum()) + len(table)


def reference_seconds() -> float:
    """Wall seconds of one run of the reference kernel, now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def normalized(raw_s: float, kernel_s: float) -> float:
    return raw_s * REFERENCE_S / kernel_s


def normalized_series(raw: list[float], kernel: list[float], half: int = 4) -> list[float]:
    """Normalize call j of a loop in which kernel[j] ran before it and
    kernel[j + 1] after it, by the mean of the 2 * half kernel runs
    around it: one kernel run is too short to sample the speed well."""
    out = []
    for j, dt in enumerate(raw):
        window = kernel[max(0, j + 1 - half): j + 1 + half]
        out.append(normalized(dt, sum(window) / len(window)))
    return out
