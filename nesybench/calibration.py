"""Fixed work that measures the speed of the host, timed next to the steps.

On the shared host this benchmark was built on, the same call runs at one
of two speeds, and the slow one (30% to 80% slower) can last for minutes,
so whole runs fall into it and no statistic of raw times inside a run
corrects that. The loop therefore runs a calibration every 0.1 s and at
the end of every round: fixed work written here, which uses no code of
the program, of the same kind as the workload's (interpreted Python for
the compiler and the set-ups; row gathers, segment products and
scatter-adds for the circuit sweeps, over as many columns as the
workload's arrays are wide, or one column where its arrays are small). A
round's time over its calibrations' time depends far less on the host's
mode than either; multiplied by the calibration's reference time, it
gives milliseconds at the reference speed. A change to the program moves
the numerator only.
"""

from __future__ import annotations

import time

import numpy as np

_SLOTS, _FAN_IN, _CHILDREN = 400, 5, 300
# the calibrations, as (width, python_calls, layers, reference_ms):
PYTHON = (1, 2, 0, 6.43)    # compile and every set-up: interpreted Python
WIDE = (1024, 0, 5, 27.1)   # train: sweeps over 1024-row batches
NARROW = (1, 1, 200, 5.31)  # descend, modules: small arrays, where each numpy call costs


def _python_work() -> int:
    """Dicts, sets, tuples, sorting and recursion, as a search over clauses does."""
    clauses = [tuple(sorted({(i * 7 + j * 13) % 97 + 1 for j in range(3)})) for i in range(600)]
    seen: dict[frozenset, int] = {}

    def split(cs: tuple, depth: int) -> int:
        key = frozenset(cs)
        if key in seen:
            return seen[key]
        if depth == 0 or len(cs) < 2:
            seen[key] = len(cs)
            return len(cs)
        pivot = cs[0][0]
        left = tuple(c for c in cs if pivot not in c)
        right = tuple(tuple(v for v in c if v != pivot) for c in cs if pivot in c)
        seen[key] = r = split(left, depth - 1) + split(right, depth - 1) + 1
        return r

    total = 0
    for k in range(0, len(clauses), 25):
        total += split(tuple(clauses[k:k + 50]), 9)
        seen.clear()
    return total


class Calibration:
    """One calibration kernel: ``python_calls`` of the Python work, then
    ``layers`` gathers, segment products and scatter-adds over rows of
    ``width`` columns.

    ``reference_ms`` is the kernel's time on the reference host in its fast
    mode (2-core Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4), a constant
    so that the calibrated figures read in milliseconds.
    """

    def __init__(self, width: int, python_calls: int, layers: int, reference_ms: float):
        rng = np.random.default_rng(20260517)
        self.python_calls = python_calls
        self.reference_ms = reference_ms
        self.buf = rng.random((_SLOTS, width))
        self.index = [rng.integers(0, _SLOTS, _CHILDREN) for _ in range(layers)]
        self.offsets = np.arange(0, _CHILDREN, _FAN_IN)

    def _sweep(self) -> float:
        buf, off = self.buf, self.offsets
        adj = np.zeros_like(buf)
        for idx in self.index:
            g = buf[idx]
            out = np.multiply.reduceat(g, off, axis=0)
            np.add.at(adj, idx, np.repeat(out, _FAN_IN, axis=0) * g)
        return float(adj[0, 0])

    def run(self) -> float:
        """Seconds the kernel took."""
        t0 = time.perf_counter()
        for _ in range(self.python_calls):
            _python_work()
        if self.index:
            self._sweep()
        return time.perf_counter() - t0
