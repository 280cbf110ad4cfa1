"""Reference figures for the README: the three-digit addition circuit.

Prints, as Markdown: the environment; forward and backward time per row at
batch 1, 64, 1024 and 8192 under the probability and the log structure,
with the backward/forward ratio; layered against evaluate_recursive at
batch 1; and the fan-in histogram of every layer of the circuit. Run from
the root of a checkout:

    python3 nesybench/reference.py

Each figure is the median of several calls; the host's speed drifts, so
take the figures as a profile, not as a baseline to compare a change with
(the benchmark's runs are for that).
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

os.environ["OMP_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import inputs  # noqa: E402

from nesycirc.compiler import compile_cnf, smooth  # noqa: E402
from nesycirc.layered import (LeafBatch, backward, evaluate,  # noqa: E402
                              evaluate_recursive, layerize)
from nesycirc.tasks import build_addition  # noqa: E402

REPS = {1: 200, 64: 50, 1024: 7, 8192: 3}


def _median_s(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    problem = build_addition(inputs.N_DIGITS, inputs.TRAIN_SUM)
    circuit = smooth(compile_cnf(problem.cnf))
    lc = layerize(circuit)
    rng = np.random.default_rng(0)
    print(f"- cores: {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, {platform.machine()}")
    print(f"- circuit: {len(circuit.nodes)} nodes, "
          f"{sum(len(n.children) for n in circuit.nodes)} edges, {len(lc.layers)} layers\n")

    print("| batch | structure | forward us/row | backward us/row | backward/forward |")
    print("|---:|---|---:|---:|---:|")
    for b, reps in REPS.items():
        batch = LeafBatch.from_probabilities(inputs.probability_rows(rng, b, 60),
                                             num_vars=lc.num_vars, aux_vars=lc.aux_vars)
        for s in ("probability", "log_probability"):
            fwd = _median_s(lambda: evaluate(lc, batch, s), reps) / b * 1e6
            bwd = _median_s(lambda: backward(lc, batch, s), reps) / b * 1e6
            print(f"| {b} | {s} | {fwd:.1f} | {bwd:.1f} | {bwd / fwd:.1f} |")

    one = LeafBatch.from_probabilities(inputs.probability_rows(rng, 1, 60),
                                       num_vars=lc.num_vars, aux_vars=lc.aux_vars)
    layered = _median_s(lambda: evaluate(lc, one), REPS[1]) * 1e6
    recursive = _median_s(lambda: evaluate_recursive(circuit, one), REPS[1]) * 1e6
    print(f"\nBatch 1, probability: layered {layered:.0f} us, evaluate_recursive "
          f"{recursive:.0f} us (layered/recursive {layered / recursive:.2f}).\n")

    print("| layer | kind | nodes | fan-in: count |")
    print("|---:|---|---:|---|")
    for k, layer in enumerate(lc.layers[1:], start=1):
        hist = sorted(Counter(layer.seg_lengths.tolist()).items())
        print(f"| {k} | {layer.kind} | {layer.size} | "
              + " ".join(f"{f}:{c}" for f, c in hist) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
