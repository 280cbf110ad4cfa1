"""Task builders exercising the pipeline end to end.

Two families live here. The semantic-loss helpers turn a circuit-backed
module into a differentiable constraint penalty (mean -log WMC over a
batch) with projected gradient descent on the input probabilities. The
two-number addition family builds CNF queries for P(number1 + number2 = s)
over per-digit indicator variables, together with an independent
convolution oracle and a timing harness comparing recursive and layered
evaluation.

Digit positions are numbered least significant first: position j carries
place value 10^j. Indicator ids pack as (number*N + position)*10 + digit
+ 1 with number in {0, 1}; the N ripple carries sit above the indicators
as auxiliary variables.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, field
from statistics import mean, median

import numpy as np

from .compiler import compile_cnf
from .compose import AnnotatedModule
from .errors import CompositionError
from .factory import CircuitBackend
from .formula import CNF
from .layered import (LeafBatch, _value_and_grad, evaluate, evaluate_recursive,
                      layerize)

__all__ = [
    "AdditionProblem", "TimingReport", "build_addition", "addition_batch",
    "convolution_oracle", "semantic_loss", "semantic_loss_and_grad",
    "descend_semantic_loss", "bench", "read_weight_rows", "write_weight_rows",
]


# ---------------------------------------------------------------------------
# Semantic loss


def _circuit_backend(m: AnnotatedModule) -> CircuitBackend:
    back = getattr(m, "backend", None)
    if not isinstance(back, CircuitBackend):
        raise CompositionError(
            f"{m.name} is not circuit-backed; build it with "
            f"ModuleFactory.build_formula_module or module_from_dimacs")
    if not back.semantics.differentiable:  # the resolved structure, maybe a factory's own
        raise CompositionError(f"semantic loss needs a probability or log-structure "
                               f"module, {m.name} uses {back.structure!r}")
    return back


def _loss_batch(back: CircuitBackend, prob_rows) -> LeafBatch:
    batch = prob_rows if isinstance(prob_rows, LeafBatch) else LeafBatch.from_probabilities(
        prob_rows, num_vars=back.cnf.num_vars, aux_vars=back.cnf.aux_vars)
    if batch.probs is None:
        raise ValueError("semantic loss differentiates probabilities; build the "
                         "batch with LeafBatch.from_probabilities")
    if not batch.batch_size:
        raise ValueError("semantic loss is a mean over rows; the batch has none")
    return batch


def _mean_loss(per_row: np.ndarray) -> float:
    """The mean of the per-row losses, ``np.mean``'s sum over the count;
    warns naming the infinite rows, which only a mean that is not finite
    can have."""
    loss = float(np.add.reduce(per_row) / len(per_row))
    if not math.isfinite(loss):
        inf_rows = np.flatnonzero(np.isinf(per_row))
        if inf_rows.size:
            warnings.warn(f"semantic loss is infinite for rows {inf_rows.tolist()} "
                          f"(constraint probability is zero)", stacklevel=3)
    return loss


def semantic_loss(m: AnnotatedModule, prob_rows) -> float:
    """Mean -log WMC of the module's constraint over probability rows.

    ``prob_rows`` is a (batch, n_inputs) array of probabilities or an
    equivalent LeafBatch. Evaluation goes through the log structure, so
    small weighted counts lose no precision to underflow. A row whose
    weighted count is zero contributes +inf (never NaN) and triggers a
    warning naming the row. A batch of zero rows raises ValueError. Its
    forward pass is :func:`~nesycirc.layered.evaluate`'s, which runs on the
    probability semiring where a row's weights prove that exact; the pass
    of :func:`semantic_loss_and_grad` routes each row the same way, so the
    two losses are equal bit for bit.
    """
    back = _circuit_backend(m)
    batch = _loss_batch(back, prob_rows)
    return _mean_loss(-evaluate(back.layered, batch, "log_probability"))


def semantic_loss_and_grad(m: AnnotatedModule, prob_rows) -> tuple[float, np.ndarray]:
    """Loss plus per-row gradients d(-log WMC)/dp, shape (batch, n_inputs).

    A zero-count row, whose loss is infinite, has no gradient: NaN in
    every column. Projected descent keeps probabilities inside (0, 1) and
    never encounters that case.
    """
    back = _circuit_backend(m)
    batch = _loss_batch(back, prob_rows)
    value, grad = _value_and_grad(back.layered, batch, "log_probability")
    return _mean_loss(-value), -grad


def descend_semantic_loss(m: AnnotatedModule, start, steps: int = 100,
                          step_size: float = 0.05,
                          bounds: tuple[float, float] = (0.001, 0.999),
                          ) -> tuple[list[float], np.ndarray]:
    """Projected gradient descent on the semantic loss of a single row.

    Each step moves against the loss gradient and clips back into
    ``bounds``. Returns (losses, probs): one loss per visited iterate
    (``steps + 1`` values, the last for the final point) and the final row.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    lo, hi = bounds
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"bounds must satisfy 0 < lo < hi < 1, got {bounds}")
    p = np.clip(np.asarray(start, dtype=np.float64).reshape(-1), lo, hi)
    losses = []
    for _ in range(steps):
        loss, grads = semantic_loss_and_grad(m, p[None, :])
        losses.append(loss)
        p = np.clip(p - step_size * grads[0], lo, hi)
    losses.append(semantic_loss(m, p[None, :]))
    return losses, p


# ---------------------------------------------------------------------------
# Two-number addition


@dataclass(frozen=True)
class AdditionProblem:
    """CNF query asking whether two N-digit numbers sum to ``query_sum``.

    Each of the 2N digit groups holds 10 indicator variables under an
    exactly-one constraint; ripple carries link neighboring positions as
    auxiliaries. Satisfying total assignments biject with digit choices
    summing to the target, so under indicator weights (see
    :func:`addition_batch`) the weighted count is P(sum = query_sum).
    """

    n_digits: int
    query_sum: int
    cnf: CNF = field(repr=False)

    @property
    def n_indicators(self) -> int:
        return 20 * self.n_digits

    def indicator(self, number: int, position: int, digit: int) -> int:
        """Variable id of 'number's digit at position equals digit'."""
        if number not in (0, 1):
            raise ValueError(f"number index must be 0 or 1, got {number}")
        if not 0 <= position < self.n_digits:
            raise ValueError(f"position must be in [0, {self.n_digits}), got {position}")
        if not 0 <= digit <= 9:
            raise ValueError(f"digit must be in [0, 9], got {digit}")
        return (number * self.n_digits + position) * 10 + digit + 1

    def carry(self, position: int) -> int:
        """Auxiliary variable id of the carry out of a position."""
        if not 0 <= position < self.n_digits:
            raise ValueError(f"position must be in [0, {self.n_digits}), got {position}")
        return self.n_indicators + position + 1


def build_addition(n_digits: int, query_sum: int) -> AdditionProblem:
    """Encode P(number1 + number2 = query_sum) as a CNF over indicators.

    Exactly-one per digit group is pairwise at-most-one plus one
    at-least-one clause. The sum constraint ripples: for every position,
    carry-in value, carry-out value, and first-number digit, a clause
    either forces the unique matching second-number digit or forbids the
    combination outright; a final unit clause pins the top carry to the
    target's leading digit. On any assignment of the digits the carries
    are then forced by unit propagation, so models biject with digit
    tuples summing to the target.
    """
    N = n_digits
    if not 1 <= N <= 4:
        raise ValueError(f"n_digits must be in [1, 4], got {n_digits}")
    top = 2 * (10 ** N - 1)
    if not 0 <= query_sum <= top:
        raise ValueError(f"query_sum must be in [0, {top}], got {query_sum}")

    def ind(number: int, position: int, digit: int) -> int:
        return (number * N + position) * 10 + digit + 1

    def carry(position: int) -> int:
        return 20 * N + position + 1

    clauses: list[tuple[int, ...]] = []
    for group in range(2 * N):
        base = group * 10
        clauses.append(tuple(base + d + 1 for d in range(10)))
        for i in range(10):
            for j in range(i + 1, 10):
                clauses.append((-(base + i + 1), -(base + j + 1)))

    for j in range(N):
        s_j = (query_sum // 10 ** j) % 10
        for cin in ((0,) if j == 0 else (0, 1)):
            for cout in (0, 1):
                for d1 in range(10):
                    d2 = s_j + 10 * cout - cin - d1
                    prefix = []
                    if j > 0:
                        prefix.append(carry(j - 1) if cin == 0 else -carry(j - 1))
                    prefix.append(carry(j) if cout == 0 else -carry(j))
                    prefix.append(-ind(0, j, d1))
                    if 0 <= d2 <= 9:
                        clauses.append((*prefix, ind(1, j, d2)))
                    else:
                        clauses.append(tuple(prefix))
    lead = query_sum // 10 ** N
    clauses.append((carry(N - 1),) if lead == 1 else (-carry(N - 1),))

    cnf = CNF(num_vars=21 * N, clauses=tuple(clauses),
              aux_vars=frozenset(range(20 * N + 1, 21 * N + 1)))
    return AdditionProblem(n_digits=N, query_sum=query_sum, cnf=cnf)


def addition_batch(problem: AdditionProblem, digit_dists) -> LeafBatch:
    """Indicator weights from digit distributions of shape (2, N, 10).

    A leading batch axis is accepted. Positive literals weigh
    p(number, position, digit) and every negative literal weighs one, so
    each exactly-one group contributes exactly its chosen digit's
    probability to a model's weight; with normalized groups the weighted
    count is then a probability.
    """
    d = np.asarray(digit_dists, dtype=np.float64)
    if d.shape == (2, problem.n_digits, 10):
        d = d[None]
    if d.ndim != 4 or d.shape[1:] != (2, problem.n_digits, 10):
        raise ValueError(f"digit distributions must have shape "
                         f"(batch, 2, {problem.n_digits}, 10), got {d.shape}")
    pos = np.ones((d.shape[0], problem.cnf.num_vars))
    pos[:, :problem.n_indicators] = d.reshape(d.shape[0], -1)
    return LeafBatch.from_weights(pos, np.ones_like(pos),
                                  aux_vars=problem.cnf.aux_vars)


def convolution_oracle(digit_dists) -> np.ndarray:
    """Exact distribution of number1 + number2, no circuits involved.

    ``digit_dists`` has shape (2, N, 10); position j weights the digit at
    place value 10^j, and every group must sum to one within 1e-9. Each
    number's value distribution is the product expansion over its digit
    positions; the two are convolved into an array of length 2*10^N - 1
    indexed by the sum.
    """
    d = np.asarray(digit_dists, dtype=np.float64)
    if d.ndim != 3 or d.shape[0] != 2 or d.shape[2] != 10:
        raise ValueError(f"expected digit distributions of shape (2, n_digits, 10), "
                         f"got {d.shape}")
    totals = d.sum(axis=2)
    off = np.abs(totals - 1.0) > 1e-9
    if off.any():
        a, j = map(int, np.argwhere(off)[0])
        raise ValueError(f"digit distribution of number {a}, position {j} sums to "
                         f"{totals[a, j]!r}, not 1")

    def value_dist(p: np.ndarray) -> np.ndarray:
        out = np.ones(1)
        for j in range(p.shape[0]):
            # value = digit * 10^j + lower-position remainder
            out = (p[j][:, None] * out[None, :]).reshape(-1)
        return out

    return np.convolve(value_dist(d[0]), value_dist(d[1]))


# ---------------------------------------------------------------------------
# Timing harness


@dataclass(frozen=True)
class TimingReport:
    """Median (and mean) per-query seconds for one addition query."""

    n_digits: int
    query_sum: int
    repetitions: int
    batch_sizes: tuple[int, ...]
    recursive_median: float
    recursive_mean: float
    layered_median: tuple[float, ...]
    layered_mean: tuple[float, ...]
    circuit_nodes: int
    circuit_layers: int
    compile_seconds: float
    oracle_rel_err: float
    parallelism: str

    def speedup(self, batch_size: int) -> float:
        """Recursive baseline time over layered per-query time at a batch size."""
        i = self.batch_sizes.index(batch_size)
        return self.recursive_median / self.layered_median[i]

    def to_text(self) -> str:
        lines = [
            f"addition benchmark: digits={self.n_digits} sum={self.query_sum} "
            f"reps={self.repetitions}",
            f"circuit: {self.circuit_nodes} nodes in {self.circuit_layers} layers, "
            f"compiled in {self.compile_seconds:.3f} s",
            f"oracle spot-check relative error: {self.oracle_rel_err:.3e}",
            f"parallelism: {self.parallelism}",
            f"{'per-query seconds':<24}{'median':>12}{'mean':>12}",
            f"{'  recursive batch-1':<24}{self.recursive_median:>12.3e}"
            f"{self.recursive_mean:>12.3e}",
        ]
        for b, med, mn in zip(self.batch_sizes, self.layered_median, self.layered_mean):
            label = f"  layered   batch-{b}"
            lines.append(f"{label:<24}{med:>12.3e}{mn:>12.3e}")
        return "\n".join(lines)


def bench(n_digits: int, batch_size=1024, repetitions: int = 5,
          seed: int = 42) -> TimingReport:
    """Time recursive against layered evaluation on one representative query.

    The query is sum = 10^N - 1, the most combination-rich target at N
    digits. The constraint compiles once; each configuration gets one
    untimed warm-up run, then ``repetitions`` timed runs on a monotonic
    clock, reported as median and mean per-query seconds. ``batch_size``
    may be an int or a sequence of ints; batch 1 is always measured. The
    report embeds a spot check of the circuit's weighted count against the
    convolution oracle.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    requested = (batch_size,) if isinstance(batch_size, int) else tuple(batch_size)
    if any(b < 1 for b in requested):
        raise ValueError(f"batch sizes must be >= 1, got {requested}")
    sizes = (1, *[b for b in requested if b != 1])

    problem = build_addition(n_digits, 10 ** n_digits - 1)
    t0 = time.perf_counter()
    circuit = compile_cnf(problem.cnf)
    lc = layerize(circuit)
    compile_seconds = time.perf_counter() - t0

    rng = np.random.default_rng(seed)
    dists = rng.random((max(sizes), 2, n_digits, 10))
    dists /= dists.sum(axis=3, keepdims=True)

    wmc = float(evaluate(lc, addition_batch(problem, dists[0]))[0])
    want = float(convolution_oracle(dists[0])[problem.query_sum])
    oracle_rel_err = abs(wmc - want) / abs(want)

    single = addition_batch(problem, dists[0])
    evaluate_recursive(circuit, single)
    rec_times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        evaluate_recursive(circuit, single)
        rec_times.append(time.perf_counter() - t0)

    layered_median, layered_mean = [], []
    for b in sizes:
        batch = addition_batch(problem, dists[:b])
        evaluate(lc, batch)
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            evaluate(lc, batch)
            times.append((time.perf_counter() - t0) / b)
        layered_median.append(median(times))
        layered_mean.append(mean(times))

    return TimingReport(
        n_digits=n_digits, query_sum=problem.query_sum, repetitions=repetitions,
        batch_sizes=sizes,
        recursive_median=median(rec_times), recursive_mean=mean(rec_times),
        layered_median=tuple(layered_median), layered_mean=tuple(layered_mean),
        circuit_nodes=len(circuit.nodes), circuit_layers=len(lc.layers),
        compile_seconds=compile_seconds, oracle_rel_err=oracle_rel_err,
        parallelism=f"single process; recursive baseline unbatched, layered runs "
                    f"vectorize up to {max(sizes)} rows per call")


# ---------------------------------------------------------------------------
# Weight files


def write_weight_rows(path, rows, names=None) -> None:
    """Write weight rows as delimited text with a symbol-name header.

    Columns are ordered by variable id; ``names`` defaults to v1..vn.
    Values are written with full round-trip precision.
    """
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"weight rows must be 1-D or 2-D, got shape {arr.shape}")
    if names is None:
        names = [f"v{i}" for i in range(1, arr.shape[1] + 1)]
    names = [str(n) for n in names]
    if len(names) != arr.shape[1]:
        raise ValueError(f"{len(names)} column names for {arr.shape[1]} columns")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in arr:
            writer.writerow([repr(float(x)) for x in row])


def read_weight_rows(path) -> tuple[list[str], np.ndarray]:
    """Read a weight file: a header of symbol names, one row per element."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty weight file") from None
        if all(_is_number(cell) for cell in header):
            raise ValueError(f"{path}: first row must be a header of symbol names")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, "
                                 f"got {len(row)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric weight value") from None
    if not rows:
        raise ValueError(f"{path}: no weight rows after the header")
    return header, np.array(rows, dtype=np.float64)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
