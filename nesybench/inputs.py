"""Seeded inputs for the four workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain data
(DIMACS text, clause lists, formula trees, probability rows), so the
program under test only ever sees the generated inputs. Sizes are chosen
so that the work per run hardly depends on the seed: sums are drawn one
per stratum of their range at one offset, not freely, and the chain lengths and the
modules formulas do not depend on the seed at all.
"""

from __future__ import annotations

import numpy as np

N_DIGITS = 3
TRAIN_SUM = 10 ** N_DIGITS - 1

# compile workload make-up, per input set
ADDITION_STRATA = 12            # one three-digit sum per 1/12 of [0, 1998]
# Chain lengths are fixed: the smoothed circuit of a chain grows with the
# square of its length, so a drawn length would make the totals seed-bound.
# All stay well below the ~1000 variables at which compile_cnf recurses
# too deeply.
CHAIN_LENGTHS = (200, 300, 400)
RANDOM_CNFS = 40                # random 3-CNFs per set
RANDOM_VARS = 16
RANDOM_CLAUSES = 48             # ratio 3.0: mostly satisfiable, real branching

# modules workload make-up. The formulas come from a fixed generator seed:
# compiled sizes of random formulas vary several-fold, so formulas drawn
# per run seed would make every figure of the workload seed-bound. The run
# seed draws the rows.
FORMULA_SEED = 20260517
FORMULA_VARS = 12
FORMULAS = 4
FORMULA_LEAVES = 28


def addition_sums(rng: np.random.Generator) -> list[int]:
    """One sum from each of ADDITION_STRATA equal slices of [0, 2 * 999],
    all at the same drawn offset within their slice.

    The compiled size of a sum jumps several-fold within a slice (for three
    digits, from about 600 to 3300 edges between sums 360 and 500, and back
    near 1600), so a sum drawn freely per slice made the set's total work
    spread by 9% across seeds. A sum and 1998 minus it compile to circuits
    of about the same size, and one offset for every slice puts the slices
    mirrored about the middle at mirrored offsets, so their errors cancel:
    the spread is 4%.
    """
    top = 2 * (10 ** N_DIGITS - 1)
    offset = rng.random()
    return [int((k + offset) * (top + 1) / ADDITION_STRATA) for k in range(ADDITION_STRATA)]


def chain_clauses(length: int) -> list[tuple[int, ...]]:
    """Implication chain x_1 -> x_2 -> ... -> x_length as binary clauses."""
    return [(-i, i + 1) for i in range(1, length)]


def random_3cnf(rng: np.random.Generator, n: int = RANDOM_VARS,
                m: int = RANDOM_CLAUSES) -> list[tuple[int, ...]]:
    """m clauses of three distinct variables with random signs."""
    out = []
    for _ in range(m):
        vs = rng.choice(n, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        out.append(tuple(int(v * s) for v, s in zip(vs, signs)))
    return out


def dimacs_text(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def random_tree(rng: np.random.Generator, n_vars: int = FORMULA_VARS,
                leaves: int = FORMULA_LEAVES):
    """A random NNF tree with a fixed number of literal leaves.

    Every variable occurs at least once; the rest of the leaves are drawn
    at random, each negated with probability one half. Internal nodes are
    AND or OR with equal odds, and the shape comes from merging random
    pairs until one tree is left.
    """
    ids = list(range(n_vars)) + [int(v) for v in rng.integers(0, n_vars, leaves - n_vars)]
    nodes = [("not" if rng.random() < 0.5 else "var", v) for v in rng.permutation(ids)]
    while len(nodes) > 1:
        i = int(rng.integers(0, len(nodes) - 1))
        op = "and" if rng.random() < 0.5 else "or"
        nodes[i:i + 2] = [(op, nodes[i], nodes[i + 1])]
    return nodes[0]


def probability_rows(rng: np.random.Generator, rows: int, cols: int,
                     lo: float = 0.02, hi: float = 0.98) -> np.ndarray:
    """Independent probabilities away from 0 and 1, one row per example."""
    return lo + (hi - lo) * rng.random((rows, cols))


def corner_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random 0/1 rows: Boolean assignments as probability rows."""
    return rng.integers(0, 2, size=(rows, cols)).astype(np.float64)
