"""An exact reference pass: the library's own layer loops on rationals.

``EXACT`` is the linear semiring with ``Fraction`` entries in object
buffers, so ``_forward`` and ``_reverse`` run on it unchanged and round
nothing (algebraic model counting: one loop, any commutative semiring).
:func:`exact_pass` returns, per row of a literal table, the root's exact
value, the exact adjoint of every literal column, the exact gradient with
respect to each input probability, and the smallest and largest nonzero
entry of the forward buffer and of the reverse buffer. :func:`row_bounds`
gives the two products that the range proof of ``layered._in_range``
bounds every nonzero slot and adjoint by, computed exactly.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from nesycirc import layered
from nesycirc.semantics import get_structure

EXACT = dataclasses.replace(get_structure("probability").semiring, zero=Fraction(0),
                            one=Fraction(1), leaf=np.frompyfunc(Fraction, 1, 1), dtype=object)
U = 2.0 ** -53  # the unit roundoff of float64


@dataclasses.dataclass
class Exact:
    values: list          # the root's value per row
    literal_adj: np.ndarray  # (2 * num_vars + 2, rows): d value / d literal weight
    grad: np.ndarray      # (rows, n_inputs): d value / d p, positive minus negative
    slots: list           # per row, (smallest, largest) nonzero forward-buffer entry
    adjoints: list        # per row, (smallest, largest) nonzero reverse-buffer entry


def _extremes(table: np.ndarray) -> list:
    out = []
    for column in table.T:
        nonzero = [x for x in column if x != 0]
        out.append((min(nonzero), max(nonzero)) if nonzero else (None, None))
    return out


def exact_pass(lc, literals: np.ndarray) -> Exact:
    """The exact forward and reverse pass of a one-root table on the rows
    of ``literals`` (a ``LeafBatch.literals`` table, one column per row);
    both layouts give the same rationals, so the merged one of a small
    batch is used."""
    buf = layered._forward(lc, literals, EXACT)
    adj = layered._reverse(lc, buf, EXACT)
    nv, k = lc.num_vars, lc.n_inputs
    table = np.full((2 * nv + 2, literals.shape[1]), Fraction(0), dtype=object)
    table[lc.leaf_rows] = adj[:lc.n_leaves]
    return Exact(values=list(buf[lc.root_slots[0]]), literal_adj=table,
                 grad=(table[:k] - table[nv:nv + k]).T,
                 slots=_extremes(buf), adjoints=_extremes(adj))


def row_bounds(lc, literals: np.ndarray) -> list:
    """Per row, the exact lower and upper bound of the range proof: over
    the variables the root's circuit reads, the product of the least
    positive weight of each variable's two literals (at most one), and of
    the sums of its literals' weights (at least one)."""
    nv = lc.num_vars
    reads = np.flatnonzero(lc.root_rows[0, :nv] | lc.root_rows[0, nv:2 * nv])
    out = []
    for row in literals.T:
        lo = hi = Fraction(1)
        for v in reads:
            p, n = Fraction(row[v]), Fraction(row[nv + v])
            positive = [w for w in (p, n) if w > 0]
            lo *= min([*positive, Fraction(1)])
            hi *= max(p + n, Fraction(1))
        out.append((lo, hi))
    return out


def operations(lc) -> int:
    """A bound on the roundings that reach one output of a float pass:
    twice every edge, slot and entry of the CAT leaf map's work rows, once
    forward and once in reverse. In a decomposable circuit the relative
    errors of a product's children add and a sum's do not exceed its
    largest, so no output sees more roundings than its sub-DAG has; the
    reverse pass walks the same DAG back."""
    grid = 0 if lc.cats is None else lc.cats.grid
    return 2 * (len(lc.child_slots) + lc.n_slots + 8 * grid)


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of n
    roundings of nonnegative sums and products."""
    return n * U / (1.0 - n * U)
