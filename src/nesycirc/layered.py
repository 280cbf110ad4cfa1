"""Depth-stratified circuit evaluation over batches of leaf weights.

A circuit is layerized once: nodes are grouped by topological depth, with
product nodes preceding sum nodes at equal depth, so children always sit in
strictly earlier layers. Evaluation runs over a ``(slots, batch)`` buffer;
batching across weight rows is what numpy vectorizes, which is the whole
performance story compared to a per-query tree walk
(:func:`evaluate_recursive`).

The leaf layer has one slot per distinct literal or constant, so duplicate
``LIT``, ``TRUE`` or ``FALSE`` nodes of a loaded file share one. A slot is
keyed by its literal's row in :attr:`LeafBatch.literals` (``leaf_rows``).
That table is leaf-major, one row per literal and one column per batch
row, as the buffers below hold one row per slot: the forward pass fills
the leaf layer with one row gather and copies nothing transposed, and the
reverse pass scatters the leaf adjoints into a zero table of those rows,
where a variable's derivative is its positive row minus its negative row.
The TRUE and FALSE rows, the table's last two, also fill the two identity
pad slots past ``n_slots``. A row-major table had to be gathered by
columns and transposed: on sum-999 at 8192 rows that forward took 8.5 ms,
against 6.5 ms with this table (median of 12 interleaved rounds in one
process on a 2-core Xeon host).
Batches must declare the circuit's auxiliary variables.

CAT leaves, one per member of an exactly-one group (see
:mod:`nesycirc.compiler`), are a second leaf layer, the CAT layer, read
from the unchanged literal table. The table's groups are padded to the
largest one's K members and laid out as a (K, G) grid, member t of group g
at entry ``t * G + g``, with one CAT slot per entry whether a CAT leaf
reads it or not; the leaf layer holds both literals of every member. Inside
the semiring, the forward pass gathers each entry's positive literal and
the seeds of two scans from the leaf slots into work rows past the pads,
scans those to the exclusive prefix product L_t and suffix product R_t of
the group's negative literals (``_scan`` along the member axis), and writes
the entry's CAT value pos_t * L_t * R_t: a handful of numpy calls for all
groups at once, where literal decisions over the same indicators took a
layer pair per member. Member pads read the one pad as their negative
literal, so a group's values do not depend on K or on the other groups of
the table. The reverse pass pulls the CAT slots' adjoints like any layer's,
then :func:`_cat_reverse` turns them into the adjoints of the members'
literals, d/dpos_t = a_t * L_t * R_t and d/dneg_t from two linear
recurrences, still in the semiring and with no division, so exact at zero
weights; they land in rows at the end of the reverse buffer, which the
leaf layer's pulls read as in-edges of those literals. So :func:`backward`
still returns d/dp per indicator.

Within a layer, slots are ordered by fan-in, and the layer keeps two
tables. Its *buckets* are runs of slots of equal fan-in, each with a
``(fanin, n)`` block of child slots: the forward pass is one gather
``buf[children]`` and one ``reduce(axis=0)`` into the run per bucket. Its
*pull table* groups the layer's slots by in-degree, each group with a
``(d, m)`` block of rows of the reverse buffer: the reverse pass fills a
layer's adjoints with one gather and one ``reduce(axis=0)`` per group, and
needs no scatter. A :class:`Layout` lists both tables of every layer as
flat steps, bottom up for the forward pass and top down for the reverse
one, so the loops do no per-layer work beyond their numpy calls. The
reverse buffer holds one adjoint row per slot, one row per product edge
and the CAT leaf map's rows. A sum edge passes its parent's adjoint
unchanged, so its row is the parent's own; a product edge's row holds the parent adjoint
times the product of the edge's siblings, the exclusive prefix scan times
the exclusive suffix scan (``accumulate(axis=0)``), which is exact at zero
weights with no division. The leaf layer's pull alone leaves the semiring:
the structure's ``finish`` maps each in-edge's adjoint to a linear
derivative, and the group sums those with ``np.add``. Under log that is
one ``exp`` and a linear sum in place of a ``logaddexp`` reduction, while
the interior pulls and the scans stay in log space, on the rows that run
in log space at all (see below).

Two numpy costs that no output shows are kept out of the loops. A ufunc
reduction starts from the ufunc's identity unless told otherwise, which is
one more operation per output element: under log a ``logaddexp(-inf, x)``
each, which makes a one-row pull of 29 slots at 1024 rows some 40 times
slower than a copy. So the reductions start from their first operand, and
a pull group of in-degree one is a row gather with no reduction at all.
Both are exact, as ``logaddexp(-inf, x)``, ``1 * x`` and ``0 + x`` return
``x`` (the last but for ``x = -0.0``), save one case that keeps the
identity: numpy sums a reduction to a single element pairwise, and there
the start would regroup the terms. And ``take(..., out=...)`` in its
default ``mode="raise"`` copies through a temporary buffer, which about
triples the time of the scans' ``(19, 2, 1024)`` gathers, so those run
with ``mode="clip"``; ``layerize`` builds every index in range. The loops
call the ``ndarray.take`` method: ``np.take`` is a Python wrapper that
looks the method up and calls it, a fixed cost that shows at one row.
Every other gather of the forward and reverse buffers, the forward
buckets, the pulls and the suffix scans, calls it too, in ``mode="clip"``,
not an index array such as ``buf[children]``, whose indexing machinery
costs more at small batches: a one-row probability forward on sum-999
went from 37 to 27 µs, and a one-row probability backward from 183 to
159 µs (median of 20 interleaved rounds in one process), with no change
beyond noise at 1024 rows. In the default ``mode="raise"`` the
benchmark's ``train`` process peaked 3 MB higher (83.8 against 80.7 MB),
though tracemalloc sees the same arrays either way.

At small batches the cost is the number of numpy calls, not their width,
so below :data:`BUCKETED_FROM` rows the same loops run on a merged layout:
one bucket and one pull group per layer, padded to the layer's largest
fan-in with an identity slot (one under products, zero under sums) and to
its largest in-degree with a zero row. The pad slots sit past
``n_slots``. The constant lies between the measured crossovers of a
value-and-gradient call on a 2-core Xeon host: on the sum-999 addition
constraint as compiled to literal leaves only (468 edges) 12 to 16 rows
under log and 32 to 40 under
probability, and 4 to 8 rows on a 400-variable implication chain. At
four rows the merged layout takes about 70% of the per-bucket one's time
on sum-999.
``layerize`` builds neither layout; each is built on the first batch that
runs on it and kept, so compiling a circuit file pays for none.

A large batch runs in column tiles. Every reduction runs along the slot
axis, so a row's values and gradients do not depend on the rows beside
it, and each tile runs the loops on a column block of the literal table
and writes its slice of the values and the gradient. Tile widths come from a
byte budget for one tile's reverse buffer (``_TILE_BYTES``, 8 MiB):
``max(BUCKETED_FROM, budget // (8 * n_rows))`` rows at most, with
``n_rows`` the per-bucket layout's row count, and the batch is split
into that many tiles of near-equal width, so no tile is a small
remainder. A batch that fits in one tile runs the loops on the whole
table with nothing copied. The budget is in bytes because a row count
bounds nothing on a large circuit: a 4000-variable implication chain has
65,035 reverse-buffer rows, 520 KB a column, so a 2048-row tile would be
1 GB. The budget was measured from 6 to 16 MiB, on an earlier compile of
the sum-999 addition constraint (480 edges, 633 rows; with CAT leaves it
has 765 rows, six tiles of 1365 or 1366 at 8192 rows): 8 MiB was the
fastest and kept
the 1024-row batch whole; the 4000-variable chain at 1024 rows (64 tiles
of 16) ran within noise of the wider tiles of larger budgets.

Several circuits over the same inputs layerize into one table with one
root slot per circuit (``root_slots``), so one pass of the loops above
evaluates them all; :func:`~nesycirc.compose.wire_dag` runs its circuit
modules that read one input this way. Each circuit keeps its own inner
nodes, and nodes of equal depth and kind share a layer whichever circuit
they come from. The leaf layer is shared: a literal or constant that
several circuits read takes one slot. Auxiliary variables occupy the top
of every circuit's id range and weigh one on both literals, so the table
declares the largest circuit's variables and each circuit reads its
variable ``v`` from the same literal rows as it does alone, auxiliary
rows included. Every node reduces its children in the same order as in
its own table, and the layouts pad only with identities, so each root's
values are bitwise those of its circuit layerized alone. :func:`evaluate`
returns one column per root, and :func:`backward` takes a table with one
root. The forward buffer holds the slots of every circuit at once: the
four formulas of the benchmark's ``modules`` workload fill 949 slots in 42
layers, against 1141 slots in four tables of 29 to 37 layers, so at 256
rows their buffer is (949 + 2) x 256 x 8 B = 1.9 MB.

Supported structures are the circuit-safe ones: ``probability`` (weighted
model counting), ``boolean`` (satisfaction indicator on 0/1 weights), and
``log_probability`` (log-WMC; sum layers reduce with ``logaddexp`` and an
all-minus-infinity group stays minus infinity rather than going NaN).
The forward and reverse loops are written once and take both ufuncs, and
the element type of their buffers, from the structure's
:class:`~nesycirc.semantics.Semiring`; exact model counting
(:func:`~nesycirc.compiler.model_count`) is the same forward loop on Python
integers. Weight rows are checked against the structure's rules, never
against a structure name. Fuzzy structures are refused here; see
:mod:`nesycirc.semantics`.

A pass under a semiring with an ``image_of`` (log-probability is the
probability semiring mapped through ``log``) runs, row by row, where it is
cheaper: :func:`evaluate`, :func:`backward` and the semantic loss run the
loops on the linear semiring wherever a row's weights prove that no slot
of the root's circuit, and no entry of the reverse buffer, can leave
float64's normal range. There a log value is the ``log`` of the root, and
a log gradient the linear gradient divided once by the root value, within
a few ulps of the log-space pass for a fraction of its cost: ``logaddexp``
calls scalar ``exp`` and ``log1p``, about 20 ns an element against 0.4 ns
for ``np.add`` on 16K in-cache elements (numpy 2.4.6, 2-core Xeon host),
and the log-space leaf pull takes one ``exp`` per in-edge.
The proof (:func:`_in_range`) comes from the row's literal weights before
any pass runs. In a smooth d-DNNF a node with a nonzero value is at least
the product, over its variables, of the least positive weight of the
variable's two literals, and at most the product of the literals' sums.
Taken over the variables the root's circuit reads, every factor of the
first at most one and of the second at least one, both bound every slot;
they are kept as integer sums of binary exponents, rounded outward, and a
row passes when they lie within ``2**-_RANGE_EXP`` and ``2**_RANGE_EXP``,
a margin that covers the rounding of the sums and of the pass. A zero
weight gives exact zeros and passes.
The same bounds hold for the reverse buffer. A node's adjoint sums, over
the paths from the root down to it, the products of the values of the
siblings met on the way. Decomposability makes each such product a
weighted count over variables outside the node, and smoothness makes it
cover all of them; ``check_properties`` checks determinism structurally,
as every OR has a decision variable, so two paths to a node part at an OR
whose children disagree on that variable's literal, and their counts are
over disjoint assignments. So a nonzero adjoint is a weighted count over
a set of assignments of the variables outside the node: at least one
term, each at least the lower bound, and at most the product of the
literal sums. A product edge's row, and each partial product of the
prefix and suffix scans, is such an adjoint times the values of some of
the node's children, a count of the same kind, and a leaf's pulled
adjoint is a sum of in-edge rows, which the same argument bounds. TRUE
and FALSE leaves change none of this: they read no variable and weigh one
or zero. Nor do CAT leaves, which need no code here: a CAT value is a
product of one literal weight per variable of its group, so it is a node
of the same kind, bounded by the same per-variable factors, and the leaf
map's scans, recurrences and literal adjoints are partial products and
sums of the terms of such counts and of adjoints, bounded as the product
edges' rows are. Only nodes that read no variable, TRUE, FALSE and products of
them, may be reached twice within one term; their adjoints, which reach
no variable's leaf, escape the argument.
Rows that fail for some root, such as weights near 1e-200 on many inputs
or the rows of a 4000-variable chain, run the log-space pass; a row runs
the linear pass only when some root passes. A verdict depends only on the
row and on the root's own circuit, so values and gradients stay bitwise
equal across tiles, both layouts, batch sizes and multi-root tables, and
a log value from :func:`backward`'s pass equals :func:`evaluate`'s.

The reverse pass returns d(value)/d(p_v) per batch row for the non-auxiliary
variables. Under the log structure the gradient is still taken with respect
to raw probabilities, d log WMC / d p_v. On rows in range it is the linear
gradient over WMC. On the other rows the adjoints stay in log space down
to the leaf in-edges, and each is normalized by log WMC before it is
exponentiated, so rows whose WMC underflows in probability space still get
finite gradients. A row with zero WMC has none: NaN in every column of a
variable the circuit reads.

Under ``probability`` a large circuit's WMC can underflow to zero.
:func:`evaluate` and :func:`backward` then raise a ``RuntimeWarning`` that
names the rows and points to ``log_probability``: a row warns when its
root reads the semiring zero while none of the leaf weights its circuit
reads is zero, as a smooth d-DNNF without FALSE leaves is satisfiable and
so has a nonzero true value. Exact zeros (a zero leaf weight, an
unsatisfiable formula's FALSE constant) never warn, and under log and
boolean a zero root always has a zero leaf. A tiled batch warns once per
root that underflowed, with the rows numbered in the whole batch; a table
of several roots names the root.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .compiler import Circuit, check_properties
from .errors import StructureError
from .formula import _var_range_problem
from .semantics import Carrier, Semiring, get_structure

__all__ = [
    "BUCKETED_FROM", "Layer", "Layout", "LayeredCircuit", "LeafBatch", "layerize",
    "evaluate", "backward", "evaluate_recursive", "layer_summary",
]

# Batches of at least this many rows run on the per-bucket layout; smaller
# ones on the merged layout.
BUCKETED_FROM = 16
_SCAN_BY_ROW_FROM = 512
# The byte budget of one column tile's reverse buffer; see the module notes.
_TILE_BYTES = 8 << 20
# A row runs a log forward on the linear semiring where its bounds on every
# slot of the root's circuit lie within 2**-_RANGE_EXP and 2**_RANGE_EXP;
# float64 normals span 2**-1022 to 2**1024. See the module notes.
_RANGE_EXP = 1000


@dataclass(frozen=True, eq=False)
class Layer:
    kind: str  # "LEAF" | "CAT" | "PROD" | "SUM"
    size: int
    seg_lengths: np.ndarray  # per-node fan-in, in slot order


@dataclass(frozen=True, eq=False)
class _Cats:
    """The leaf map of a table's CAT layer, over ``G`` groups padded to
    ``K`` members (see the module notes).

    The CAT layer holds one slot per entry ``t * G + g`` of the (K, G)
    grid, member t of group g, whether a CAT leaf reads the entry or not.
    ``table`` holds forward-buffer slots, shape (K, 3, G): member t's
    positive literal, then the seeds of the exclusive prefix scan (the one
    pad, then each negative literal but the last) and of the reversed
    exclusive suffix scan (the one pad, then each negative literal but the
    first, from the last). Member pads read the zero pad as their positive
    literal and the one pad as their negative one. ``neg`` holds member
    t's negative literal and that of member K-1-t, raveled from shape
    (K, 2, G). The
    reverse map writes d/dpos and d/dneg of every entry to the first
    ``2 * K * G`` of its rows at the end of the reverse buffer;
    ``lit_slots`` are the literal leaves of the groups' members and
    ``lit_rows`` the entries of those rows each one pulls.
    """

    table: np.ndarray
    neg: np.ndarray
    lit_slots: np.ndarray
    lit_rows: np.ndarray

    @property
    def grid(self) -> int:
        return self.table.shape[0] * self.table.shape[2]


@dataclass(frozen=True, eq=False)
class Layout:
    """The forward and reverse loops of a table as flat lists of steps.

    ``forward`` lists every bucket bottom up as ``(prod, start, stop,
    children)``: slots ``start:stop`` reduce the ``(fanin, stop - start)``
    block of child slots ``children`` with the semiring's ``mul`` if
    ``prod`` is 1 and with its ``add`` if 0. ``reverse`` runs top down
    over the layers above the leaves: first a layer's pull groups
    ``(_PULL, slots, rows)``, whose adjoints are the sums over axis 0 of
    the ``(d, m)`` reverse-buffer ``rows``, or where d is one a gather of
    the 1-D ``rows``; then, in a product layer, each
    bucket's ``(_EDGES, lo, hi, fanin, m, start, stop, head, tail)``: its
    edges own the reverse-buffer rows ``lo:hi``, child-major, its slots
    are ``start:stop``, and ``head`` and ``tail`` are its child block but
    the last row and, reversed, but the first. ``leaf_pulls`` are the leaf
    layer's ``(slots, rows)``, alike. ``n_rows``
    is the reverse buffer's length. So the loops do no per-layer work
    beyond their numpy calls and the start rule of :func:`_reduce`.
    """

    forward: tuple
    reverse: tuple
    leaf_pulls: tuple
    n_rows: int


_PULL, _EDGES = range(2)


@dataclass(frozen=True, eq=False)
class LayeredCircuit:
    num_vars: int
    aux_vars: frozenset[int]
    n_slots: int
    # one slot per layered circuit, in the order layerize took them
    root_slots: np.ndarray
    layers: tuple[Layer, ...]
    # each leaf slot's literal, its row in LeafBatch.literals, strictly
    # increasing
    leaf_rows: np.ndarray
    # every edge's child slot, by parent slot and then place among the
    # parent's children; the layouts are built from these
    child_slots: np.ndarray
    # per root, a mask of the LeafBatch.literals rows that its circuit's
    # leaves read, its CAT leaves' groups included, shape
    # (roots, 2 * num_vars + 2); see _underflowed
    root_rows: np.ndarray
    # the leaf map of the CAT layer, the table's second, if it has one
    cats: _Cats | None = None

    @property
    def n_inputs(self) -> int:
        return self.num_vars - len(self.aux_vars)

    @property
    def n_leaves(self) -> int:
        return self.layers[0].size

    @property
    def n_cats(self) -> int:
        return 0 if self.cats is None else self.layers[1].size

    # the two layouts, each built on first use and kept; see BUCKETED_FROM
    @cached_property
    def _merged(self) -> Layout:
        return _layout(self, merged=True)

    @cached_property
    def _bucketed(self) -> Layout:
        return _layout(self, merged=False)

    def _layout_for(self, batch_size: int) -> Layout:
        return self._bucketed if batch_size >= BUCKETED_FROM else self._merged

    # the tables of _in_range, built on first use and kept
    @cached_property
    def _range_table(self) -> tuple[np.ndarray, np.ndarray]:
        return _range_table(self)


def layerize(*circuits: Circuit) -> LayeredCircuit:
    """Stratify smooth deterministic decomposable circuits into one table of
    layers, with one root slot per circuit.

    Several circuits must have the same inputs; see the module notes. Builds
    neither layout: each is built on the first batch that runs on it.
    """
    if not circuits:
        raise ValueError("layerize needs at least one circuit")
    for c in circuits:
        check_properties(c).require("decomposable", "deterministic", "smooth")
    inputs = {c.n_inputs for c in circuits}
    if len(inputs) > 1:
        raise ValueError(f"circuits layered together must share their inputs; "
                         f"they have {sorted(inputs)} input variables")
    nv = max(c.num_vars for c in circuits)
    groups = sorted({g for c in circuits for g in c.groups})
    # rank is LEAF, CAT, PROD, SUM; key the fan-in, a leaf's row in
    # LeafBatch.literals, or past those rows a CAT leaf's grid entry
    grid = {(v, g): 2 * nv + 2 + t * len(groups) + k
            for k, g in enumerate(groups) for t, v in enumerate(g)}
    depth, rank_n, key_n = map(np.concatenate,
                               zip(*(_node_keys(c, nv, grid) for c in circuits)))
    # each circuit's entries are its nodes, then the literal leaves of its groups
    sizes = [len(c.nodes) + 2 * sum(map(len, c.groups)) for c in circuits]
    base = [0, *accumulate(sizes[:-1])]
    root_rows = np.zeros((len(circuits), 2 * nv + 2), bool)
    root_rows[np.repeat(np.arange(len(circuits)), sizes)[rank_n == 0], key_n[rank_n == 0]] = True
    if groups:  # then one CAT leaf per grid entry, read or not
        entries = max(map(len, groups)) * len(groups)
        depth = np.append(depth, np.zeros(entries, np.int64))
        rank_n = np.append(rank_n, np.ones(entries, np.int64))
        key_n = np.append(key_n, 2 * nv + 2 + np.arange(entries))
    order = np.lexsort((key_n, rank_n, depth))
    # a leaf repeating the literal, constant or grid entry sorted before it
    # shares its slot
    fresh = np.concatenate(([True], (rank_n[order[1:]] > 1)
                            | (key_n[order[1:]] != key_n[order[:-1]])))
    slot_of = np.empty(len(rank_n), np.int64)
    slot_of[order] = np.cumsum(fresh) - 1
    order = order[fresh]
    n = len(order)
    fan_n = np.where(rank_n > 1, key_n, 0)
    fan, rank_s, key_s = fan_n[order], rank_n[order], key_n[order]
    bounds = [*_runs(4 * depth[order] + rank_s).tolist(), n]
    layers = tuple(Layer(("LEAF", "CAT", "PROD", "SUM")[rank_s[lo]], hi - lo, fan[lo:hi])
                   for lo, hi in zip(bounds, bounds[1:]))
    n_edges = int(fan.sum())
    first = np.cumsum(fan) - fan
    node_first = np.cumsum(fan_n) - fan_n
    flat = np.fromiter(chain.from_iterable(node.children for c in circuits for node in c.nodes),
                       np.int64, int(fan_n.sum()))
    if len(circuits) > 1:  # children are numbered within their circuit
        flat += np.repeat(np.repeat(base, sizes), fan_n[:sum(sizes)])
    kids = slot_of[flat[np.repeat(node_first[order] - first, fan) + np.arange(n_edges)]]
    leaf_rows = key_s[:layers[0].size]
    return LayeredCircuit(
        num_vars=nv, aux_vars=frozenset(range(inputs.pop() + 1, nv + 1)), n_slots=n,
        root_slots=slot_of[[b + c.root for b, c in zip(base, circuits)]],
        layers=layers, leaf_rows=leaf_rows, child_slots=kids, root_rows=root_rows,
        cats=_cat_map(groups, nv, n, leaf_rows) if groups else None,
    )


def _node_keys(c: Circuit, nv: int, grid: dict) -> tuple[list[int], list[int], list[int]]:
    """Each entry's depth, rank and key (see layerize): the nodes of ``c``,
    its leaves keyed by their rows in a literal table of ``nv``
    variables and its CAT leaves by ``grid``, which maps a member and its
    group to the key of the member's grid entry, then a literal leaf for
    each literal of its groups."""
    nodes = c.nodes
    depth = [0] * len(nodes)
    rank = [0] * len(nodes)
    key = [0] * len(nodes)
    for i, node in enumerate(nodes):
        kind = node.kind
        if kind in ("AND", "OR"):
            depth[i] = 1 + max(depth[ch] for ch in node.children)
            rank[i] = 2 if kind == "AND" else 3
            key[i] = len(node.children)
        elif kind == "LIT":
            key[i] = node.literal - 1 if node.literal > 0 else nv - node.literal - 1
        elif kind == "CAT":
            rank[i] = 1
            key[i] = grid[node.literal, node.group]
        else:
            key[i] = 2 * nv if kind == "TRUE" else 2 * nv + 1
    for g in c.groups:
        key += [v - 1 for v in g] + [nv + v - 1 for v in g]
    extra = len(key) - len(nodes)
    return depth + [0] * extra, rank + [0] * extra, key


def _cat_map(groups, nv: int, n: int, leaf_rows: np.ndarray) -> _Cats:
    """The leaf map of ``groups`` in a table of ``n`` slots whose literal
    leaves read ``leaf_rows``."""
    slot = np.empty(2 * nv + 2, np.int64)
    slot[leaf_rows] = np.arange(len(leaf_rows))
    one, zero = n, n + 1
    K, G = max(map(len, groups)), len(groups)
    pos = np.full((K, G), zero)
    neg = np.full((K, G), one)
    for k, g in enumerate(groups):
        pos[:len(g), k] = slot[np.subtract(g, 1)]
        neg[:len(g), k] = slot[np.add(g, nv - 1)]
    table = np.full((K, 3, G), one)
    table[:, 0] = pos
    table[1:, 1] = neg[:-1]
    table[1:, 2] = neg[:0:-1]
    real = np.flatnonzero(pos.ravel() != zero)
    return _Cats(table=table, neg=np.stack([neg, neg[::-1]], axis=1).ravel(),
                 lit_slots=np.concatenate([pos.ravel()[real], neg.ravel()[real]]),
                 lit_rows=np.concatenate([real, K * G + real]))


def _layout(lc: LayeredCircuit, merged: bool) -> Layout:
    """Bucket and pull tables: one of each per layer, or per fan-in and
    per in-degree.

    Slot ``n`` holds the product identity and slot ``n + 1`` the sum
    identity, in the forward and the reverse buffer alike.
    """
    layers, n, inner = lc.layers, lc.n_slots, lc.n_leaves + lc.n_cats
    roots, kids = lc.root_slots, lc.child_slots
    one, zero = n, n + 1
    prod = np.array([layer.kind == "PROD" for layer in layers])
    fan = np.concatenate([layer.seg_lengths for layer in layers])
    layer_of = np.repeat(np.arange(len(layers)), [layer.size for layer in layers])
    # every edge's parent slot and place among the parent's children
    parent = np.repeat(np.arange(n), fan)
    position = np.arange(len(kids)) - (np.cumsum(fan) - fan)[parent]

    # buckets: runs of inner slots, a whole layer or a run of one fan-in
    key = layer_of[inner:]
    if not merged:
        key = key * (fan.max() + 1) + fan[inner:]
    starts = inner + _runs(key)
    stops = np.append(starts, n)[1:]
    is_prod = prod[layer_of[starts]]
    bucket = np.repeat(np.arange(len(starts)), stops - starts)[parent - inner]
    width, m = fan[stops - 1], stops - starts  # fan-in is sorted within a layer
    j = parent - starts[bucket]
    children = _blocks(bucket, j, position, kids, width, m, np.where(is_prod, one, zero))
    prod_size = np.where(is_prod, width * m, 0)
    first_row = n + 2 + np.cumsum(prod_size) - prod_size
    # a sum edge's adjoint is its parent's
    row = np.where(is_prod[bucket], first_row[bucket] + position * m[bucket] + j, parent)

    # pulls: every slot's in-edges, the roots' pinned to the one row and
    # those of unreachable slots to the zero row; a group's literal leaves
    # pull the rows the CAT leaf map writes past the product edges'
    n_rows = n + 2 + int(prod_size.sum())
    if lc.cats is not None:  # and the leaf map's work rows after them
        kids = np.concatenate([kids, lc.cats.lit_slots])
        row = np.concatenate([row, n_rows + lc.cats.lit_rows])
        n_rows += 8 * lc.cats.grid
    indeg = np.bincount(kids, minlength=n)
    orphans = np.setdiff1d(np.flatnonzero(indeg == 0), roots)
    child = np.concatenate([kids, roots, orphans])
    src = np.concatenate([row, np.full(len(roots), one), np.full(len(orphans), zero)])
    indeg = np.bincount(child, minlength=n)
    by_child = np.argsort(child, kind="stable")
    child, src = child[by_child], src[by_child]
    rank = np.arange(len(child)) - (np.cumsum(indeg) - indeg)[child]
    gkey = layer_of if merged else layer_of * (indeg.max() + 1) + indeg
    slot_order = np.argsort(gkey, kind="stable")
    gstarts = _runs(gkey[slot_order])
    gstops = np.append(gstarts, n)[1:]
    group = np.empty(n, np.int64)
    group[slot_order] = np.repeat(np.arange(len(gstarts)), gstops - gstarts)
    place = np.empty(n, np.int64)
    place[slot_order] = np.arange(n) - gstarts[group[slot_order]]
    rows = _blocks(group[child], place[child], rank, src,
                   np.maximum.reduceat(indeg[slot_order], gstarts), gstops - gstarts, zero)

    forward, edges = [], [[] for _ in layers]
    for b, (lo, hi) in enumerate(zip(starts.tolist(), stops.tolist())):
        k, block = layer_of[lo], children[b]
        fanin, m = block.shape
        forward.append((int(prod[k]), lo, hi, block))
        if prod[k]:
            first = int(first_row[b])
            edges[k].append((_EDGES, first, first + fanin * m, fanin, m, lo, hi,
                             block[:-1], block[:0:-1].copy()))
    pulls = [[] for _ in layers]
    for g, (lo, hi) in enumerate(zip(gstarts.tolist(), gstops.tolist())):
        slots = slice(lo, hi) if merged else slot_order[lo:hi]
        block = rows[g] if len(rows[g]) > 1 else rows[g][0]  # in-degree one: a gather
        pulls[layer_of[slot_order[lo]]].append((_PULL, slots, block))
    # top down: a layer's pulls, then its product edges
    reverse = [step for k in range(len(layers) - 1, 0, -1) for step in pulls[k] + edges[k]]
    leaf = [step[1:] for step in pulls[0]]
    return Layout(tuple(forward), tuple(reverse), tuple(leaf), n_rows)


def _runs(key: np.ndarray) -> np.ndarray:
    """The index where each run of equal entries of ``key`` starts."""
    return np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1]))[:len(key)])


def _blocks(block, col, row, value, height, width, pad) -> list[np.ndarray]:
    """Place ``value[i]`` at ``(row[i], col[i])`` of block ``block[i]``.

    Block ``b`` is ``height[b]`` by ``width[b]`` and filled with ``pad``
    (a scalar or one value per block) wherever no value lands.
    """
    size = height * width
    off = np.cumsum(size) - size
    flat = np.repeat(np.broadcast_to(pad, size.shape), size)
    flat[off[block] + row * width[block] + col] = value
    return [flat[o:o + s].reshape(h, w) for o, s, h, w in
            zip(off.tolist(), size.tolist(), height.tolist(), width.tolist())]


def layer_summary(lc: LayeredCircuit) -> str:
    """The slot and layer counts, the root slot (``root_slots`` and every
    root when there are several), then each layer's kind and size."""
    roots = " ".join(map(str, lc.root_slots.tolist()))
    name = "root_slot" if len(lc.root_slots) == 1 else "root_slots"
    lines = [f"slots {lc.n_slots} layers {len(lc.layers)} {name} {roots}"]
    for k, layer in enumerate(lc.layers):
        lines.append(f"layer {k} {layer.kind} size {layer.size}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Leaf weights

_PROBABILITIES = get_structure("probability").carrier
_WEIGHTS = Carrier(lambda w: w >= 0.0, "is not >= 0")
# the weights of the TRUE and FALSE rows of a literal table
_CONSTANTS = np.array([[1.0], [0.0]])


@dataclass(frozen=True, eq=False)
class LeafBatch:
    """Per-literal weights for a batch of evaluations.

    ``literals`` is the literal table, leaf-major: a C-contiguous,
    read-only array of shape (2 * num_vars + 2, batch), one row per literal
    and one column per batch row. Its rows hold the weights of the
    positive literals of variables 1..num_vars, then of their negative
    literals, then TRUE (1) and FALSE (0): literal ``v`` sits in row
    ``v - 1`` and ``-v`` in row ``num_vars + v - 1``. So the layer loops,
    whose buffers hold one row per slot, fill their leaf layer with one
    row gather. ``pos`` and ``neg`` are read-only views of the literal
    rows, shape (batch, num_vars). A batch built from probabilities keeps
    the raw rows in ``probs`` (one column per non-auxiliary variable),
    which is what :func:`backward` differentiates with respect to;
    explicit-weight batches (e.g. indicator encodings where the negative
    literal weighs 1) have ``probs = None`` and support evaluation only.
    """

    num_vars: int
    aux_vars: frozenset[int]
    literals: np.ndarray
    probs: np.ndarray | None = None

    def __post_init__(self):
        problem = _var_range_problem(self.num_vars, self.aux_vars)
        if problem:
            raise ValueError(problem)
        shape = self.literals.shape
        if len(shape) != 2 or shape[0] != 2 * self.num_vars + 2:
            raise ValueError(f"a literal table of {self.num_vars} variables has shape "
                             f"({2 * self.num_vars + 2}, batch), got {shape}")
        if not self.literals.flags.c_contiguous:
            object.__setattr__(self, "literals", np.ascontiguousarray(self.literals))
        self.literals.flags.writeable = False

    @property
    def batch_size(self) -> int:
        return self.literals.shape[1]

    @property
    def pos(self) -> np.ndarray:
        return self.literals[:self.num_vars].T

    @property
    def neg(self) -> np.ndarray:
        return self.literals[self.num_vars:2 * self.num_vars].T

    @classmethod
    def from_probabilities(cls, probs, num_vars: int | None = None,
                           aux_vars=frozenset()) -> "LeafBatch":
        """Weight positive literals by p and negative ones by 1 - p.

        ``probs`` covers the non-auxiliary variables only; auxiliaries get
        weight one on both polarities. A 1-D row is treated as batch size 1.
        """
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim == 1:
            p = p[None, :]
        if p.ndim != 2:
            raise ValueError(f"probability rows must be 1-D or 2-D, got shape {p.shape}")
        _PROBABILITIES.require(p)
        aux = frozenset(aux_vars)
        b, n_inputs = p.shape
        if num_vars is None:
            num_vars = n_inputs + len(aux)
        if num_vars != n_inputs + len(aux):
            raise ValueError(f"{n_inputs} probability columns plus {len(aux)} auxiliaries "
                             f"do not cover {num_vars} variables")
        literals = np.empty((2 * num_vars + 2, b))
        literals[:n_inputs] = p.T
        np.subtract(1.0, p.T, out=literals[num_vars:num_vars + n_inputs])
        if aux:  # auxiliaries weigh one on both literals
            literals[n_inputs:num_vars] = 1.0
            literals[num_vars + n_inputs:2 * num_vars] = 1.0
        literals[-2:] = _CONSTANTS
        return cls(num_vars=num_vars, aux_vars=aux, literals=literals, probs=p)

    @classmethod
    def from_weights(cls, pos, neg, aux_vars=frozenset()) -> "LeafBatch":
        """Explicit per-literal weights, one column per variable (aux included)."""
        wp = np.asarray(pos, dtype=np.float64)
        wn = np.asarray(neg, dtype=np.float64)
        if wp.ndim == 1:
            wp = wp[None, :]
        if wn.ndim == 1:
            wn = wn[None, :]
        if wp.shape != wn.shape or wp.ndim != 2:
            raise ValueError(f"weight arrays must share a 2-D shape, got {wp.shape} and {wn.shape}")
        _WEIGHTS.require(wp, "positive weight")
        _WEIGHTS.require(wn, "negative weight")
        b, num_vars = wp.shape
        literals = np.empty((2 * num_vars + 2, b))
        literals[:num_vars] = wp.T
        literals[num_vars:2 * num_vars] = wn.T
        literals[-2:] = _CONSTANTS
        return cls(num_vars=num_vars, aux_vars=frozenset(aux_vars), literals=literals)


def _check_compatible(c: LayeredCircuit | Circuit, batch: LeafBatch, s) -> None:
    if not s.circuit_safe:
        raise StructureError(
            f"structure {s.name!r} evaluates on the formula tree, not compiled circuits")
    if batch.num_vars != c.num_vars:
        raise ValueError(f"batch covers {batch.num_vars} variables, "
                         f"circuit declares {c.num_vars}")
    if batch.aux_vars != c.aux_vars:
        raise ValueError(f"batch treats variables {sorted(batch.aux_vars)} as auxiliary, "
                         f"circuit declares {sorted(c.aux_vars)}")
    if s.weights is not None:
        s.weights.require(batch.pos, "positive weight")
        s.weights.require(batch.neg, "negative weight")


def _reduce(op: np.ufunc, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``op.reduce(x, axis=0)``, started from ``x[0]`` rather than the identity.

    An identity start costs one more ``op`` per output element, under log a
    ``logaddexp(-inf, x)`` each. A reduction to a single element keeps it:
    numpy sums that one pairwise, and there the start would regroup the
    terms and change the last bit.
    """
    return op.reduce(x, axis=0, out=out, initial=None if x.size > len(x) else op.identity)


def _forward(lc: LayeredCircuit, literals: np.ndarray, sr: Semiring) -> np.ndarray:
    """The forward buffer of the batch rows, the columns, of a literal table
    (see LeafBatch): every slot, the pads, then the work rows of the CAT
    leaf map, one column per batch row."""
    cats, n = lc.cats, lc.n_slots
    B = literals.shape[1]
    buf = np.empty((n + 2 + (0 if cats is None else 3 * cats.grid), B), dtype=sr.dtype)
    # the table is leaf-major: one row gather fills the leaf layer
    buf[:lc.n_leaves] = sr.leaf(literals.take(lc.leaf_rows, axis=0, mode="clip"))
    buf[n:n + 2] = sr.leaf(literals[-2:])  # the pads: TRUE, FALSE
    if cats is not None:
        # pos_t, L_t and R_{K-1-t} of every grid entry, gathered from the
        # leaf slots and scanned; the entry's CAT slot is pos_t * L_t * R_t
        K, _, G = cats.table.shape
        work = buf[n + 2:].reshape(K, 3, G, -1)
        # a gather into rows of its own source array copies the whole
        # array first; the slots and pads are a disjoint view
        buf[:n + 2].take(cats.table.ravel(), axis=0, out=buf[n + 2:], mode="clip")
        _scan(sr.mul, work[:, 1:])
        grid = buf[lc.n_leaves:lc.n_leaves + K * G].reshape(K, G, -1)
        sr.mul(work[:, 0], work[:, 1], out=grid)
        sr.mul(grid, work[::-1, 2], out=grid)
    take, ops = buf.take, (sr.add, sr.mul)
    for prod, start, stop, children in lc._layout_for(B).forward:
        _reduce(ops[prod], take(children, axis=0, mode="clip"), buf[start:stop])
    return buf


def _underflowed(lc: LayeredCircuit, literals: np.ndarray, values: np.ndarray,
                 zero: float) -> list[np.ndarray]:
    """Per root, the rows whose value underflowed to zero; an empty list
    when no value reads ``zero``.

    ``values`` holds each root's value per batch row, a column of the
    literal table, shape (batch, roots). A smooth d-DNNF is satisfiable
    unless it has a FALSE leaf, so a row whose root reads the semiring
    zero while none of the leaf weights of the root's circuit is zero (a
    leaf reads the semiring zero exactly when its weight is zero) has a
    nonzero true value that was lost to rounding.
    """
    lost = values == zero
    if not lost.any():
        return []
    rows = [np.flatnonzero(column) for column in lost.T]
    return [r[(literals[:, r][cols] != 0.0).all(axis=0)]
            for r, cols in zip(rows, lc.root_rows)]


def _warn_underflow(lost: list[np.ndarray], stacklevel: int) -> None:
    """One warning per root of ``lost`` (see _underflowed) that has a row,
    naming the rows, and the root when there are several; ``stacklevel``
    counts from the caller, as in ``warnings.warn``."""
    for k, rows in enumerate(lost):
        if rows.size:
            root = f" of root {k}" if len(lost) > 1 else ""
            shown = ", ".join(map(str, rows[:5].tolist())) + (", ..." if rows.size > 5 else "")
            warnings.warn(f"the circuit value{root} underflowed to zero in {rows.size} batch "
                          f"row(s) ({shown}) whose leaf weights are all nonzero; evaluate "
                          f"under 'log_probability' instead", RuntimeWarning,
                          stacklevel=stacklevel + 1)


def _tiles(lc: LayeredCircuit, batch_size: int) -> list[slice]:
    """The fewest balanced column tiles of a batch whose reverse buffers
    each fit _TILE_BYTES, or are at most BUCKETED_FROM rows wide where
    fewer rows than that fit; one tile for a small batch."""
    if batch_size <= BUCKETED_FROM:
        return [slice(0, batch_size)]
    rows = max(BUCKETED_FROM, _TILE_BYTES // (8 * lc._bucketed.n_rows))
    k = -(-batch_size // rows)
    bounds = [batch_size * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _by_tiles(lc: LayeredCircuit, literals: np.ndarray, sr: Semiring, run) -> tuple:
    """``run``'s outputs for every batch row of a literal table, computed
    tile by tile, each tile's rows routed by :func:`_routed`."""
    B = literals.shape[1]
    tiles = _tiles(lc, B)
    if len(tiles) == 1:
        return _routed(lc, literals, sr, run)
    outs = None
    for tile in tiles:
        parts = _routed(lc, literals[:, tile], sr, run)
        if outs is None:
            outs = [np.empty_like(part, shape=(B, *part.shape[1:])) for part in parts]
        for out, part in zip(outs, parts):
            out[tile] = part
    return tuple(outs)


def _routed(lc: LayeredCircuit, literals: np.ndarray, sr: Semiring, run) -> tuple:
    """``run``'s outputs for every batch row of a literal table, each row
    run on ``sr`` or, where :func:`_in_range` proves that exact, on its
    ``image_of``.

    ``run(lc, rows, sr, lin)`` takes a column block of the table and returns
    a tuple of arrays with one entry per row along axis 0: with ``lin``
    None it runs on ``sr``, otherwise on ``lin`` with its outputs mapped
    into ``sr``. A row runs on ``sr`` when some root fails and on ``lin``
    when some root passes. Where a row does both, each root keeps the
    output of the run it passed; for that, the outputs of a table with
    several roots have one column per root.
    """
    lin = sr.image_of
    if lin is None:
        return run(lc, literals, sr, None)
    ok = _in_range(lc, literals)
    if ok.all():
        return run(lc, literals, sr, lin)
    if not ok.any():
        return run(lc, literals, sr, None)
    slow, fast = ~ok.all(axis=1), ok.any(axis=1)
    parts = run(lc, literals[:, slow], sr, None)
    outs = [np.empty_like(part, shape=(len(ok), *part.shape[1:])) for part in parts]
    for out, part in zip(outs, parts):
        out[slow] = part
    # the slots of a root that failed may overflow in a row that runs here
    with np.errstate(over="ignore", invalid="ignore"):
        parts = run(lc, literals[:, fast], sr, lin)
    for out, part in zip(outs, parts):
        out[fast] = np.where(ok[fast], part, out[fast])
    return tuple(outs)


def _range_table(lc: LayeredCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Per root, which variables its circuit reads, 1 or 0, negated for the
    lower exponent sum, shape (2, roots, num_vars); and the limits of the
    negated lower and of the upper exponent sum, shape (2, roots, 1)."""
    nv = lc.num_vars
    reads = (lc.root_rows[:, :nv] | lc.root_rows[:, nv:2 * nv]).astype(np.int64)
    count = reads.sum(axis=1)
    return (np.stack([-reads, reads]),
            np.stack([_RANGE_EXP - 1023 * count, _RANGE_EXP + 1022 * count])[:, :, None])


def _in_range(lc: LayeredCircuit, literals: np.ndarray) -> np.ndarray:
    """Per batch row of a literal table and root, shape (batch, roots):
    whether the row's weights prove every slot of the root's circuit an
    exact zero or a float within 2**-_RANGE_EXP and 2**_RANGE_EXP (see the
    module notes).

    The two bounds are products over the variables the root's circuit
    reads, kept as integer sums of binary exponents, each rounded outward;
    so a verdict is exact and depends on the row and the root's circuit
    alone. A variable whose literals both weigh zero has no positive
    weight and leaves its row to the log-space pass.
    """
    nv = lc.num_vars
    reads, limits = lc._range_table
    pos, neg = literals[:nv], literals[nv:2 * nv]
    bounds = np.empty((2, nv, literals.shape[1]))
    lo, hi = bounds
    np.minimum(pos, neg, out=lo)
    with np.errstate(over="ignore"):  # an infinite sum is out of range
        np.add(pos, neg, out=hi)
    np.copyto(lo, hi, where=lo == 0.0)  # a zero literal: the other one's weight
    np.minimum(lo, 1.0, out=lo)
    np.maximum(hi, 1.0, out=hi)
    # the biased exponent of lo rounds down; that of hi's predecessor, plus
    # one, rounds up
    exps = bounds.view(np.int64)
    exps[1] -= 1
    exps >>= 52
    # one contraction and one comparison for both sums, the lower one
    # negated; integer sums are exact in any order. einsum adds the
    # (num_vars, batch) rows up, where numpy's int64 matmul, which has no
    # BLAS, walks each column down: 0.57 against 4.6 ms at 8192 rows
    ok = np.einsum("krn,knb->krb", reads, exps) <= limits
    return (ok[0] & ok[1]).T


def _tile_values(lc: LayeredCircuit, literals: np.ndarray, sr: Semiring, lin):
    """Each root's value per row, shape (rows, roots); see _routed."""
    if lin is None:
        return (_forward(lc, literals, sr).take(lc.root_slots, axis=0).T,)
    return (sr.leaf(_forward(lc, literals, lin).take(lc.root_slots, axis=0).T),)


def _values(lc: LayeredCircuit, batch: LeafBatch, s) -> np.ndarray:
    """Each root's value per batch row, shape (batch, roots)."""
    _check_compatible(lc, batch, s)
    return _by_tiles(lc, batch.literals, s.semiring, _tile_values)[0]


def evaluate(lc: LayeredCircuit, batch: LeafBatch, structure="probability") -> np.ndarray:
    """One value per batch row and root: WMC, log-WMC, or a 0/1 satisfaction flag.

    The shape is (batch,) for one root and (batch, roots) for several.
    Warns (``RuntimeWarning``) naming the rows whose value underflowed to
    zero, once per root that did; see the module notes. A large batch runs
    in column tiles, so beyond the batch and the output its working memory
    does not grow with the number of rows. Under ``log_probability`` a row
    whose weights prove the probability pass exact runs that pass and takes
    the ``log`` of its roots; see the module notes.
    """
    s = get_structure(structure)
    values = _values(lc, batch, s)
    _warn_underflow(_underflowed(lc, batch.literals, values, s.semiring.zero), stacklevel=2)
    return values if len(lc.root_slots) > 1 else values[:, 0]


# ---------------------------------------------------------------------------
# Reverse mode


def _leaf_grad(lc: LayeredCircuit, leaf_adj: np.ndarray) -> np.ndarray:
    """d/dp per input variable: the adjoint of its positive literal minus
    that of its negative one."""
    table = np.zeros((2 * lc.num_vars + 2, leaf_adj.shape[1]))
    table[lc.leaf_rows] = leaf_adj
    nv, k = lc.num_vars, lc.n_inputs
    return (table[:k] - table[nv:nv + k]).T


def backward(lc: LayeredCircuit, batch: LeafBatch, structure="probability") -> np.ndarray:
    """Gradient of evaluate's output w.r.t. each input-variable probability.

    Shape (batch, n_inputs). Requires a probability-parameterized batch (the
    ``from_probabilities`` constructor); the probability structure returns
    dWMC/dp, the log structure d log WMC / dp. A row with zero weighted
    count has no log-gradient and comes back NaN in every column; only the
    constant circuit of an unsatisfiable formula, which has no variable
    leaves, gives zeros there. Warns as :func:`evaluate` does, and runs a
    large batch in column tiles as it does: one tile's reverse buffer
    takes about 8 MiB, so beyond the batch and the output its memory does
    not grow with the number of rows. Under ``log_probability`` a row
    whose weights prove the probability pass exact runs that pass and
    divides its gradient by the weighted count; see the module notes.
    """
    return _value_and_grad(lc, batch, structure)[1]


def _scan(mul, x: np.ndarray) -> None:
    """Inclusive scan along axis 0, in place.

    ``ufunc.accumulate`` along axis 0 runs its inner loop once per column,
    at several ns an element; past a few hundred elements a row, one call
    per row is faster.
    """
    if x.size < _SCAN_BY_ROW_FROM * len(x):
        mul.accumulate(x, axis=0, out=x)
    else:
        for k in range(1, len(x)):
            mul(x[k - 1], x[k], out=x[k])


def _value_and_grad(lc: LayeredCircuit, batch: LeafBatch,
                    structure) -> tuple[np.ndarray, np.ndarray]:
    """:func:`evaluate`'s values and :func:`backward`'s gradient, from one
    forward pass; an underflow warning points at the caller's caller."""
    s = get_structure(structure)
    if not s.differentiable:
        raise StructureError(f"structure {s.name!r} is not differentiable")
    if len(lc.root_slots) > 1:
        raise ValueError(f"backward takes a circuit with one root, this one has "
                         f"{len(lc.root_slots)}")
    _check_compatible(lc, batch, s)
    if batch.probs is None:
        raise ValueError("gradients are taken w.r.t. probabilities; "
                         "build the batch with LeafBatch.from_probabilities")
    values, grad = _by_tiles(lc, batch.literals, s.semiring, _tile_values_and_grads)
    _warn_underflow(_underflowed(lc, batch.literals, values, s.semiring.zero), stacklevel=3)
    return values[:, 0], grad


def _reverse(lc: LayeredCircuit, buf: np.ndarray, sr: Semiring) -> np.ndarray:
    """The reverse buffer of a forward buffer on ``sr`` (see the module
    notes): every slot's adjoint, the leaves' as linear derivatives, then
    the pads and every product edge's row."""
    B = buf.shape[1]
    root = buf.take(lc.root_slots[0], axis=0)
    layout = lc._layout_for(B)
    adj = np.empty((layout.n_rows, B), dtype=sr.dtype)
    adj[lc.n_slots:lc.n_slots + 2] = ((sr.one,), (sr.zero,))
    take, mul, add = adj.take, sr.mul, sr.add
    # top down through every layer above the leaves, which are layer 0
    for step in layout.reverse:
        if step[0] == _PULL:
            _, slots, rows = step
            adj[slots] = take(rows, axis=0, mode="clip") if rows.ndim == 1 else \
                _reduce(add, take(rows, axis=0, mode="clip"))
        else:
            # edge k of a node: the node's adjoint times the product of the
            # children before k (prefix scan) and after k (suffix scan)
            _, lo, hi, fanin, m, start, stop, head, tail = step
            out = adj[lo:hi].reshape(fanin, m, B)
            out[0] = adj[start:stop]
            buf.take(head, axis=0, out=out[1:], mode="clip")
            _scan(mul, out)
            suffix = buf.take(tail, axis=0, mode="clip")
            _scan(mul, suffix)
            mul(out[:-1], suffix[::-1], out=out[:-1])
    if lc.cats is not None:
        _cat_reverse(lc, buf, adj, sr)
    # the leaf pulls leave the semiring: finish each in-edge, sum linearly
    finish = sr.finish
    for slots, rows in layout.leaf_pulls:
        adj[slots] = finish(take(rows, axis=0, mode="clip"), root) if rows.ndim == 1 else \
            _reduce(np.add, finish(take(rows, axis=0, mode="clip"), root))
    return adj


def _cat_reverse(lc: LayeredCircuit, buf: np.ndarray, adj: np.ndarray, sr: Semiring) -> None:
    """The CAT leaf map's reverse: from the CAT slots' adjoints, write the
    adjoints of each grid entry's positive and negative literal, d/dpos
    then d/dneg, in the semiring, to the first of the ``8 * K * G`` rows
    at the end of the reverse buffer ``adj``; the rest are work rows.

    With a_t the adjoint of entry t and c_t = a_t * pos_t, d/dpos_t is
    a_t * L_t * R_t, and d/dneg_t is F_t * R_t + L_t * H_t, where
    F_{t+1} = F_t * neg_t + c_t * L_t and H_{t-1} = H_t * neg_t + c_t * R_t
    from F_0 = H_{K-1} = 0 sum the entries before and after t: two linear
    recurrences, run as one over a stacked pair, with no division.
    """
    cats = lc.cats
    K, _, G = cats.table.shape
    B = buf.shape[1]
    mul, add = sr.mul, sr.add
    work = buf[lc.n_slots + 2:].reshape(K, 3, G, B)
    pos, left, right = work[:, 0], work[:, 1], work[::-1, 2]
    alpha = adj[lc.n_leaves:lc.n_leaves + K * G].reshape(K, G, B)
    rows = adj[len(adj) - 8 * K * G:]
    out = rows[:2 * K * G].reshape(2, K, G, B)
    # c_t * L_t and, reversed, c_t * R_t feed F and H; acc holds F_t and
    # H_{K-1-t}, and neg the matching negative literals
    feed, acc, neg = rows[2 * K * G:].reshape(3, K, 2, G, B)
    ahead, behind = feed[:, 0], feed[:, 1]
    mul(alpha, left, ahead)
    mul(ahead, right, out[0])
    mul(ahead, pos, ahead)
    mul(alpha[::-1], pos[::-1], behind)
    mul(behind, work[:, 2], behind)
    buf[:lc.n_slots + 2].take(cats.neg, axis=0, out=neg.reshape(2 * K * G, B), mode="clip")
    acc[0] = sr.zero
    for a, n, step, f in zip(acc, neg, acc[1:], feed):
        mul(a, n, step)
        add(step, f, step)
    mul(acc[:, 0], right, out[1])
    mul(left, acc[::-1, 1], ahead)
    add(out[1], ahead, out[1])


def _tile_values_and_grads(lc: LayeredCircuit, literals: np.ndarray, sr: Semiring, lin):
    """The root's value per row, shape (rows, 1), and the gradient; see
    _routed. On ``lin`` the gradient of the value's ``sr.leaf``, its log,
    is the linear gradient over the linear value."""
    on = sr if lin is None else lin
    buf = _forward(lc, literals, on)
    values = buf.take(lc.root_slots, axis=0).T
    leaf_adj = _reverse(lc, buf, on)[:lc.n_leaves]
    if lin is None:
        return values, _leaf_grad(lc, leaf_adj)
    root = values[:, 0]
    # a zero count has no log derivative: NaN on every leaf, so in the
    # column of every variable the circuit reads
    if not root.all():
        zero = root == 0.0
        leaf_adj[:, zero] = np.nan
        root = np.where(zero, 1.0, root)
    grad = _leaf_grad(lc, leaf_adj)
    grad /= root[:, None]
    return sr.leaf(values), grad


# ---------------------------------------------------------------------------
# Per-query reference evaluation


def evaluate_recursive(c: Circuit, batch: LeafBatch, structure="probability") -> np.ndarray:
    """Reference implementation: one memoized tree walk per batch row.

    Each node combines its children with the structure's semiring, left to
    right, as :func:`evaluate`'s loops do, and a CAT leaf is its positive
    literal times the product of its group's negative literals before it,
    times that of those after it, last first, as in the leaf map. It
    serves as the unbatched timing baseline. Under log it walks in log
    space, which :func:`evaluate` leaves for the linear pass on rows in
    range (see the module notes), so there the two may differ in the last
    bits.
    """
    s = get_structure(structure)
    _check_compatible(c, batch, s)
    sr = s.semiring
    mul, add = sr.mul, sr.add
    out = np.empty(batch.batch_size, dtype=sr.dtype)
    nodes = c.nodes
    for b in range(batch.batch_size):
        pos = sr.leaf(batch.pos[b])
        neg = sr.leaf(batch.neg[b])
        vals: list = [sr.zero] * len(nodes)
        for i, node in enumerate(nodes):
            kind = node.kind
            if kind == "LIT":
                vals[i] = pos[node.literal - 1] if node.literal > 0 else neg[-node.literal - 1]
            elif kind in ("AND", "OR"):
                op = mul if kind == "AND" else add
                acc = vals[node.children[0]]
                for ch in node.children[1:]:
                    acc = op(acc, vals[ch])
                vals[i] = acc
            elif kind == "CAT":
                d = node.group.index(node.literal)
                left = right = sr.one
                for v in node.group[:d]:
                    left = mul(left, neg[v - 1])
                for v in node.group[:d:-1]:
                    right = mul(right, neg[v - 1])
                vals[i] = mul(mul(pos[node.literal - 1], left), right)
            elif kind == "TRUE":
                vals[i] = sr.one
        out[b] = vals[c.root]
    return out
