"""Depth-stratified circuit evaluation over batches of leaf weights.

A circuit is layerized once: nodes are grouped by topological depth, with
product nodes preceding sum nodes at equal depth, so children always sit in
strictly earlier layers. Evaluation then runs one gather + segmented reduce
per layer over a ``(n_slots, batch)`` buffer; batching across weight rows is
what numpy vectorizes, which is the whole performance story compared to a
per-query tree walk (:func:`evaluate_recursive`).

Supported structures are the circuit-safe ones: ``probability`` (weighted
model counting), ``boolean`` (satisfaction indicator on 0/1 weights), and
``log_probability`` (log-WMC; sum layers use max-shifted log-sum-exp and an
all-minus-infinity segment stays minus infinity rather than going NaN).
The forward and reverse loops are written once and take every kernel, and
the element type of their buffers, from the structure's
:class:`~nesycirc.semantics.Semiring`; exact model counting
(:func:`~nesycirc.compiler.model_count`) is the same forward loop on Python
integers. Weight rows are checked against the structure's rules, never
against a structure name. Fuzzy structures are refused here; see
:mod:`nesycirc.semantics`.

The reverse pass returns d(value)/d(p_v) per batch row for the non-auxiliary
variables. Under the log structure the gradient is still taken with respect
to raw probabilities, d log WMC / d p_v, and is computed entirely in log
space before the final exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compiler import Circuit, check_properties
from .errors import CircuitError, StructureError
from .semantics import Carrier, Semiring, get_structure

__all__ = [
    "Layer", "LayeredCircuit", "LeafBatch", "layerize", "evaluate",
    "backward", "evaluate_recursive", "layer_summary",
]


@dataclass(frozen=True, eq=False)
class Layer:
    kind: str  # "LEAF" | "PROD" | "SUM"
    size: int
    slot_base: int
    child_index: np.ndarray  # flat child slot ids, concatenated per node
    child_offsets: np.ndarray  # start of each node's segment in child_index
    seg_lengths: np.ndarray


@dataclass(frozen=True, eq=False)
class LayeredCircuit:
    num_vars: int
    aux_vars: frozenset[int]
    n_slots: int
    root_slot: int
    layers: tuple[Layer, ...]
    # parallel arrays over the leaf layer's slots
    leaf_var: np.ndarray  # variable id, 0 for constants
    leaf_sign: np.ndarray  # +1 / -1 / 0
    leaf_const: np.ndarray  # constant value where leaf_var == 0
    # per sign, +1 then -1: the leaf slots of input variables grouped by
    # variable, the start of each group, and its variable's 0-based column
    input_leaves: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def n_inputs(self) -> int:
        return self.num_vars - len(self.aux_vars)

    @property
    def n_leaves(self) -> int:
        return self.layers[0].size


def layerize(c: Circuit) -> LayeredCircuit:
    """Stratify a smooth deterministic decomposable circuit into layers."""
    check_properties(c).require("decomposable", "deterministic", "smooth")
    n = len(c.nodes)
    depth = [0] * n
    for i, node in enumerate(c.nodes):
        if node.kind in ("AND", "OR"):
            if not node.children:
                raise CircuitError(f"node {i}: {node.kind} without children")
            depth[i] = 1 + max(depth[ch] for ch in node.children)

    buckets: dict[tuple[int, str], list[int]] = {}
    for i, node in enumerate(c.nodes):
        kind = "LEAF" if node.kind in ("LIT", "TRUE", "FALSE") else \
            ("PROD" if node.kind == "AND" else "SUM")
        buckets.setdefault((depth[i], kind), []).append(i)

    node_slot = [0] * n
    next_slot = 0
    groups: list[tuple[str, list[int]]] = []
    for d in range(max(depth) + 1):
        for kind in ("LEAF", "PROD", "SUM"):
            ids = buckets.get((d, kind))
            if not ids:
                continue
            groups.append((kind, ids))
            for i in ids:
                node_slot[i] = next_slot
                next_slot += 1

    layers: list[Layer] = []
    leaf_var: list[int] = []
    leaf_sign: list[int] = []
    leaf_const: list[float] = []
    for kind, ids in groups:
        base = node_slot[ids[0]]
        if kind == "LEAF":
            for i in ids:
                node = c.nodes[i]
                if node.kind == "LIT":
                    leaf_var.append(abs(node.literal))
                    leaf_sign.append(1 if node.literal > 0 else -1)
                    leaf_const.append(0.0)
                else:
                    leaf_var.append(0)
                    leaf_sign.append(0)
                    leaf_const.append(1.0 if node.kind == "TRUE" else 0.0)
            layers.append(Layer("LEAF", len(ids), base, np.empty(0, np.int64),
                                np.zeros(len(ids), np.int64), np.zeros(len(ids), np.int64)))
            continue
        child_index: list[int] = []
        offsets: list[int] = []
        for i in ids:
            offsets.append(len(child_index))
            child_index.extend(node_slot[ch] for ch in c.nodes[i].children)
        off = np.asarray(offsets, np.int64)
        idx = np.asarray(child_index, np.int64)
        lens = np.diff(np.append(off, len(idx)))
        layers.append(Layer(kind, len(ids), base, idx, off, lens))

    var = np.asarray(leaf_var, np.int64)
    sign = np.asarray(leaf_sign, np.int64)
    input_leaves = []
    for s in (1, -1):
        slots = np.nonzero((sign == s) & (var <= c.num_vars - len(c.aux_vars)))[0]
        slots = slots[np.argsort(var[slots], kind="stable")]
        starts = np.nonzero(np.diff(var[slots], prepend=0))[0]
        input_leaves.append((slots, starts, var[slots[starts]] - 1))
    return LayeredCircuit(
        num_vars=c.num_vars, aux_vars=c.aux_vars, n_slots=n,
        root_slot=node_slot[c.root], layers=tuple(layers),
        leaf_var=var, leaf_sign=sign,
        leaf_const=np.asarray(leaf_const, np.float64),
        input_leaves=tuple(input_leaves),
    )


def layer_summary(lc: LayeredCircuit) -> str:
    lines = [f"slots {lc.n_slots} layers {len(lc.layers)} root_slot {lc.root_slot}"]
    for k, layer in enumerate(lc.layers):
        lines.append(f"layer {k} {layer.kind} size {layer.size}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Leaf weights

_PROBABILITIES = get_structure("probability").carrier
_WEIGHTS = Carrier(lambda w: w >= 0.0, "is not >= 0")


@dataclass(frozen=True, eq=False)
class LeafBatch:
    """Per-literal weights for a batch of evaluations.

    ``pos``/``neg`` give the weight of the positive and negative literal of
    each variable, shape (batch, num_vars). A batch built from probabilities
    keeps the raw rows in ``probs`` (shape (batch, n_inputs)), which is what
    :func:`backward` differentiates with respect to; explicit-weight batches
    (e.g. indicator encodings where the negative literal weighs 1) have
    ``probs = None`` and support evaluation only.
    """

    num_vars: int
    aux_vars: frozenset[int]
    pos: np.ndarray
    neg: np.ndarray
    probs: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        return self.pos.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.num_vars - len(self.aux_vars)

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
        n_inputs = p.shape[1]
        if num_vars is None:
            num_vars = n_inputs + len(aux)
        if num_vars != n_inputs + len(aux):
            raise ValueError(f"{n_inputs} probability columns plus {len(aux)} auxiliaries "
                             f"do not cover {num_vars} variables")
        if aux and aux != frozenset(range(n_inputs + 1, num_vars + 1)):
            raise ValueError("auxiliary variables must occupy the top of the id range")
        ones = np.ones((p.shape[0], len(aux)))
        return cls(num_vars=num_vars, aux_vars=aux,
                   pos=np.hstack([p, ones]), neg=np.hstack([1.0 - p, ones]), probs=p)

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
        return cls(num_vars=wp.shape[1], aux_vars=frozenset(aux_vars), pos=wp, neg=wn)


def _check_compatible(c: LayeredCircuit | Circuit, batch: LeafBatch, s) -> None:
    if not s.circuit_safe:
        raise StructureError(
            f"structure {s.name!r} evaluates on the formula tree, not compiled circuits")
    if batch.num_vars != c.num_vars:
        raise ValueError(f"batch covers {batch.num_vars} variables, "
                         f"circuit declares {c.num_vars}")
    if s.weights is not None:
        s.weights.require(batch.pos, "positive weight")
        s.weights.require(batch.neg, "negative weight")


def _leaf_values(lc: LayeredCircuit, batch: LeafBatch, sr: Semiring) -> np.ndarray:
    vals = np.empty((lc.n_leaves, batch.batch_size))
    ip = np.nonzero(lc.leaf_sign == 1)[0]
    im = np.nonzero(lc.leaf_sign == -1)[0]
    ic = np.nonzero(lc.leaf_sign == 0)[0]
    if ip.size:
        vals[ip] = batch.pos[:, lc.leaf_var[ip] - 1].T
    if im.size:
        vals[im] = batch.neg[:, lc.leaf_var[im] - 1].T
    if ic.size:
        vals[ic] = lc.leaf_const[ic][:, None]
    return sr.leaf(vals)


def _forward(lc: LayeredCircuit, batch: LeafBatch, sr: Semiring) -> np.ndarray:
    buf = np.empty((lc.n_slots, batch.batch_size), dtype=sr.dtype)
    buf[:lc.n_leaves] = _leaf_values(lc, batch, sr)
    for layer in lc.layers[1:]:
        reduce = sr.segment_prod if layer.kind == "PROD" else sr.segment_sum
        buf[layer.slot_base:layer.slot_base + layer.size] = reduce(
            buf[layer.child_index], layer.child_offsets, layer.seg_lengths)
    return buf


def evaluate(lc: LayeredCircuit, batch: LeafBatch, structure="probability") -> np.ndarray:
    """One value per batch row: WMC, log-WMC, or a 0/1 satisfaction flag."""
    s = get_structure(structure)
    _check_compatible(lc, batch, s)
    buf = _forward(lc, batch, s.semiring)
    return buf[lc.root_slot].copy()


# ---------------------------------------------------------------------------
# Reverse mode


def _leaf_grad(lc: LayeredCircuit, leaf_adj: np.ndarray, batch_size: int) -> np.ndarray:
    """Fold leaf adjoints into d/dp per input variable: positive minus negative."""
    grad = np.zeros((lc.n_inputs, batch_size))
    (pos, pos_starts, pos_cols), (neg, neg_starts, neg_cols) = lc.input_leaves
    if pos.size:
        grad[pos_cols] += np.add.reduceat(leaf_adj[pos], pos_starts, axis=0)
    if neg.size:
        grad[neg_cols] -= np.add.reduceat(leaf_adj[neg], neg_starts, axis=0)
    return grad.T


def backward(lc: LayeredCircuit, batch: LeafBatch, structure="probability") -> np.ndarray:
    """Gradient of evaluate's output w.r.t. each input-variable probability.

    Shape (batch, n_inputs). Requires a probability-parameterized batch (the
    ``from_probabilities`` constructor); the probability structure returns
    dWMC/dp, the log structure d log WMC / dp. Rows with zero weighted count
    have no finite log-gradient and come back non-finite.
    """
    return _value_and_grad(lc, batch, structure)[1]


def _value_and_grad(lc: LayeredCircuit, batch: LeafBatch,
                    structure) -> tuple[np.ndarray, np.ndarray]:
    """:func:`evaluate`'s values and :func:`backward`'s gradient, from one
    forward pass."""
    s = get_structure(structure)
    if not s.differentiable:
        raise StructureError(f"structure {s.name!r} is not differentiable")
    _check_compatible(lc, batch, s)
    if batch.probs is None:
        raise ValueError("gradients are taken w.r.t. probabilities; "
                         "build the batch with LeafBatch.from_probabilities")
    B = batch.batch_size
    sr = s.semiring
    buf = _forward(lc, batch, sr)
    adj = np.full((lc.n_slots, B), sr.zero)
    adj[lc.root_slot] = sr.one
    for layer in reversed(lc.layers[1:]):
        a = np.repeat(adj[layer.slot_base:layer.slot_base + layer.size],
                      layer.seg_lengths, axis=0)
        if layer.kind == "PROD":
            g = buf[layer.child_index]
            a = sr.times(a, sr.siblings(g, layer.child_offsets, layer.seg_lengths))
        sr.scatter_add(adj, layer.child_index, a)
    grad = _leaf_grad(lc, sr.finish(adj[:lc.n_leaves], buf[lc.root_slot]), B)
    return buf[lc.root_slot].copy(), grad


# ---------------------------------------------------------------------------
# Per-query reference evaluation


def evaluate_recursive(c: Circuit, batch: LeafBatch, structure="probability") -> np.ndarray:
    """Reference implementation: one memoized tree walk per batch row.

    Matches :func:`evaluate` node for node (children reduced left to right)
    and serves as the unbatched timing baseline.
    """
    s = get_structure(structure)
    _check_compatible(c, batch, s)
    log = s.name == "log_probability"
    neg_inf = float("-inf")
    out = np.empty(batch.batch_size)
    nodes = c.nodes
    for b in range(batch.batch_size):
        pos = batch.pos[b]
        neg = batch.neg[b]
        vals: list[float] = [0.0] * len(nodes)
        for i, node in enumerate(nodes):
            kind = node.kind
            if kind == "LIT":
                w = pos[abs(node.literal) - 1] if node.literal > 0 \
                    else neg[abs(node.literal) - 1]
                vals[i] = (math.log(w) if w > 0.0 else neg_inf) if log else w
            elif kind == "AND":
                acc = vals[node.children[0]]
                if log:
                    for ch in node.children[1:]:
                        acc += vals[ch]
                else:
                    for ch in node.children[1:]:
                        acc *= vals[ch]
                vals[i] = acc
            elif kind == "OR":
                if log:
                    cv = [vals[ch] for ch in node.children]
                    m = max(cv)
                    vals[i] = neg_inf if m == neg_inf \
                        else m + math.log(sum(math.exp(v - m) for v in cv))
                else:
                    acc = vals[node.children[0]]
                    for ch in node.children[1:]:
                        acc += vals[ch]
                    vals[i] = acc
            elif kind == "TRUE":
                vals[i] = 0.0 if log else 1.0
            else:
                vals[i] = neg_inf if log else 0.0
        out[b] = vals[c.root]
    return out
