"""Pluggable algebraic structures giving meaning to formulas and circuits.

A structure fixes its carrier set and how sum nodes, product nodes, and
weighted leaves combine. It is the one place that knows which values it
accepts: its :class:`Carrier` is a membership test plus the phrase a
violation reports, and every value check in the package asks it rather
than comparing structure names. Boolean, probability, and log-probability
structures are circuit safe: evaluating a compiled circuit under them
agrees with the formula semantics. Each carries a :class:`Semiring`, the
two ufuncs the layered circuit pass in :mod:`nesycirc.layered` reduces
with, so one forward and one reverse loop serve all three (algebraic model
counting); exact model counting runs the same forward loop on Python
integers. Boolean and probability share the linear semiring; the boolean
structure adds a rule for its leaf weights. The fuzzy families are not
circuit safe; decision splits and smoothing gadgets are WMC-preserving
rewrites, not fuzzy-value-preserving ones, so fuzzy evaluation works on the
NNF formula only. It runs on the formula as a DAG: one forward loop over
its cached walk, which lists each distinct node once, children first, and
for gradients one reverse sweep over the same nodes that sums a shared
node's adjoint over its parents. So nested equivalences, whose NNF shares
subformulas, cost time linear in their number, not exponential.

Structure tags resolve through one registry and alias table
(:func:`get_structure`). Structure-to-structure value conversions live in
an explicit closed table (:func:`transform`); any pair not listed raises,
including identity pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import CarrierError, FormulaError, IncompatibleStructures, StructureError
from .formula import And, FalseF, Not, Or, TrueF, Var, _walk, formula_vars

__all__ = [
    "Carrier", "FuzzyConnectives", "Semiring", "Structure", "builtin_structures",
    "canonical_tag", "get_structure",
    "fuzzy_structure_from_ops", "evaluate_fuzzy", "fuzzy_value_and_grad",
    "transform", "transform_pairs",
]


@dataclass(frozen=True)
class FuzzyConnectives:
    """Connective algebra on [0, 1]. Implication is derived, not stored.

    The grad callables return subgradients; at min/max ties they take the
    first-argument branch so gradients are deterministic. They are None for
    user-supplied algebras built without gradient rules.
    """

    neg: Callable
    conj: Callable
    disj: Callable
    neg_grad: Callable | None = None
    conj_grad: Callable | None = None
    disj_grad: Callable | None = None

    def implies(self, x, y):
        return self.disj(self.neg(x), y)


def _log(w):
    with np.errstate(divide="ignore"):
        return np.log(w)


def _normalized_exp(ladj, log_z):
    # ladj holds logs of WMC-space adjoints, batch along the last axis;
    # normalizing by log WMC and exponentiating gives d log WMC / d w. A
    # zero count (log_z = -inf) has no log derivative: its rows are NaN in
    # every entry, whatever the adjoint.
    shift = np.where(log_z > -np.inf, log_z, np.nan)
    with np.errstate(over="ignore"):
        return np.exp(ladj - shift)


@dataclass(frozen=True)
class Semiring:
    """The two operations one layered circuit pass needs, forward and reverse.

    ``mul`` and ``add`` are numpy ufuncs: product layers reduce their
    children with ``mul`` and sum layers with ``add``; the reverse pass
    pulls each adjoint as the ``add`` of its in-edges and forms a product
    edge's share with ``mul.accumulate`` scans. ``zero`` and ``one`` are
    their identities, which also pad merged layers; a root that reads
    ``zero`` while no leaf does is what counts as an underflow. The
    ufuncs' own identities must be those values, and ``add(zero, x)`` and
    ``mul(one, x)`` must return ``x``: the layer loops start each reduction
    from its first operand, not from the identity, which costs one more
    operation per output element (under log a ``logaddexp(-inf, x)``),
    and gather a one-row pull instead of reducing it. ``leaf`` maps literal
    weights into the carrier and ``unleaf`` maps carrier values back to
    linear weights, which is how values under the structure become leaf
    weights. ``dtype`` is the element type of the pass's buffers.
    ``finish(adj, root_value)`` maps the adjoint of each in-edge of a leaf
    (the batch along the last axis) to a linear derivative of the circuit
    value with respect to the literal weight, and must turn the semiring
    sum into a linear one: ``finish(add.reduce(a))`` equals
    ``np.add.reduce(finish(a))``, which is how the reverse pass sums a
    leaf's in-edges. Under log, a zero root value makes it NaN throughout.
    ``image_of``, when set, names the semiring whose ``leaf`` image this
    one is: ``leaf`` carries that semiring's sums and products to these
    (log-probability is the probability semiring mapped through ``log``),
    so a pass may run there and map its roots through ``leaf``; as that
    ``leaf`` is ``log``, its gradients divide by the root value.
    :func:`nesycirc.layered.evaluate` and :func:`~nesycirc.layered.backward`
    do so for every row whose weights prove that pass exact.
    """

    zero: float
    one: float
    leaf: Callable
    unleaf: Callable
    mul: np.ufunc
    add: np.ufunc
    finish: Callable
    dtype: type = np.float64
    image_of: Semiring | None = None


_LINEAR = Semiring(
    zero=0.0, one=1.0, leaf=lambda w: w, unleaf=lambda v: v,
    mul=np.multiply, add=np.add, finish=lambda adj, root: adj,
)

_LOG = Semiring(
    zero=-np.inf, one=0.0, leaf=_log, unleaf=np.exp,
    mul=np.add, add=np.logaddexp, finish=_normalized_exp, image_of=_LINEAR,
)

# Exact model counting: the linear forward pass on Python integers held in
# object buffers, so counts never round. The reverse pass never runs on it.
_COUNT = replace(_LINEAR, leaf=lambda w: w.astype(np.int64), dtype=object)


@dataclass(frozen=True)
class Carrier:
    """A set of values: a membership test and the phrase reporting a non-member.

    ``contains`` maps a float array to its elementwise membership mask (NaN
    is never a member); ``reason`` ends a violation message such as
    ``value 1.5 outside [0, 1]``.
    """

    contains: Callable
    reason: str

    def require(self, values: np.ndarray, what: str = "value", error=CarrierError) -> None:
        """Raise ``error`` naming the first entry of ``values`` outside the set.

        The entry is reported as ``batch row b, variable j``: axis 0 is the
        batch and the other axes flatten to 1-based variables; an array of
        fewer than two axes is one row.
        """
        ok = self.contains(values)
        if not ok.all():
            bad = ~ok
            rows = bad.reshape(len(bad) if bad.ndim > 1 else 1, -1)
            b, j = map(int, np.argwhere(rows)[0])
            value = float(values.reshape(rows.shape)[b, j])
            raise error(f"batch row {b}, variable {j + 1}: {what} {value} {self.reason}")


_UNIT = Carrier(lambda v: (v >= 0.0) & (v <= 1.0), "outside [0, 1]")
_BINARY = Carrier(lambda v: (v == 0.0) | (v == 1.0), "not a boolean 0/1")


@dataclass(frozen=True)
class Structure:
    """A semantics tag, its carrier, and the rules that evaluate under it.

    ``carrier`` holds the structure's values; module inputs and outputs
    under its tag are checked against it. Circuit-safe structures carry a
    ``semiring`` for the layered circuit pass; fuzzy families carry
    ``fuzzy`` connectives for formula trees. Leaf weights are not values: a
    weighted count takes any weight >= 0, and the log structure takes its
    weights in linear space. So ``weights``, when set, is the extra rule
    every leaf weight of a circuit evaluated under the structure must meet;
    the boolean structure admits 0/1 weights only.
    """

    name: str
    carrier: Carrier
    differentiable: bool
    semiring: Semiring | None = None
    fuzzy: FuzzyConnectives | None = None
    weights: Carrier | None = None

    @property
    def circuit_safe(self) -> bool:
        return self.semiring is not None


# The built-in connectives take float arrays, as _fuzzy_forward and the
# factory's connective nodes pass them, and use a ufunc wherever one is the
# connective.
_PRODUCT = FuzzyConnectives(
    neg=lambda x: 1.0 - x,
    conj=np.multiply,
    disj=lambda x, y: x + y - x * y,
    neg_grad=lambda x: -np.ones_like(x),
    conj_grad=lambda x, y: (y, x),
    disj_grad=lambda x, y: (1.0 - y, 1.0 - x),
)

_GODEL = FuzzyConnectives(
    neg=lambda x: 1.0 - x,
    conj=np.minimum,
    disj=np.maximum,
    neg_grad=lambda x: -np.ones_like(x),
    conj_grad=lambda x, y: ((x <= y).astype(np.float64), (x > y).astype(np.float64)),
    disj_grad=lambda x, y: ((x >= y).astype(np.float64), (x < y).astype(np.float64)),
)

def _luk_conj_grad(x, y):
    # max(0, t): at the tie t == 0 the first argument (the constant) wins,
    # so the subgradient is zero there; dually for disj's min(1, t).
    active = (x + y - 1.0 > 0.0).astype(np.float64)
    return active, active


def _luk_disj_grad(x, y):
    active = (x + y < 1.0).astype(np.float64)
    return active, active


_LUKASIEWICZ = FuzzyConnectives(
    neg=lambda x: 1.0 - x,
    conj=lambda x, y: np.maximum(0.0, x + y - 1.0),
    disj=lambda x, y: np.minimum(1.0, x + y),
    neg_grad=lambda x: -np.ones_like(x),
    conj_grad=_luk_conj_grad,
    disj_grad=_luk_disj_grad,
)


def _make_fuzzy(name: str, conn: FuzzyConnectives) -> Structure:
    rules = (conn.neg_grad, conn.conj_grad, conn.disj_grad)
    return Structure(name=name, carrier=_UNIT, differentiable=None not in rules, fuzzy=conn)


_BUILTINS: dict[str, Structure] = {
    "boolean": Structure(name="boolean", carrier=_BINARY, differentiable=False,
                         semiring=_LINEAR,
                         weights=replace(_BINARY, reason="is not a boolean 0/1")),
    "probability": Structure(name="probability", carrier=_UNIT, differentiable=True,
                             semiring=_LINEAR),
    "log_probability": Structure(name="log_probability",
                                 carrier=Carrier(lambda v: v <= 0.0, "outside [-inf, 0]"),
                                 differentiable=True, semiring=_LOG),
    "fuzzy_product": _make_fuzzy("fuzzy_product", _PRODUCT),
    "fuzzy_godel": _make_fuzzy("fuzzy_godel", _GODEL),
    "fuzzy_lukasiewicz": _make_fuzzy("fuzzy_lukasiewicz", _LUKASIEWICZ),
}

_ALIASES = {"log": "log_probability"}


def builtin_structures() -> dict[str, Structure]:
    return dict(_BUILTINS)


def canonical_tag(tag: str) -> str:
    """The registry name of a structure tag, with aliases such as 'log' resolved."""
    return _ALIASES.get(tag, tag)


def get_structure(name) -> Structure:
    """Resolve a structure tag (or pass a Structure through unchanged)."""
    if isinstance(name, Structure):
        return name
    try:
        return _BUILTINS[canonical_tag(name)]
    except (KeyError, TypeError):  # TypeError: an unhashable value, such as a dict
        raise StructureError(f"unknown structure tag {name!r}") from None


def fuzzy_structure_from_ops(name: str, ops: dict) -> Structure:
    """Build a fuzzy structure from user connectives.

    ``ops`` maps 'not' and 'and' (required) and optionally 'or' to
    callables; a missing 'or' is completed by De Morgan duality from the
    supplied negation and conjunction. No gradient rules are attached, so
    the result supports evaluation but not fuzzy_value_and_grad.
    """
    try:
        neg = ops["not"]
        conj = ops["and"]
    except KeyError as exc:
        raise StructureError(f"fuzzy connective table needs {exc.args[0]!r}") from None
    disj = ops.get("or")
    if disj is None:
        def disj(x, y, _n=neg, _c=conj):
            return _n(_c(_n(x), _n(y)))
    return _make_fuzzy(name, FuzzyConnectives(neg=neg, conj=conj, disj=disj))


# ---------------------------------------------------------------------------
# Fuzzy evaluation on NNF trees


def _fuzzy_forward(f, s, var_scores):
    """Evaluate every node of an NNF formula under a fuzzy structure.

    One loop over the formula's cached walk (:func:`~nesycirc.formula._walk`)
    computes each distinct node's value from its children's, read by
    position. Returns the structure, the scores array, the nodes, their
    values and their child positions; the root is last.
    """
    s = get_structure(s)
    conn = s.fuzzy
    if conn is None:
        raise StructureError(f"structure {s.name!r} is not a fuzzy family")
    scores = np.asarray(var_scores, dtype=np.float64)
    width = scores.shape[-1] if scores.ndim else 0
    nodes, kids = _walk(f)
    values: list = []
    for node, ks in zip(nodes, kids):
        if isinstance(node, Var):
            if node.id > width:
                raise ValueError(f"the formula reads variables up to id {formula_vars(f)[-1]}, "
                                 f"but the scores have {width} columns")
            v = scores[..., node.id - 1]
        elif isinstance(node, Not) and isinstance(node.child, Var):
            v = conn.neg(values[ks[0]])
        elif isinstance(node, (And, Or)):
            op = conn.conj if isinstance(node, And) else conn.disj
            v = op(values[ks[0]], values[ks[1]])
        elif isinstance(node, TrueF):
            v = np.ones(scores.shape[:-1])
        elif isinstance(node, FalseF):
            v = np.zeros(scores.shape[:-1])
        else:
            raise FormulaError("fuzzy evaluation needs NNF input; apply to_nnf first")
        values.append(v)
    return s, scores, nodes, values, kids


def evaluate_fuzzy(f, s, var_scores) -> np.ndarray:
    """Evaluate an NNF formula under a fuzzy structure.

    ``var_scores`` has variable id i at index i-1 along the last axis;
    leading axes are batch dimensions and broadcast through the connectives.
    Raises ValueError when that axis is narrower than the highest variable
    id of f.
    """
    values = _fuzzy_forward(f, s, var_scores)[3]
    return values[-1]


def fuzzy_value_and_grad(f, s, var_scores):
    """Evaluate and differentiate an NNF formula under a fuzzy structure.

    Returns (value, grad) with grad shaped like ``var_scores``. Requires the
    structure to carry gradient rules (all built-in families do). The value
    comes from the forward loop :func:`evaluate_fuzzy` runs; the gradient
    from one reverse sweep over the same nodes, which carries one adjoint
    per node, shaped like the value, and adds each leaf's into the column
    of its variable. The nodes are the formula's DAG: a subformula with
    several parents, as :func:`~nesycirc.formula.to_nnf` shares under
    ``<->``, is visited once, after all of them, and its adjoint is the sum
    of their contributions.
    """
    s, scores, nodes, values, kids = _fuzzy_forward(f, s, var_scores)
    conn = s.fuzzy
    if not s.differentiable:
        raise StructureError(
            f"structure {s.name!r} has no gradient rules; give its FuzzyConnectives "
            f"neg_grad, conj_grad and disj_grad, or use a built-in family")
    grad = np.zeros(scores.shape)
    adj = [None] * len(nodes)
    adj[-1] = np.ones(scores.shape[:-1])

    def add(c, g):
        # the first parent assigns, so a tree node's adjoint is exactly its
        # one product; later parents add to it
        adj[c] = g if adj[c] is None else adj[c] + g

    for i in range(len(nodes) - 1, -1, -1):
        node, a = nodes[i], adj[i]
        if isinstance(node, Var):
            grad[..., node.id - 1] += a
        elif isinstance(node, Not):
            (c,) = kids[i]
            add(c, a * conn.neg_grad(values[c]))
        elif isinstance(node, (And, Or)):
            l, r = kids[i]
            rule = conn.conj_grad if isinstance(node, And) else conn.disj_grad
            da, db = rule(values[l], values[r])
            add(l, a * da)
            add(r, a * db)
    return values[-1], grad


# ---------------------------------------------------------------------------
# Structure-to-structure transformations


# the boolean carrier, worded as the precondition of an embedding
_EMBEDDABLE = replace(_BINARY, reason="is not exactly 0 or 1")


def _bool_embed(values):
    _EMBEDDABLE.require(values, "boolean value", StructureError)
    return values


_TRANSFORMS: dict[tuple[str, str], Callable] = {
    ("probability", "log_probability"): _LOG.leaf,
    ("log_probability", "probability"): _LOG.unleaf,
    ("boolean", "probability"): _bool_embed,
    ("boolean", "fuzzy_product"): _bool_embed,
    ("boolean", "fuzzy_godel"): _bool_embed,
    ("boolean", "fuzzy_lukasiewicz"): _bool_embed,
}


def transform_pairs() -> frozenset[tuple[str, str]]:
    """The closed set of (from, to) tags transform accepts."""
    return frozenset(_TRANSFORMS)


def transform(values, frm, to):
    """Convert values between structures, or raise IncompatibleStructures.

    The table is deliberately closed: identity pairs and every fuzzy-to-
    anything direction are rejected rather than coerced.
    """
    frm = get_structure(frm)
    to = get_structure(to)
    fn = _TRANSFORMS.get((frm.name, to.name))
    if fn is None:
        raise IncompatibleStructures(frm.name, to.name)
    return fn(np.asarray(values, dtype=np.float64))
