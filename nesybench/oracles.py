"""Reference answers computed without the nesycirc package.

Everything here is plain numpy over the benchmark's own input
representations, so a fault in the program cannot also hide in its check:

- the two-number addition constraint under Bernoulli indicator weights, in
  closed form, with gradients by central differences;
- model counts of addition queries and implication chains, in closed form;
- exhaustive enumeration for small CNFs and for formula trees;
- the product, Goedel and Lukasiewicz t-norms on formula trees.

Formula trees are nested tuples: ``("var", i)``, ``("not", i)`` for a
negated variable, and ``("and", a, b)`` / ``("or", a, b)``; variable ids
are 0-based column indices.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Two-number addition


def addition_model_count(n_digits: int, query_sum: int) -> int:
    """Digit pairs of two n-digit numbers that add up to query_sum."""
    top = 2 * (10 ** n_digits - 1)
    return min(query_sum, top - query_sum) + 1


def addition_wmc(probs: np.ndarray, n_digits: int, query_sum: int) -> np.ndarray:
    """WMC of the addition query when every indicator is an independent
    Bernoulli variable.

    ``probs`` has shape (rows, 20 * n_digits); column (a * n + j) * 10 + d
    is P(number a's digit at place 10^j is d). Group g chooses digit d with
    weight q_g(d) = p_{g,d} * prod_{i != d} (1 - p_{g,i}), so the count is
    prod_g Z_g * P(value_1 + value_2 = s) with digit distributions q_g / Z_g.
    """
    p = np.asarray(probs, dtype=np.float64).reshape(-1, 2, n_digits, 10)
    comp = 1.0 - p
    # prod_{i != d} (1 - p_i) without dividing by a factor that may be zero
    left = np.cumprod(np.concatenate([np.ones(p.shape[:-1] + (1,)), comp[..., :-1]], -1), -1)
    right = np.cumprod(np.concatenate([np.ones(p.shape[:-1] + (1,)), comp[..., :0:-1]], -1),
                       -1)[..., ::-1]
    q = p * left * right
    z = q.sum(-1)
    dist = q / z[..., None]
    values = []
    for a in range(2):
        out = np.ones((p.shape[0], 1))
        for j in reversed(range(n_digits)):
            out = (out[:, :, None] * dist[:, a, j, None, :]).reshape(p.shape[0], -1)
        values.append(out)
    lo = max(0, query_sum - (10 ** n_digits - 1))
    hi = min(query_sum, 10 ** n_digits - 1)
    v = np.arange(lo, hi + 1)
    prob_sum = np.einsum("rk,rk->r", values[0][:, v], values[1][:, query_sum - v])
    return np.prod(z.reshape(p.shape[0], -1), axis=1) * prob_sum


def central_gradient(fn, probs: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """d fn / d p for every column by central differences.

    Exact up to rounding when fn is multilinear in each column, as a
    weighted model count is.
    """
    p = np.asarray(probs, dtype=np.float64)
    rows, n = p.shape
    eye = np.eye(n) * h
    plus = (p[:, None, :] + eye[None]).reshape(-1, n)
    minus = (p[:, None, :] - eye[None]).reshape(-1, n)
    return ((fn(plus) - fn(minus)) / (2.0 * h)).reshape(rows, n)


# ---------------------------------------------------------------------------
# Implication chains and CNF enumeration


def chain_model_count(length: int) -> int:
    """Models of x_1 -> x_2 -> ... -> x_length: a false prefix, then true."""
    return length + 1


def chain_wmc(probs: np.ndarray) -> np.ndarray:
    """WMC of x_1 -> ... -> x_n: sum over k of prod_{i<=k} (1-p_i) prod_{i>k} p_i."""
    p = np.asarray(probs, dtype=np.float64)
    ones = np.ones((p.shape[0], 1))
    false_prefix = np.cumprod(np.hstack([ones, 1.0 - p]), axis=1)          # k = 0..n
    true_suffix = np.cumprod(np.hstack([ones, p[:, ::-1]]), axis=1)[:, ::-1]  # i > k
    return (false_prefix * true_suffix).sum(axis=1)


def _assignments(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


def cnf_models(num_vars: int, clauses) -> np.ndarray:
    """Boolean mask over all 2^num_vars assignments (bit i = variable i+1)."""
    x = _assignments(num_vars)
    sat = np.ones(x.shape[0], dtype=bool)
    for clause in clauses:
        csat = np.zeros(x.shape[0], dtype=bool)
        for lit in clause:
            col = x[:, abs(lit) - 1]
            csat |= col if lit > 0 else ~col
        sat &= csat
    return sat


def enumerated_wmc(models: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """WMC per row by summing the weights of the given satisfying assignments."""
    p = np.asarray(probs, dtype=np.float64)
    n = p.shape[1]
    x = _assignments(n)[models]
    if not len(x):
        return np.zeros(p.shape[0])
    # weight of assignment m in row r: prod_v (p_rv if x_mv else 1 - p_rv)
    return np.where(x[None], p[:, None, :], 1.0 - p[:, None, :]).prod(-1).sum(-1)


# ---------------------------------------------------------------------------
# Formula trees


def tree_text(node, names) -> str:
    """Render a formula tree in the infix syntax the program parses."""
    kind = node[0]
    if kind == "var":
        return names[node[1]]
    if kind == "not":
        return "~" + names[node[1]]
    op = " & " if kind == "and" else " | "
    return "(" + tree_text(node[1], names) + op + tree_text(node[2], names) + ")"


_TNORMS = {
    "fuzzy_product": (lambda a, b: a * b, lambda a, b: a + b - a * b),
    "fuzzy_godel": (np.minimum, np.maximum),
    "fuzzy_lukasiewicz": (lambda a, b: np.maximum(0.0, a + b - 1.0),
                          lambda a, b: np.minimum(1.0, a + b)),
}

FUZZY_FAMILIES = tuple(_TNORMS)


def _eval_tree(node, x, neg, conj, disj):
    # explicit stack, so deep trees need no Python recursion
    out = {}
    stack = [(node, False)]
    while stack:
        n, ready = stack.pop()
        if n[0] == "var":
            out[id(n)] = x[..., n[1]]
        elif n[0] == "not":
            out[id(n)] = neg(x[..., n[1]])
        elif ready:
            fn = conj if n[0] == "and" else disj
            out[id(n)] = fn(out[id(n[1])], out[id(n[2])])
        else:
            stack += [(n, True), (n[1], False), (n[2], False)]
    return out[id(node)]


def tnorm_value(node, family: str, scores: np.ndarray) -> np.ndarray:
    """Fuzzy truth value of a formula tree, one per row of scores."""
    conj, disj = _TNORMS[family]
    return _eval_tree(node, np.asarray(scores, dtype=np.float64),
                      lambda a: 1.0 - a, conj, disj)


def tree_truth(node, assignments: np.ndarray) -> np.ndarray:
    """Boolean truth value per row of a 0/1 assignment matrix."""
    x = np.asarray(assignments).astype(bool)
    return _eval_tree(node, x, np.logical_not, np.logical_and, np.logical_or)


def tree_models(node, num_vars: int) -> np.ndarray:
    """Boolean mask over all 2^num_vars assignments satisfying the tree."""
    return tree_truth(node, _assignments(num_vars))
