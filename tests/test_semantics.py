"""Structure registry, fuzzy evaluation, and the transform table."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nesycirc

from nesycirc.errors import FormulaError, IncompatibleStructures, StructureError
from nesycirc.formula import (And, Not, Or, Var, make_name_table,
                              parse_formula, to_cnf, to_nnf)
from nesycirc.semantics import (builtin_structures, canonical_tag, evaluate_fuzzy,
                                fuzzy_structure_from_ops,
                                fuzzy_value_and_grad, get_structure,
                                transform, transform_pairs)

FUZZY = ("fuzzy_product", "fuzzy_godel", "fuzzy_lukasiewicz")

unit = st.floats(0.0, 1.0, allow_nan=False)


def _parse(text, names=("A", "B", "C")):
    return parse_formula(text, make_name_table(names))


# ---------------------------------------------------------------------------
# Registry


def test_builtin_tags():
    assert set(builtin_structures()) == {
        "boolean", "probability", "log_probability", *FUZZY}


def test_log_alias():
    assert get_structure("log") is get_structure("log_probability")


def test_structure_passthrough():
    s = get_structure("probability")
    assert get_structure(s) is s


def test_unknown_tag():
    with pytest.raises(StructureError, match="unknown structure tag 'goedel'"):
        get_structure("goedel")


def test_circuit_safety_flags():
    b = builtin_structures()
    assert all(b[n].circuit_safe for n in ("boolean", "probability", "log_probability"))
    assert not any(b[n].circuit_safe for n in FUZZY)
    assert b["boolean"].semiring is b["probability"].semiring
    assert not b["boolean"].differentiable
    assert all(b[n].differentiable for n in FUZZY)


def _tag_literals(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [t for elt in node.elts for t in _tag_literals(elt)]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and canonical_tag(node.value) in builtin_structures():
        return [node.value]
    return []


def test_no_structure_name_branches_outside_semantics():
    """Only semantics.py compares values with built-in structure tags.

    Everything else asks the structure (its carrier, semiring, weight rule
    or flags). The one exception is ``layered.evaluate_recursive``, the
    reference evaluator, which keeps its own log/linear branches so that it
    stays independent of the semirings it checks.
    """
    branches = []
    for path in sorted(Path(nesycirc.__file__).parent.glob("*.py")):
        if path.name == "semantics.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(n) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and (path.name, fn.name) == ("layered.py", "evaluate_recursive")
                  for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in exempt \
                    and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                            for op in node.ops) \
                    and any(_tag_literals(x) for x in (node.left, *node.comparators)):
                branches.append(f"{path.name}:{node.lineno}")
    assert branches == []


# ---------------------------------------------------------------------------
# Semirings

# entries in [-8, 8] and at most 6 rows keep the rounding of the
# logaddexp chain (half an ulp of a value below 16 per step) under 1e-14
log_entry = st.one_of(st.just(-np.inf), st.floats(-8.0, 8.0))


@given(st.integers(1, 6).flatmap(lambda d: st.lists(
           st.lists(log_entry, min_size=4, max_size=4), min_size=d, max_size=d)),
       st.lists(log_entry, min_size=4, max_size=4))
def test_log_finish_turns_the_semiring_sum_into_a_linear_sum(adj, log_z):
    """The reverse pass finishes each leaf in-edge and sums linearly:
    exp(logsumexp(a) - log Z) = sum(exp(a - log Z)); a zero count
    (log Z = -inf) is NaN either way."""
    finish = get_structure("log").semiring.finish
    a, z = np.array(adj), np.array(log_z)
    linear = np.add.reduce(finish(a, z), axis=0)
    want = finish(np.logaddexp.reduce(a, axis=0), z)
    assert np.array_equal(np.isnan(linear), z == -np.inf)
    assert np.array_equal(np.isnan(want), z == -np.inf)
    np.testing.assert_allclose(linear, want, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# Connective algebra


@pytest.mark.parametrize("name,conj,disj", [
    ("fuzzy_product", 0.3 * 0.6, 0.3 + 0.6 - 0.18),
    ("fuzzy_godel", 0.3, 0.6),
    ("fuzzy_lukasiewicz", 0.0, 0.9),
])
def test_connective_goldens(name, conj, disj):
    c = get_structure(name).fuzzy
    assert c.conj(0.3, 0.6) == pytest.approx(conj)
    assert c.disj(0.3, 0.6) == pytest.approx(disj)
    assert c.neg(0.3) == pytest.approx(0.7)
    assert c.implies(0.3, 0.6) == pytest.approx(c.disj(0.7, 0.6))


@pytest.mark.parametrize("name", FUZZY)
@given(x=unit, y=unit, z=unit)
def test_tnorm_laws(name, x, y, z):
    c = get_structure(name).fuzzy
    assert c.conj(x, y) == pytest.approx(c.conj(y, x))
    assert c.conj(x, c.conj(y, z)) == pytest.approx(c.conj(c.conj(x, y), z), abs=1e-12)
    assert c.conj(x, 1.0) == pytest.approx(x)
    assert c.disj(x, 0.0) == pytest.approx(x)
    if y <= z:
        assert c.conj(x, y) <= c.conj(x, z) + 1e-12
        assert c.disj(x, y) <= c.disj(x, z) + 1e-12


@pytest.mark.parametrize("name", FUZZY)
@given(x=unit, y=unit)
def test_de_morgan(name, x, y):
    c = get_structure(name).fuzzy
    assert c.disj(x, y) == pytest.approx(c.neg(c.conj(c.neg(x), c.neg(y))), abs=1e-12)


# ---------------------------------------------------------------------------
# Fuzzy evaluation


def test_evaluate_fuzzy_goldens():
    f = to_nnf(_parse("(A -> B) & (C -> B)"))
    scores = [0.9, 0.2, 0.1]
    got = {n: float(evaluate_fuzzy(f, n, scores)) for n in FUZZY}
    # (1-a + b - (1-a) b) * (1-c + b - (1-c) b) for product
    assert got["fuzzy_product"] == pytest.approx((0.1 + 0.2 - 0.02) * (0.9 + 0.2 - 0.18))
    assert got["fuzzy_godel"] == pytest.approx(min(max(0.1, 0.2), max(0.9, 0.2)))
    assert got["fuzzy_lukasiewicz"] == pytest.approx(
        max(0.0, min(1.0, 0.1 + 0.2) + min(1.0, 0.9 + 0.2) - 1.0))


def test_evaluate_fuzzy_batched():
    f = to_nnf(_parse("A & ~B", ("A", "B")))
    scores = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.2, 0.9], [0.0, 0.0]]])
    out = evaluate_fuzzy(f, "fuzzy_product", scores)
    assert out.shape == (2, 2)
    assert np.allclose(out, [[0.25, 1.0], [0.02, 0.0]])


def test_evaluate_fuzzy_requires_nnf():
    f = _parse("~(A & B)", ("A", "B"))
    with pytest.raises(FormulaError, match="NNF"):
        evaluate_fuzzy(f, "fuzzy_product", [0.5, 0.5])


def test_evaluate_fuzzy_rejects_crisp_structures():
    f = to_nnf(_parse("A", ("A",)))
    with pytest.raises(StructureError, match="not a fuzzy family"):
        evaluate_fuzzy(f, "probability", [0.5])


def test_constants_evaluate_to_unit_bounds():
    t = to_nnf(_parse("A | ~A", ("A",)))
    assert evaluate_fuzzy(t, "fuzzy_godel", [0.4]) == pytest.approx(0.6)
    # the parser folds nothing here, so exercise TrueF/FalseF directly
    from nesycirc.formula import FalseF, TrueF
    assert float(evaluate_fuzzy(TrueF(), "fuzzy_product", [0.4])) == 1.0
    assert float(evaluate_fuzzy(FalseF(), "fuzzy_product", [0.4])) == 0.0


# ---------------------------------------------------------------------------
# Fuzzy gradients


def _fd_check(f, name, scores, h=1e-6):
    """Compare grad to central differences, skipping kinked coordinates."""
    val, grad = fuzzy_value_and_grad(f, name, scores)
    for j in range(scores.size):
        hi, lo = scores.copy(), scores.copy()
        hi[j] += h
        lo[j] -= h
        up = float(evaluate_fuzzy(f, name, hi))
        dn = float(evaluate_fuzzy(f, name, lo))
        mid = float(val)
        fwd = (up - mid) / h
        bwd = (mid - dn) / h
        if abs(fwd - bwd) > 1e-3:
            continue  # min/max/clamp kink: one-sided derivatives disagree
        assert grad[j] == pytest.approx((up - dn) / (2 * h), abs=1e-5)


@pytest.mark.parametrize("name", FUZZY)
def test_grad_matches_finite_differences(name):
    f = to_nnf(_parse("(A -> B) & (C -> B)"))
    shared = And(Var(1, "A"), Var(2, "B"))  # one subterm object, reached twice
    rng = np.random.default_rng(11)
    for _ in range(20):
        _fd_check(f, name, 0.05 + 0.9 * rng.random(3))
        _fd_check(Or(shared, shared), name, 0.05 + 0.9 * rng.random(2))
        # NNF of nested equivalences shares each operand between two parents
        _fd_check(to_nnf(_parse("A <-> (B <-> C)")), name, 0.05 + 0.9 * rng.random(3))


def test_deep_alternating_formula_value_and_grad():
    # x1 & (x2 | (x3 & (x4 | ...))), 3000 variables deep, built in a loop
    n = 3000
    f = Var(n)
    for i in range(n - 1, 0, -1):
        f = And(Var(i), f) if i % 2 else Or(Var(i), f)
    nnf = to_nnf(f)
    cnf = to_cnf(nnf)
    # the top AND and the OR under it become clauses; the other n - 3
    # connectives get an auxiliary and three definition clauses each
    assert cnf.num_vars == n + n - 3
    assert len(cnf.clauses) == 2 + 3 * (n - 3)
    # scores near 1 under AND and near 0 under OR keep the adjoints above
    # underflow all the way down
    rng = np.random.default_rng(5)
    odd = np.arange(1, n + 1) % 2 == 1
    x = np.where(odd, rng.uniform(0.998, 1.0, (2, n)), rng.uniform(0.0, 0.002, (2, n)))
    # closed form, innermost first: the value below each connective
    below = [None] * (n + 1)
    below[n] = x[:, n - 1]
    for i in range(n - 1, 0, -1):
        xi, v = x[:, i - 1], below[i + 1]
        below[i] = xi * v if i % 2 else xi + v - xi * v
    want = np.zeros_like(x)
    adj = np.ones(2)
    for i in range(1, n):
        xi, v = x[:, i - 1], below[i + 1]
        want[:, i - 1] = adj * (v if i % 2 else 1.0 - v)
        adj = adj * (xi if i % 2 else 1.0 - xi)
    want[:, n - 1] = adj
    np.testing.assert_allclose(evaluate_fuzzy(nnf, "fuzzy_product", x), below[1], rtol=1e-12)
    val, grad = fuzzy_value_and_grad(nnf, "fuzzy_product", x)
    np.testing.assert_allclose(val, below[1], rtol=1e-12)
    assert np.all(grad != 0.0)
    np.testing.assert_allclose(grad, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("scores", [np.full((4, 2), 0.5), np.full(2, 0.5), np.float64(0.5)])
def test_fuzzy_rejects_too_few_score_columns(scores):
    f = to_nnf(_parse("A & (B | ~C)"))
    for fn in (evaluate_fuzzy, fuzzy_value_and_grad):
        width = scores.shape[-1] if scores.ndim else 0
        with pytest.raises(ValueError, match=f"up to id 3, but the scores have {width} columns"):
            fn(f, "fuzzy_product", scores)


def test_grad_golden_product():
    f = to_nnf(_parse("A & B", ("A", "B")))
    val, grad = fuzzy_value_and_grad(f, "fuzzy_product", np.array([0.3, 0.6]))
    assert float(val) == pytest.approx(0.18)
    assert grad == pytest.approx([0.6, 0.3])


def test_grad_tie_takes_first_argument():
    f = to_nnf(_parse("A & B", ("A", "B")))
    _, grad = fuzzy_value_and_grad(f, "fuzzy_godel", np.array([0.4, 0.4]))
    assert grad == pytest.approx([1.0, 0.0])
    _, grad = fuzzy_value_and_grad(f, "fuzzy_lukasiewicz", np.array([0.5, 0.5]))
    assert grad == pytest.approx([0.0, 0.0])  # clamp boundary counts as inactive


def test_grad_batched_shape():
    f = to_nnf(_parse("A | B", ("A", "B")))
    scores = np.full((3, 2, 2), 0.5)
    val, grad = fuzzy_value_and_grad(f, "fuzzy_product", scores)
    assert val.shape == (3, 2)
    assert grad.shape == (3, 2, 2)
    assert grad == pytest.approx(np.full((3, 2, 2), 0.5))


def test_grad_requires_gradient_rules():
    """A user table has no gradient rules, so its structure is not
    differentiable (test_circuit_safety_flags checks the built-in families)."""
    s = fuzzy_structure_from_ops("mine", {"not": lambda x: 1 - x,
                                          "and": lambda x, y: x * y})
    assert not s.differentiable
    f = to_nnf(_parse("A", ("A",)))
    with pytest.raises(StructureError, match="no gradient rules"):
        fuzzy_value_and_grad(f, s, np.array([0.5]))


# ---------------------------------------------------------------------------
# Custom fuzzy structures


def test_from_ops_de_morgan_completion():
    s = fuzzy_structure_from_ops("mine", {"not": lambda x: 1 - x,
                                          "and": lambda x, y: x * y})
    assert s.fuzzy.disj(0.3, 0.4) == pytest.approx(0.58)
    assert s.name == "mine"
    assert not s.circuit_safe


def test_from_ops_explicit_or_wins():
    s = fuzzy_structure_from_ops("maxor", {
        "not": lambda x: 1 - x,
        "and": lambda x, y: x * y,
        "or": lambda x, y: max(x, y)})
    assert s.fuzzy.disj(0.3, 0.4) == pytest.approx(0.4)


@pytest.mark.parametrize("missing", ["not", "and"])
def test_from_ops_requires_core_connectives(missing):
    ops = {"not": lambda x: 1 - x, "and": lambda x, y: x * y}
    del ops[missing]
    with pytest.raises(StructureError, match=repr(missing)):
        fuzzy_structure_from_ops("bad", ops)


# ---------------------------------------------------------------------------
# Transform table


def test_transform_table_is_exactly_six_pairs():
    assert transform_pairs() == frozenset({
        ("probability", "log_probability"),
        ("log_probability", "probability"),
        ("boolean", "probability"),
        ("boolean", "fuzzy_product"),
        ("boolean", "fuzzy_godel"),
        ("boolean", "fuzzy_lukasiewicz"),
    })


def test_prob_log_round_trip():
    vals = np.array([1.0, 0.5, 1e-300, 0.0])
    logs = transform(vals, "probability", "log")
    assert logs[3] == -np.inf
    back = transform(logs, "log", "probability")
    assert back == pytest.approx(vals, rel=1e-12)


def test_boolean_embeds():
    out = transform([0.0, 1.0], "boolean", "probability")
    assert out == pytest.approx([0.0, 1.0])
    assert transform([1.0], "boolean", "fuzzy_godel") == pytest.approx([1.0])


def test_boolean_embed_validates():
    with pytest.raises(StructureError, match="exactly 0 or 1"):
        transform([0.5], "boolean", "probability")


@pytest.mark.parametrize("frm,to", [
    ("probability", "probability"),       # identity pairs are not listed
    ("fuzzy_product", "probability"),     # fuzzy values never convert out
    ("fuzzy_godel", "fuzzy_product"),
    ("probability", "boolean"),           # thresholding is a modeling choice
    ("log_probability", "boolean"),
])
def test_transform_rejects_unlisted_pairs(frm, to):
    with pytest.raises(IncompatibleStructures) as exc:
        transform([0.5], frm, to)
    assert frm in str(exc.value) and to in str(exc.value)
