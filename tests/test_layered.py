"""Layered batched evaluation and its gradients against reference paths."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nesycirc.compiler import circuit_from_text, compile_cnf, smooth
from nesycirc.errors import CarrierError, CircuitError, StructureError
from nesycirc.formula import CNF, brute_force_wmc, eval_assignment, parse_dimacs
from nesycirc.layered import (LeafBatch, backward, evaluate,
                              evaluate_recursive, layer_summary, layerize)

from test_formula import EX1, cnfs


@pytest.fixture()
def ex1_layered():
    cnf = parse_dimacs(EX1)
    c = smooth(compile_cnf(cnf))
    return cnf, c, layerize(c)


def _rows(rng, n, b=4, lo=0.0, hi=1.0):
    return lo + (hi - lo) * rng.random((b, n))


# ---------------------------------------------------------------------------
# Layer structure


def test_layer_order_and_kinds(ex1_layered):
    _, _, lc = ex1_layered
    assert lc.layers[0].kind == "LEAF"
    kinds = {layer.kind for layer in lc.layers}
    assert kinds <= {"LEAF", "PROD", "SUM"}
    # within a depth level products come before sums, and the root is last
    assert lc.root_slot == lc.n_slots - 1
    assert "slots" in layer_summary(lc)


def test_layerize_requires_smoothness():
    c = compile_cnf(parse_dimacs(EX1))  # not smoothed
    with pytest.raises(CircuitError, match="smooth"):
        layerize(c)


# ---------------------------------------------------------------------------
# Forward evaluation


def test_evaluate_example(ex1_layered):
    cnf, _, lc = ex1_layered
    batch = LeafBatch.from_probabilities([[0.5, 0.5, 0.5], [0.9, 0.2, 0.1]])
    out = evaluate(lc, batch)
    assert out == pytest.approx([0.625, 0.272])


def test_log_matches_probability(ex1_layered):
    _, _, lc = ex1_layered
    rng = np.random.default_rng(3)
    batch = LeafBatch.from_probabilities(_rows(rng, 3))
    assert np.exp(evaluate(lc, batch, "log")) == pytest.approx(
        evaluate(lc, batch, "probability"), rel=1e-12)


def test_log_of_zero_mass_row(ex1_layered):
    _, _, lc = ex1_layered
    batch = LeafBatch.from_probabilities([[1.0, 0.0, 1.0]])
    assert evaluate(lc, batch, "log")[0] == -np.inf


@given(cnfs(), st.integers(0, 2 ** 32 - 1))
def test_layered_equals_recursive(cnf, seed):
    c = smooth(compile_cnf(cnf))
    lc = layerize(c)
    rng = np.random.default_rng(seed)
    batch = LeafBatch.from_probabilities(_rows(rng, cnf.num_vars, b=3))
    for s in ("probability", "log"):
        a = evaluate(lc, batch, s)
        b = evaluate_recursive(c, batch, s)
        mask = np.isfinite(a) | np.isfinite(b)
        assert np.allclose(a[mask], b[mask], atol=1e-12, rtol=0.0)
        assert np.array_equal(np.isneginf(a), np.isneginf(b))


@given(cnfs(max_vars=5), st.integers(0, 2 ** 32 - 1))
def test_boolean_agrees_with_assignment_evaluation(cnf, seed):
    c = smooth(compile_cnf(cnf))
    lc = layerize(c)
    rng = np.random.default_rng(seed)
    rows = (rng.random((4, cnf.num_vars)) < 0.5).astype(float)
    out = evaluate(lc, LeafBatch.from_probabilities(rows), "boolean")
    for row, val in zip(rows, out):
        want = eval_assignment(cnf, [bool(x) for x in row])
        assert val == (1.0 if want else 0.0)


@pytest.mark.parametrize("layered", [True, False], ids=["evaluate", "evaluate_recursive"])
def test_boolean_rejects_fractional_weights(ex1_layered, layered):
    _, c, lc = ex1_layered
    batch = LeafBatch.from_probabilities([[1.0, 0.0, 1.0], [1.0, 0.5, 1.0]])
    with pytest.raises(CarrierError, match=r"batch row 1, variable 2: positive weight "
                                           r"0\.5 is not a boolean 0/1"):
        if layered:
            evaluate(lc, batch, "boolean")
        else:
            evaluate_recursive(c, batch, "boolean")


def test_fuzzy_structures_refuse_circuits(ex1_layered):
    _, _, lc = ex1_layered
    batch = LeafBatch.from_probabilities([[0.5, 0.5, 0.5]])
    with pytest.raises(StructureError, match="formula"):
        evaluate(lc, batch, "fuzzy_product")


def test_batch_variable_count_must_match(ex1_layered):
    _, _, lc = ex1_layered
    batch = LeafBatch.from_probabilities([[0.5, 0.5]])
    with pytest.raises(ValueError, match="variables"):
        evaluate(lc, batch)


# ---------------------------------------------------------------------------
# LeafBatch construction


def test_from_probabilities_validates_range():
    with pytest.raises(CarrierError, match=r"row 1, variable 2"):
        LeafBatch.from_probabilities([[0.2, 0.3], [0.2, 1.5]])


def test_from_probabilities_handles_auxiliaries():
    batch = LeafBatch.from_probabilities([[0.5, 0.5]], num_vars=3, aux_vars={3})
    assert batch.pos.shape == (1, 3)
    assert batch.pos[0, 2] == batch.neg[0, 2] == 1.0
    with pytest.raises(ValueError, match="top of the id range"):
        LeafBatch.from_probabilities([[0.5, 0.5]], num_vars=3, aux_vars={1})


def test_from_weights_rejects_negative_and_nan():
    with pytest.raises(CarrierError, match="not >= 0"):
        LeafBatch.from_weights([[1.0, -0.5]], [[1.0, 1.0]])
    with pytest.raises(CarrierError, match="not >= 0"):
        LeafBatch.from_weights([[1.0, float("nan")]], [[1.0, 1.0]])


def test_from_weights_supports_unnormalized_counts(ex1_layered):
    cnf, _, lc = ex1_layered
    ones = np.ones((1, 3))
    out = evaluate(lc, LeafBatch.from_weights(ones, ones))
    assert out[0] == pytest.approx(5.0)  # unweighted model count


# ---------------------------------------------------------------------------
# Gradients


def _central_diff(lc, row, structure, h=1e-5):
    grads = np.empty_like(row)
    for j in range(row.size):
        hi, lo = row.copy(), row.copy()
        hi[j] += h
        lo[j] -= h
        up = evaluate(lc, LeafBatch.from_probabilities(hi[None, :]), structure)[0]
        dn = evaluate(lc, LeafBatch.from_probabilities(lo[None, :]), structure)[0]
        grads[j] = (up - dn) / (2.0 * h)
    return grads


def test_backward_example(ex1_layered):
    _, _, lc = ex1_layered
    batch = LeafBatch.from_probabilities([[0.5, 0.5, 0.5]])
    assert backward(lc, batch)[0] == pytest.approx([-0.25, 0.75, -0.25])
    assert backward(lc, batch, "log")[0] == pytest.approx([-0.4, 1.2, -0.4])


@given(cnfs(max_vars=5, max_clauses=6), st.integers(0, 2 ** 32 - 1))
def test_backward_matches_central_differences(cnf, seed):
    c = smooth(compile_cnf(cnf))
    lc = layerize(c)
    rng = np.random.default_rng(seed)
    row = _rows(rng, cnf.num_vars, b=1, lo=0.1, hi=0.9)[0]
    batch = LeafBatch.from_probabilities(row[None, :])
    if evaluate(lc, batch)[0] < 1e-9:
        return  # no finite log-gradient on (near) zero-mass rows
    for structure in ("probability", "log"):
        g = backward(lc, batch, structure)[0]
        fd = _central_diff(lc, row, structure)
        assert np.allclose(g, fd, atol=1e-7, rtol=1e-6)


# x1 & x2 | ~x1 & (x2 | ~x2), with a second LIT 2 node in the false branch:
# WMC = p1 p2 + 1 - p1, so dWMC/dp = (p2 - 1, p1)
DUPLICATE_LEAVES = """nnfc 1
nvars 2
aux
nnodes 9
root 8
node 0 LIT 1
node 1 LIT 2
node 2 AND 0 1
node 3 LIT -1
node 4 LIT 2
node 5 LIT -2
node 6 OR 2 4 5
node 7 AND 3 6
node 8 OR 1 2 7
"""


@pytest.mark.parametrize("structure", ["probability", "log"])
def test_backward_sums_duplicate_leaves(structure):
    lc = layerize(circuit_from_text(DUPLICATE_LEAVES))
    rows = np.array([[0.3, 0.6], [0.8, 0.1], [0.5, 0.5]])
    g = backward(lc, LeafBatch.from_probabilities(rows), structure)
    assert g.shape == rows.shape
    for row, got in zip(rows, g):
        assert np.allclose(got, _central_diff(lc, row, structure), atol=1e-7, rtol=1e-6)
    if structure == "probability":
        assert np.allclose(g, np.stack([rows[:, 1] - 1, rows[:, 0]], axis=1))


def test_backward_at_corner_is_finite(ex1_layered):
    _, _, lc = ex1_layered
    batch = LeafBatch.from_probabilities([[1.0, 0.0, 1.0]])  # zero-mass corner
    g = backward(lc, batch, "probability")
    assert np.all(np.isfinite(g))


def test_backward_requires_probability_parameterization(ex1_layered):
    _, _, lc = ex1_layered
    ones = np.ones((1, 3))
    batch = LeafBatch.from_weights(ones, ones)
    with pytest.raises(ValueError, match="from_probabilities"):
        backward(lc, batch)


def test_backward_refuses_boolean(ex1_layered):
    _, _, lc = ex1_layered
    batch = LeafBatch.from_probabilities([[1.0, 0.0, 1.0]])
    with pytest.raises(StructureError, match="differentiable"):
        backward(lc, batch, "boolean")


def test_gradients_skip_auxiliaries():
    """Gradient columns cover only the non-auxiliary inputs."""
    cnf = CNF(3, ((1, 2), (-3, 1), (3, -1)), aux_vars={3})
    lc = layerize(smooth(compile_cnf(cnf)))
    batch = LeafBatch.from_probabilities([[0.3, 0.7]], num_vars=3, aux_vars={3})
    g = backward(lc, batch)
    assert g.shape == (1, 2)
    fd = np.empty(2)
    for j, h in ((0, 1e-5), (1, 1e-5)):
        hi = np.array([0.3, 0.7])
        lo = hi.copy()
        hi[j] += h
        lo[j] -= h
        up = evaluate(lc, LeafBatch.from_probabilities(hi[None], num_vars=3,
                                                       aux_vars={3}))[0]
        dn = evaluate(lc, LeafBatch.from_probabilities(lo[None], num_vars=3,
                                                       aux_vars={3}))[0]
        fd[j] = (up - dn) / (2 * h)
    assert g[0] == pytest.approx(fd, rel=1e-6)
