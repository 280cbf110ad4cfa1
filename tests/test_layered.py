"""Layered batched evaluation and its gradients against reference paths."""

import ast
import dataclasses
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesycirc import cli, layered
from nesycirc.compiler import circuit_from_text, compile_cnf, smooth
from nesycirc.errors import CarrierError, CircuitError, StructureError
from nesycirc.formula import (CNF, brute_force_wmc, eval_assignment, parse_dimacs, to_cnf,
                              to_nnf)
from nesycirc.factory import ModuleFactory
from nesycirc.layered import (BUCKETED_FROM, LeafBatch, _forward, _in_range, _reduce, _tiles,
                              _value_and_grad, backward, evaluate, evaluate_recursive,
                              layer_summary, layerize)
from nesycirc.semantics import get_structure
from nesycirc.tasks import build_addition, semantic_loss_and_grad

from test_compiler import UNSMOOTH
from test_formula import EX1, cnfs, formulas


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
    assert lc.root_slots.tolist() == [lc.n_slots - 1]
    # the first comment line of a compiled circuit file
    assert layer_summary(lc).splitlines()[0] == \
        f"slots {lc.n_slots} layers {len(lc.layers)} root_slot {lc.n_slots - 1}"


def test_layerize_requires_smoothness():
    c = circuit_from_text(UNSMOOTH)
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
    # one leaf slot per literal or constant, which compile_cnf memoizes, and
    # per literal of a group that CAT leaves read
    assert np.all(np.diff(lc.leaf_rows) > 0)
    assert lc.n_leaves == sum(node.kind in ("LIT", "TRUE", "FALSE") for node in c.nodes) \
        + 2 * sum(map(len, c.groups))
    rng = np.random.default_rng(seed)
    batch = LeafBatch.from_probabilities(_rows(rng, cnf.num_vars, b=3))
    for s in ("probability", "log"):
        a = evaluate(lc, batch, s)
        b = evaluate_recursive(c, batch, s)
        mask = np.isfinite(a) | np.isfinite(b)
        assert np.allclose(a[mask], b[mask], atol=1e-12, rtol=0.0)
        assert np.array_equal(np.isneginf(a), np.isneginf(b))


# one batch on the merged layout, one on the per-bucket layout
LAYOUT_BATCHES = pytest.mark.parametrize(
    "b", [BUCKETED_FROM - 1, 2 * BUCKETED_FROM], ids=["merged", "bucketed"])


@LAYOUT_BATCHES
@given(cnfs(), st.integers(0, 2 ** 32 - 1))
def test_layered_equals_recursive_on_both_layouts(b, cnf, seed):
    c = smooth(compile_cnf(cnf))
    lc = layerize(c)
    rng = np.random.default_rng(seed)
    batch = LeafBatch.from_probabilities(_rows(rng, cnf.num_vars, b=b))
    for s in ("probability", "log"):
        a = evaluate(lc, batch, s)
        r = evaluate_recursive(c, batch, s)
        mask = np.isfinite(a) | np.isfinite(r)
        assert np.allclose(a[mask], r[mask], atol=1e-12, rtol=0.0)
        assert np.array_equal(np.isneginf(a), np.isneginf(r))


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


def test_batch_auxiliaries_must_match():
    """A batch weighting the circuit's auxiliary as an input is refused."""
    cnf = CNF(3, ((1, 2), (-3, 1), (3, -1)), aux_vars={3})
    c = compile_cnf(cnf)
    lc = layerize(c)
    batch = LeafBatch.from_probabilities([[0.3, 0.6, 0.9]], num_vars=3)
    for fn in (evaluate, backward):
        with pytest.raises(ValueError, match="auxiliary"):
            fn(lc, batch)
    with pytest.raises(ValueError, match="auxiliary"):
        evaluate_recursive(c, batch)
    batch = LeafBatch.from_probabilities([[0.3, 0.6]], num_vars=3, aux_vars={3})
    assert evaluate(lc, batch)[0] == pytest.approx(brute_force_wmc(cnf, [0.3, 0.6]), rel=1e-12)


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


def test_from_weights_checks_the_auxiliary_range():
    with pytest.raises(ValueError, match="top of the id range"):
        LeafBatch.from_weights([[1.0, 1.0]], [[1.0, 1.0]], aux_vars={5})
    assert LeafBatch.from_weights([[1.0, 1.0]], [[1.0, 1.0]], aux_vars={2}).aux_vars == {2}


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


# The same function with TRUE under two ANDs as well: x1 & x2 & TRUE |
# ~x1 & (x2 & TRUE | ~x2). Both LIT 2 nodes share a leaf slot, and so do
# both TRUE nodes.
DUPLICATE_LEAVES_AND_CONSTANTS = """nnfc 1
nvars 2
aux
nnodes 12
root 11
node 0 LIT 1
node 1 LIT 2
node 2 TRUE
node 3 AND 0 1 2
node 4 LIT -1
node 5 LIT 2
node 6 TRUE
node 7 AND 5 6
node 8 LIT -2
node 9 OR 2 7 8
node 10 AND 4 9
node 11 OR 1 3 10
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


def _corner_rows(rng, b, n):
    """Rows with about 30% of the entries 0 and 30% of them 1."""
    u = rng.random((b, n))
    return np.where(u < 0.3, 0.0, np.where(u < 0.6, 1.0, rng.random((b, n))))


def _mixed_rows(rng, b, n):
    """Corner rows (see _corner_rows), with weights near 1e-200 on every
    input in every fourth row from the second on: a log forward runs the
    linear pass on the rows whose bounds stay in range, zero weights
    included, and the log-space pass on the tiny rows of two or more
    inputs."""
    rows = _corner_rows(rng, b, n)
    rows[1::4] = 10.0 ** -rng.uniform(190.0, 210.0, rows[1::4].shape)
    return rows


def _log_space():
    """The log structure with every forward pass kept in log space."""
    s = get_structure("log")
    return dataclasses.replace(s, semiring=dataclasses.replace(s.semiring, image_of=None))


def _bits(x):
    return np.asarray(x, np.float64).view(np.uint64)


def _models(cnf):
    return np.array([bits for bits in product((0.0, 1.0), repeat=cnf.num_vars)
                     if eval_assignment(cnf, [bool(x) for x in bits])]).reshape(-1, cnf.num_vars)


def _wmc(models, rows):
    return np.where(models[None], rows[:, None], 1.0 - rows[:, None]).prod(-1).sum(-1)


@LAYOUT_BATCHES
@given(cnfs(), st.integers(0, 2 ** 32 - 1))
def test_gradients_match_exact_oracle_at_corners(b, cnf, seed):
    """WMC is affine in each p_j, so dWMC/dp_j = WMC(p_j=1) - WMC(p_j=0)
    holds exactly, at corners too; the log gradient is that over WMC."""
    lc = layerize(smooth(compile_cnf(cnf)))
    rows = _corner_rows(np.random.default_rng(seed), b, cnf.num_vars)
    batch = LeafBatch.from_probabilities(rows)
    models = _models(cnf)
    wmc = _wmc(models, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # zero counts here are exact: no underflow warning
        grad, log_grad = backward(lc, batch), backward(lc, batch, "log")
    live = wmc > 0.0
    for j in range(cnf.num_vars):
        hi, lo = rows.copy(), rows.copy()
        hi[:, j], lo[:, j] = 1.0, 0.0
        want = _wmc(models, hi) - _wmc(models, lo)
        assert np.allclose(grad[:, j], want, rtol=0.0, atol=1e-13)
        assert np.allclose(log_grad[live, j], want[live] / wmc[live], rtol=1e-10, atol=1e-13)
    assert np.all(np.isfinite(grad))
    # a zero count has no log-gradient: NaN in every column; an
    # unsatisfiable formula compiles to a constant with no variable leaves
    if len(models):
        assert np.all(np.isnan(log_grad[~live]))
    else:
        assert np.all(log_grad == 0.0)


@LAYOUT_BATCHES
@pytest.mark.parametrize("clauses, p, grad", [
    (((1, 2),), (0.0, 0.0), (1.0, 1.0)),
    # a zero count over a finite leaf derivative, once +inf in column 0
    (((1,), (2,)), (0.0, 1.0), (1.0, 0.0)),
], ids=["x1|x2", "x1&x2"])
def test_zero_count_log_gradient_is_nan(b, clauses, p, grad):
    lc = layerize(compile_cnf(CNF(2, clauses)))
    batch = LeafBatch.from_probabilities(np.tile(p, (b, 1)))
    assert np.all(evaluate(lc, batch, "log") == -np.inf)
    assert np.all(np.isnan(backward(lc, batch, "log")))
    assert np.array_equal(backward(lc, batch), np.tile(grad, (b, 1)))


def test_log_gradient_survives_probability_underflow():
    """A 2500-variable implication chain at p = 0.3 has a weighted count
    of about exp(-891): zero in floating point, finite in log space."""
    n = 2500
    lc = layerize(compile_cnf(CNF(n, tuple((-i, i + 1) for i in range(1, n)))))
    row = np.full(n, 0.3)
    batch = LeafBatch.from_probabilities(row)
    with pytest.warns(RuntimeWarning, match="log_probability"):
        assert evaluate(lc, batch)[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_z = evaluate(lc, batch, "log")[0]
        g = backward(lc, batch, "log")[0]
    assert log_z == pytest.approx(-891.13, abs=0.01)
    assert np.all(np.isfinite(g))
    h = 1e-5
    for j in np.random.default_rng(0).choice(n, 12, replace=False):
        hi, lo = row.copy(), row.copy()
        hi[j] += h
        lo[j] -= h
        fd = (evaluate(lc, LeafBatch.from_probabilities(hi), "log")[0]
              - evaluate(lc, LeafBatch.from_probabilities(lo), "log")[0]) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-6)


def test_underflow_warning_names_the_rows():
    """Rows at p = 0 or 1 keep one model of the chain at weight one; the
    rows at p = 0.3 lose theirs to rounding, in the value and the gradient."""
    n = 2500
    lc = layerize(compile_cnf(CNF(n, tuple((-i, i + 1) for i in range(1, n)))))
    batch = LeafBatch.from_probabilities(np.array([[0.3], [1.0], [0.3], [0.0]]) * np.ones(n))
    for fn in (evaluate, backward):
        with pytest.warns(RuntimeWarning, match=r"2 batch row\(s\) \(0, 2\)"):
            fn(lc, batch)
    # across column tiles: one warning, rows numbered in the batch, pointing here
    b = 2 * max(BUCKETED_FROM, layered._TILE_BYTES // (8 * lc._bucketed.n_rows)) + 1
    assert len(_tiles(lc, b)) == 3
    p = np.where(np.arange(b) % 2, 1.0, 0.0)
    p[[0, -1]] = 0.3
    batch = LeafBatch.from_probabilities(p[:, None] * np.ones(n))
    for fn in (evaluate, backward):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn(lc, batch)
        assert [str(w.message).split(" whose")[0] for w in caught] == [
            f"the circuit value underflowed to zero in 2 batch row(s) (0, {b - 1})"]
        assert caught[0].filename == __file__


@pytest.mark.parametrize("clauses, p", [
    (((1,), (2,)), (0.0, 1.0)),  # a zero count at a corner: a leaf reads zero
    (((1,), (-1, 2), (-2,)), (0.5, 0.5)),  # unsatisfiable: the FALSE constant
], ids=["corner", "unsat"])
def test_exact_zero_counts_do_not_warn(clauses, p):
    lc = layerize(compile_cnf(CNF(2, clauses)))
    batch = LeafBatch.from_probabilities(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in ("probability", "log"):
            assert evaluate(lc, batch, s)[0] == (0.0 if s == "probability" else -np.inf)
            backward(lc, batch, s)
        assert evaluate(lc, LeafBatch.from_probabilities(np.round(p)), "boolean")[0] == 0.0


@LAYOUT_BATCHES
def test_duplicate_leaves_share_one_slot(b):
    c = circuit_from_text(DUPLICATE_LEAVES_AND_CONSTANTS)
    lc = layerize(c)
    # x1, x2, ~x1, ~x2 and TRUE
    assert lc.n_leaves == 5
    assert lc.leaf_rows.tolist() == [0, 1, 2, 3, 4]
    rng = np.random.default_rng(b)
    rows = _corner_rows(rng, b, 2)
    batch = LeafBatch.from_probabilities(rows)
    models = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    wmc = _wmc(models, rows)
    for s in ("probability", "log"):
        assert np.allclose(evaluate(lc, batch, s), evaluate_recursive(c, batch, s),
                           atol=1e-12, rtol=0.0)
    grad, log_grad = backward(lc, batch), backward(lc, batch, "log")
    live = wmc > 0.0
    for j in range(2):
        hi, lo = rows.copy(), rows.copy()
        hi[:, j], lo[:, j] = 1.0, 0.0
        want = _wmc(models, hi) - _wmc(models, lo)
        assert np.allclose(grad[:, j], want, rtol=0.0, atol=1e-13)
        assert np.allclose(log_grad[live, j], want[live] / wmc[live], rtol=1e-10, atol=1e-13)
    assert np.all(np.isnan(log_grad[~live]))
    inner = _rows(rng, 2, b=b, lo=0.1, hi=0.9)
    for s in ("probability", "log"):
        g = backward(lc, LeafBatch.from_probabilities(inner), s)
        for row, got in zip(inner, g):
            assert np.allclose(got, _central_diff(lc, row, s), atol=1e-7, rtol=1e-6)


@given(cnfs(), st.integers(0, 2 ** 32 - 1))
def test_layouts_agree_bitwise(cnf, seed):
    """The merged layout only adds identity pads, so values and gradients
    of a large batch equal those of its rows run in small batches."""
    lc = layerize(smooth(compile_cnf(cnf)))
    rows = _mixed_rows(np.random.default_rng(seed), 2 * BUCKETED_FROM, cnf.num_vars)
    whole = LeafBatch.from_probabilities(rows)
    parts = [LeafBatch.from_probabilities(rows[k:k + BUCKETED_FROM - 1])
             for k in range(0, len(rows), BUCKETED_FROM - 1)]
    for s in ("probability", "log"):
        for fn in (evaluate, backward):
            split = np.concatenate([fn(lc, part, s) for part in parts])
            assert np.array_equal(fn(lc, whole, s), split, equal_nan=True)


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


# ---------------------------------------------------------------------------
# Differential checks past the reach of cnfs()


@st.composite
def wide_cnfs(draw):
    """Shapes that ``cnfs()`` (6 variables, clauses of 4) never draws:
    implication chains of up to 40 variables, one clause of up to 14
    literals, Tseitin encodings (with auxiliaries) of formulas with ``->``
    and ``<->``, and unsatisfiable or empty CNFs."""
    shape = draw(st.sampled_from(["chain", "clause", "tseitin", "unsat", "empty"]))
    if shape == "chain":
        n = draw(st.integers(2, 40))
        units = draw(st.sampled_from([(), ((1,),), ((-n,),)]))
        return CNF(n, tuple((-v, v + 1) for v in range(1, n)) + units)
    if shape == "clause":
        n = draw(st.integers(1, 14))
        signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return CNF(n, (tuple(v if s else -v for v, s in enumerate(signs, 1)),))
    if shape == "tseitin":
        return to_cnf(to_nnf(draw(formulas(max_vars=6, max_depth=5))))
    n = draw(st.integers(1, 6))
    if shape == "empty":
        return CNF(n, ())
    v = draw(st.integers(1, n))
    return draw(st.sampled_from([CNF(n, ((v,), (-v,))), CNF(n, (), unsat=True)]))


@pytest.mark.parametrize("b", [1, 5, 20])
@settings(max_examples=40)
@given(wide_cnfs(), st.integers(0, 2 ** 32 - 1))
def test_wide_cnfs_agree_with_every_oracle(b, cnf, seed):
    c = compile_cnf(cnf)
    lc = layerize(c)
    rows = _corner_rows(np.random.default_rng(seed), b, cnf.n_inputs)
    batch = LeafBatch.from_probabilities(rows, num_vars=cnf.num_vars, aux_vars=cnf.aux_vars)
    wmc, log_wmc = evaluate(lc, batch), evaluate(lc, batch, "log")
    for s, got in (("probability", wmc), ("log", log_wmc)):
        want = evaluate_recursive(c, batch, s)
        mask = np.isfinite(got) | np.isfinite(want)
        assert np.allclose(got[mask], want[mask], atol=1e-12, rtol=0.0)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
    if cnf.n_inputs <= 14:
        for row, g in zip(rows, wmc):
            want = brute_force_wmc(cnf, row)
            assert g == want if want == 0.0 else abs(g - want) / want <= 1e-9
    assert np.allclose(wmc, np.exp(log_wmc), rtol=1e-10, atol=0.0)
    live = wmc > 0.0
    grad, log_grad = backward(lc, batch), backward(lc, batch, "log")
    assert np.allclose(log_grad[live], grad[live] / wmc[live, None], rtol=1e-8, atol=1e-12)


# ---------------------------------------------------------------------------
# Layouts built on first use, and column tiles


def test_layouts_are_built_on_first_use(monkeypatch, tmp_path):
    built, real = [], layered._layout

    def counted(lc, merged):
        built.append(merged)
        return real(lc, merged)

    monkeypatch.setattr(layered, "_layout", counted)
    lc = layerize(smooth(compile_cnf(parse_dimacs(EX1))))
    layer_summary(lc)
    src = tmp_path / "ex1.cnf"
    src.write_text(EX1)
    assert cli.main(["compile", "--dimacs", str(src), "--out", str(tmp_path / "ex1.nnf")]) == 0
    assert built == []
    batch = LeafBatch.from_probabilities([[0.5, 0.5, 0.5]])
    evaluate(lc, batch)
    backward(lc, batch)
    assert built == [True]
    evaluate(lc, LeafBatch.from_probabilities(np.full((BUCKETED_FROM, 3), 0.5)))
    assert built == [True, False]
    with pytest.raises(dataclasses.FrozenInstanceError):
        lc._merged = None


def _sum_999():
    return ModuleFactory().module_from_dimacs(build_addition(3, 999).cnf)


def test_leaf_batch_input_checks():
    with pytest.raises(ValueError, match="must be 1-D or 2-D"):
        LeafBatch.from_probabilities(np.full((1, 2, 3), 0.5))
    with pytest.raises(ValueError, match="2 probability columns plus 1 auxiliaries "
                                         "do not cover 4 variables"):
        LeafBatch.from_probabilities([0.5, 0.5], num_vars=4, aux_vars={3})
    batch = LeafBatch.from_weights([0.25, 1.0], [0.75, 0.5])
    assert batch.literals.shape == (6, 1) and batch.num_vars == 2
    assert np.array_equal(batch.pos, [[0.25, 1.0]]) and np.array_equal(batch.neg, [[0.75, 0.5]])
    with pytest.raises(ValueError, match="must share a 2-D shape"):
        LeafBatch.from_weights([[0.5, 0.5]], [[0.5, 0.5, 0.5]])


def test_literal_table_is_leaf_major():
    """``LeafBatch.literals`` is (2 * num_vars + 2, batch), C-contiguous and
    read-only: literal v in row v - 1, -v in row num_vars + v - 1, then
    TRUE and FALSE, one column per batch row. ``pos``, ``neg``, ``probs``
    and ``backward``'s output keep their (batch, ...) shapes and values.
    The circuit is x1 | x2 with the auxiliary x3 = x1, so its count is
    1 - (1 - p1)(1 - p2) and its gradient (1 - p2, 1 - p1)."""
    rows = np.array([[0.1, 0.7], [0.4, 0.0], [1.0, 0.25]])
    wp, wn = np.array([[0.5, 2.0, 0.0], [1.5, 0.25, 3.0]]), np.array([[1.0, 0.0, 4.0],
                                                                       [0.5, 1.0, 1.0]])
    cases = [  # batch, positive and negative weights per (row, variable), probs
        (LeafBatch.from_probabilities(rows, aux_vars={3}), np.c_[rows, np.ones(3)],
         np.c_[1.0 - rows, np.ones(3)], rows),
        (LeafBatch.from_probabilities(rows[0], aux_vars={3}), np.c_[rows[:1], [1.0]],
         np.c_[1.0 - rows[:1], [1.0]], rows[:1]),
        (LeafBatch.from_weights(wp, wn), wp, wn, None),
    ]
    for batch, pos, neg, probs in cases:
        (b, nv), table = pos.shape, batch.literals
        assert table.shape == (2 * nv + 2, b) and batch.batch_size == b
        assert table.flags.c_contiguous and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5
        for v in range(1, nv + 1):
            assert np.array_equal(table[v - 1], pos[:, v - 1])
            assert np.array_equal(table[nv + v - 1], neg[:, v - 1])
        assert np.array_equal(table[-2:], [[1.0] * b, [0.0] * b])
        assert batch.pos.shape == batch.neg.shape == (b, nv)
        assert np.array_equal(batch.pos, pos) and np.array_equal(batch.neg, neg)
        assert not batch.pos.flags.writeable and not batch.neg.flags.writeable
        assert (batch.probs is None) == (probs is None)
        if probs is not None:
            assert batch.probs.shape == (b, 2) and np.array_equal(batch.probs, probs)
            lc = layerize(compile_cnf(CNF(3, ((1, 2), (-3, 1), (3, -1)), aux_vars={3})))
            p1, p2 = probs.T
            assert np.allclose(evaluate(lc, batch), 1.0 - (1.0 - p1) * (1.0 - p2))
            grad = backward(lc, batch)
            assert grad.shape == (b, 2)
            assert np.allclose(grad, np.c_[1.0 - p2, 1.0 - p1], rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError, match=r"has shape \(6, batch\), got \(1, 6\)"):
        LeafBatch(num_vars=2, aux_vars=frozenset(), literals=np.ones((1, 6)))


def test_reverse_pass_buffers_take_the_semirings_dtype():
    """An exact copy of the linear semiring, on Fractions in object
    buffers: the reverse pass on sum-99 keeps every leaf adjoint a
    Fraction, and the gradient they give is backward's to rounding."""
    exact = dataclasses.replace(get_structure("probability").semiring, zero=Fraction(0),
                                one=Fraction(1), leaf=np.frompyfunc(Fraction, 1, 1),
                                dtype=object)
    lc = ModuleFactory().module_from_dimacs(build_addition(2, 99).cnf).backend.layered
    rows = np.random.default_rng(99).uniform(0.05, 0.95, (3, lc.n_inputs))
    batch = LeafBatch.from_probabilities(rows, num_vars=lc.num_vars, aux_vars=lc.aux_vars)
    leaf_adj = layered._reverse(lc, _forward(lc, batch.literals, exact), exact)[:lc.n_leaves]
    assert all(isinstance(a, Fraction) for a in leaf_adj.flat)
    assert np.allclose(layered._leaf_grad(lc, leaf_adj), backward(lc, batch),
                       rtol=1e-14, atol=0.0)


def _with_budget(budget, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layered, "_TILE_BYTES", budget)
        return fn(*args)


def _all_outputs(m, rows):
    """Every output of the layered calls, as uint64 bits."""
    lc = m.backend.layered
    batch = LeafBatch.from_probabilities(rows, num_vars=lc.num_vars, aux_vars=lc.aux_vars)
    flags = LeafBatch.from_probabilities(np.round(rows), num_vars=lc.num_vars,
                                         aux_vars=lc.aux_vars)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outs = [evaluate(lc, flags, "boolean"), *semantic_loss_and_grad(m, batch)]
        for s in ("probability", "log"):
            outs += [evaluate(lc, batch, s), backward(lc, batch, s)]
    return [np.asarray(out, np.float64).view(np.uint64) for out in outs]


# 47 rows in tiles of at most BUCKETED_FROM: 15, 16 and 16, so the merged
# layout runs beside the per-bucket one
TILED_ROWS = 47


def _assert_tiles_agree(m, rows):
    lc = m.backend.layered
    assert [t.stop - t.start for t in _with_budget(1, _tiles, lc, TILED_ROWS)] == [15, 16, 16]
    one_tile = _with_budget(1 << 62, _all_outputs, m, rows)
    for a, b in zip(one_tile, _with_budget(1, _all_outputs, m, rows)):
        assert np.array_equal(a, b)


@settings(max_examples=30)
@given(wide_cnfs(), st.integers(0, 2 ** 32 - 1))
def test_tiles_agree_bitwise_with_one_tile(cnf, seed):
    """Every reduction runs along the slot axis, so a row's values and
    gradients do not depend on the tile it runs in."""
    m = ModuleFactory().module_from_dimacs(cnf)
    _assert_tiles_agree(m, _mixed_rows(np.random.default_rng(seed), TILED_ROWS, cnf.n_inputs))


def test_tiles_agree_bitwise_on_sum_999():
    m = _sum_999()
    rng = np.random.default_rng(18)
    rows = _rows(rng, 60, b=TILED_ROWS, lo=0.02, hi=0.98)
    rows[:5] = np.round(rows[:5])  # corners: zero counts and NaN log gradients
    rows[5::4] = 10.0 ** -rng.uniform(190.0, 210.0, rows[5::4].shape)  # out of range
    _assert_tiles_agree(m, rows)


# ---------------------------------------------------------------------------
# Several circuits in one layering


@st.composite
def cnf_pairs(draw):
    """Two CNFs from ``cnfs()`` over the same inputs. Each gets up to two
    auxiliaries that copy an input literal, and may be unsatisfiable."""
    first, second = draw(cnfs()), draw(cnfs())
    n = max(first.num_vars, second.num_vars)
    pair = []
    for cnf in (first, second):
        copied = draw(st.lists(st.integers(1, n), max_size=2))
        signs = draw(st.lists(st.booleans(), min_size=len(copied), max_size=len(copied)))
        aux = range(n + 1, n + len(copied) + 1)
        if draw(st.integers(0, 3)) == 0:
            pair.append(CNF(n + len(copied), (), unsat=True, aux_vars=aux))
            continue
        links = tuple(clause for a, v, pos in zip(aux, copied, signs)
                      for clause in ((-a, v if pos else -v), (a, -v if pos else v)))
        pair.append(CNF(n + len(copied), cnf.clauses + links, aux_vars=aux))
    return pair


@settings(max_examples=60)
@given(cnf_pairs(), st.integers(0, 2 ** 32 - 1))
def test_multi_root_values_equal_each_circuit_alone(pair, seed):
    """Shared leaf and auxiliary columns change no bit of any root's value,
    in one tile or in several."""
    circuits = [compile_cnf(cnf) for cnf in pair]
    fused = layerize(*circuits)
    alone = [layerize(c) for c in circuits]
    assert fused.num_vars == max(c.num_vars for c in circuits)
    rows = _mixed_rows(np.random.default_rng(seed), TILED_ROWS, pair[0].n_inputs)
    assert len(_with_budget(1, _tiles, fused, TILED_ROWS)) == 3
    for s, r in (("probability", rows), ("log", rows), ("boolean", np.round(rows))):
        want = [evaluate(lc, LeafBatch.from_probabilities(
            r, num_vars=lc.num_vars, aux_vars=lc.aux_vars), s) for lc in alone]
        batch = LeafBatch.from_probabilities(r, num_vars=fused.num_vars,
                                             aux_vars=fused.aux_vars)
        for budget in (1, 1 << 62):
            got = _with_budget(budget, evaluate, fused, batch, s)
            assert got.shape == (TILED_ROWS, 2)
            for k in range(2):
                assert np.array_equal(got[:, k].view(np.uint64), want[k].view(np.uint64))


def test_multi_root_layering_shares_leaves_and_warns_per_root():
    units = compile_cnf(CNF(70, tuple((v,) for v in range(1, 71))))
    few = compile_cnf(CNF(70, tuple((v,) for v in range(1, 31))))
    lc = layerize(units, few)
    # `few` pads variables 31..70 with both literals, so it has every leaf of `units`
    assert lc.n_leaves == layerize(few).n_leaves == 70 + 40
    assert layer_summary(lc).splitlines()[0] == \
        f"slots {lc.n_slots} layers {len(lc.layers)} root_slots " \
        + " ".join(map(str, lc.root_slots.tolist()))
    # 1e-5 ** 70 underflows, 1e-5 ** 30 does not; in the last row the
    # literal -70 weighs zero, which `units` does not read
    rows = np.full((4, 70), [[1e-5], [0.5], [1e-5], [1e-5]])
    rows[3, 69] = 1.0
    batch = LeafBatch.from_probabilities(rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = evaluate(lc, batch)
    assert [str(w.message).split(" whose")[0] for w in caught] == [
        "the circuit value of root 0 underflowed to zero in 3 batch row(s) (0, 2, 3)"]
    assert np.array_equal(values[:, 1], evaluate(layerize(few), batch))
    assert evaluate(lc, LeafBatch.from_probabilities(np.empty((0, 70)))).shape == (0, 2)
    with pytest.raises(ValueError, match="backward takes a circuit with one root, this one has 2"):
        backward(lc, batch)
    with pytest.raises(ValueError, match=r"must share their inputs; they have \[3, 70\]"):
        layerize(units, compile_cnf(CNF(4, ((1, 2),), aux_vars={4})))
    with pytest.raises(ValueError, match="at least one circuit"):
        layerize()


# ---------------------------------------------------------------------------
# Log forwards on the linear semiring


def test_in_range_rows_take_the_log_of_the_linear_pass():
    """On rows whose bounds stay in range, a log forward is ``log`` of the
    probability forward, bit for bit, in :func:`evaluate` and in the
    value-and-gradient pass, on both layouts; the log-space pass differs
    from it in the last bits only."""
    lc = _sum_999().backend.layered
    rows = _rows(np.random.default_rng(22), 60, b=64, lo=0.02, hi=0.98)
    for part in (rows, rows[:BUCKETED_FROM - 1]):
        batch = LeafBatch.from_probabilities(part, num_vars=lc.num_vars, aux_vars=lc.aux_vars)
        assert _in_range(lc, batch.literals).all()
        got = evaluate(lc, batch, "log_probability")
        assert np.array_equal(_bits(got), _bits(np.log(evaluate(lc, batch))))
        assert np.array_equal(_bits(_value_and_grad(lc, batch, "log_probability")[0]), _bits(got))
        assert np.allclose(got, evaluate(lc, batch, _log_space()), rtol=1e-14, atol=0.0)


@given(cnfs(), st.integers(0, 2 ** 32 - 1))
def test_in_range_rows_leave_no_subnormal_or_infinite_slot(cnf, seed):
    """Literal weights from 2**-400 to 2**400, a fifth of them zero, put
    rows on both sides of the bounds. Every slot of the linear buffer of a
    row in range is zero or a normal float, and so is every entry of its
    reverse buffer, as every adjoint and every partial product of the
    scans is a weighted count bounded like a slot; its log forward is
    ``log`` of the probability forward. Every other row gets the log-space
    pass's values and gradients, bit for bit."""
    lc = layerize(compile_cnf(cnf))
    rng = np.random.default_rng(seed)
    pos, neg = 2.0 ** rng.uniform(-400.0, 400.0, (2, 64, cnf.num_vars))
    pos[rng.random(pos.shape) < 0.2] = 0.0
    batch = LeafBatch.from_weights(pos, neg)
    ok = _in_range(lc, batch.literals)[:, 0]
    lin = get_structure("probability").semiring
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow and underflow out of range
        buf = _forward(lc, batch.literals, lin)
        linear = evaluate(lc, batch)
        adj = layered._reverse(lc, buf, lin)
    tiny = np.finfo(np.float64).tiny
    for kept in (buf[:lc.n_slots, ok], adj[:, ok]):
        assert np.all((kept == 0.0) | ((kept >= tiny) & np.isfinite(kept)))
    got = evaluate(lc, batch, "log")
    with np.errstate(divide="ignore"):
        assert np.array_equal(_bits(got[ok]), _bits(np.log(linear[ok])))
    assert np.array_equal(_bits(got[~ok]), _bits(evaluate(lc, batch, _log_space())[~ok]))
    # backward needs probability rows; the tile pass takes the weights as they are
    with np.errstate(divide="ignore", invalid="ignore"):
        passes = [layered._by_tiles(lc, batch.literals, s.semiring,
                                    layered._tile_values_and_grads)
                  for s in (get_structure("log"), _log_space())]
    for mine, log_space in zip(*passes):
        assert np.array_equal(_bits(mine[~ok]), _bits(log_space[~ok]))


def test_out_of_range_rows_run_the_log_space_pass():
    """Weights near 1e-200 on every input of sum-999, and random rows of the
    4000-variable chain: the bounds fail, so a log forward is the log-space
    pass, bit for bit, finite where the probability pass underflows."""
    rng = np.random.default_rng(23)
    n = 4000
    chain = layerize(compile_cnf(CNF(n, tuple((-i, i + 1) for i in range(1, n)))))
    for lc, rows in ((_sum_999().backend.layered, 10.0 ** -rng.uniform(199.0, 201.0, (8, 60))),
                     (chain, _rows(rng, n, b=4, lo=0.02, hi=0.98))):
        batch = LeafBatch.from_probabilities(rows, num_vars=lc.num_vars, aux_vars=lc.aux_vars)
        assert not _in_range(lc, batch.literals).any()
        got = evaluate(lc, batch, "log")
        assert np.all(np.isfinite(got))
        assert np.array_equal(_bits(got), _bits(evaluate(lc, batch, _log_space())))
        with pytest.warns(RuntimeWarning, match="underflowed"):
            assert np.all(evaluate(lc, batch) == 0.0)


def test_each_root_of_a_row_takes_its_own_path():
    """A row may prove one root's circuit in range and not another's; each
    root's value is still the one it gets alone. The auxiliary of the
    second circuit weighs 1e-305 on both literals in the first row, out of
    the lower bound, and 1e308, whose literal sum overflows, in the third;
    the first circuit reads neither."""
    plain = compile_cnf(CNF(2, ((1, 2),)))
    linked = compile_cnf(CNF(3, ((1, 2), (-3, 1), (3, -1)), aux_vars={3}))
    fused = layerize(plain, linked)
    weights = np.array([[0.5, 0.5, 1e-305], [0.3, 0.6, 1.0], [0.5, 0.5, 1e308]])
    batch = LeafBatch.from_weights(weights, weights, aux_vars={3})
    assert _in_range(fused, batch.literals).tolist() == [[True, False], [True, True],
                                                         [True, False]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(fused, batch, "log")
        want = [evaluate(layerize(plain), LeafBatch.from_weights(weights[:, :2], weights[:, :2]),
                         "log"), evaluate(layerize(linked), batch, "log")]
    for k in range(2):
        assert np.array_equal(_bits(got[:, k]), _bits(want[k]))
    assert np.all(np.isfinite(got))


# Variables 1..4. N = OR_3(AND(3, 4), M) with M = AND(-3, OR_4(4, -4)) is
# shared by both branches of A = OR_2(AND(2, N), AND(-2, N)); AND(2, N) is
# shared by A and B = OR_2(AND(2, N), AND(-2, M)), and M by N and B; the
# root is OR_1(AND(1, A), AND(-1, B)). As N = -3 | 4, the circuit is the
# CNF (-3 | 4) & (1 | 2 | -3).
SHARED = """nnfc 1
nvars 4
aux
nnodes 20
root 19
node 0 LIT 1
node 1 LIT -1
node 2 LIT 2
node 3 LIT -2
node 4 LIT 3
node 5 LIT -3
node 6 LIT 4
node 7 LIT -4
node 8 OR 4 6 7
node 9 AND 5 8
node 10 AND 4 6
node 11 OR 3 10 9
node 12 AND 2 11
node 13 AND 3 11
node 14 OR 2 12 13
node 15 AND 3 9
node 16 OR 2 12 15
node 17 AND 0 14
node 18 AND 1 16
node 19 OR 1 17 18
"""


@LAYOUT_BATCHES
def test_shared_nodes_take_the_linear_route_and_match_central_differences(monkeypatch, b):
    """Adjoints of nodes reached on both branches of several ORs sum the
    paths' weights; the log gradient of rows in range comes from the linear
    pass alone and matches central differences."""
    c = circuit_from_text(SHARED)
    lc = layerize(c)
    rows = _rows(np.random.default_rng(b), 4, b=b, lo=0.1, hi=0.9)
    batch = LeafBatch.from_probabilities(rows)
    cnf = CNF(4, ((-3, 4), (1, 2, -3)))
    assert np.allclose(evaluate(lc, batch), [brute_force_wmc(cnf, row) for row in rows])
    semirings, real = [], layered._forward
    monkeypatch.setattr(layered, "_forward",
                        lambda lc, literals, sr: semirings.append(sr) or real(lc, literals, sr))
    grad = backward(lc, batch, "log")
    assert semirings == [get_structure("probability").semiring]
    for row, got in zip(rows, grad):
        assert np.allclose(got, _central_diff(lc, row, "log"), atol=1e-7, rtol=1e-6)


def test_zero_row_batches_keep_their_shapes():
    lc = layerize(smooth(compile_cnf(parse_dimacs(EX1))))
    batch = LeafBatch.from_probabilities(np.empty((0, 3)))
    for budget in (1, 1 << 62):
        assert _with_budget(budget, evaluate, lc, batch).shape == (0,)
        assert _with_budget(budget, backward, lc, batch, "log").shape == (0, 3)


def test_large_batches_run_in_bounded_memory():
    """The reverse buffer of one tile is bounded, not that of the batch:
    at 8192 rows the sum-999 buffer alone would be 41 MB."""
    lc = _sum_999().backend.layered
    rows = _rows(np.random.default_rng(1), 60, b=8192, lo=0.02, hi=0.98)
    batch = LeafBatch.from_probabilities(rows, num_vars=lc.num_vars, aux_vars=lc.aux_vars)
    tracemalloc.start()
    try:
        _value_and_grad(lc, batch, "log_probability")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, f"peak traced allocation {peak / 2 ** 20:.1f} MiB"


# ---------------------------------------------------------------------------
# Layer loop costs that outputs do not show


@given(st.sampled_from([np.add, np.multiply, np.logaddexp]),
       st.tuples(st.integers(1, 20), st.integers(1, 3), st.integers(1, 3)),
       st.integers(0, 2 ** 32 - 1))
def test_reduce_from_first_operand_keeps_every_bit(op, shape, seed):
    """Starting from x[0] instead of the identity drops one exact step,
    except where numpy sums one output pairwise; there ``_reduce`` keeps
    the identity, so every shape matches the default bit for bit."""
    rng = np.random.default_rng(seed)
    x = rng.random(shape) * 10.0 ** rng.integers(-8, 9, shape)
    x = np.where(rng.random(shape) < 0.2, 0.0, x)
    if op is np.logaddexp:
        x = np.log(x, where=x > 0.0, out=np.full(shape, -np.inf))
    want = op.reduce(x, axis=0)
    assert np.array_equal(_reduce(op, x).view(np.uint64), want.view(np.uint64))
    out = np.empty(shape[1:])
    _reduce(op, x, out)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def test_layer_loops_skip_reduction_identities_and_buffered_takes():
    """Every ``.reduce`` in ``layered.py`` is called with an ``initial=``
    that can start from the first operand (``None``, on every call or on
    one branch), every ``np.take`` into ``out=`` names its ``mode=``, and
    the forward and reverse buffers ``buf`` and ``adj`` are read by slices
    and ``take``, never by an index array.

    None of this shows in an output, only in timings: an identity start
    costs one more ``op`` per output element, which under log is a
    ``logaddexp(-inf, x)``, ``np.take(..., out=...)`` in the default
    ``mode="raise"`` copies through a temporary buffer, and indexing with
    an array costs more than ``take`` at small batches.
    """
    tree = ast.parse(Path(layered.__file__).read_text(encoding="utf-8"))
    checked, slow = set(), []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
            continue
        kw = {k.arg: k.value for k in call.keywords}
        if call.func.attr == "reduce":
            checked.add(id(call.func))
            initial = kw.get("initial")
            if initial is None or not any(isinstance(n, ast.Constant) and n.value is None
                                          for n in ast.walk(initial)):
                slow.append(f"layered.py:{call.lineno} reduce without initial=None")
        elif call.func.attr == "take" and "out" in kw and "mode" not in kw:
            slow.append(f"layered.py:{call.lineno} buffered np.take")
    basic = (ast.Slice, ast.Constant)
    slow += [f"layered.py:{node.lineno} {node.value.id}[...] gathers by index"
             for node in ast.walk(tree) if isinstance(node, ast.Subscript)
             and isinstance(node.ctx, ast.Load) and isinstance(node.value, ast.Name)
             and node.value.id in ("buf", "adj") and not isinstance(node.slice, basic)]
    # a ``reduce`` bound to a name and called later escapes the keyword check
    slow += [f"layered.py:{node.lineno} reduce not called in place"
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "reduce" and id(node) not in checked]
    assert slow == []
