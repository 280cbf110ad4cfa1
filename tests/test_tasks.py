"""Semantic loss, the addition task, the timing harness, and weight files."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from nesycirc.errors import CompositionError
from nesycirc.factory import ModuleFactory
from nesycirc.formula import make_name_table, parse_formula
from nesycirc.layered import LeafBatch, evaluate
from nesycirc.semantics import get_structure
from nesycirc.tasks import (AdditionProblem, TimingReport, addition_batch,
                            bench, build_addition, convolution_oracle,
                            descend_semantic_loss, read_weight_rows,
                            semantic_loss, semantic_loss_and_grad,
                            write_weight_rows)

from test_formula import EX1


@pytest.fixture(scope="module")
def ex1_module():
    return ModuleFactory().module_from_dimacs(EX1)


# ---------------------------------------------------------------------------
# Semantic loss


def test_loss_golden(ex1_module):
    got = semantic_loss(ex1_module, [[0.5, 0.5, 0.5]])
    assert got == pytest.approx(-np.log(0.625), rel=1e-12)
    two = semantic_loss(ex1_module, [[0.5, 0.5, 0.5], [0.9, 0.2, 0.1]])
    assert two == pytest.approx(-(np.log(0.625) + np.log(0.272)) / 2, rel=1e-12)


def test_loss_accepts_leaf_batch(ex1_module):
    rows = [[0.5, 0.5, 0.5]]
    batch = LeafBatch.from_probabilities(rows)
    assert semantic_loss(ex1_module, batch) == semantic_loss(ex1_module, rows)


def test_loss_rejects_weight_batches(ex1_module):
    ones = np.ones((1, 3))
    with pytest.raises(ValueError, match="from_probabilities"):
        semantic_loss(ex1_module, LeafBatch.from_weights(ones, ones))


def test_loss_rejects_zero_rows(ex1_module):
    empty = np.empty((0, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for batch in (empty, LeafBatch.from_probabilities(empty)):
            for fn in (semantic_loss, semantic_loss_and_grad):
                with pytest.raises(ValueError, match="the batch has none"):
                    fn(ex1_module, batch)


def test_loss_needs_circuit_backing():
    from nesycirc.compose import SymTensor, identity_module
    with pytest.raises(CompositionError, match="not circuit-backed"):
        semantic_loss(identity_module(SymTensor(("a",))), [[0.5]])


def test_loss_rejects_boolean_modules():
    m = ModuleFactory().module_from_dimacs(EX1, "boolean")
    with pytest.raises(CompositionError, match="probability or log-structure"):
        semantic_loss(m, [[1.0, 1.0, 0.0]])


def test_loss_reads_a_factory_registered_structure():
    """A user Structure passed to a build call is carried on the module,
    not looked up again by its tag."""
    f = parse_formula("a | b", make_name_table(["a", "b"]))
    rows = np.array([[0.3, 0.6], [0.9, 0.2]])
    mine = dataclasses.replace(get_structure("probability"), name="my")
    m = ModuleFactory().build_formula_module(f, mine)
    ref = ModuleFactory().build_formula_module(f, "probability")
    assert float(m.compute([0.5, 0.5])) == 0.75
    assert semantic_loss(m, rows) == semantic_loss(ref, rows)
    loss, grad = semantic_loss_and_grad(m, rows)
    ref_loss, ref_grad = semantic_loss_and_grad(ref, rows)
    assert loss == ref_loss and np.array_equal(grad, ref_grad)
    flags = dataclasses.replace(get_structure("boolean"), name="flags")
    m = ModuleFactory().build_formula_module(f, flags)
    with pytest.raises(CompositionError, match="probability or log-structure"):
        semantic_loss(m, rows)


def test_loss_log_module_matches_probability_module(ex1_module):
    mlog = ModuleFactory().module_from_dimacs(EX1, "log")
    rows = [[0.3, 0.6, 0.2]]
    assert semantic_loss(mlog, rows) == pytest.approx(
        semantic_loss(ex1_module, rows), rel=1e-12)


def test_loss_warns_on_impossible_rows(ex1_module):
    with pytest.warns(UserWarning, match=r"rows \[1\]"):
        loss = semantic_loss(ex1_module, [[0.5, 0.5, 0.5], [1.0, 0.0, 1.0]])
    assert loss == np.inf


def test_grad_golden(ex1_module):
    loss, grads = semantic_loss_and_grad(ex1_module, [[0.5, 0.5, 0.5]])
    assert loss == pytest.approx(-np.log(0.625), rel=1e-12)
    assert grads[0] == pytest.approx([0.4, -1.2, 0.4], rel=1e-12)


def test_grad_matches_finite_differences(ex1_module):
    row = np.array([0.3, 0.6, 0.2])
    _, grads = semantic_loss_and_grad(ex1_module, row[None, :])
    h = 1e-6
    for j in range(3):
        hi, lo = row.copy(), row.copy()
        hi[j] += h
        lo[j] -= h
        fd = (semantic_loss(ex1_module, hi[None, :])
              - semantic_loss(ex1_module, lo[None, :])) / (2 * h)
        assert grads[0, j] == pytest.approx(fd, rel=1e-5)


def test_loss_equals_the_loss_of_loss_and_grad():
    """Both run the linear forward on rows in range, so their losses agree
    bit for bit, row by row and over a batch."""
    m = ModuleFactory().module_from_dimacs(build_addition(3, 999).cnf)
    rows = np.random.default_rng(23).uniform(0.02, 0.98, (64, 60))
    for batch in (*rows[:16, None], rows):
        assert semantic_loss(m, batch) == semantic_loss_and_grad(m, batch)[0]


def test_grad_shape_per_row(ex1_module):
    _, grads = semantic_loss_and_grad(
        ex1_module, [[0.5, 0.5, 0.5], [0.9, 0.2, 0.1]])
    assert grads.shape == (2, 3)


def test_descend_reduces_loss(ex1_module):
    losses, p = descend_semantic_loss(ex1_module, [0.5, 0.5, 0.5], steps=40)
    assert len(losses) == 41
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
    assert np.all((p >= 0.001) & (p <= 0.999))


def test_descend_respects_bounds(ex1_module):
    _, p = descend_semantic_loss(ex1_module, [0.5, 0.5, 0.5], steps=200,
                                 bounds=(0.05, 0.95))
    assert np.all((p >= 0.05) & (p <= 0.95))


def test_descend_bounds_validation(ex1_module):
    with pytest.raises(ValueError, match="bounds"):
        descend_semantic_loss(ex1_module, [0.5], bounds=(0.9, 0.1))


def test_descend_refuses_negative_steps(ex1_module):
    """``steps + 1`` losses: none is a valid count below zero steps."""
    losses, p = descend_semantic_loss(ex1_module, [0.5, 0.5, 0.5], steps=0)
    assert len(losses) == 1 and p == pytest.approx([0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match=r"steps must be >= 0, got -3"):
        descend_semantic_loss(ex1_module, [0.5, 0.5, 0.5], steps=-3)


# ---------------------------------------------------------------------------
# Addition encoding


def test_build_addition_guards():
    with pytest.raises(ValueError, match=r"n_digits must be in \[1, 4\]"):
        build_addition(0, 0)
    with pytest.raises(ValueError, match=r"n_digits must be in \[1, 4\]"):
        build_addition(5, 0)
    with pytest.raises(ValueError, match=r"query_sum must be in \[0, 18\]"):
        build_addition(1, 19)
    with pytest.raises(ValueError, match=r"query_sum must be in \[0, 198\]"):
        build_addition(2, -1)


def test_problem_id_layout():
    p = build_addition(2, 30)
    assert p.n_indicators == 40
    assert p.indicator(0, 0, 0) == 1
    assert p.indicator(0, 1, 0) == 11
    assert p.indicator(1, 0, 0) == 21
    assert p.indicator(1, 1, 9) == 40
    assert p.carry(0) == 41 and p.carry(1) == 42
    assert p.cnf.aux_vars == frozenset({41, 42})
    assert p.cnf.num_vars == 42


@pytest.mark.parametrize("args,match", [
    ((2, 0, 0), "number index"),
    ((0, 2, 0), "position"),
    ((0, 0, 10), "digit"),
])
def test_indicator_validation(args, match):
    p = build_addition(2, 30)
    with pytest.raises(ValueError, match=match):
        p.indicator(*args)
    with pytest.raises(ValueError, match="position"):
        p.carry(2)


def test_exactly_one_clause_counts():
    p = build_addition(2, 30)
    groups = [c for c in p.cnf.clauses if len(c) == 10 and all(l > 0 for l in c)]
    assert len(groups) == 4
    amo = [c for c in p.cnf.clauses
           if len(c) == 2 and all(l < 0 and -l <= 40 for l in c)]
    assert len(amo) == 4 * 45


def test_models_biject_with_digit_pairs():
    """Each digit pair summing to s yields exactly one model (carries forced)."""
    counts = {}
    for s in range(19):
        problem = build_addition(1, s)
        ones = np.ones((2, 1, 10))
        batch = addition_batch(problem, ones)  # weight 1 per indicator
        from nesycirc.compiler import compile_cnf, smooth
        from nesycirc.layered import layerize
        lc = layerize(smooth(compile_cnf(problem.cnf)))
        counts[s] = round(float(evaluate(lc, batch)[0]))
    want = {s: sum(1 for a, b in itertools.product(range(10), repeat=2)
                   if a + b == s) for s in range(19)}
    assert counts == want
    assert sum(counts.values()) == 100


def test_single_digit_goldens():
    uniform = np.full((2, 1, 10), 0.1)
    for s, want in ((0, 0.01), (9, 0.10), (18, 0.01)):
        problem = build_addition(1, s)
        from nesycirc.compiler import compile_cnf, smooth
        from nesycirc.layered import layerize
        lc = layerize(smooth(compile_cnf(problem.cnf)))
        got = float(evaluate(lc, addition_batch(problem, uniform))[0])
        assert got == pytest.approx(want, rel=1e-12)


def test_point_mass_sum():
    d = np.zeros((2, 1, 10))
    d[0, 0, 3] = 1.0
    d[1, 0, 4] = 1.0
    from nesycirc.compiler import compile_cnf, smooth
    from nesycirc.layered import layerize
    for s, want in ((7, 1.0), (8, 0.0)):
        problem = build_addition(1, s)
        lc = layerize(smooth(compile_cnf(problem.cnf)))
        assert float(evaluate(lc, addition_batch(problem, d))[0]) == pytest.approx(want)


def test_circuit_matches_oracle_for_two_digits():
    rng = np.random.default_rng(7)
    d = rng.random((2, 2, 10))
    d /= d.sum(axis=2, keepdims=True)
    want = convolution_oracle(d)
    from nesycirc.compiler import compile_cnf, smooth
    from nesycirc.layered import layerize
    for s in (0, 37, 99, 150, 198):
        problem = build_addition(2, s)
        lc = layerize(smooth(compile_cnf(problem.cnf)))
        got = float(evaluate(lc, addition_batch(problem, d))[0])
        assert got == pytest.approx(want[s], rel=1e-9)


# ---------------------------------------------------------------------------
# Convolution oracle


def test_oracle_uniform_triangle():
    uniform = np.full((2, 1, 10), 0.1)
    dist = convolution_oracle(uniform)
    assert dist.shape == (19,)
    assert dist[9] == pytest.approx(0.10)
    assert dist[0] == pytest.approx(0.01)
    assert dist.sum() == pytest.approx(1.0)


def test_oracle_two_digit_length_and_mass():
    rng = np.random.default_rng(3)
    d = rng.random((2, 2, 10))
    d /= d.sum(axis=2, keepdims=True)
    dist = convolution_oracle(d)
    assert dist.shape == (199,)
    assert dist.sum() == pytest.approx(1.0)


def test_oracle_point_mass():
    d = np.zeros((2, 2, 10))
    d[0, 0, 3] = d[0, 1, 1] = 1.0   # number1 = 13
    d[1, 0, 9] = d[1, 1, 2] = 1.0   # number2 = 29
    dist = convolution_oracle(d)
    assert dist[42] == pytest.approx(1.0)
    assert dist.sum() == pytest.approx(1.0)


def test_oracle_validates_normalization():
    d = np.full((2, 1, 10), 0.1)
    d[1, 0, 0] = 0.2
    with pytest.raises(ValueError, match="number 1, position 0 sums to"):
        convolution_oracle(d)


def test_oracle_validates_shape():
    with pytest.raises(ValueError, match=r"shape \(2, n_digits, 10\)"):
        convolution_oracle(np.ones((2, 9)))


# ---------------------------------------------------------------------------
# addition_batch


def test_addition_batch_layout():
    problem = build_addition(1, 9)
    d = np.arange(20, dtype=np.float64).reshape(2, 1, 10) / 100.0
    batch = addition_batch(problem, d)
    assert batch.pos.shape == (1, 21)
    assert batch.pos[0, :20] == pytest.approx(d.reshape(-1))
    assert np.all(batch.neg == 1.0)
    assert batch.pos[0, 20] == 1.0  # the carry auxiliary weighs one


def test_addition_batch_batched():
    problem = build_addition(1, 9)
    d = np.full((5, 2, 1, 10), 0.1)
    assert addition_batch(problem, d).pos.shape == (5, 21)


def test_addition_batch_shape_error():
    problem = build_addition(2, 30)
    with pytest.raises(ValueError, match=r"\(batch, 2, 2, 10\)"):
        addition_batch(problem, np.ones((2, 1, 10)))


# ---------------------------------------------------------------------------
# Timing harness


@pytest.fixture(scope="module")
def report():
    return bench(1, batch_size=8, repetitions=2, seed=0)


def test_bench_report_fields(report):
    assert isinstance(report, TimingReport)
    assert report.n_digits == 1 and report.query_sum == 9
    assert report.batch_sizes == (1, 8)
    assert report.oracle_rel_err < 1e-9
    assert report.circuit_nodes > 0 and report.circuit_layers > 0
    assert report.speedup(8) > 0.0
    assert "vectorize" in report.parallelism


def test_bench_report_text(report):
    text = report.to_text()
    assert "addition benchmark: digits=1 sum=9 reps=2" in text
    assert "layered   batch-8" in text
    assert "recursive batch-1" in text


def test_bench_guards():
    assert bench(4, batch_size=1, repetitions=1).oracle_rel_err < 1e-9
    with pytest.raises(ValueError, match="repetitions"):
        bench(1, repetitions=0)
    with pytest.raises(ValueError, match="batch sizes"):
        bench(1, batch_size=0)


# ---------------------------------------------------------------------------
# Weight files


def test_weight_file_round_trip(tmp_path):
    path = tmp_path / "w.csv"
    rows = np.array([[0.5, 0.25, 0.125], [0.1, 0.2, 0.30000000000000004]])
    write_weight_rows(path, rows, names=["A", "B", "C"])
    header, back = read_weight_rows(path)
    assert header == ["A", "B", "C"]
    assert np.array_equal(back, rows)  # repr round trip is exact


def test_weight_file_default_names(tmp_path):
    path = tmp_path / "w.csv"
    write_weight_rows(path, [0.5, 0.5])
    header, back = read_weight_rows(path)
    assert header == ["v1", "v2"]
    assert back.shape == (1, 2)


def test_weight_file_name_count_mismatch(tmp_path):
    with pytest.raises(ValueError, match="2 column names for 3 columns"):
        write_weight_rows(tmp_path / "w.csv", [[0.1, 0.2, 0.3]], names=["a", "b"])


def test_weight_file_requires_header(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("0.5,0.5\n0.1,0.2\n")
    with pytest.raises(ValueError, match="must be a header"):
        read_weight_rows(path)


def test_weight_file_column_mismatch(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("a,b\n0.5,0.5\n0.1\n")
    with pytest.raises(ValueError, match=r"w\.csv:3: expected 2 columns, got 1"):
        read_weight_rows(path)


def test_weight_file_non_numeric(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("a,b\n0.5,oops\n")
    with pytest.raises(ValueError, match=r"w\.csv:2: non-numeric"):
        read_weight_rows(path)


def test_weight_file_blank_rows_skipped(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("a,b\n0.5,0.5\n\n0.1,0.2\n")
    _, back = read_weight_rows(path)
    assert back.shape == (2, 2)


def test_weight_file_empty(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty weight file"):
        read_weight_rows(path)
    path.write_text("a,b\n")
    with pytest.raises(ValueError, match="no weight rows"):
        read_weight_rows(path)
