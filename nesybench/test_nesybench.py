"""Tests of the benchmark itself: its oracles and its failure counting.

Run from the root of a checkout:

    python3 -m pytest -q nesybench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import metrics  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

from nesycirc.formula import (CNF, brute_force_wmc, make_name_table,  # noqa: E402
                              parse_formula, to_cnf, to_nnf)
from nesycirc.semantics import evaluate_fuzzy  # noqa: E402
from nesycirc.tasks import build_addition  # noqa: E402


def model_count_by_brute_force(cnf: CNF) -> float:
    # every model weighs 2^-n_inputs at p = 1/2; auxiliaries weigh one
    return brute_force_wmc(cnf, np.full(cnf.n_inputs, 0.5)) * 2 ** cnf.n_inputs


@pytest.mark.parametrize("query_sum", [0, 7, 9, 13, 18])
def test_addition_closed_form_matches_brute_force(query_sum):
    cnf = build_addition(1, query_sum).cnf
    rows = inputs.probability_rows(np.random.default_rng(query_sum), 2, 20)
    got = oracles.addition_wmc(rows, 1, query_sum)
    want = [brute_force_wmc(cnf, row) for row in rows]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert model_count_by_brute_force(cnf) == oracles.addition_model_count(1, query_sum)


def test_central_gradient_matches_brute_force_differences():
    cnf = build_addition(1, 11).cnf
    row = inputs.probability_rows(np.random.default_rng(3), 1, 20)
    got = oracles.central_gradient(lambda p: oracles.addition_wmc(p, 1, 11), row)[0]
    for i in (0, 5, 13, 19):
        up, down = row[0].copy(), row[0].copy()
        up[i] += 0.25
        down[i] -= 0.25
        # multilinear in each probability: a wide difference is still exact
        want = (brute_force_wmc(cnf, up) - brute_force_wmc(cnf, down)) / 0.5
        assert got[i] == pytest.approx(want, rel=1e-9, abs=1e-18)


def test_chain_oracles_match_brute_force():
    length = 12
    cnf = CNF(length, tuple(inputs.chain_clauses(length)))
    rows = inputs.probability_rows(np.random.default_rng(5), 3, length)
    np.testing.assert_allclose(oracles.chain_wmc(rows),
                               [brute_force_wmc(cnf, r) for r in rows], rtol=1e-12)
    assert model_count_by_brute_force(cnf) == oracles.chain_model_count(length)


def test_enumeration_matches_brute_force_on_random_cnfs():
    rng = np.random.default_rng(7)
    for _ in range(5):
        clauses = inputs.random_3cnf(rng, n=10, m=30)
        cnf = CNF(10, tuple(clauses))
        rows = inputs.probability_rows(rng, 3, 10)
        models = oracles.cnf_models(10, clauses)
        np.testing.assert_allclose(oracles.enumerated_wmc(models, rows),
                                   [brute_force_wmc(cnf, r) for r in rows], rtol=1e-12)


def test_tree_enumeration_matches_brute_force_on_the_tseitin_encoding():
    rng = np.random.default_rng(11)
    names = [f"x{i}" for i in range(6)]
    for _ in range(5):
        tree = inputs.random_tree(rng, n_vars=6, leaves=9)
        f = parse_formula(oracles.tree_text(tree, names), make_name_table(names))
        cnf = to_cnf(to_nnf(f), num_vars=6)
        rows = inputs.probability_rows(rng, 3, 6)
        models = oracles.tree_models(tree, 6)
        np.testing.assert_allclose(oracles.enumerated_wmc(models, rows),
                                   [brute_force_wmc(cnf, r) for r in rows], rtol=1e-12)


def test_tnorms_match_the_truth_on_corners_and_the_program_elsewhere():
    rng = np.random.default_rng(13)
    names = [f"x{i}" for i in range(8)]
    tree = inputs.random_tree(rng, n_vars=8, leaves=14)
    nnf = to_nnf(parse_formula(oracles.tree_text(tree, names), make_name_table(names)))
    corners = inputs.corner_rows(rng, 16, 8)
    rows = inputs.probability_rows(rng, 16, 8)
    truth = oracles.tree_truth(tree, corners).astype(float)
    for family in oracles.FUZZY_FAMILIES:
        np.testing.assert_array_equal(oracles.tnorm_value(tree, family, corners), truth)
        np.testing.assert_allclose(oracles.tnorm_value(tree, family, rows),
                                   evaluate_fuzzy(nnf, family, rows), rtol=1e-12)


def test_stratified_inputs_repeat_for_a_seed():
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    assert inputs.addition_sums(a) == inputs.addition_sums(b)
    assert inputs.random_3cnf(a) == inputs.random_3cnf(b)
    sums = inputs.addition_sums(np.random.default_rng(9))
    assert len(sums) == inputs.ADDITION_STRATA and sums == sorted(sums)


# ---------------------------------------------------------------------------
# a perturbed output counts as a failed operation


def _workload(name, tmp_path, tracer=None):
    run = workloads.Run(1, str(tmp_path))
    w = workloads.WORKLOADS[name](run, tracer or NullTracer())
    w.setup()
    w.prepare()
    w.reset_loop()
    return w


def test_train_counts_a_perturbed_value(tmp_path, monkeypatch):
    w = _workload("train", tmp_path)
    w.step(64)
    assert (w.run.attempted, w.run.failed) == (3, 0)
    real = workloads.evaluate
    monkeypatch.setattr(workloads, "evaluate", lambda *a: real(*a) * (1 + 1e-6))
    w.step(64)
    assert w.run.attempted == 6 and w.run.failed >= 1
    assert "evaluate at batch 64" in w.run.errors


def test_descend_counts_a_perturbed_gradient(tmp_path, monkeypatch):
    w = _workload("descend", tmp_path)
    w._descend()
    assert w.run.failed == 0 and w.run.attempted == 2 * w.STEPS + 1
    real = workloads.semantic_loss_and_grad

    def skewed(m, rows):
        loss, grad = real(m, rows)
        return loss, grad * 1.001

    monkeypatch.setattr(workloads, "semantic_loss_and_grad", skewed)
    w._descend()
    assert w.run.failed >= 1


def test_modules_counts_a_perturbed_dag_output(tmp_path, monkeypatch):
    w = _workload("modules", tmp_path)
    w.step()
    assert w.run.failed == 0
    real = w.dag
    monkeypatch.setattr(w, "dag", lambda *a: tuple(o * (1 - 1e-6) for o in real(*a)))
    w.step()
    assert w.run.failed == 1


def test_compile_counts_a_wrong_circuit_file(tmp_path):
    w = _workload("compile", tmp_path)
    job = next(j for j in w.jobs if j.family == "chain")
    w._compile(job)
    assert (w.run.attempted, w.run.failed) == (1, 0)
    job.wmc = job.wmc * (1 + 1e-6)
    w._compile(job)
    assert (w.run.attempted, w.run.failed) == (2, 1)


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", rows=4):
            sum(range(10000))
    table = tr.self_times()
    inner = table["inner"]["self_s"]
    outer_total = next(end - start for _, _, name, start, end, _ in tr.spans if name == "outer")
    assert table["outer"]["self_s"] == pytest.approx(outer_total - inner)
    assert table["inner"]["rows"] == 4


def test_loop_divides_each_round_by_the_calibrations_around_it():
    import run
    from calibration import Calibration

    class Steps:
        STEPS_PER_ROUND = 2

        def reset_loop(self):
            self.step_times = []

        def parts(self):
            return [lambda: self.step_times.append(0.3)] * 2

    cal = Calibration(1, 0, 0, reference_ms=4.0)
    times = iter([0.1, 0.2, 0.4, 0.4])
    cal.run = lambda: next(times)
    [ratios] = run._loop(Steps(), cal, seconds=0.0)
    # one round of two 0.3 s steps; calibrations 0.1 s before it, 0.2 s in it
    assert ratios == [pytest.approx(0.3 / 0.15)]
    assert metrics.at_reference(ratios, cal) == pytest.approx(2.0 * 4.0 / 1e3)


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(metrics.PER_LAYER)
    setup = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup for m in doc["end_to_end"])
