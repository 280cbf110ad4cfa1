"""Acceptance gate: numbered end-to-end checks over the whole pipeline.

Each test name carries its criterion number; the terminal summary hook in
conftest.py turns them into one pass/fail line apiece. The random-CNF
corpus is built once per session and shared by the oracle, property, and
gradient criteria.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesycirc.compiler import (Circuit, CircuitNode, check_properties,
                               compile_cnf, smooth)
from nesycirc.compose import AnnotatedModule, SymTensor, chain, reshape_input, wire_dag
from nesycirc.errors import IncompatibleStructures
from nesycirc.factory import EqualityPredicate, ModuleFactory
from nesycirc.formula import (CNF, And, Iff, Implies, Not, Or, Var,
                              brute_force_wmc, eval_assignment,
                              make_name_table, parse_dimacs, parse_formula,
                              to_nnf)
from nesycirc.layered import (LeafBatch, backward, evaluate,
                              evaluate_recursive, layerize)
from nesycirc.semantics import evaluate_fuzzy, fuzzy_value_and_grad, get_structure
from nesycirc.tasks import (addition_batch, bench, build_addition,
                            convolution_oracle, descend_semantic_loss,
                            semantic_loss)

SEED = 20260823
EX1_DIMACS = "p cnf 3 2\n-1 2 0\n2 -3 0\n"
FUZZY = ("fuzzy_product", "fuzzy_godel", "fuzzy_lukasiewicz")


def _random_cnf(rng) -> CNF:
    n = int(rng.integers(4, 17))
    m = int(rng.integers(5, 41))
    clauses, seen = [], set()
    while len(clauses) < m:
        width = int(rng.integers(1, min(n, 3) + 1))
        vs = rng.choice(n, size=width, replace=False) + 1
        signs = rng.integers(0, 2, size=width) * 2 - 1
        clause = tuple(sorted(int(v * s) for v, s in zip(vs, signs)))
        if clause not in seen:
            seen.add(clause)
            clauses.append(clause)
    return CNF(num_vars=n, clauses=tuple(clauses))


@pytest.fixture(scope="session")
def corpus():
    """200 seeded CNFs with their smoothed circuits and layered forms."""
    rng = np.random.default_rng(SEED)
    items = []
    for _ in range(200):
        cnf = _random_cnf(rng)
        sc = smooth(compile_cnf(cnf))
        items.append((cnf, sc, layerize(sc)))
    return items


def _sat_items(corpus):
    return [(cnf, sc, lc) for cnf, sc, lc in corpus
            if sc.nodes[sc.root].kind != "FALSE"]


# ---------------------------------------------------------------------------
# 1. WMC against exhaustive enumeration


def test_criterion_01_wmc_matches_brute_force(corpus):
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    for cnf, _, lc in corpus:
        rows = rng.random((10, cnf.num_vars))
        got = evaluate(lc, LeafBatch.from_probabilities(rows))
        for row, g in zip(rows, got):
            want = brute_force_wmc(cnf, row)
            if want == 0.0:
                assert g == 0.0
            else:
                assert abs(g - want) / want <= 1e-9
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. The worked constraint example


def test_criterion_02_example_constraint_goldens():
    cnf = parse_dimacs(EX1_DIMACS)
    lc = layerize(smooth(compile_cnf(cnf)))
    wmc = evaluate(lc, LeafBatch.from_probabilities([[0.5, 0.5, 0.5]]))[0]
    assert wmc == pytest.approx(0.625, rel=1e-9)

    m = ModuleFactory().module_from_dimacs(EX1_DIMACS)
    loss = semantic_loss(m, [[0.5, 0.5, 0.5]])
    assert loss == pytest.approx(0.4700036292457356, rel=1e-9)

    # plain DIMACS variables bind positionally to user-facing names
    named = reshape_input(m, SymTensor(("A_p", "B_p", "C_p")))
    assert float(named(np.array([0.9, 0.2, 0.1]))) == pytest.approx(0.272, rel=1e-9)

    # name-based rewiring permutes a scrambled input row back into id order
    f = parse_formula("(A_p -> B_p) & (C_p -> B_p)",
                      make_name_table(["A_p", "B_p", "C_p"]))
    mf = ModuleFactory().build_formula_module(f, "probability")
    perm = reshape_input(mf, SymTensor(("C_p", "A_p", "B_p")))
    assert float(perm(np.array([0.1, 0.9, 0.2]))) == pytest.approx(0.272, rel=1e-9)


# ---------------------------------------------------------------------------
# 3. Structural properties and mutation detection


def test_criterion_03_compiled_circuits_have_all_properties(corpus):
    for _, sc, _ in corpus:
        assert check_properties(sc).ok


def _swap_in_overlapping_literal(c: Circuit) -> Circuit | None:
    """Replace an AND child with a literal from a sibling's variable set."""
    for i, node in enumerate(c.nodes):
        if node.kind != "AND" or len(node.children) < 2:
            continue
        sibling_mask = c.var_masks[node.children[1]]
        if not sibling_mask:
            continue
        for j in range(i):
            if c.nodes[j].kind == "LIT" and c.var_masks[j] & sibling_mask:
                mutated = list(c.nodes)
                mutated[i] = CircuitNode("AND", children=(j, *node.children[1:]))
                return Circuit(c.num_vars, tuple(mutated), c.root, c.aux_vars)
    return None


def _is_gadget(c: Circuit, nid: int) -> bool:
    node = c.nodes[nid]
    return (node.kind == "OR" and len(node.children) == 2
            and all(c.nodes[ch].kind == "LIT" for ch in node.children)
            and c.nodes[node.children[0]].literal
            == -c.nodes[node.children[1]].literal)


def _delete_smoothing_gadget(c: Circuit) -> Circuit | None:
    """Drop one OR(v, ~v) gadget from an AND that sits under an OR node."""
    for node in c.nodes:
        if node.kind != "OR":
            continue
        for a in node.children:
            and_node = c.nodes[a]
            if and_node.kind != "AND":
                continue
            for g in and_node.children:
                if _is_gadget(c, g):
                    kept = tuple(ch for ch in and_node.children if ch != g)
                    mutated = list(c.nodes)
                    mutated[a] = CircuitNode("AND", children=kept)
                    return Circuit(c.num_vars, tuple(mutated), c.root, c.aux_vars)
    return None


def test_criterion_03_child_swap_breaks_decomposability(corpus):
    mutants = 0
    for _, sc, _ in corpus:
        mutant = _swap_in_overlapping_literal(sc)
        if mutant is None:
            continue
        report = check_properties(mutant)
        assert not report.decomposable
        assert report.violations["decomposable"]
        mutants += 1
    assert mutants >= 10


def test_criterion_03_gadget_deletion_breaks_smoothness(corpus):
    mutants = 0
    for _, sc, _ in corpus:
        mutant = _delete_smoothing_gadget(sc)
        if mutant is None:
            continue
        report = check_properties(mutant)
        assert not report.smooth
        assert report.violations["smooth"]
        mutants += 1
    assert mutants >= 10


# ---------------------------------------------------------------------------
# 4. Gradients against central finite differences


def _central_diffs(lc, row, structure, h=1e-5):
    n = row.size
    pts = np.repeat(row[None, :], 2 * n, axis=0)
    for j in range(n):
        pts[j, j] += h
        pts[n + j, j] -= h
    vals = evaluate(lc, LeafBatch.from_probabilities(pts), structure)
    return (vals[:n] - vals[n:]) / (2.0 * h)


def test_criterion_04_circuit_gradients(corpus):
    sat = _sat_items(corpus)[:40]
    assert len(sat) == 40
    rng = np.random.default_rng(SEED + 4)
    samples = 0
    for cnf, _, lc in sat:
        rows = 0.1 + 0.8 * rng.random((5, cnf.num_vars))
        batch = LeafBatch.from_probabilities(rows)
        for structure in ("probability", "log_probability"):
            grads = backward(lc, batch, structure)
            for r in range(rows.shape[0]):
                fd = _central_diffs(lc, rows[r], structure)
                mask = np.abs(grads[r]) > 1e-8
                rel = np.abs(grads[r][mask] - fd[mask]) / np.abs(grads[r][mask])
                assert rel.size == 0 or rel.max() <= 1e-6
        samples += rows.shape[0]
    assert samples >= 200


def _random_formula(rng, n_vars, depth=4):
    if depth == 0 or rng.random() < 0.3:
        v = Var(int(rng.integers(1, n_vars + 1)))
        return v if rng.random() < 0.5 else Not(v)
    op = ("and", "or", "implies", "iff", "not")[int(rng.integers(0, 5))]
    if op == "not":
        return Not(_random_formula(rng, n_vars, depth - 1))
    a = _random_formula(rng, n_vars, depth - 1)
    b = _random_formula(rng, n_vars, depth - 1)
    ctor = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[op]
    return ctor(a, b)


def test_criterion_04_fuzzy_gradients():
    rng = np.random.default_rng(SEED + 44)
    h = 1e-5
    checked = 0
    for k in range(50):
        n = int(rng.integers(2, 5))
        nnf = to_nnf(_random_formula(rng, n))
        name = FUZZY[k % 3]
        scores = 0.05 + 0.9 * rng.random(n)
        _, grad = fuzzy_value_and_grad(nnf, name, scores)
        for j in range(n):
            hi, lo = scores.copy(), scores.copy()
            hi[j] += h
            lo[j] -= h
            up = float(evaluate_fuzzy(nnf, name, hi))
            dn = float(evaluate_fuzzy(nnf, name, lo))
            mid = float(evaluate_fuzzy(nnf, name, scores))
            if abs((up - mid) / h - (mid - dn) / h) > 1e-3:
                continue  # a min/max/clamp kink: one-sided slopes disagree
            fd = (up - dn) / (2.0 * h)
            if abs(grad[j]) > 1e-8:
                assert abs(grad[j] - fd) / abs(grad[j]) <= 1e-6
                checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# 5. Layered evaluation equals recursive evaluation


def test_criterion_05_layered_equals_recursive(corpus):
    rng = np.random.default_rng(SEED + 5)
    for cnf, sc, lc in corpus:
        rows = rng.random((10, cnf.num_vars))
        batch = LeafBatch.from_probabilities(rows)
        a = evaluate(lc, batch)
        b = evaluate_recursive(sc, batch)
        assert np.max(np.abs(a - b)) <= 1e-12


# ---------------------------------------------------------------------------
# 6. Addition task against the convolution oracle


def test_criterion_06_addition_matches_convolution_oracle():
    rng = np.random.default_rng(SEED + 6)
    t0 = time.perf_counter()
    for n_digits in (1, 2, 3):
        dists = rng.random((20, 2, n_digits, 10))
        dists /= dists.sum(axis=3, keepdims=True)
        oracle = np.stack([convolution_oracle(d) for d in dists])
        totals = np.zeros(20)
        for s in range(2 * 10 ** n_digits - 1):
            problem = build_addition(n_digits, s)
            lc = layerize(smooth(compile_cnf(problem.cnf)))
            got = evaluate(lc, addition_batch(problem, dists))
            rel = np.abs(got - oracle[:, s]) / np.maximum(oracle[:, s], 1e-300)
            assert rel.max() <= 1e-9
            totals += got
        assert np.max(np.abs(totals - 1.0)) <= 1e-9
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 7. Batched layered evaluation amortizes


@pytest.mark.parametrize("n_digits", [1, 2])
def test_criterion_07_batching_speedup(n_digits):
    report = bench(n_digits, batch_size=(64, 1024), repetitions=5, seed=SEED)
    assert report.batch_sizes == (1, 64, 1024)
    assert report.speedup(1024) >= 10.0
    med = report.layered_median
    assert med[0] >= med[1] >= med[2]


# ---------------------------------------------------------------------------
# 8. Semantics substitution on Boolean corners


def test_criterion_08_corner_agreement_across_structures():
    rng = np.random.default_rng(SEED + 8)
    pf = ModuleFactory()
    for _ in range(30):
        n_vars = int(rng.integers(2, 9))
        f = _random_formula(rng, n_vars, depth=3)
        modules = {tag: pf.build_formula_module(f, tag)
                   for tag in ("probability", *FUZZY)}
        specs = {tag: m.input_spec[0] for tag, m in modules.items()}
        n = specs["probability"].size
        assert all(sp.symbols == specs["probability"].symbols
                   and sp.shape == specs["probability"].shape
                   for sp in specs.values())
        corners = np.array([[float((i >> j) & 1) for j in range(n)]
                            for i in range(1 << n)])
        truth = np.array([float(eval_assignment(f, [bool(x) for x in row]))
                          for row in corners])
        for tag, m in modules.items():
            got = np.asarray(m(corners), dtype=np.float64)
            assert np.array_equal(got, truth), tag


# ---------------------------------------------------------------------------
# 9. Fuzzy factory goldens


def test_criterion_09_fuzzy_factory_goldens():
    pf = ModuleFactory(predicates=(EqualityPredicate,))
    conn = get_structure("fuzzy_product").fuzzy
    assert conn.neg(0.3) == pytest.approx(0.7, rel=1e-12)
    assert conn.conj(0.5, 0.5) == pytest.approx(0.25, rel=1e-12)
    assert pf.aggregate("exists", [1.0, 0.0]) == pytest.approx(
        0.8908987181403393, rel=1e-12)
    eq = pf.apply_predicate("eq", np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert float(eq()) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# 10. Composition laws as property tests


def _scaler(name, sym_in, sym_out, factor, structure="probability"):
    return AnnotatedModule(name, (SymTensor((sym_in,), structure),),
                           (SymTensor((sym_out,), structure),),
                           lambda x, _f=factor: x * _f)


unit_floats = st.floats(0.0, 1.0, allow_nan=False)
scale_floats = st.floats(0.1, 1.0, allow_nan=False)


@settings(max_examples=50)
@given(x=unit_floats, a=scale_floats, b=scale_floats, c=scale_floats)
def test_criterion_10_chain_associativity(x, a, b, c):
    m1 = _scaler("m1", "x0", "x1", a)
    m2 = _scaler("m2", "x1", "x2", b)
    m3 = _scaler("m3", "x2", "x3", c)
    left = chain(chain(m1, m2), m3)
    right = chain(m1, chain(m2, m3))
    row = np.array([x])
    assert left(row).item() == pytest.approx(right(row).item(), abs=1e-15)
    assert left.input_spec == right.input_spec
    assert left.output_spec == right.output_spec


@settings(max_examples=50)
@given(x=unit_floats, a=scale_floats, b=scale_floats)
def test_criterion_10_dag_matches_chain(x, a, b):
    m1 = _scaler("m1", "x0", "x1", a)
    m2 = _scaler("m2", "x1", "x2", b)
    row = np.array([x])
    chained = chain(m1, m2)(row).item()
    dag = wire_dag([m1, m2], [SymTensor(("x0",))])
    assert dag(row).item() == pytest.approx(chained, abs=1e-15)


@settings(max_examples=50)
@given(x=st.floats(0.01, 1.0, allow_nan=False), a=scale_floats)
def test_criterion_10_transform_auto_insertion(x, a):
    m1 = _scaler("m1", "x0", "x1", a)
    m2 = AnnotatedModule("m2", (SymTensor(("x1",), "log"),),
                         (SymTensor(("x2",), "log"),), lambda v: v)
    composite = chain(m1, m2)
    got = composite(np.array([x])).item()
    assert got == pytest.approx(np.log(a * x), rel=1e-12)
    assert ("transform", "probability", "->", "log_probability",
            "m2[0]") in composite.manifest.records


def test_criterion_10_incompatible_structures_rejected():
    fuzzy_out = _scaler("mf", "y0", "y1", 1.0, structure="fuzzy_product")
    prob_in = _scaler("mp", "y1", "y2", 1.0, structure="probability")
    with pytest.raises(IncompatibleStructures):
        chain(fuzzy_out, prob_in)


# ---------------------------------------------------------------------------
# 11. Projected descent on the semantic loss


def test_criterion_11_descent_reaches_low_loss():
    m = ModuleFactory().module_from_dimacs(EX1_DIMACS)
    losses, _ = descend_semantic_loss(m, [0.5, 0.5, 0.5], steps=100,
                                      step_size=0.05)
    assert len(losses) == 101
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.05
