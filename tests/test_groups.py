"""Exactly-one groups compiled to CAT leaves, against brute force.

``planted_cnfs`` plants exactly-one groups (an all-positive clause and
every pairwise ``(~a | ~b)``) of two to four variables among random
clauses, with the cases the compiler must get right: members forced by
units, clauses over a group's members alone that not every choice
satisfies, an exactly-one constraint that overlaps a planted group, and
a group that is a component of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesycirc.cli import main
from nesycirc.compiler import (Circuit, CircuitNode, check_properties, circuit_from_text,
                               circuit_to_text, compile_cnf, model_count, smooth)
from nesycirc.errors import CircuitError
from nesycirc.factory import ModuleFactory
from nesycirc.formula import CNF
from nesycirc.layered import LeafBatch, backward, evaluate, evaluate_recursive, layerize
from nesycirc.tasks import build_addition

from test_formula import cnfs
from test_layered import TILED_ROWS, _assert_tiles_agree, _bits, _mixed_rows, _models


def _exactly_one(group):
    return [tuple(group)] + [(-a, -b) for i, a in enumerate(group) for b in group[i + 1:]]


@st.composite
def planted_cnfs(draw):
    n = draw(st.integers(2, 9))
    order = draw(st.permutations(range(1, n + 1)))
    clauses, groups, at = [], [], 0
    while n - at >= 2 and (not groups or draw(st.booleans())):
        k = draw(st.integers(2, min(4, n - at)))
        group = list(order[at:at + k])
        at += k
        groups.append(group)
        clauses += _exactly_one(group)
        extra = draw(st.sampled_from(["none", "unit", "subset", "implication"]))
        if extra == "unit":
            clauses.append((draw(st.sampled_from(group)) * draw(st.sampled_from((1, -1))),))
        elif extra == "subset":  # a clause over the members that some choices falsify
            clauses.append(tuple(group[:-1]))
        elif extra == "implication":
            clauses.append((-group[0], group[1]))
    others = [v for v in range(1, n + 1) if v not in groups[0]]
    if others and draw(st.booleans()):  # an exactly-one constraint overlapping the first
        clauses += _exactly_one([groups[0][0], *draw(st.lists(st.sampled_from(others),
                                                             min_size=1, max_size=2,
                                                             unique=True))])
    if draw(st.booleans()):  # random clauses, or none: the groups alone are components
        clauses += draw(cnfs(max_vars=n)).clauses
    clauses = list(dict.fromkeys(tuple(sorted(set(c), key=abs)) for c in clauses))
    clauses = [c for c in clauses if not any(-l in c for l in c)]
    return CNF(n, tuple(draw(st.permutations(clauses))))


def _wmc(models, rows):
    return np.array([sum(np.prod(np.where(m > 0, r, 1.0 - r)) for m in models) for r in rows])


def _central(lc, rows, s, h=1e-6):
    out = np.empty_like(rows)
    for j in range(rows.shape[1]):
        hi, lo = rows.copy(), rows.copy()
        hi[:, j] += h
        lo[:, j] -= h
        out[:, j] = (evaluate(lc, LeafBatch.from_probabilities(hi), s)
                     - evaluate(lc, LeafBatch.from_probabilities(lo), s)) / (2 * h)
    return out


@settings(max_examples=150)
@given(planted_cnfs(), st.integers(0, 2 ** 32 - 1))
def test_planted_groups_match_brute_force(cnf, seed):
    c = compile_cnf(cnf)
    assert check_properties(c).ok
    models = _models(cnf)
    assert model_count(c) == len(models)
    lc = layerize(c)
    rng = np.random.default_rng(seed)
    rows = _mixed_rows(rng, 7, cnf.num_vars)[[0, 2, 3, 4, 6]]  # no tiny rows: brute force
    rows[0] = np.round(rows[0])
    batch = LeafBatch.from_probabilities(rows)
    wmc = _wmc(models, rows)
    assert np.allclose(evaluate(lc, batch), wmc, rtol=1e-12, atol=1e-15)
    assert np.allclose(evaluate_recursive(c, batch), wmc, rtol=1e-12, atol=1e-15)
    # d/dp_j is exact at p in {0, 1} too: the count is linear in each p_j
    grad, log_grad = backward(lc, batch), backward(lc, batch, "log")
    live = wmc > 0.0
    for j in range(cnf.num_vars):
        hi, lo = rows.copy(), rows.copy()
        hi[:, j], lo[:, j] = 1.0, 0.0
        want = _wmc(models, hi) - _wmc(models, lo)
        assert np.allclose(grad[:, j], want, rtol=0.0, atol=1e-13)
        assert np.allclose(log_grad[live, j], want[live] / wmc[live], rtol=1e-10, atol=1e-13)
    # no log gradient where the count is zero; an unsatisfiable CNF's
    # FALSE constant reads no variable
    assert np.all(np.isnan(log_grad[~live]) if len(models) else log_grad == 0.0)
    inner = rng.uniform(0.1, 0.9, (3, cnf.num_vars))
    for s in ("probability", "log") if len(models) else ():
        assert np.allclose(backward(lc, LeafBatch.from_probabilities(inner), s),
                           _central(lc, inner, s), atol=1e-7, rtol=1e-6)


@settings(max_examples=80)
@given(planted_cnfs())
def test_group_circuits_smooth_and_round_trip_to_themselves(cnf):
    """smooth rebuilds a compiled group circuit node for node, and the
    circuit file carries its groups and CAT leaves."""
    c = compile_cnf(cnf)
    assert circuit_to_text(smooth(c)) == circuit_to_text(c)
    assert circuit_from_text(circuit_to_text(c)) == c


@pytest.mark.filterwarnings("ignore:the circuit value")  # the tiny rows underflow
@settings(max_examples=40)
@given(planted_cnfs(), st.integers(0, 2 ** 32 - 1))
def test_group_circuits_agree_bitwise_across_layouts_tiles_and_tables(cnf, seed):
    """A group circuit's values and gradients do not depend on the layout,
    the tile or the other circuits of its table: a literal-only circuit
    over the same variables (the CNF without its clauses of more than two
    positive literals, so with no group) layered beside it changes no
    bit of either root."""
    m = ModuleFactory().module_from_dimacs(cnf)
    rows = _mixed_rows(np.random.default_rng(seed), TILED_ROWS, cnf.num_vars)
    _assert_tiles_agree(m, rows)
    plain = CNF(cnf.num_vars, tuple(c for c in cnf.clauses if len(c) < 3 or min(c) < 0))
    plain = plain if not compile_cnf(plain).groups else CNF(cnf.num_vars, ())
    circuits = [compile_cnf(cnf), compile_cnf(plain)]
    fused = layerize(*circuits)
    batch = LeafBatch.from_probabilities(rows)
    for s, b in (("probability", batch), ("log", batch),
                 ("boolean", LeafBatch.from_probabilities(np.round(rows)))):
        got = evaluate(fused, b, s)
        for k, c in enumerate(circuits):
            assert np.array_equal(_bits(got[:, k]), _bits(evaluate(layerize(c), b, s)))


def test_sum_999_compiles_to_cat_leaves():
    c = compile_cnf(build_addition(3, 999).cnf)
    assert len(c.groups) == 6 and all(len(g) == 10 for g in c.groups)
    assert sum(len(n.children) for n in c.nodes) <= 120
    kinds = {n.kind for n in layerize(c).layers}
    assert kinds == {"LEAF", "CAT", "PROD", "SUM"}


def test_a_group_of_auxiliaries_is_no_group():
    """A Tseitin auxiliary defined as ~x has the shape of a group."""
    cnf = CNF(2, ((1, 2), (-1, -2)), aux_vars={2})
    assert compile_cnf(cnf).groups == ()
    assert compile_cnf(CNF(2, cnf.clauses)).groups == ((1, 2),)


def test_overlapping_exactly_one_constraints_take_the_first():
    cnf = CNF(4, tuple(_exactly_one([1, 2, 3]) + _exactly_one([3, 4])))
    c = compile_cnf(cnf)
    assert c.groups == ((1, 2, 3),)
    assert model_count(c) == len(_models(cnf)) == 3


def test_a_group_alone_is_an_or_of_its_cat_leaves():
    c = compile_cnf(CNF(3, tuple(_exactly_one([1, 2, 3]))))
    assert circuit_to_text(c).splitlines()[3:] == [
        "group 1 2 3", "nnodes 4", "root 3", "node 0 CAT 1", "node 1 CAT 2", "node 2 CAT 3",
        "node 3 OR 1 0 1 2"]
    lc = layerize(c)
    batch = LeafBatch.from_probabilities([[0.2, 0.3, 0.6]])
    assert evaluate(lc, batch)[0] == pytest.approx(0.2 * 0.7 * 0.4 + 0.8 * 0.3 * 0.4
                                                   + 0.8 * 0.7 * 0.6, rel=1e-15)
    assert np.allclose(backward(lc, batch), [[-0.26, -0.24, 0.18]], rtol=1e-14)


def _group_or():
    cats = [CircuitNode("CAT", literal=v, group=(1, 2, 3)) for v in (1, 2, 3)]
    return cats + [CircuitNode("OR", children=(0, 1, 2), decision_var=1)]


def test_a_group_or_is_deterministic_when_its_children_choose_distinct_members():
    assert check_properties(Circuit(3, _group_or(), root=3)).ok
    nodes = _group_or()
    nodes[3] = CircuitNode("OR", children=(0, 1, 1), decision_var=1)
    report = check_properties(Circuit(3, nodes, root=3))
    assert not report.deterministic and report.violations["deterministic"] == [3]
    nodes[3] = CircuitNode("OR", children=(0,), decision_var=1)
    assert not check_properties(Circuit(3, nodes, root=3)).deterministic


@pytest.mark.parametrize("nodes, message", [
    ([CircuitNode("CAT", literal=4, group=(1, 2, 3))], "CAT leaf 4 of group"),
    ([CircuitNode("CAT", literal=2, group=(2, 1))], "lowest first"),
    ([CircuitNode("CAT", literal=1, group=(1,))], "2 or more"),
    ([CircuitNode("CAT", literal=1, group=(1, 2)), CircuitNode("CAT", literal=2, group=(2, 3)),
      CircuitNode("AND", children=(0, 1))], "overlap"),
    ([CircuitNode("CAT", literal=1, group=(1, 2)), CircuitNode("LIT", literal=-2),
      CircuitNode("AND", children=(0, 1))], "literal -2 reads a variable of a group"),
])
def test_malformed_cat_leaves_are_refused(nodes, message):
    with pytest.raises(CircuitError, match=message):
        Circuit(3, nodes, root=len(nodes) - 1)


GROUP_FILE = "nnfc 1\nnvars 3\naux\n{groups}nnodes 4\nroot 3\n{cats}node 3 OR 1 0 1 2\n"
CATS = "node 0 CAT 1\nnode 1 CAT 2\nnode 2 CAT 3\n"


@pytest.mark.parametrize("groups, cats, err", [
    ("group 1 x 3\n", CATS, "malformed group record 'group 1 x 3'"),
    ("", CATS, "CAT leaf 1 is in no group line"),
    ("group 1 2 3\ngroup 1 2 3\n", CATS, "group lines [[1, 2, 3], [1, 2, 3]] are not the groups"),
    ("group 1 2 3\ngroup 4 5\n", CATS, "group lines [[1, 2, 3], [4, 5]] are not the groups"),
    ("group 1 2 3\n", "node 0 CAT\nnode 1 CAT 2\nnode 2 CAT 3\n",
     "malformed node record 'node 0 CAT'"),
    ("group 1 2 3\n", "node 0 CAT 1 2\nnode 1 CAT 2\nnode 2 CAT 3\n",
     "malformed node record 'node 0 CAT 1 2'"),
    ("group 3 2 1\n", CATS, "is not a member of 2 or more distinct variables in range"),
    ("group 1 2 3\n", CATS.replace("CAT 3", "CAT 2"), "circuit violates deterministic"),
], ids=["bad-int", "no-group", "repeated", "unread", "cat-arity", "cat-extra", "unsorted",
        "same-member"])
def test_malformed_group_records_exit_2(groups, cats, err, tmp_path, capsys):
    bad = tmp_path / "bad.nnfc"
    bad.write_text(GROUP_FILE.format(groups=groups, cats=cats))
    assert main(["check", "--circuit", str(bad)]) == 2
    out, got = capsys.readouterr()
    assert out == "" and got.startswith(f"error[format]: {bad}: ") and err in got


def test_a_one_child_or_record_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.nnfc"
    bad.write_text("nnfc 1\nnvars 1\naux\nnnodes 2\nroot 1\nnode 0 LIT 1\nnode 1 OR 1 0\n")
    assert main(["check", "--circuit", str(bad)]) == 2
    assert capsys.readouterr().err == \
        f"error[format]: {bad}: malformed node record 'node 1 OR 1 0'\n"


def test_group_circuit_files_check_and_evaluate(tmp_path, capsys):
    good = tmp_path / "g.nnfc"
    good.write_text(GROUP_FILE.format(groups="group 1 2 3\n", cats=CATS))
    assert main(["check", "--circuit", str(good)]) == 0
    w = tmp_path / "w.csv"
    w.write_text("a,b,c\n0.2,0.3,0.6\n")
    capsys.readouterr()
    assert main(["eval", "--circuit", str(good), "--weights", str(w)]) == 0
    assert float(capsys.readouterr().out.split()[-1]) == pytest.approx(0.488, rel=1e-12)
