"""Compilation into decomposable, deterministic, smooth circuits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nesycirc.compiler import (Circuit, CircuitNode, _elimination_rank,
                               check_properties, circuit_from_text,
                               circuit_to_text, compile_cnf, load_circuit,
                               model_count, save_circuit, smooth)
from nesycirc.errors import CircuitError
from nesycirc.formula import CNF, brute_force_models, parse_dimacs
from nesycirc.layered import LeafBatch, evaluate, layerize
from nesycirc.tasks import build_addition

from test_formula import EX1, cnfs


@pytest.fixture()
def ex1():
    return parse_dimacs(EX1)


def test_compile_example(ex1):
    c = smooth(compile_cnf(ex1))
    report = check_properties(c)
    assert report.ok
    assert model_count(c) == 5


def test_compile_unsat():
    c = compile_cnf(CNF(2, ((1,), (-1,))))
    assert c.nodes[c.root].kind == "FALSE"
    assert model_count(smooth(c)) == 0


def test_compile_empty_clause_set():
    c = smooth(compile_cnf(CNF(3, ())))
    assert model_count(c) == 8


def test_compile_single_unit():
    c = smooth(compile_cnf(CNF(1, ((1,),))))
    assert model_count(c) == 1


@given(cnfs())
def test_compile_counts_models(cnf):
    c = smooth(compile_cnf(cnf))
    assert check_properties(c).ok
    assert model_count(c) == len(brute_force_models(cnf))


def test_compile_is_deterministic(ex1):
    a = smooth(compile_cnf(ex1))
    b = smooth(compile_cnf(ex1))
    assert a.nodes == b.nodes and a.root == b.root


def test_independent_blocks_multiply():
    """Disjoint variable blocks decompose; their counts multiply."""
    left = CNF(2, ((1, 2),))
    both = CNF(4, ((1, 2), (3, 4)))
    c_left = model_count(smooth(compile_cnf(left)))
    c_both = model_count(smooth(compile_cnf(both)))
    assert c_both == c_left * c_left


def test_compile_long_implication_chain(shallow_recursion):
    """x_1 -> x_2 -> ... -> x_1000 has 1001 models; no stage may recurse."""
    n = 1000
    c = smooth(compile_cnf(CNF(n, tuple((-i, i + 1) for i in range(1, n)))))
    lc = layerize(c)
    assert model_count(c) == n + 1
    value = evaluate(lc, LeafBatch.from_probabilities(np.full((1, n), 0.5)), "probability")
    assert float(value[0]) == pytest.approx((n + 1) / 2 ** n, rel=1e-12)


def _edges(c):
    return sum(len(node.children) for node in c.nodes)


@pytest.mark.parametrize("n_digits, query_sum, max_edges", [(3, 999, 600), (4, 9999, 1000)])
def test_addition_circuit_stays_small(n_digits, query_sum, max_edges):
    """Branching guided by the elimination rank decomposes the carry chain;
    lowest-id tie-breaking gave 4431 and 24293 edges."""
    c = smooth(compile_cnf(build_addition(n_digits, query_sum).cnf))
    assert _edges(c) <= max_edges
    top = 2 * (10 ** n_digits - 1)
    assert model_count(c) == min(query_sum, top - query_sum) + 1


def test_implication_chain_circuit_does_not_grow():
    c = smooth(compile_cnf(CNF(400, tuple((-i, i + 1) for i in range(1, 400)))))
    assert _edges(c) <= 41599
    assert model_count(c) == 401


@pytest.mark.parametrize("n, max_edges, max_layers", [(400, 5000, 25), (4000, 60000, 30)])
def test_implication_chain_circuit_is_near_linear(n, max_edges, max_layers):
    """Nested dissection decides the middle of the chain first, then the
    middle of each half; min-degree alone gave 41599 edges in 403 layers
    at 400 variables."""
    c = smooth(compile_cnf(CNF(n, tuple((-i, i + 1) for i in range(1, n)))))
    assert _edges(c) <= max_edges
    assert len(layerize(c).layers) <= max_layers
    assert model_count(c) == n + 1


def test_elimination_rank_cuts_long_paths_in_the_middle():
    # 17 variables: the middle one is a cut of 1, and 8 * 1 <= 17
    rank = _elimination_rank([(-i, i + 1) for i in range(1, 17)])
    assert min(rank, key=rank.get) == 9
    assert sorted(rank.values()) == list(range(17))
    assert _elimination_rank([]) == {}  # what a constant formula gives


def test_elimination_rank_decides_separators_first():
    # star: the leaves go first, lowest id first, and the hub ranks first
    assert _elimination_rank([(1, -5), (2, 5), (-3, 5), (4, 5)]) == {5: 0, 4: 1, 3: 2, 2: 3, 1: 4}
    # path 1-2-3-4-5: both ends have degree 1 and the lower id goes first,
    # so elimination runs from 1 and the far end ranks first
    assert _elimination_rank([(1, 2), (-2, 3), (3, -4), (4, 5)]) == {5: 0, 4: 1, 3: 2, 2: 3, 1: 4}
    # a clause is a clique; a variable alone in its clauses has degree 0,
    # so it goes first and ranks last
    assert _elimination_rank([(1, 2, 3), (4,)]) == {3: 0, 2: 1, 1: 2, 4: 3}


def test_smooth_is_idempotent(ex1):
    once = smooth(compile_cnf(ex1))
    twice = smooth(once)
    assert once.nodes == twice.nodes and once.root == twice.root


def test_smooth_extends_root_to_all_declared_vars():
    cnf = CNF(4, ((1,),))  # variables 2..4 unconstrained
    c = smooth(compile_cnf(cnf))
    assert model_count(c) == 8
    assert check_properties(c).smooth


def test_aux_vars_survive_compilation(ex1):
    cnf = CNF(ex1.num_vars + 2, ex1.clauses + ((-4, 2), (4, -2), (-5, 3), (5, -3)),
              aux_vars={4, 5})
    c = smooth(compile_cnf(cnf))
    assert c.aux_vars == frozenset({4, 5})
    assert circuit_from_text(circuit_to_text(c)).aux_vars == c.aux_vars


# ---------------------------------------------------------------------------
# Structural checks on hand-built circuits


def _lit(v):
    return CircuitNode("LIT", literal=v)


def test_check_properties_flags_overlap():
    nodes = (_lit(1), _lit(-1), CircuitNode("AND", children=(0, 1)))
    report = check_properties(Circuit(1, nodes, root=2))
    assert not report.decomposable
    assert report.violations["decomposable"] == [2]


def test_check_properties_flags_nondeterministic_or():
    nodes = (_lit(1), _lit(2), CircuitNode("OR", children=(0, 1), decision_var=1))
    report = check_properties(Circuit(2, nodes, root=2))
    assert not report.deterministic


def test_check_properties_flags_unsmooth_or():
    nodes = (_lit(1), _lit(-1), _lit(2),
             CircuitNode("AND", children=(0, 2)),
             CircuitNode("OR", children=(3, 1), decision_var=1))
    report = check_properties(Circuit(2, nodes, root=4))
    assert report.decomposable and report.deterministic
    assert not report.smooth
    assert report.violations["smooth"] == [4]


def test_model_count_is_exact_past_float_precision():
    assert model_count(smooth(compile_cnf(CNF(121, ((1,),))))) == 2 ** 120
    pairs = tuple((2 * i + 1, 2 * i + 2) for i in range(40))
    assert model_count(smooth(compile_cnf(CNF(80, pairs)))) == 3 ** 40  # > 2**53


def test_model_count_requires_properties():
    nodes = (_lit(1), _lit(2), CircuitNode("OR", children=(0, 1), decision_var=1))
    with pytest.raises(CircuitError, match="deterministic"):
        model_count(Circuit(2, nodes, root=2))


def test_circuit_validates_child_order():
    with pytest.raises(CircuitError, match="topologically earlier"):
        Circuit(1, (CircuitNode("AND", children=(1,)), _lit(1)), root=0)


# ---------------------------------------------------------------------------
# Serialization


def test_text_round_trip(ex1):
    c = smooth(compile_cnf(ex1))
    back = circuit_from_text(circuit_to_text(c))
    assert back.nodes == c.nodes
    assert back.root == c.root
    assert back.num_vars == c.num_vars
    assert back.aux_vars == c.aux_vars


@given(cnfs())
def test_text_round_trip_random(cnf):
    c = smooth(compile_cnf(cnf))
    back = circuit_from_text(circuit_to_text(c))
    assert back.nodes == c.nodes and back.root == c.root


def test_file_round_trip_ignores_comments(tmp_path, ex1):
    c = smooth(compile_cnf(ex1))
    path = tmp_path / "c.nnfc"
    save_circuit(c, path, comments=["layer summary here", "another line"])
    assert "c layer summary here" in path.read_text()
    back = load_circuit(path)
    assert back.nodes == c.nodes


@pytest.mark.parametrize("text, match", [
    ("nnf 2\n", "header"),
    ("nnfc 1\nnvars 1\naux\nnnodes 1\nroot 0\nnode 0 XOR 1", "kind"),
    ("nnfc 1\nnvars 1\naux\nnnodes 2\nroot 1\nnode 0 LIT 1\nnode 1 AND 5", "child"),
    ("nnfc 1\nnvars 1\naux\nnnodes 1\nroot 0\nnode 0 LIT 4", "literal"),
    ("nnfc 1\nnvars 1\naux\nnnodes 3\nroot 2\nnode 0 LIT 1\nnode 1 LIT 1\n"
     "node 2 AND 0 1", "decomposab"),
    ("nnfc 1\nnvars 2\naux\nnnodes 3\nroot 2\nnode 0 LIT 1\nnode 1 LIT 2\n"
     "node 2 OR 1 0 1", "determin"),
    ("nnfc 1\nnvars 1\naux\nnnodes 1\nroot 0\nnode 0 LIT", "malformed node record"),
    ("nnfc 1\nnvars 1\naux\nnnodes 1\nroot 0\nnode 0 LIT x", "malformed node record"),
    ("nnfc 1\nnvars 2\naux\nnnodes 3\nroot 2\nnode 0 LIT 1\nnode 1 LIT 2\n"
     "node 2 AND 0 z", "malformed node record"),
    ("nnfc 1\nnvars 2\naux 7\nnnodes 1\nroot 0\nnode 0 TRUE", "top of the id range"),
    ("nnfc 1\nnvars -1\naux\nnnodes 1\nroot 0\nnode 0 TRUE", "nonnegative"),
])
def test_bad_circuit_text_is_rejected(text, match):
    with pytest.raises(CircuitError, match=match):
        circuit_from_text(text)
