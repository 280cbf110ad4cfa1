"""Compilation into decomposable, deterministic, smooth circuits."""

import ast
import hashlib
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nesycirc
from nesycirc import compiler
from nesycirc.compiler import (Circuit, CircuitNode, _elimination_rank, check_properties,
                               circuit_from_text, circuit_to_text, compile_cnf,
                               load_circuit, model_count, save_circuit, smooth)
from nesycirc.errors import CircuitError
from nesycirc.formula import (CNF, And, Iff, Implies, Not, Or, brute_force_models,
                              make_name_table, parse_dimacs, to_cnf, to_nnf)
from nesycirc.layered import LeafBatch, evaluate, layerize
from nesycirc.tasks import build_addition

from test_formula import EX1, cnfs


# EX1's constraint with its decision on variable 2 left unpadded: the OR's
# children mention {2} and {1, 2, 3}, so the circuit is decomposable and
# deterministic but not smooth (node 5)
UNSMOOTH = """nnfc 1
nvars 3
aux
nnodes 6
root 5
node 0 LIT 2
node 1 LIT -2
node 2 LIT -1
node 3 LIT -3
node 4 AND 1 2 3
node 5 OR 2 0 4
"""


@pytest.fixture()
def ex1():
    return parse_dimacs(EX1)


def _edges(c):
    return sum(len(node.children) for node in c.nodes)


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


@given(cnfs())
def test_compile_output_is_smooth(cnf):
    c = compile_cnf(cnf)
    assert check_properties(c).ok
    full = (1 << cnf.num_vars) - 1
    assert c.nodes[c.root].kind == "FALSE" or c.var_masks[c.root] == full
    again = smooth(c)
    assert (len(again.nodes), _edges(again)) == (len(c.nodes), _edges(c))
    # the builder pads both branches of an OR before it builds either AND,
    # so rebuilding a compiled circuit meets its nodes in the same order
    assert circuit_to_text(again) == circuit_to_text(c)


@pytest.fixture()
def dropped(monkeypatch):
    """The number of nodes ``_compact`` drops, one entry per circuit built."""
    counts = []
    compact = compiler._compact

    def counting(nodes, masks, root):
        out = compact(nodes, masks, root)
        counts.append(len(nodes) - len(out[0]))
        return out

    monkeypatch.setattr(compiler, "_compact", counting)
    return counts


def test_no_node_is_built_only_to_be_dropped(dropped):
    """A branch's conjuncts and its padding go into one AND, built once, so
    the builder leaves no unreachable node on these inputs."""
    rng = random.Random(24)
    cnfs = [build_addition(3, 999).cnf,
            *(CNF(n, tuple((-i, i + 1) for i in range(1, n))) for n in (200, 400))]
    for _ in range(40):
        cnfs.append(CNF(16, tuple(tuple(v * rng.choice((1, -1))
                                        for v in rng.sample(range(1, 17), 3))
                                  for _ in range(48))))
    for cnf in cnfs:
        compile_cnf(cnf)
    assert dropped == [0] * len(cnfs)


def _reachable(c):
    reach = {c.root}
    for i in range(c.root, -1, -1):
        if i in reach:
            reach.update(c.nodes[i].children)
    return reach


def test_compact_drops_a_sibling_of_an_unsatisfiable_component(dropped):
    """Deciding 1 false leaves the components {3, 4}, which has no model,
    and (5 | 6), built before the search finds that; ``_compact`` drops the
    nodes of (5 | 6) that the circuit does not reuse."""
    cnf = CNF(6, ((1, 3, 4), (1, 3, -4), (1, -3, 4), (1, -3, -4), (1, 5, 6)))
    c = compile_cnf(cnf)
    assert dropped[0] > 0
    assert _reachable(c) == set(range(len(c.nodes)))
    assert check_properties(c).ok
    assert model_count(c) == len(brute_force_models(cnf)) == 32
    cnf = CNF(5, ((5, 1, 2), (-5, 1), (3, 4), (3, -4), (-3, 4), (-3, -4)))
    c = compile_cnf(cnf)
    assert dropped[1] > 0
    assert c.nodes == (CircuitNode("FALSE"),) and c.root == 0


def test_only_the_compiler_calls_smooth():
    """compile_cnf builds smooth circuits, so no other module smooths."""
    calls = []
    for path in sorted(Path(nesycirc.__file__).parent.glob("*.py")):
        if path.name == "compiler.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", None) == "smooth" or getattr(f, "attr", None) == "smooth":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


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


@pytest.mark.parametrize("n_digits, query_sum, max_edges", [(3, 999, 468), (4, 9999, 624)])
def test_addition_circuit_stays_small(n_digits, query_sum, max_edges):
    """Branching guided by the elimination rank decomposes the carry chain;
    lowest-id tie-breaking gave 4431 and 24293 edges, and a min-degree
    elimination order 480 and 804."""
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
    # star: the hub has the highest degree and ranks first, then the
    # leaves, ties going to the higher id
    assert _elimination_rank([(1, -5), (2, 5), (-3, 5), (4, 5)]) == {5: 0, 4: 1, 3: 2, 2: 3, 1: 4}
    # path 1-2-3-4-5: below 8 variables a part is never cut, so it is ranked
    # by degree, the inner variables (degree 2) before the ends (degree 1)
    assert _elimination_rank([(1, 2), (-2, 3), (3, -4), (4, 5)]) == {4: 0, 3: 1, 2: 2, 5: 3, 1: 4}
    # a clause is a clique; a variable alone in its clauses has degree 0,
    # so it ranks last
    assert _elimination_rank([(1, 2, 3), (4,)]) == {3: 0, 2: 1, 1: 2, 4: 3}


def _rank_corpus():
    rng = random.Random(20261019)
    for _ in range(40):
        n = rng.randrange(4, 25)
        clauses = []
        for _ in range(rng.randrange(1, 3 * n)):
            vs = rng.sample(range(1, n + 1), rng.randrange(1, min(n, 5) + 1))
            clauses.append(tuple(v * rng.choice((1, -1)) for v in vs))
        yield rng, clauses
    # one wide clique, with a path hanging off it and a clause across both
    yield rng, [tuple(range(1, 41))] + [(i, -(i + 1)) for i in range(40, 60)] + [(5, 50, -59)]


def test_elimination_rank_depends_only_on_the_graph():
    """Duplicate clauses, clauses inside other clauses and the clause order
    leave the primal graph, and so the elimination rank, unchanged."""
    for rng, clauses in _rank_corpus():
        want = _elimination_rank(clauses)
        assert sorted(want) == sorted({abs(l) for c in clauses for l in c})
        duplicated = clauses + rng.choices(clauses, k=len(clauses))
        inside = clauses + [tuple(rng.sample(c, rng.randrange(1, len(c) + 1)))
                            for c in rng.choices(clauses, k=len(clauses))]
        for variant in (duplicated, inside):
            assert _elimination_rank(variant) == want
            assert _elimination_rank(rng.sample(variant, len(variant))) == want
        assert _elimination_rank(rng.sample(clauses, len(clauses))) == want


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
    # a layer of mixed fan-in is padded with an identity slot at batch size
    # one; a float pad would turn the count into a rounded float
    mixed = smooth(compile_cnf(CNF(83, pairs + ((81, 82, 83),))))
    assert any(len(set(layer.seg_lengths.tolist())) > 1 for layer in layerize(mixed).layers)
    assert model_count(mixed) == 7 * 3 ** 40


def test_model_count_requires_properties():
    nodes = (_lit(1), _lit(2), CircuitNode("OR", children=(0, 1), decision_var=1))
    with pytest.raises(CircuitError, match="deterministic"):
        model_count(Circuit(2, nodes, root=2))


def test_circuit_validates_child_order():
    with pytest.raises(CircuitError, match="topologically earlier"):
        Circuit(1, (CircuitNode("AND", children=(1,)), _lit(1)), root=0)


@pytest.mark.parametrize("kind", ["AND", "OR"])
def test_circuit_rejects_childless_gates(kind):
    with pytest.raises(CircuitError, match=f"^node 1: {kind} without children$"):
        Circuit(1, (_lit(1), CircuitNode(kind)), root=1)


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


# Node tables whose children do not all come before their parents, as
# multi-root layering and every other pass over the table assume: a node
# that is its own child, one that names a later node, and a two-node cycle.
OUT_OF_ORDER = {
    "self": "nnfc 1\nnvars 1\naux\nnnodes 1\nroot 0\nnode 0 AND 0\n",
    "forward": "nnfc 1\nnvars 1\naux\nnnodes 3\nroot 1\nnode 0 LIT 1\nnode 1 AND 2\n"
               "node 2 AND 0\n",
    "cycle": "nnfc 1\nnvars 1\naux\nnnodes 2\nroot 1\nnode 0 AND 1\nnode 1 AND 0\n",
}


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
    ("nnfc 1\nnvars 1\naux\nnnodes 1\nroot 0\nnvars 5\nnode 0 TRUE",
     "malformed header line 'nvars 5'"),
    ("nnfc 1\nnvars 1\naux\nfoo bar\nnnodes 1\nroot 0\nnode 0 TRUE",
     "malformed header line 'foo bar'"),
    *((text, "not topologically earlier") for text in OUT_OF_ORDER.values()),
])
def test_bad_circuit_text_is_rejected(text, match):
    with pytest.raises(CircuitError, match=match):
        circuit_from_text(text)


@pytest.mark.parametrize("text, match", [
    ("nnfc 1\nnvars 2\naux\nnnodes 1\nroot 0\nnode 0 LIT 1\n", "mention every declared"),
    (UNSMOOTH, r"violates smooth \(nodes 5\)"),
], ids=["root-misses-a-variable", "unsmooth"])
def test_model_count_refuses_loaded_circuit(text, match):
    """A file may hold a valid circuit that model_count cannot count."""
    c = circuit_from_text(text)
    with pytest.raises(CircuitError, match=match):
        model_count(c)


# ---------------------------------------------------------------------------
# Pinned output


def _random_formula(rng, leaves, size):
    """A random formula over the shared ``leaves`` with ``size`` binary
    connectives drawn from &, |, -> and <->, and negations in between."""
    nodes = [rng.choice(leaves) for _ in range(size + 1)]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        op = rng.choice((And, Or, Implies, Iff))
        node = op(nodes[i], nodes[i + 1])
        nodes[i:i + 2] = [Not(node) if rng.random() < 0.2 else node]
    return nodes[0]


def _pinned_corpus():
    rng = random.Random(20261019)
    top = 2 * 999
    yield from (build_addition(3, (k * (top + 1) + 500) // 12).cnf for k in range(12))
    yield build_addition(2, 99).cnf
    for n in (200, 1000):
        yield CNF(n, tuple((-i, i + 1) for i in range(1, n)))
    for _ in range(40):
        yield CNF(16, tuple(tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, 17), 3))
                            for _ in range(48)))
    leaves = list(make_name_table([f"x{i}" for i in range(1, 11)]).values())
    for _ in range(30):
        f = _random_formula(rng, leaves, rng.randrange(4, 24))
        yield to_cnf(to_nnf(f), num_vars=10)
    yield CNF(200, (tuple(v * rng.choice((1, -1)) for v in range(1, 201)),))
    yield CNF(3, tuple(tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                       for signs in product((1, -1), repeat=3)))


def test_compile_output_pinned():
    """Every node, edge, number and tie-break of compile_cnf's output on a
    fixed corpus. A change to the compiler that alters any circuit fails
    here; if the new output is intended, update the digest deliberately."""
    digest = hashlib.sha256()
    for cnf in _pinned_corpus():
        digest.update(circuit_to_text(compile_cnf(cnf)).encode())
    assert digest.hexdigest() == "050ef5deeec51eab1b6e04f211a1919d65270a6e0d33ed85f8a39f69887534cb"
