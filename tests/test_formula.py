"""Parsers, normal forms, and the brute-force oracles they are checked by."""

import dataclasses
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nesycirc.compiler import compile_cnf, model_count, smooth
from nesycirc.errors import DimacsError, FormulaError
from nesycirc.formula import (CNF, FALSE, MAX_PAREN_DEPTH, MAX_VARS, TRUE, And,
                              Formula, Iff, Implies, Not, Or, Var, _walk,
                              brute_force_models,
                              brute_force_wmc, cnf_to_formula, eval_assignment,
                              formula_names, formula_vars, is_nnf,
                              make_name_table, parse_dimacs, parse_formula,
                              serialize_dimacs, to_cnf, to_nnf)
from nesycirc.layered import LeafBatch, evaluate, layerize
from nesycirc.semantics import evaluate_fuzzy, fuzzy_value_and_grad

EX1 = "c two-clause constraint\np cnf 3 2\n-1 2 0\n2 -3 0\n"


# ---------------------------------------------------------------------------
# DIMACS


def test_parse_dimacs_basic():
    cnf = parse_dimacs(EX1)
    assert cnf.num_vars == 3
    assert cnf.clauses == ((-1, 2), (2, -3))
    assert not cnf.unsat
    assert cnf.n_inputs == 3


def test_parse_dimacs_trailing_comment_after_zero():
    cnf = parse_dimacs("p cnf 2 1\n1 -2 0 this is ignored\n")
    assert cnf.clauses == ((1, -2),)


def test_parse_dimacs_multiline_clause():
    cnf = parse_dimacs("p cnf 3 1\n1\n2 3\n0\n")
    assert cnf.clauses == ((1, 2, 3),)


def test_parse_dimacs_drops_tautologies_but_counts_them():
    cnf = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
    assert cnf.clauses == ((2,),)


def test_parse_dimacs_dedupes_repeated_literals():
    cnf = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert cnf.clauses == ((1, 2),)


@pytest.mark.parametrize("text, line", [
    ("p cnf 2 1\n0\n", 2),
    ("p cnf 2 1\n1 x 0\n", 2),
    ("p cnf 2 1\n3 0\n", 2),
    ("1 2 0\n", 1),
    ("p cnf 2 1\np cnf 2 1\n1 0\n", 2),
    ("p dnf 2 1\n1 0\n", 1),
    ("p cnf 2 1\n1 2\n", 2),
])
def test_parse_dimacs_errors_carry_line_numbers(text, line):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(text)
    assert exc.value.line == line


def test_parse_dimacs_count_mismatch():
    with pytest.raises(DimacsError, match="declared 2, found 1"):
        parse_dimacs("p cnf 2 2\n1 0\n")


def test_parse_dimacs_missing_problem_line():
    with pytest.raises(DimacsError, match="problem line"):
        parse_dimacs("c only a comment\n")


def test_serialize_unsat_as_contradiction():
    text = serialize_dimacs(CNF(2, (), unsat=True))
    back = parse_dimacs(text)
    assert brute_force_models(back) == []


@st.composite
def cnfs(draw, max_vars=6, max_clauses=8):
    n = draw(st.integers(1, max_vars))
    n_clauses = draw(st.integers(0, max_clauses))
    clauses = []
    for _ in range(n_clauses):
        width = draw(st.integers(1, min(4, n)))
        vs = draw(st.lists(st.integers(1, n), min_size=width, max_size=width,
                           unique=True))
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append(tuple(v if s else -v for v, s in zip(vs, signs)))
    return CNF(n, tuple(clauses))


@given(cnfs())
def test_dimacs_round_trip(cnf):
    assert parse_dimacs(serialize_dimacs(cnf)) == cnf


def test_cnf_rejects_empty_clause_and_bad_literals():
    with pytest.raises(ValueError, match="empty clause"):
        CNF(2, ((),))
    with pytest.raises(ValueError, match="out of range"):
        CNF(2, ((3,),))
    with pytest.raises(ValueError, match="tautological"):
        CNF(2, ((1, -1),))
    with pytest.raises(ValueError, match="top of the id range"):
        CNF(3, ((1,),), aux_vars={2})
    with pytest.raises(ValueError, match="top of the id range"):
        CNF(2, ((1,),), aux_vars={0, 1, 2})  # 0 is not a variable
    assert CNF(MAX_VARS, ()).num_vars == MAX_VARS
    with pytest.raises(ValueError, match=f"exceed the limit of {MAX_VARS}"):
        CNF(MAX_VARS + 1, ())


@pytest.mark.parametrize("clauses, message", [
    (((1, 2), (2, 0, 5)), "literal 0 out of range for 3 variables"),
    (((1, 2), (-2, 3), (2, -4, 1, -2)), "literal -4 out of range for 3 variables"),
    (((1, 2), (3, 1, -3, 4)), "tautological clause (3, 1, -3, 4)"),
    (((1, 2), (1, -1), (9,)), "tautological clause (1, -1)"),
    (((1,), (2, 2), ()), "empty clause; use the unsat marker instead"),
], ids=["zero", "out-of-range", "tautology-first-in-clause", "first-bad-clause", "empty"])
def test_cnf_names_the_first_offending_clause(clauses, message):
    """The check runs on the whole clause set at once; the message still
    names the first bad clause, and in it the first bad literal."""
    with pytest.raises(ValueError) as exc:
        CNF(3, clauses)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Formula parsing


def _parse(text, names=("a", "b", "c", "d")):
    return parse_formula(text, make_name_table(names))


def test_parse_precedence():
    a, b, c = Var(1, "a"), Var(2, "b"), Var(3, "c")
    assert _parse("a & b | c") == Or(And(a, b), c)
    assert _parse("~a & b") == And(Not(a), b)
    assert _parse("a -> b -> c") == Implies(a, Implies(b, c))
    assert _parse("a <-> b") == Iff(a, b)
    assert _parse("(a | b) & c") == And(Or(a, b), c)
    assert _parse("true & ~false") == And(TRUE, Not(FALSE))


def test_parse_reports_position():
    with pytest.raises(FormulaError) as exc:
        _parse("a & & b")
    assert exc.value.position == 4


def test_parse_unknown_name():
    with pytest.raises(FormulaError, match="unknown identifier"):
        _parse("a & zz")


def test_parse_rejects_trailing_junk():
    with pytest.raises(FormulaError):
        _parse("a b")


def test_parse_long_negation_chain():
    f = _parse("~" * 2000 + "a")
    for _ in range(2000):  # dataclass == on a 2000-deep AST would recurse
        assert isinstance(f, Not)
        f = f.child
    assert f == Var(1, "a")


@pytest.mark.parametrize("op, node", [("->", Implies), ("<->", Iff)])
def test_parse_long_chain_is_right_associative(op, node):
    f = _parse(f" {op} ".join(["a", "b"] * 1000))
    for i in range(1999):
        assert isinstance(f, node)
        assert f.left == (Var(1, "a") if i % 2 == 0 else Var(2, "b"))
        f = f.right
    assert f == Var(2, "b")


def test_parse_parentheses_nesting_limit():
    assert _parse("(" * MAX_PAREN_DEPTH + "a" + ")" * MAX_PAREN_DEPTH) == Var(1, "a")
    with pytest.raises(FormulaError, match="nested deeper") as exc:
        _parse("(" * 400 + "a" + ")" * 400)
    assert exc.value.position == MAX_PAREN_DEPTH


def test_make_name_table_rejects_duplicates():
    with pytest.raises(FormulaError, match="duplicate"):
        make_name_table(["x", "x"])


@pytest.mark.parametrize("bad", [0, -1])
def test_var_ids_are_one_based(bad):
    # a leaf of id 0 or -1 would read a score column from the end
    with pytest.raises(ValueError, match="1-based"):
        Var(bad)


def test_parsed_formulas_share_their_leaves():
    f = parse_formula("a & (b | a)", make_name_table(["a", "b"]))
    assert f.left is f.right.right
    assert len(_walk(f)[0]) == 4
    table = {"x": Var(1), "y": Var(2, "y")}  # an unnamed entry is named after its token
    g = parse_formula("x | y", table)
    assert g.left == Var(1, "x") and g.right is table["y"]


def test_cnf_to_formula_shares_its_literals():
    f = cnf_to_formula(CNF(2, ((1, -2), (-2, 1), (-1,))))
    (c1, c2), c3 = (f.left.left, f.left.right), f.right
    assert c1.left is c2.right and c1.right is c2.left
    assert c3.child is c1.left
    assert len(_walk(f)[0]) == 8  # two each of Var, Not, Or and And


def test_formula_names_and_vars():
    f = _parse("(a -> b) & (c -> b)")
    assert formula_vars(f) == [1, 2, 3]
    assert formula_names(f) == {1: "a", 2: "b", 3: "c"}
    shared = Var(2, "late")
    g = Or(And(Var(2, "early"), shared), And(shared, Var(1)))
    assert formula_vars(g) == [1, 2]
    assert formula_names(g) == {2: "early"}  # the leftmost name wins


# ---------------------------------------------------------------------------
# Normal forms


@st.composite
def formulas(draw, max_vars=4, max_depth=4):
    n = draw(st.integers(1, max_vars))
    leaf = st.one_of(st.builds(Var, st.integers(1, n)), st.just(TRUE), st.just(FALSE))
    return draw(st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=2 ** max_depth))


def _corners(n):
    for bits in range(1 << n):
        yield {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}


@given(formulas())
def test_to_nnf_preserves_truth(f):
    nnf = to_nnf(f)
    assert is_nnf(nnf)
    n = max(formula_vars(f), default=0)
    for a in _corners(n):
        assert eval_assignment(nnf, a) == eval_assignment(f, a)


def test_to_nnf_pushes_negations():
    f = _parse("~(a & (b -> c))")
    nnf = to_nnf(f)
    assert is_nnf(nnf)
    assert not is_nnf(f)


def test_long_conjunction_compiles_and_evaluates():
    n = 10000
    names = [f"x{i}" for i in range(n)]
    nnf = to_nnf(parse_formula(" & ".join(names), make_name_table(names)))
    assert is_nnf(nnf)
    cnf = to_cnf(nnf)
    assert cnf.clauses == tuple((v,) for v in range(1, n + 1))
    lc = layerize(smooth(compile_cnf(cnf)))
    value = evaluate(lc, LeafBatch.from_probabilities(np.full((1, n), 0.999)), "probability")
    assert float(value[0]) == pytest.approx(0.999 ** n, rel=1e-9)


def test_deep_formula_evaluates_without_recursion():
    f = Var(1)
    for _ in range(3000):
        f = And(Var(2), f)
    assert eval_assignment(f, {1: True, 2: True})
    assert brute_force_models(f) == [{1: True, 2: True}]
    with pytest.raises(ValueError, match="missing assignment for variable 2"):
        eval_assignment(Or(TRUE, Var(2)), {1: True})


def _and_chain(n: int, leaf: Formula = Var(1)) -> Formula:
    f = leaf
    for _ in range(n):
        f = And(Var(2), f)
    return f


def test_deep_formula_hashes_compares_and_prints_without_recursion():
    """A 3000-deep ``And`` chain, where the dataclass ``hash``, ``==`` and
    ``repr`` raised RecursionError: two chains built apart hash and compare
    equal, a chain with another leaf or of another depth does not, and the
    repr is the dataclass one, nested 3000 times."""
    f, g = _and_chain(3000), _and_chain(3000)
    assert f is not g and hash(f) == hash(g) and f == g and not f != g
    assert f != _and_chain(3000, Var(3)) and f != _and_chain(2999)
    assert f != Or(Var(2), f.right) and f != "And"
    assert {f: 1}[g] == 1
    assert repr(f) == "And(left=Var(id=2, name=None), right=" * 3000 \
        + "Var(id=1, name=None)" + ")" * 3000


def test_shallow_formulas_keep_the_dataclass_repr_and_equality():
    a, b = Var(1, "a"), Var(2, "b")
    f = Iff(Implies(a, FALSE), Not(And(b, Or(a, TRUE))))
    assert repr(f) == ("Iff(left=Implies(left=Var(id=1, name='a'), right=FalseF()), "
                       "right=Not(child=And(left=Var(id=2, name='b'), "
                       "right=Or(left=Var(id=1, name='a'), right=TrueF()))))")
    assert f == Iff(Implies(Var(1, "a"), FALSE), Not(And(b, Or(a, TRUE))))
    assert And(a, b) != Or(a, b) and And(a, b) != And(b, a) and And(a, b) != And(a, Var(2))
    assert repr(And(1, "x")) == "And(left=1, right='x')"


def test_nested_equivalences_hash_in_linear_time():
    """The NNF of x0 <-> ... <-> x21 is a DAG of about 130 nodes whose tree
    has more than 2^22: one hash reaches every connective once and caches
    its hash, and two NNFs converted apart compare equal in as little
    time; the dataclass hash unfolded the tree, some 5 s."""
    names = [f"x{i}" for i in range(22)]
    table = make_name_table(names)
    text = " <-> ".join(names)
    nnf, other = to_nnf(parse_formula(text, table)), to_nnf(parse_formula(text, table))
    t0 = time.perf_counter()
    assert hash(nnf) == hash(other) and nnf == other
    assert time.perf_counter() - t0 < 1.0
    nodes, kids = _walk(nnf)
    assert all("_hash" in vars(node) for node, ks in zip(nodes, kids) if ks)


def test_a_pickled_formula_hashes_as_one_built_where_it_is_loaded():
    """The hash cached on a connective holds only in the process that
    computed it (class and string hashes change from process to process),
    so a pickle leaves it out: the formula, loaded in a process of another
    hash seed, hashes and compares like one built there."""
    f = And(Var(1, "a"), Or(Var(2, "b"), Not(Var(1, "a"))))
    hash(f)
    code = ("import pickle, sys\n"
            "from nesycirc.formula import And, Not, Or, Var\n"
            "f = pickle.loads(sys.stdin.buffer.read())\n"
            f"g = {f!r}\n"
            "print(hash(f) == hash(g), f == g, {g: 1}.get(f))")
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(f),
                          capture_output=True, env={**os.environ, "PYTHONHASHSEED": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"True", b"True", b"1"]


def _distinct_nodes(f) -> int:
    """Nodes of f counted by identity, from the dataclass fields alone."""
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            children = (getattr(node, field.name) for field in dataclasses.fields(node))
            stack.extend(c for c in children if isinstance(c, Formula))
    return len(seen)


def test_long_equivalence_chain_is_linear():
    """x0 <-> ... <-> x39: its NNF unfolds to a tree of more than 2^40 nodes,
    but every pass walks the DAG. The cheap checks come first, so a
    regression fails instead of hanging."""
    n = 40
    names = [f"x{i}" for i in range(n)]
    f = parse_formula(" <-> ".join(names), make_name_table(names))
    nnf = to_nnf(f)
    assert to_nnf(f) is nnf  # converted once, cached on f
    nodes, kids = _walk(nnf)
    assert len(nodes) == len(kids) == _distinct_nodes(nnf) < 10 * n
    assert nodes[-1] is nnf
    assert _walk(nnf)[0] == nodes  # cached, not rebuilt differently

    cnf = to_cnf(nnf)
    assert cnf.n_inputs == n
    # the auxiliaries are functionally determined, so the count is exact
    assert model_count(compile_cnf(cnf)) == 2 ** (n - 1)

    rng = np.random.default_rng(3)
    rows = np.vstack([np.ones(n), np.zeros(n), rng.integers(0, 2, (30, n))]).astype(np.float64)
    parity = ((n - rows.sum(axis=1)) % 2 == 0).astype(np.float64)  # even count of falses
    for family in ("fuzzy_product", "fuzzy_godel", "fuzzy_lukasiewicz"):
        value, grad = fuzzy_value_and_grad(nnf, family, rows)
        assert np.array_equal(value, parity)
        assert np.array_equal(evaluate_fuzzy(nnf, family, rows), parity)
        assert grad.shape == rows.shape and np.all(np.isfinite(grad))

    for falses, want in ((0, True), (1, False), (2, True), (n, True)):
        a = {v: v > falses for v in range(1, n + 1)}
        assert eval_assignment(f, a) is want
        assert eval_assignment(nnf, a) is want
        assert eval_assignment(cnf, a) is want


@given(formulas(max_vars=4, max_depth=3))
def test_to_cnf_models_extend_uniquely(f):
    """Every model of f lifts to exactly one model of its clause encoding."""
    n = max(formula_vars(f), default=0)
    cnf = to_cnf(to_nnf(f), num_vars=n)
    assert cnf.n_inputs == n
    direct = {tuple(sorted(m.items())) for m in brute_force_models(f, num_vars=n)}
    lifted = {tuple(sorted(m.items())) for m in brute_force_models(cnf)}
    assert direct == lifted


@given(formulas(max_vars=4, max_depth=3),
       st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_to_cnf_preserves_weighted_count(f, probs):
    n = 4
    cnf = to_cnf(to_nnf(f), num_vars=n)
    direct = 0.0
    for a in _corners(n):
        if eval_assignment(f, a):
            w = 1.0
            for v, val in a.items():
                w *= probs[v - 1] if val else 1.0 - probs[v - 1]
            direct += w
    assert brute_force_wmc(cnf, probs) == pytest.approx(direct, abs=1e-12)


@given(cnfs(max_vars=5, max_clauses=6))
def test_cnf_to_formula_round_trip(cnf):
    f = cnf_to_formula(cnf)
    for a in _corners(cnf.num_vars):
        assert eval_assignment(f, a) == eval_assignment(cnf, a)


# ---------------------------------------------------------------------------
# Oracles


def test_brute_force_wmc_example():
    cnf = parse_dimacs(EX1)
    assert brute_force_wmc(cnf, [0.5, 0.5, 0.5]) == pytest.approx(0.625)
    assert brute_force_wmc(cnf, [0.9, 0.2, 0.1]) == pytest.approx(0.272)
    assert len(brute_force_models(cnf)) == 5


@pytest.mark.parametrize("f", [
    Iff(Iff(Iff(Var(3), Var(3)), And(Var(3), Var(3))),
        Iff(Iff(Var(3), Var(1)), And(Var(3), Var(3)))),
    Iff(Iff(Var(1), Var(1)), And(Iff(Var(1), Var(2)), Iff(Var(2), Var(1)))),
])
def test_brute_force_wmc_deep_tseitin_encoding(f):
    """Nested equivalences grow to 26 and 30 variables over 4 inputs."""
    probs = [0.9, 0.3, 0.6, 0.2]
    cnf = to_cnf(to_nnf(f), num_vars=4)
    assert len(cnf.aux_vars) > 12
    direct = sum(np.prod([probs[v - 1] if val else 1.0 - probs[v - 1]
                          for v, val in a.items()])
                 for a in _corners(4) if eval_assignment(f, a))
    assert brute_force_wmc(cnf, probs) == pytest.approx(direct, abs=1e-12)


def test_brute_force_wmc_counts_free_auxiliaries():
    # 13 unconstrained auxiliaries: each input model counts 2**13 times
    cnf = CNF(15, ((1, 2),), aux_vars=range(3, 16))
    assert brute_force_wmc(cnf, [0.5, 0.25]) == pytest.approx((1 - 0.5 * 0.75) * 2 ** 13)


def test_free_auxiliaries_are_counted_by_branching():
    """Propagation leaves these auxiliaries free, so the DPLL oracles branch."""
    cnf = CNF(3, ((1, 2, 3), (-2, -3)), aux_vars={2, 3})
    assert eval_assignment(cnf, {1: True}) and eval_assignment(cnf, {1: False})
    wide = CNF(14, (tuple(range(1, 15)),), aux_vars=frozenset(range(2, 15)))
    assert len(wide.aux_vars) > 12  # counted over the input by _wmc_over_inputs
    assert brute_force_wmc(wide, [0.3]) == pytest.approx(0.3 * 2 ** 13 + 0.7 * (2 ** 13 - 1))


def test_brute_force_wmc_guard():
    with pytest.raises(ValueError, match="guard"):
        brute_force_wmc(CNF(27, ()), [0.5] * 27)


def test_eval_assignment_checks_tseitin_extension():
    f = _parse("(a | b) <-> c")
    cnf = to_cnf(to_nnf(f), num_vars=3)
    assert cnf.aux_vars
    for a in _corners(3):
        assert eval_assignment(cnf, a) == eval_assignment(f, a)


def test_eval_assignment_requires_full_assignment():
    cnf = parse_dimacs(EX1)
    with pytest.raises(ValueError, match="missing assignment"):
        eval_assignment(cnf, {1: True})
