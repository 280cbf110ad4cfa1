"""Factory-built modules: connectives, aggregators, predicates, formulas."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from nesycirc.compose import SymTensor, wire_dag
from nesycirc.errors import (CompositionError, IncompatibleStructures,
                             NesycircError, StructureError)
from nesycirc.factory import (Aggregator, CircuitBackend, EqualityPredicate,
                              ModuleFactory, Predicate, builtin_aggregators,
                              load_factory_config, p_mean)
from nesycirc.formula import make_name_table, parse_formula
from nesycirc import semantics
from nesycirc.semantics import Structure, fuzzy_structure_from_ops, get_structure

from test_cli import _mutate

EXISTS_HALF = 0.5 ** (1.0 / 6.0)  # p-mean of [1, 0] at the default p = 6


@pytest.fixture(scope="module")
def pf():
    return ModuleFactory(predicates=(EqualityPredicate,))


def _parse(text, names=("A", "B", "C")):
    return parse_formula(text, make_name_table(names))


# ---------------------------------------------------------------------------
# Aggregators


def test_p_mean_golden():
    assert p_mean([1.0, 0.0]) == pytest.approx(EXISTS_HALF, rel=1e-12)
    assert p_mean([0.3, 0.3, 0.3], p=2.0) == pytest.approx(0.3)


def test_p_mean_needs_scores():
    with pytest.raises(ValueError, match="nonempty score axis"):
        p_mean(np.zeros((3, 0)))
    with pytest.raises(ValueError, match="nonempty score axis"):
        p_mean(0.5)


def test_exists_and_forall_are_duals(pf):
    scores = [1.0, 0.0]
    assert pf.aggregate("exists", scores) == pytest.approx(EXISTS_HALF)
    assert pf.aggregate("forall", scores) == pytest.approx(1.0 - EXISTS_HALF)
    assert pf.aggregate("forall", [1.0, 1.0]) == pytest.approx(1.0)


def test_aggregate_axis(pf):
    scores = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = pf.aggregate("exists", scores, axis=0)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(EXISTS_HALF)
    assert out[1] == pytest.approx(0.0)


def test_aggregate_unknown_name(pf):
    with pytest.raises(CompositionError, match="unknown aggregator 'sum'"):
        pf.aggregate("sum", [0.5])


def test_aggregate_empty_axis(pf):
    with pytest.raises(ValueError, match="nonempty score axis"):
        pf.aggregate("exists", np.zeros((2, 0)))


def test_custom_aggregator_callable():
    f = ModuleFactory(aggregators={"mean": lambda x: np.mean(x, axis=-1)})
    assert f.aggregate("mean", [[0.0, 1.0], [1.0, 1.0]]) == pytest.approx([0.5, 1.0])
    assert isinstance(f.aggregators["mean"], Aggregator)


def test_builtin_aggregators_record_p():
    aggs = builtin_aggregators(p=4.0)
    assert aggs["exists"].params == (("p", 4.0),)
    assert aggs["exists"].op([1.0, 0.0]) == pytest.approx(0.5 ** 0.25)


# ---------------------------------------------------------------------------
# Connective nodes


def _leaf(pf, name, structure="fuzzy_product"):
    return pf.build_formula_module(_parse(name, (name,)), structure, name=name)


def test_binary_and(pf):
    m = pf.binary_node("and", _leaf(pf, "A"), _leaf(pf, "B"))
    assert m(np.array([0.3]), np.array([0.6])) == pytest.approx(0.18)
    assert len(m.input_spec) == 2
    assert m.name == "and(A,B)"


def test_binary_pr_is_probabilistic_sum(pf):
    m = pf.binary_node("pr", _leaf(pf, "A"), _leaf(pf, "B"))
    assert m(np.array([0.3]), np.array([0.6])) == pytest.approx(0.72)


def test_binary_implies(pf):
    m = pf.binary_node("implies", _leaf(pf, "A"), _leaf(pf, "B"))
    assert m(np.array([0.3]), np.array([0.6])) == pytest.approx(0.7 + 0.6 - 0.42)


def test_binary_godel(pf):
    m = pf.binary_node("or", _leaf(pf, "A", "fuzzy_godel"),
                       _leaf(pf, "B", "fuzzy_godel"))
    assert m(np.array([0.3]), np.array([0.6])) == pytest.approx(0.6)


def test_unary_not(pf):
    m = pf.unary_node("not", _leaf(pf, "A"))
    assert m(np.array([0.3])) == pytest.approx(0.7)


def test_unary_unknown_op(pf):
    with pytest.raises(StructureError, match="unknown unary connective 'neg'"):
        pf.unary_node("neg", _leaf(pf, "A"))


def test_binary_unknown_op(pf):
    with pytest.raises(StructureError, match="unknown binary connective 'xor'"):
        pf.binary_node("xor", _leaf(pf, "A"), _leaf(pf, "B"))


def test_binary_rejects_mixed_structures(pf):
    with pytest.raises(IncompatibleStructures):
        pf.binary_node("and", _leaf(pf, "A"), _leaf(pf, "B", "fuzzy_godel"))


def test_binary_rejects_shared_symbols(pf):
    with pytest.raises(CompositionError, match="share input symbol 'A'"):
        pf.binary_node("and", _leaf(pf, "A"), _leaf(pf, "A"))


def test_connectives_need_fuzzy_structure(pf):
    m = _leaf(pf, "A", "probability")
    with pytest.raises(StructureError, match="no connective table"):
        pf.unary_node("not", m)


def _my_structures():
    """Two user fuzzy structures both named 'my', with other connectives,
    and two modules built under the first."""
    mine = fuzzy_structure_from_ops("my", {"not": lambda x: 1 - x, "and": np.minimum})
    other = fuzzy_structure_from_ops("my", {"not": lambda x: (1 - x) ** 2,
                                            "and": np.multiply})
    f = ModuleFactory()
    return mine, other, [f.build_formula_module(_parse(n, (n,)), mine, name=n) for n in "AB"]


def test_connective_nodes_use_their_operands_structure():
    """A node takes its connectives from the structure its operands were
    built under, whichever factory combines them."""
    mine, other, (a, b) = _my_structures()
    assert a.output_spec[0].semantics is mine
    with_other = ModuleFactory(predicates=[Predicate("p", 1, other, lambda x: x)])
    for f in (with_other, ModuleFactory()):
        both = f.binary_node("and", a, b)
        assert float(both(np.array([0.5]), np.array([0.25]))) == 0.25
        assert float(f.unary_node("not", a)(np.array([0.25]))) == 0.75
        assert both.output_spec[0].semantics is a.output_spec[0].semantics


def test_binary_rejects_two_structures_of_one_name():
    _, other, (a, _) = _my_structures()
    b = ModuleFactory().build_formula_module(_parse("B", ("B",)), other, name="B")
    with pytest.raises(IncompatibleStructures, match="'my' to 'my'"):
        ModuleFactory().binary_node("and", a, b)


def test_connective_nodes_resolve_no_tag(pf, monkeypatch):
    """Built modules carry their structure: combining and calling them
    looks no tag up."""
    a, b = _leaf(pf, "A"), _leaf(pf, "B")
    calls = []
    lookup = semantics.canonical_tag
    monkeypatch.setattr(semantics, "canonical_tag", lambda tag: calls.append(tag) or lookup(tag))
    m = pf.unary_node("not", pf.binary_node("and", a, b))
    assert m(np.array([0.5]), np.array([0.5])) == pytest.approx(0.75)
    assert calls == []


def test_fresh_output_symbols_differ(pf):
    m1 = pf.binary_node("and", _leaf(pf, "A"), _leaf(pf, "B"))
    m2 = pf.binary_node("and", _leaf(pf, "C"), _leaf(pf, "D"))
    assert m1.output_spec[0].symbols != m2.output_spec[0].symbols


def test_composite_node_value(pf):
    """not(A and B) evaluates through nested nodes."""
    inner = pf.binary_node("and", _leaf(pf, "A"), _leaf(pf, "B"))
    outer = pf.unary_node("not", inner)
    assert outer(np.array([0.3]), np.array([0.6])) == pytest.approx(0.82)


# ---------------------------------------------------------------------------
# Predicates


def test_equality_predicate_on_identical_entities(pf):
    m = pf.apply_predicate("eq", np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert float(m()) == pytest.approx(1.0)
    assert m.output_spec[0].structure == "fuzzy_product"


def test_equality_predicate_decays_with_distance(pf):
    m = pf.apply_predicate("eq", np.array([0.0]), np.array([1.0]))
    assert float(m()) == pytest.approx(np.exp(-1.0))


def test_predicate_batch(pf):
    x = np.zeros((5, 3))
    m = pf.apply_predicate("eq", x, x)
    assert m().shape == (5,)


def test_predicate_arity_error(pf):
    with pytest.raises(CompositionError, match="arity 2, got 1"):
        pf.apply_predicate("eq", np.zeros(2))


def test_predicate_unknown(pf):
    with pytest.raises(CompositionError, match="unknown predicate 'lt'"):
        pf.apply_predicate("lt", np.zeros(2), np.zeros(2))


def test_predicate_registration_errors():
    with pytest.raises(CompositionError, match="duplicate predicate"):
        ModuleFactory(predicates=(EqualityPredicate, EqualityPredicate))
    with pytest.raises(CompositionError, match="must be Predicate instances"):
        ModuleFactory(predicates=("eq",))
    bad = Predicate("p", 1, "no_such_structure", lambda x: x)
    with pytest.raises(StructureError, match="unregistered structure"):
        ModuleFactory(predicates=(bad,))


# ---------------------------------------------------------------------------
# Formula-backed modules


def test_formula_module_interface_is_structure_independent(pf):
    f = _parse("(A -> B) & (C -> B)")
    for tag in ("boolean", "probability", "log_probability", "fuzzy_product"):
        m = pf.build_formula_module(f, tag)
        assert m.input_spec[0].symbols == ("A", "B", "C")
        assert m.input_spec[0].structure == get_structure(tag).name
        assert m.output_spec[0].symbols == ("score",)


def test_formula_module_probability(pf):
    m = pf.build_formula_module(_parse("(A -> B) & (C -> B)"), "probability")
    assert float(m(np.array([0.9, 0.2, 0.1]))) == pytest.approx(0.272)
    out = m(np.array([[0.5, 0.5, 0.5], [0.9, 0.2, 0.1]]))
    assert out == pytest.approx([0.625, 0.272])
    assert isinstance(m.backend, CircuitBackend)
    assert m.backend.structure == "probability"


def test_formula_module_log(pf):
    m = pf.build_formula_module(_parse("(A -> B) & (C -> B)"), "log")
    got = float(m(np.log(np.array([0.9, 0.2, 0.1]))))
    assert got == pytest.approx(np.log(0.272), rel=1e-12)
    assert m.backend.structure == "log_probability"


def test_formula_module_boolean(pf):
    m = pf.build_formula_module(_parse("(A -> B) & (C -> B)"), "boolean")
    assert float(m(np.array([1.0, 1.0, 0.0]))) == 1.0
    assert float(m(np.array([1.0, 0.0, 0.0]))) == 0.0


def test_formula_module_fuzzy(pf):
    m = pf.build_formula_module(_parse("(A -> B) & (C -> B)"), "fuzzy_product")
    assert float(m(np.array([0.9, 0.2, 0.1]))) == pytest.approx(0.28 * 0.92)
    assert m.backend is None


def test_formula_module_fills_symbol_gaps(pf):
    m = pf.build_formula_module(_parse("A & C"), "probability")
    assert m.input_spec[0].symbols == ("A", "v2", "C")
    # the un-mentioned variable marginalizes out of the weighted count
    assert float(m(np.array([0.5, 0.123, 0.5]))) == pytest.approx(0.25)


def test_circuit_modules_of_one_formula_share_one_compilation():
    f = _parse("(A -> B) & (C | A)")
    factory = ModuleFactory()
    prob = factory.build_formula_module(f, "probability")
    log = factory.build_formula_module(f, "log_probability")
    assert log.backend.layered is prob.backend.layered
    assert log.backend.circuit is prob.backend.circuit
    rows = np.array([[0.5, 0.5, 0.5], [0.9, 0.2, 0.1], [1.0, 0.3, 1.0]])
    alone_prob = ModuleFactory().build_formula_module(f, "probability")
    alone_log = ModuleFactory().build_formula_module(f, "log_probability")
    assert alone_log.backend.layered is not alone_prob.backend.layered
    assert np.array_equal(prob(rows), alone_prob(rows))
    assert np.array_equal(log(np.log(rows)), alone_log(np.log(rows)))


def test_dimacs_module(pf):
    text = "p cnf 3 2\n-1 2 0\n2 -3 0\n"
    m = pf.module_from_dimacs(text)
    assert m.input_spec[0].symbols == ("v1", "v2", "v3")
    assert float(m(np.array([0.9, 0.2, 0.1]))) == pytest.approx(0.272)


def test_dimacs_module_fuzzy_on_plain_cnf(pf):
    m = pf.module_from_dimacs("p cnf 3 2\n-1 2 0\n2 -3 0\n", "fuzzy_product")
    assert float(m(np.array([0.9, 0.2, 0.1]))) == pytest.approx(0.28 * 0.92)


def test_dimacs_module_fuzzy_on_long_implication_chain(pf):
    n = 2000
    text = f"p cnf {n} {n - 1}\n" + "".join(f"-{i} {i + 1} 0\n" for i in range(1, n))
    m = pf.module_from_dimacs(text, "fuzzy_godel")
    assert float(m(np.full(n, 0.7))) == 0.7


def test_dimacs_module_fuzzy_refuses_auxiliaries(pf):
    from nesycirc.formula import to_cnf, to_nnf
    cnf = to_cnf(to_nnf(_parse("(A & B) | (B & C)")))
    assert cnf.aux_vars
    with pytest.raises(StructureError, match="Tseitin auxiliaries"):
        pf.module_from_dimacs(cnf, "fuzzy_product")
    # the same CNF is fine under a circuit-safe structure
    m = pf.module_from_dimacs(cnf, "probability")
    assert m.input_spec[0].size == 3


# ---------------------------------------------------------------------------
# Registries and configuration


def test_custom_structure_dict(pf):
    s = fuzzy_structure_from_ops("my", {"not": lambda x: 1 - x,
                                        "and": lambda x, y: x * y})
    assert isinstance(s, Structure) and s.name == "my"
    m = pf.build_formula_module(_parse("A & B", ("A", "B")), s)
    assert float(m(np.array([0.5, 0.5]))) == pytest.approx(0.25)


def test_bad_structure_value(pf):
    """A build call takes a built-in tag or a Structure, not a connective
    dict or another name."""
    f = _parse("A & B", ("A", "B"))
    for bad in ("product", {"not": lambda x: 1 - x, "and": np.minimum}):
        with pytest.raises(StructureError, match="unknown structure tag"):
            pf.build_formula_module(f, bad)


def test_structure_must_be_registered_under_its_name(pf):
    """A Structure passed to a build call is taken under its own name."""
    mine = replace(get_structure("fuzzy_godel"), name="my")
    m = pf.unary_node("not", pf.build_formula_module(_parse("A & B", ("A", "B")), mine))
    assert float(m(np.array([0.25, 0.5]))) == pytest.approx(0.75)


def test_registered_fuzzy_tag_checks_unit_carrier(pf):
    s = fuzzy_structure_from_ops("my", {"not": lambda x: 1 - x,
                                        "and": lambda x, y: x * y})
    m = pf.build_formula_module(_parse("A & B", ("A", "B")), s)
    with pytest.raises(CompositionError, match=r"value 1\.5 outside \[0, 1\] for my"):
        m(np.array([1.5, 0.5]))


def test_predicate_structure_resolves_aliases():
    f = ModuleFactory(predicates=[Predicate("p", 1, "log", lambda x: np.log(x))])
    out = f.apply_predicate("p", np.array([0.5]))
    assert out.output_spec[0].structure == "log_probability"
    with pytest.raises(StructureError, match="references unregistered structure 'zadeh'"):
        ModuleFactory(predicates=[Predicate("q", 1, "zadeh", lambda x: x)])


def test_resolve_structure(pf):
    """Build calls resolve through get_structure: aliases map to the
    registry's object, and a Structure passes through."""
    f = _parse("A & B", ("A", "B"))
    out = pf.build_formula_module(f, "log").output_spec[0]
    assert out.semantics is get_structure("log_probability")
    s = get_structure("probability")
    assert pf.module_from_dimacs("p cnf 1 1\n1 0\n", s).backend.semantics is s
    with pytest.raises(StructureError, match="unknown structure tag"):
        pf.build_formula_module(f, "zadeh")


def test_user_structure_as_predicate_and_under_wire_dag():
    """A Structure from fuzzy_structure_from_ops scores a predicate, and a
    DAG wires its modules as any built-in's."""
    mine = fuzzy_structure_from_ops("my", {"not": lambda x: 1 - x, "and": np.minimum})
    f = ModuleFactory(predicates=[Predicate("near", 1, mine, lambda x: np.exp(-np.abs(x)))])
    p = f.apply_predicate("near", np.array([0.0, 1.0]))
    assert p.output_spec[0].semantics is mine
    assert p() == pytest.approx([1.0, np.exp(-1.0)])
    a = f.build_formula_module(_parse("A & B", ("A", "B")), mine, name="a")
    b = replace(f.build_formula_module(_parse("A | B", ("A", "B")), mine, name="b"),
                output_spec=(SymTensor("b.score", mine),))
    dag = wire_dag([a, b], [SymTensor(("A", "B"), mine)])
    assert [float(v) for v in dag(np.array([0.25, 0.5]))] == [0.25, 0.5]


CONFIG = ("[structures]\ntags = probability, fuzzy_godel\n"
          "[aggregators]\nsome = exists, 2\nevery = forall, 4\n"
          "[predicates]\nnames = eq\n")


def test_load_factory_config(tmp_path):
    path = tmp_path / "factory.ini"
    path.write_text(CONFIG)
    f = load_factory_config(path)
    assert f.aggregate("some", [1.0, 0.0]) == pytest.approx(0.5 ** 0.5)
    assert f.aggregators["every"].params == (("p", 4.0),)
    assert "eq" in f.predicates


@pytest.mark.parametrize("text,exc,match", [
    ("[structures]\ntags = zadeh\n", StructureError, "unknown structure"),
    ("[aggregators]\nsome = mean, 2\n", CompositionError, "must be 'exists, <p>'"),
    ("[aggregators]\nsome = exists\n", CompositionError, "must be 'exists, <p>'"),
    ("[aggregators]\nsome = exists, 0\n", CompositionError, "'some' needs a finite p > 0"),
    ("[aggregators]\nsome = exists, nan\n", CompositionError, "'some' needs a finite p > 0"),
    ("[aggregators]\nevery = forall, -2\n", CompositionError, "'every' needs a finite p > 0"),
    ("[aggregators]\nsome = exists, x\n", CompositionError, "'some' needs a finite p > 0"),
    ("[aggregators]\nevery = forall, inf\n", CompositionError, "'every' needs a finite p > 0"),
    ("[aggregators]\nsome = exists, 2%\n", CompositionError, "'some' needs a finite p > 0"),
    ("[structures]\ntags = %(x)s\n", StructureError, "unknown structure"),
    ("[predicates]\nnames = lt\n", CompositionError, "unknown built-in predicate"),
    ("tags = oops\n", CompositionError, "bad factory config"),
])
def test_load_factory_config_errors(tmp_path, text, exc, match):
    path = tmp_path / "factory.ini"
    path.write_text(text)
    with pytest.raises(exc, match=match):
        load_factory_config(path)


def test_load_factory_config_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "factory.ini"
    path.write_bytes(b"[structures]\ntags = prob\xe9\n")
    with pytest.raises(CompositionError, match=f"bad factory config {path}: .*utf-8"):
        load_factory_config(path)


@seed(1717)
@settings(max_examples=200)
@given(data=st.data())
def test_mutated_factory_configs_fail_closed(tmp_path_factory, data):
    """A mutated config either loads or raises a NesycircError."""
    path = tmp_path_factory.mktemp("config") / "factory.ini"
    path.write_bytes(_mutate(data, CONFIG.encode()))
    try:
        load_factory_config(path)
    except NesycircError:
        pass
