"""Symbolic tensor specs, module validation, and DAG wiring."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from nesycirc import layered, semantics
from nesycirc.compose import (AnnotatedModule, Manifest, SymTensor, Violation,
                              chain, fresh_symbol, identity_module,
                              load_manifest, manifest_for, reshape_input,
                              save_manifest, validate, wire_dag)
from nesycirc.errors import CompositionError, IncompatibleStructures, StructureError
from nesycirc.factory import ModuleFactory, layerize
from nesycirc.formula import CNF, make_name_table, parse_formula
from nesycirc.semantics import get_structure, transform


def _mod(name, ins, outs, fn):
    return AnnotatedModule(name, ins, outs, fn)


# ---------------------------------------------------------------------------
# SymTensor


def test_symtensor_infers_nested_shape():
    t = SymTensor((("a", "b"), ("c", "d"), ("e", "f")))
    assert t.shape == (3, 2)
    assert t.symbols == ("a", "b", "c", "d", "e", "f")
    assert t.size == 6


def test_symtensor_flat_with_shape():
    t = SymTensor(("a", "b", "c", "d"), "probability", (2, 2))
    assert t.shape == (2, 2)


def test_symtensor_scalar_from_bare_string():
    t = SymTensor("x")
    assert t.shape == ()
    assert t.symbols == ("x",)


def test_symtensor_normalizes_structure_alias():
    assert SymTensor(("a",), "log").structure == "log_probability"


def test_symtensor_rejects_unknown_structure_tag():
    with pytest.raises(StructureError, match="unknown structure tag 'zadeh'"):
        SymTensor(("a",), "zadeh")


def test_symtensor_index():
    t = SymTensor(("a", "b"))
    assert t.index("b") == 1
    with pytest.raises(CompositionError, match="'missing' not in"):
        t.index("missing")


@pytest.mark.parametrize("symbols,shape,match", [
    (("a", "b", "c"), (2, 2), "do not fill shape"),
    (("a", "a"), None, "duplicate symbol"),
    (("a", ""), None, "nonempty strings"),
    (("a", "b c"), None, "whitespace or a delimiter"),
    (("a", "b,c"), None, "whitespace or a delimiter"),
])
def test_symtensor_rejects(symbols, shape, match):
    with pytest.raises(CompositionError, match=match):
        SymTensor(symbols, "probability", shape)


def test_fresh_symbols_are_unique():
    a, b = fresh_symbol("t"), fresh_symbol("t")
    assert a != b and a.startswith("t.")


# ---------------------------------------------------------------------------
# Module calls and validation


def test_call_runs_compute():
    m = _mod("half", SymTensor(("a", "b")), SymTensor(("h1", "h2")),
             lambda x: x / 2.0)
    assert m(np.array([0.4, 1.0])) == pytest.approx([0.2, 0.5])


def test_call_accepts_batch_axis():
    m = _mod("half", SymTensor(("a", "b")), SymTensor(("h1", "h2")),
             lambda x: x / 2.0)
    out = m(np.full((3, 2), 0.8))
    assert out.shape == (3, 2)


def test_call_arity_error():
    m = identity_module(SymTensor(("a",)))
    with pytest.raises(CompositionError, match="takes 1 inputs, got 2"):
        m(np.array([0.5]), np.array([0.5]))


def test_call_flags_carrier_violation():
    m = identity_module(SymTensor(("a", "b")))
    with pytest.raises(CompositionError, match=r"outside \[0, 1\]"):
        m(np.array([0.5, 1.5]))


def test_call_flags_output_violation():
    m = _mod("bad", SymTensor(("a",)), SymTensor(("o",)), lambda x: x + 2.0)
    with pytest.raises(CompositionError, match=r"output\[0\]"):
        m(np.array([0.5]))


def test_check_false_skips_validation():
    m = identity_module(SymTensor(("a",)))
    assert m(np.array([1.5]), check=False) == pytest.approx([1.5])


def test_output_count_mismatch():
    m = _mod("two", SymTensor(("a",)), SymTensor(("o",)),
             lambda x: (x, x))
    with pytest.raises(CompositionError, match="declared 1 outputs, produced 2"):
        m(np.array([0.5]))


@pytest.mark.parametrize("structure,value,reason", [
    ("log_probability", 0.1, r"outside \[-inf, 0\]"),
    ("boolean", 0.5, "not a boolean 0/1"),
    ("probability", -0.2, r"outside \[0, 1\]"),
])
def test_carrier_rules(structure, value, reason):
    m = identity_module(SymTensor(("a",), structure))
    with pytest.raises(CompositionError, match=reason):
        m(np.array([value]))


def test_validate_returns_violations():
    m = identity_module(SymTensor(("a", "b")))
    assert validate(m, [np.array([0.2, 0.8])]) == []
    bad = validate(m, [np.array([0.2, 8.0])])
    assert len(bad) == 1 and bad[0].index == (1,)
    arity = validate(m, [np.array([0.2, 0.8]), np.array([0.1])])
    assert "expected 1 tensors" in arity[0].message


def test_violation_str():
    v = Violation("m", "input[0]", (1, 2), 1.5, "too big")
    assert str(v) == "m input[0][1, 2]: too big"
    assert str(Violation("m", "input", (), None, "missing")) == "m input: missing"


def test_shape_violation_mentions_both_shapes():
    m = identity_module(SymTensor(("a", "b")))
    bad = validate(m, [np.zeros((3,))])
    assert "does not match (2,)" in bad[0].message


# ---------------------------------------------------------------------------
# reshape_input


def test_reshape_matches_symbols_by_name():
    seen = {}

    def fn(x):
        seen["x"] = np.array(x)
        return np.minimum(x.sum(keepdims=True), 1.0)

    m = _mod("f", SymTensor(("a", "b")), SymTensor(("o",)), fn)
    wide = reshape_input(m, SymTensor(("q", "b", "a")))
    wide(np.array([0.1, 0.2, 0.3]))
    assert seen["x"] == pytest.approx([0.3, 0.2])


def test_reshape_positional_default_binds_in_order():
    seen = {}

    def fn(x):
        seen["x"] = np.array(x)
        return x[:1]

    m = _mod("f", SymTensor(("v1", "v2")), SymTensor(("o",)), fn)
    named = reshape_input(m, SymTensor(("rain", "wet", "spare")))
    named(np.array([0.7, 0.2, 0.9]))
    assert seen["x"] == pytest.approx([0.7, 0.2])


def test_reshape_positional_needs_enough_entries():
    m = _mod("f", SymTensor(("v1", "v2")), SymTensor(("o",)), lambda x: x[:1])
    with pytest.raises(CompositionError, match="2 positional inputs"):
        reshape_input(m, SymTensor(("only",)))


def test_reshape_missing_named_symbol():
    m = _mod("f", SymTensor(("a", "b")), SymTensor(("o",)), lambda x: x[:1])
    with pytest.raises(CompositionError, match="'b' not in"):
        reshape_input(m, SymTensor(("a", "c")))


def test_reshape_structure_mismatch():
    m = _mod("f", SymTensor(("a",)), SymTensor(("o",)), lambda x: x)
    with pytest.raises(IncompatibleStructures):
        reshape_input(m, SymTensor(("a",), "log"))


def _two_named_my():
    """Two different structures that share the name 'my'."""
    return (replace(get_structure("fuzzy_godel"), name="my"),
            replace(get_structure("fuzzy_product"), name="my"))


def test_reshape_compares_structures_not_names():
    mine, other = _two_named_my()
    m = _mod("f", SymTensor(("a",), mine), SymTensor(("o",), mine), lambda x: x)
    assert reshape_input(m, SymTensor(("a", "b"), mine))(np.array([0.25, 0.5])) == 0.25
    with pytest.raises(IncompatibleStructures, match="'my' to 'my'"):
        reshape_input(m, SymTensor(("a",), other))


def test_reshape_requires_single_input():
    m = _mod("f", (SymTensor(("a",)), SymTensor(("b",))),
             SymTensor(("o",)), lambda x, y: x)
    with pytest.raises(CompositionError, match="single-input"):
        reshape_input(m, SymTensor(("a", "b")))


def test_reshape_preserves_batch_axis():
    m = _mod("f", SymTensor(("a", "b")), SymTensor(("o",)),
             lambda x: x[..., :1] * x[..., 1:])
    wide = reshape_input(m, SymTensor(("b", "a", "pad")))
    out = wide(np.array([[0.5, 0.4, 0.0], [1.0, 0.2, 0.9]]))
    assert out[:, 0] == pytest.approx([0.2, 0.2])


# ---------------------------------------------------------------------------
# chain


def test_chain_by_name_with_permutation():
    seen = {}
    m1 = _mod("src", SymTensor(("x",)), SymTensor(("u", "v")),
              lambda x: np.array([0.2, 0.9]))

    def fn(x):
        seen["x"] = np.array(x)
        return x[:1]

    m2 = _mod("dst", SymTensor(("v", "u")), SymTensor(("o",)), fn)
    c = chain(m1, m2)
    c(np.array([0.5]))
    assert seen["x"] == pytest.approx([0.9, 0.2])
    assert c.name == "src>>dst"
    assert c.input_spec == m1.input_spec and c.output_spec == m2.output_spec


def test_chain_inserts_transform():
    m1 = _mod("src", SymTensor(("x",)), SymTensor(("p", "q")),
              lambda x: np.array([0.5, 0.25]))
    m2 = identity_module(SymTensor(("p", "q"), "log"), name="logid")
    c = chain(m1, m2)
    out = c(np.array([0.5]))
    assert out == pytest.approx(np.log([0.5, 0.25]))
    assert ("transform", "probability", "->", "log_probability",
            "logid[0]") in c.manifest.records


def test_chain_rejects_symbol_mismatch():
    m1 = _mod("src", SymTensor(("x",)), SymTensor(("a", "extra")),
              lambda x: np.array([0.1, 0.2]))
    m2 = identity_module(SymTensor(("a", "need")), name="dst")
    with pytest.raises(CompositionError) as exc:
        chain(m1, m2)
    msg = str(exc.value)
    assert "unproduced symbols ['need']" in msg
    assert "unconsumed symbols ['extra']" in msg


def test_chain_rejects_untransformable_structures():
    m1 = _mod("src", SymTensor(("x",)), SymTensor(("a",), "fuzzy_product"),
              lambda x: x)
    m2 = identity_module(SymTensor(("a",), "probability"))
    with pytest.raises(IncompatibleStructures):
        chain(m1, m2)


def test_chain_is_associative_on_values():
    s = SymTensor(("a",))
    m1 = _mod("m1", s, s, lambda x: x / 2)
    m2 = _mod("m2", s, s, lambda x: x / 4)
    m3 = _mod("m3", s, s, lambda x: x / 8)
    left = chain(chain(m1, m2), m3)
    right = chain(m1, chain(m2, m3))
    x = np.array([0.64])
    assert left(x) == pytest.approx(right(x))


def test_chain_manifest_records():
    m1 = _mod("src", SymTensor(("x",)), SymTensor(("a",)), lambda x: x)
    m2 = identity_module(SymTensor(("a",)), name="dst")
    c = chain(m1, m2, name="pipeline")
    recs = c.manifest.records
    assert ("module", "src", "x", "a") in recs
    assert ("edge", "src[0]", "->", "dst[0]", "a") in recs
    assert ("group", "0", "src") in recs and ("group", "1", "dst") in recs
    assert c.manifest.name == "pipeline"


# ---------------------------------------------------------------------------
# wire_dag


def _diamond():
    ext = SymTensor(("x",))
    a = _mod("a_sq", SymTensor(("x",)), SymTensor(("a",)), lambda x: x * x)
    b = _mod("b_half", SymTensor(("x",)), SymTensor(("b",)), lambda x: x / 2)
    j = _mod("join", SymTensor(("a", "b")), SymTensor(("o",)),
             lambda v: v[..., :1] * v[..., 1:])
    return [a, b, j], [ext]


def test_dag_diamond_value_and_generations():
    mods, ext = _diamond()
    d = wire_dag(mods, ext)
    out = d(np.array([0.5]))
    assert out == pytest.approx([0.25 * 0.25])
    recs = d.manifest.records
    assert ("group", "0", "a_sq", "b_half") in recs
    assert ("group", "1", "join") in recs
    assert ("output", "join[0]", "o", "probability") in recs
    assert ("external", "0", "x", "probability") in recs


def test_dag_gathers_across_producers():
    """A consumer spec drawing symbols from two modules stacks columns."""
    ext = SymTensor(("x", "y"))
    m1 = _mod("m1", SymTensor(("x",)), SymTensor(("u",)), lambda x: x / 2)
    m2 = _mod("m2", SymTensor(("y",)), SymTensor(("w",)), lambda y: y / 4)
    j = _mod("j", SymTensor(("w", "u")), SymTensor(("o",)),
             lambda v: v[..., :1] + v[..., 1:])
    out = wire_dag([m1, m2, j], [ext])(np.array([0.4, 0.8]))
    assert out == pytest.approx([0.8 / 4 + 0.4 / 2])


def test_dag_input_mixing_structures_is_refused():
    """One consumer input may not draw symbols produced under two structures."""
    p = _mod("p", SymTensor(("x",)), SymTensor(("a",)), lambda x: x)
    q = _mod("q", SymTensor(("y",), "log"), SymTensor(("b",), "log"), lambda y: y)
    j = _mod("j", SymTensor(("a", "b")), SymTensor(("o",)), lambda v: v[..., :1])
    with pytest.raises(CompositionError,
                       match=r"j\[0\] mixes structures \['log_probability', 'probability'\]"):
        wire_dag([p, q, j], [SymTensor(("x",)), SymTensor(("y",), "log")])


def test_dag_refuses_two_structures_of_one_name():
    """Symbols under two different structures named 'my' neither join into
    one input nor feed an input declared under the other."""
    mine, other = _two_named_my()
    p = _mod("p", SymTensor(("x",), mine), SymTensor(("a",), mine), lambda x: x)
    q = _mod("q", SymTensor(("y",), other), SymTensor(("b",), other), lambda y: y)
    j = _mod("j", SymTensor(("a", "b"), mine), SymTensor(("o",), mine), lambda v: v[..., :1])
    with pytest.raises(IncompatibleStructures, match="'my' to 'my'"):
        wire_dag([p, q, j], [SymTensor(("x",), mine), SymTensor(("y",), other)])
    with pytest.raises(IncompatibleStructures, match="'my' to 'my'"):
        wire_dag([p], [SymTensor(("x",), other)])


def test_dag_cycle_detection():
    m1 = _mod("m1", SymTensor(("b",)), SymTensor(("a",)), lambda x: x)
    m2 = _mod("m2", SymTensor(("a",)), SymTensor(("b",)), lambda x: x)
    with pytest.raises(CompositionError, match="dependency cycle"):
        wire_dag([m1, m2], [])


def test_dag_double_production():
    m1 = _mod("m1", SymTensor(("x",)), SymTensor(("s",)), lambda x: x)
    m2 = _mod("m2", SymTensor(("x",)), SymTensor(("s",)), lambda x: x)
    with pytest.raises(CompositionError, match="produced by both"):
        wire_dag([m1, m2], [SymTensor(("x",))])


def test_dag_external_clash_counts_as_double_production():
    m = _mod("m", SymTensor(("x",)), SymTensor(("x2",)), lambda x: x)
    with pytest.raises(CompositionError, match="produced by both"):
        wire_dag([m], [SymTensor(("x",)), SymTensor(("x2",))])


def test_dag_missing_symbol():
    m = _mod("m", SymTensor(("ghost",)), SymTensor(("o",)), lambda x: x)
    with pytest.raises(CompositionError, match="'ghost' needed by m is never produced"):
        wire_dag([m], [SymTensor(("x",))])


def test_dag_duplicate_consumption_within_module():
    m = _mod("m", (SymTensor(("x",)), SymTensor(("x",))),
             SymTensor(("o",)), lambda a, b: a)
    with pytest.raises(CompositionError, match="consumes symbol 'x' twice"):
        wire_dag([m], [SymTensor(("x",))])


def test_dag_duplicate_module_names():
    m1 = _mod("m", SymTensor(("x",)), SymTensor(("a",)), lambda x: x)
    m2 = _mod("m", SymTensor(("a",)), SymTensor(("b",)), lambda x: x)
    with pytest.raises(CompositionError, match="unique"):
        wire_dag([m1, m2], [SymTensor(("x",))])


def test_dag_without_sinks():
    with pytest.raises(CompositionError, match="no sink outputs"):
        wire_dag([], [SymTensor(("x",))])


def test_dag_inserts_transform_for_log_consumer():
    ext = SymTensor(("x",))
    m = _mod("logid", SymTensor(("x",), "log"), SymTensor(("lx",), "log"),
             lambda x: x)
    d = wire_dag([m], [ext])
    out = d(np.array([0.5]))
    assert out == pytest.approx([np.log(0.5)])
    assert ("transform", "probability", "->", "log_probability",
            "logid[0]") in d.manifest.records


def test_dag_passthrough_keeps_whole_tensor():
    ext = SymTensor(("x", "y"))
    m = _mod("m", SymTensor(("x", "y")), SymTensor(("o1", "o2")),
             lambda v: v[::-1].copy())
    out = wire_dag([m], [ext])(np.array([0.2, 0.8]))
    assert out == pytest.approx([0.8, 0.2])


# ---------------------------------------------------------------------------
# Circuit modules that share an input plan


def _renamed(m):
    """``m`` with an output symbol of its own, as a DAG needs."""
    out = m.output_spec[0]
    return replace(m, output_spec=(SymTensor(f"{m.name}.score", structure=out.structure),))


def _formula_dag():
    """Probability, log and fuzzy modules of two formulas over A, B and C,
    the second with more Tseitin auxiliaries than the first, and one
    probability module that reads the inputs in another order."""
    factory = ModuleFactory()
    mods = []
    for k, text in enumerate(("({A} -> {B}) & ({C} | {A})", "({A} & ~{B}) | ({C} <-> {A})")):
        for tag, prefix in (("probability", ""), ("log_probability", ""),
                            ("fuzzy_product", "f")):
            names = [prefix + n for n in "ABC"]
            f = parse_formula(text.format(**dict(zip("ABC", names))), make_name_table(names))
            mods.append(_renamed(factory.build_formula_module(f, tag, name=f"f{k}_{tag}")))
    f = parse_formula("B & (A | C)", make_name_table(["B", "A", "C"]))
    mods.append(_renamed(factory.build_formula_module(f, "probability", name="bac")))
    return wire_dag(mods, [SymTensor(list("ABC")), SymTensor(["fA", "fB", "fC"],
                                                                "fuzzy_product")]), mods


def _bits(x):
    return np.asarray(x, np.float64).view(np.uint64)


@pytest.mark.parametrize("rows", [
    np.array([[0.5, 0.5, 0.5], [0.9, 0.2, 0.1], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    np.array([0.9, 0.2, 0.1]),
    np.empty((0, 3)),
], ids=["batch", "one-row", "no-rows"])
def test_dag_outputs_equal_each_module_called_alone(rows):
    dag, mods = _formula_dag()
    by_output = {m.output_spec[0].symbols[0]: m for m in mods}
    for out, spec in zip(dag(rows, rows), dag.output_spec):
        m = by_output[spec.symbols[0]]
        x = rows[..., ["ABC".index(s[-1]) for s in m.input_spec[0].symbols]]
        if m.input_spec[0].structure == "log_probability":
            x = transform(x, "probability", "log_probability")
        want = m(x)
        assert out.shape == want.shape == rows.shape[:-1]
        assert np.array_equal(_bits(out), _bits(want))


def test_dag_runs_one_forward_per_structure_and_input_plan(monkeypatch):
    """The two formulas' probability modules run as one two-root pass, and
    so do their log modules; the module reading B, A, C runs alone."""
    dag, _ = _formula_dag()
    roots, real = [], layered._forward

    def counted(lc, literals, sr):
        roots.append(len(lc.root_slots))
        return real(lc, literals, sr)

    monkeypatch.setattr(layered, "_forward", counted)
    rows = np.array([[0.5, 0.5, 0.5], [0.9, 0.2, 0.1]])
    for _ in range(2):
        roots.clear()
        dag(rows, rows)
        assert sorted(roots) == [1, 2, 2]


def test_dag_call_resolves_no_tag(monkeypatch):
    """Specs and plans carry their structures, so a call, the probability →
    log transform included, looks no tag up."""
    dag, _ = _formula_dag()
    calls = []
    lookup = semantics.canonical_tag
    monkeypatch.setattr(semantics, "canonical_tag", lambda tag: calls.append(tag) or lookup(tag))
    rows = np.array([[0.5, 0.5, 0.5], [0.9, 0.2, 0.1]])
    dag(rows, rows)
    assert ("transform", "probability", "->", "log_probability",
            "f0_log_probability[0]") in dag.manifest.records
    assert calls == []


def test_groups_of_the_same_circuits_share_one_layering(monkeypatch):
    """The probability and log groups hold the same two circuits: both
    passes run on one two-root layering, built on the first call only."""
    dag, _ = _formula_dag()
    built, tables, forward = [], [], layered._forward

    def counted(*circuits):
        built.append(len(circuits))
        return layerize(*circuits)

    def recorded(lc, literals, sr):
        if len(lc.root_slots) == 2:
            tables.append(lc)
        return forward(lc, literals, sr)

    monkeypatch.setattr("nesycirc.factory.layerize", counted)
    monkeypatch.setattr(layered, "_forward", recorded)
    rows = np.array([[0.5, 0.5, 0.5], [0.9, 0.2, 0.1]])
    for _ in range(2):
        dag(rows, rows)
    assert built == [2]
    assert len(tables) == 4 and all(lc is tables[0] for lc in tables)


def test_dag_warns_once_per_module_that_underflowed():
    """1e-5 ** 70 underflows and 1e-5 ** 30 does not: one warning, the one
    the 70-unit module gives alone."""
    factory = ModuleFactory()
    mods = [_renamed(factory.module_from_dimacs(
        CNF(70, tuple((v,) for v in range(1, k + 1))), name=f"units{k}")) for k in (70, 30)]
    dag = wire_dag(mods, [SymTensor([f"v{i}" for i in range(1, 71)])])
    rows = np.full((2, 70), [[1e-5], [0.5]])
    messages = []
    for call in (lambda: dag(rows), lambda: [m(rows) for m in mods]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        messages.append([str(w.message) for w in caught])
    assert messages[0] == messages[1]
    assert len(messages[0]) == 1 and "1 batch row(s) (0)" in messages[0][0]


# ---------------------------------------------------------------------------
# Manifests


def test_manifest_round_trip(tmp_path):
    mods, ext = _diamond()
    d = wire_dag(mods, ext, name="diamond")
    path = tmp_path / "diamond.manifest"
    save_manifest(d, path)
    back = load_manifest(path)
    assert back == d.manifest
    assert back.name == "diamond"


def test_manifest_for_plain_module():
    m = identity_module(SymTensor(("a", "b")), name="id2")
    man = manifest_for(m)
    assert man.records == (("module", "id2", "a,b", "a,b"),)


@pytest.mark.parametrize("text,match", [
    ("nonsense\n", "missing 'manifest 1' header"),
    ("manifest 1\n", "missing its name"),
])
def test_manifest_parse_errors(text, match):
    with pytest.raises(CompositionError, match=match):
        Manifest.parse(text)
