"""A configurable factory assembling logic modules from interchangeable parts.

A structure is named by a built-in tag (aliases included) or handed in as
a :class:`~nesycirc.semantics.Structure`, such as a user fuzzy algebra
made by :func:`~nesycirc.semantics.fuzzy_structure_from_ops`; either way
it resolves through :func:`~nesycirc.semantics.get_structure`, the one
structure registry. It is resolved once, when a module is built: the
module's specs and its circuit backend carry the resolved Structure from
then on, and connective nodes take their connectives from their
operands' own structure, so modules built by one factory combine under
any other as under their own. The factory bundles two registries of its
own: aggregators (soft quantifiers over a score axis) and predicates
(scoring functions over entity embeddings). From those it builds
AnnotatedModules for connective application and for whole formulas, so a
fuzzy-logic system and a probabilistic one differ only in the structure
handed to :meth:`ModuleFactory.build_formula_module`.

The built-in quantifiers are generalized means: ``exists`` is
p_mean(x, p) = (mean(x^p))^(1/p) and ``forall`` its De Morgan dual
1 - p_mean(1 - x, p), both with p = 6 by default. The disjunction op name
``'pr'`` (probabilistic sum) is accepted as an alias of ``'or'``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .compiler import Circuit, compile_cnf
from .compose import AnnotatedModule, Manifest, SymTensor, _syms, fresh_symbol
from .errors import CompositionError, IncompatibleStructures, StructureError
from .formula import CNF, cnf_to_formula, formula_names, formula_vars, parse_dimacs, to_cnf, to_nnf
from .layered import (LayeredCircuit, LeafBatch, _underflowed, _values, _warn_underflow,
                      layerize)
from .semantics import FuzzyConnectives, Structure, evaluate_fuzzy, get_structure

__all__ = [
    "Aggregator", "Predicate", "EqualityPredicate", "ModuleFactory",
    "CircuitBackend", "fused_compute", "p_mean", "builtin_aggregators", "load_factory_config",
]


@dataclass(frozen=True)
class CircuitBackend:
    """Compiled artifacts behind a circuit-backed module, and its compute.

    Kept on ``AnnotatedModule.backend`` so gradient and loss code can reuse
    the layered circuit instead of re-deriving it from the CNF. The
    module's ``compute`` is the backend itself, which is how
    :func:`~nesycirc.compose.wire_dag` recognises circuit modules it may
    run together (see :func:`fused_compute`).
    """

    cnf: CNF
    circuit: Circuit = field(repr=False)
    layered: LayeredCircuit = field(repr=False)
    # the resolved structure, which may be a user Structure
    semantics: Structure = field(repr=False)

    @property
    def structure(self) -> str:
        """The name of the structure the module evaluates under."""
        return self.semantics.name

    def __call__(self, values):
        """The module's value for one row of input values, or one per row."""
        return _circuit_values(self.layered, self.semantics, values)[..., 0]


def fused_compute(backends, layerings: dict | None = None) -> Callable:
    """One compute for circuit modules of one structure that read the same
    input values: it returns each module's outputs, in the order given,
    from one forward pass.

    The pass runs on a multi-root layering of the modules' circuits, built
    on the first call and kept in ``layerings`` under those circuits; a
    single module keeps its own. A layering does not depend on the
    structure, so computes handed one dict share the layering of the same
    circuits in the same order, whatever their structures. Values are
    bitwise those of each module called alone.
    """
    backends = tuple(backends)
    s = backends[0].semantics
    key = tuple(id(b.circuit) for b in backends)
    shared = {} if layerings is None else layerings

    def compute(values):
        lc = shared.get(key)
        if lc is None:
            lc = shared[key] = backends[0].layered if len(backends) == 1 \
                else layerize(*(b.circuit for b in backends))
        out = _circuit_values(lc, s, values)
        return [(out[..., k],) for k in range(len(backends))]

    return compute


def _circuit_values(lc: LayeredCircuit, s: Structure, values) -> np.ndarray:
    """Each root's value under ``s`` for module input ``values``: shape
    (roots,) for one row, (batch, roots) for a batch of rows.

    The structure's ``unleaf`` maps the values back to leaf weights. Warns
    once per root that underflowed, as a module of that root alone does.
    """
    arr = np.asarray(values, dtype=np.float64)
    unbatched = arr.ndim == 1
    rows = s.semiring.unleaf(arr[None, :] if unbatched else arr)
    batch = LeafBatch.from_probabilities(rows, num_vars=lc.num_vars, aux_vars=lc.aux_vars)
    out = _values(lc, batch, s)
    for lost in _underflowed(lc, batch.literals, out, s.semiring.zero):
        _warn_underflow([lost], stacklevel=2)
    return out[0] if unbatched else out


def p_mean(x, p: float = 6.0, axis: int = -1) -> np.ndarray:
    """Generalized power mean (mean(x^p))^(1/p); a soft existential for p >= 1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[axis] == 0:
        raise ValueError("p_mean needs a nonempty score axis")
    return np.mean(arr ** p, axis=axis) ** (1.0 / p)


@dataclass(frozen=True)
class Aggregator:
    """A reduction over the last score axis, with its parameters on record."""

    name: str
    op: Callable = field(repr=False)
    params: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Predicate:
    """A scoring function over ``arity`` entity embeddings. Its scores
    live in ``structure``: a built-in tag or a Structure, resolved by
    :func:`~nesycirc.semantics.get_structure`."""

    functor: str
    arity: int
    structure: str | Structure
    score: Callable = field(repr=False)


def _eq_score(x, y):
    return np.exp(-np.linalg.norm(np.asarray(x, np.float64) - np.asarray(y, np.float64),
                                  axis=-1))


EqualityPredicate = Predicate("eq", 2, "fuzzy_product", _eq_score)


def builtin_aggregators(p: float = 6.0) -> dict[str, Aggregator]:
    return {
        "exists": Aggregator("exists", lambda x, _p=p: p_mean(x, _p), (("p", p),)),
        "forall": Aggregator("forall", lambda x, _p=p: 1.0 - p_mean(1.0 - np.asarray(x, np.float64), _p),
                             (("p", p),)),
    }


class ModuleFactory:
    """Immutable bundle of aggregators and predicates.

    ``aggregators`` maps names to Aggregator objects or bare callables
    reducing over the last axis. ``predicates`` is an iterable of Predicate
    definitions. Structures are not registered here: build calls take a
    built-in tag or a Structure object.

    Circuit-backed modules compile each CNF once per factory: the factory
    keeps a cache from CNF to its circuit and layered circuit, so the
    ``probability`` and ``log_probability`` modules of one formula share
    them. The cache lives as long as the factory and holds every CNF it
    compiled.
    """

    def __init__(self, aggregators=None, predicates=()):
        aggs = builtin_aggregators()
        for name, value in (aggregators or {}).items():
            aggs[name] = value if isinstance(value, Aggregator) else Aggregator(name, value)
        preds: dict[str, Predicate] = {}
        for pred in predicates:
            if not isinstance(pred, Predicate):
                raise CompositionError(f"predicates must be Predicate instances, got {pred!r}")
            if pred.functor in preds:
                raise CompositionError(f"duplicate predicate {pred.functor!r}")
            try:
                get_structure(pred.structure)
            except StructureError:
                raise StructureError(f"predicate {pred.functor!r} references "
                                     f"unregistered structure {pred.structure!r}") from None
            preds[pred.functor] = pred
        self._aggregators = aggs
        self._predicates = preds
        self._compiled: dict[CNF, tuple[Circuit, LayeredCircuit]] = {}

    @property
    def aggregators(self) -> dict[str, Aggregator]:
        return dict(self._aggregators)

    @property
    def predicates(self) -> dict[str, Predicate]:
        return dict(self._predicates)

    # -- connective nodes ---------------------------------------------------

    def unary_node(self, op_name: str, x: AnnotatedModule) -> AnnotatedModule:
        """Apply a unary connective of x's own structure elementwise to its
        single output."""
        spec = _single_output(x)
        conn = _connectives(spec.semantics)
        if op_name != "not":
            raise StructureError(f"unknown unary connective {op_name!r}")

        def compute(*values):
            return conn.neg(x(*values, check=False))

        name = f"{op_name}({x.name})"
        records = (("module", x.name, _syms(x.input_spec), _syms(x.output_spec)),
                   ("connective", op_name, ",".join(spec.symbols)))
        return AnnotatedModule(name, x.input_spec, (spec,), compute,
                               Manifest(name, records))

    def binary_node(self, op_name: str, x: AnnotatedModule, y: AnnotatedModule) -> AnnotatedModule:
        """Combine two single-output modules elementwise under a connective
        of their structure, which must be one and the same.

        The output positions get fresh derived symbol names, recorded in the
        manifest; the operands' input specs are concatenated.
        """
        sx, sy = _single_output(x), _single_output(y)
        if sx.semantics != sy.semantics:
            raise IncompatibleStructures(sx.structure, sy.structure)
        if sx.shape != sy.shape:
            raise CompositionError(f"operand shapes differ: {sx.shape} vs {sy.shape}")
        conn = _connectives(sx.semantics)
        ops = {"and": conn.conj, "or": conn.disj, "pr": conn.disj,
               "implies": conn.implies}
        fn = ops.get(op_name)
        if fn is None:
            raise StructureError(f"unknown binary connective {op_name!r}")
        seen = set()
        for spec in x.input_spec + y.input_spec:
            for s in spec.symbols:
                if s in seen:
                    raise CompositionError(f"operands share input symbol {s!r}; "
                                           f"wire shared inputs with wire_dag")
                seen.add(s)
        fresh = [fresh_symbol(op_name) for _ in range(max(sx.size, 1))]
        out_spec = SymTensor(fresh[0] if sx.shape == () else fresh,
                             structure=sx.semantics, shape=None if sx.shape == () else sx.shape)
        nx = len(x.input_spec)

        def compute(*values):
            a = x(*values[:nx], check=False)
            b = y(*values[nx:], check=False)
            return fn(a, b)

        name = f"{op_name}({x.name},{y.name})"
        records = (("module", x.name, _syms(x.input_spec), _syms(x.output_spec)),
                   ("module", y.name, _syms(y.input_spec), _syms(y.output_spec)),
                   ("connective", op_name, ",".join(out_spec.symbols)))
        return AnnotatedModule(name, x.input_spec + y.input_spec, (out_spec,),
                               compute, Manifest(name, records))

    # -- aggregation and predicates -----------------------------------------

    def aggregate(self, name: str, scores, axis: int = -1):
        """Reduce a score axis with a registered aggregator."""
        agg = self._aggregators.get(name)
        if agg is None:
            raise CompositionError(f"unknown aggregator {name!r}")
        arr = np.asarray(scores, dtype=np.float64)
        if arr.ndim == 0 or arr.shape[axis] == 0:
            raise ValueError("aggregation needs a nonempty score axis")
        return agg.op(np.moveaxis(arr, axis, -1))

    def apply_predicate(self, functor: str, *entities) -> AnnotatedModule:
        """Score entity embeddings; returns a constant module holding the scores."""
        pred = self._predicates.get(functor)
        if pred is None:
            raise CompositionError(f"unknown predicate {functor!r}")
        if len(entities) != pred.arity:
            raise CompositionError(f"predicate {functor!r} has arity {pred.arity}, "
                                   f"got {len(entities)} arguments")
        scores = np.asarray(pred.score(*entities), dtype=np.float64)
        out = SymTensor(fresh_symbol(functor), structure=pred.structure)
        return AnnotatedModule(fresh_symbol(functor), (), (out,),
                               lambda _s=scores: _s)

    # -- formula-backed modules ---------------------------------------------

    def build_formula_module(self, f, structure_tag, name: str = "phi") -> AnnotatedModule:
        """Compile a formula into a module under a built-in structure tag or
        a Structure.

        Circuit-safe structures go through compile/layerize; fuzzy
        ones evaluate the NNF directly. Either way the module maps one value
        per formula variable (ids 1..max, symbols from leaf names or v<i>)
        to a single scalar, so swapping the structure tag never changes the
        interface.
        """
        n = max(formula_vars(f), default=0)
        names = formula_names(f)
        return self._module(to_nnf(f), structure_tag,
                            [names.get(i, f"v{i}") for i in range(1, n + 1)], name)

    def module_from_dimacs(self, source, structure_tag="probability",
                           name: str = "phi") -> AnnotatedModule:
        """Like build_formula_module, but from DIMACS text or a CNF.

        Input symbols default to v1..vn over the non-auxiliary variables.
        Fuzzy structures are only accepted for auxiliary-free CNFs: fuzzy
        values of a Tseitin encoding would not match the original formula.
        """
        cnf = source if isinstance(source, CNF) else parse_dimacs(source)
        return self._module(cnf, structure_tag,
                            [f"v{i}" for i in range(1, cnf.n_inputs + 1)], name)

    def _module(self, source, structure_tag, symbols: list[str], name: str) -> AnnotatedModule:
        """The module of an NNF formula or a CNF over ``symbols``, one value
        per variable, under the structure ``structure_tag`` resolves to."""
        s = get_structure(structure_tag)
        n = len(symbols)
        in_spec = SymTensor(symbols, structure=s, shape=(n,))
        out_spec = SymTensor("score", structure=s)
        if s.circuit_safe:
            cnf = source if isinstance(source, CNF) else to_cnf(source, num_vars=n)
            compute = back = self._circuit_backend(cnf, s)
        else:
            if isinstance(source, CNF):
                if source.aux_vars:
                    raise StructureError("fuzzy structures evaluate the original formula; "
                                         "this CNF contains Tseitin auxiliaries")
                source = cnf_to_formula(source)
            compute, back = _fuzzy_compute(source, s, n), None
        return AnnotatedModule(name, (in_spec,), (out_spec,), compute, backend=back)

    def _circuit_backend(self, cnf: CNF, s: Structure) -> CircuitBackend:
        compiled = self._compiled.get(cnf)
        if compiled is None:
            circuit = compile_cnf(cnf)
            compiled = self._compiled[cnf] = circuit, layerize(circuit)
        return CircuitBackend(cnf, *compiled, s)


def _connectives(s: Structure) -> FuzzyConnectives:
    if s.fuzzy is None:
        raise StructureError(f"structure {s.name!r} has no connective table; "
                             f"connective nodes need a fuzzy family")
    return s.fuzzy


def _single_output(m: AnnotatedModule) -> SymTensor:
    if len(m.output_spec) != 1:
        raise CompositionError(f"{m.name} must have exactly one output tensor")
    return m.output_spec[0]


def _fuzzy_compute(nnf, s: Structure, n: int):
    def compute(values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape[-1] != n:
            raise ValueError(f"expected {n} scores on the last axis, got {arr.shape}")
        return evaluate_fuzzy(nnf, s, arr)

    return compute


# ---------------------------------------------------------------------------
# Config files


def load_factory_config(path) -> ModuleFactory:
    """Build a factory from an INI file.

    Sections: ``[structures]`` with ``tags = tag, tag, ...``, which is only
    checked: each must be a built-in tag, and the factory keeps none of
    them (build calls take any built-in tag or Structure without it);
    ``[aggregators]`` with ``name = kind, p`` entries where kind is exists
    or forall and p a finite number > 0; ``[predicates]`` with ``names =
    eq`` (built-ins by name). All sections are optional.
    """
    cp = configparser.ConfigParser(interpolation=None)  # '%' is a plain character
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise CompositionError(f"bad factory config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CompositionError(f"bad factory config {path}: {exc}") from None

    if cp.has_option("structures", "tags"):
        for tag in _csv(cp.get("structures", "tags")):
            get_structure(tag)  # unknown tags must fail loudly

    aggregators: dict[str, Aggregator] = {}
    if cp.has_section("aggregators"):
        for name, raw in cp.items("aggregators"):
            parts = _csv(raw)
            if len(parts) != 2 or parts[0] not in ("exists", "forall"):
                raise CompositionError(
                    f"aggregator {name!r} must be 'exists, <p>' or 'forall, <p>', got {raw!r}")
            kind = parts[0]
            try:
                p = float(parts[1])
            except ValueError:
                p = np.nan
            if not 0 < p < np.inf:
                raise CompositionError(
                    f"aggregator {name!r} needs a finite p > 0, got {parts[1]!r}")
            base = builtin_aggregators(p)[kind]
            aggregators[name] = Aggregator(name, base.op, (("p", p),))

    predicates: list[Predicate] = []
    if cp.has_option("predicates", "names"):
        for pname in _csv(cp.get("predicates", "names")):
            if pname != "eq":
                raise CompositionError(f"unknown built-in predicate {pname!r}")
            predicates.append(EqualityPredicate)

    return ModuleFactory(aggregators=aggregators, predicates=predicates)


def _csv(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]
