"""Symbolically annotated modules and automatic composition.

A SymTensor binds tensor positions to unique symbol names plus a
structure, resolved from its tag once when the spec is made and carried
from there on. AnnotatedModules declare their interfaces as SymTensors,
which is enough to wire modules together by name: :func:`chain` composes
two modules sequentially, :func:`wire_dag` wires any number of them into a
DAG by symbol dependencies. Both compare the structures the specs carry,
insert structure transformations (looked up by name in the closed table
in :mod:`nesycirc.semantics`) and symbol permutations automatically, and
record every inserted stage in a text manifest for inspection. Two
different structures under one name never meet silently: wiring them
raises ``IncompatibleStructures``.

Value arrays may carry one leading batch axis beyond the declared shape;
validation and gathering treat trailing axes as the symbolic ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CompositionError, IncompatibleStructures
from .semantics import Structure, get_structure, transform, transform_pairs

__all__ = [
    "SymTensor", "AnnotatedModule", "Violation", "Manifest", "validate",
    "reshape_input", "chain", "wire_dag", "identity_module", "fresh_symbol",
    "manifest_for", "save_manifest", "load_manifest",
]

_SYMBOL_COUNTER = itertools.count(1)


def fresh_symbol(prefix: str) -> str:
    """A process-unique derived symbol name."""
    return f"{prefix}.{next(_SYMBOL_COUNTER)}"


@dataclass(frozen=True)
class SymTensor:
    """Symbol names arranged in a shape, under one structure tag.

    ``symbols`` may be given nested (the shape is inferred) or flat with an
    explicit ``shape``; a bare string makes a scalar spec. Stored symbols
    are always the flattened tuple. ``structure`` is a built-in tag (aliases
    resolved) or a :class:`Structure`, such as a user fuzzy algebra made by
    ``fuzzy_structure_from_ops``; an unknown tag raises ``StructureError``.
    The resolved structure is kept as ``semantics``: validation checks
    values against its carrier, and wiring compares it. ``structure`` keeps
    its name, which manifests record and equality compares.
    """

    symbols: tuple[str, ...]
    structure: str | Structure = "probability"
    shape: tuple[int, ...] | None = None
    semantics: Structure = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.symbols, dtype=object)
        if self.shape is None:
            shape = arr.shape
        else:
            shape = tuple(self.shape)
        flat = tuple(arr.reshape(-1))
        if len(flat) != int(np.prod(shape, dtype=np.int64)):
            raise CompositionError(f"{len(flat)} symbols do not fill shape {shape}")
        seen = set()
        for s in flat:
            if not isinstance(s, str) or not s:
                raise CompositionError(f"symbols must be nonempty strings, got {s!r}")
            if any(ch.isspace() for ch in s) or "," in s or ";" in s:
                raise CompositionError(f"symbol {s!r} contains whitespace or a delimiter")
            if s in seen:
                raise CompositionError(f"duplicate symbol {s!r}")
            seen.add(s)
        object.__setattr__(self, "symbols", flat)
        object.__setattr__(self, "shape", shape)
        s = get_structure(self.structure)
        object.__setattr__(self, "structure", s.name)
        object.__setattr__(self, "semantics", s)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        """Flat position of a symbol; raises CompositionError when absent."""
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise CompositionError(f"symbol {symbol!r} not in {self.symbols}") from None


@dataclass(frozen=True)
class Violation:
    module: str
    tensor: str
    index: tuple[int, ...]
    value: float | None
    message: str

    def __str__(self):
        where = f"{self.tensor}{list(self.index)}" if self.index else self.tensor
        return f"{self.module} {where}: {self.message}"


@dataclass(frozen=True)
class Manifest:
    """Wiring description of a composite: modules, edges, inserted stages."""

    name: str
    records: tuple[tuple[str, ...], ...]

    def to_text(self) -> str:
        lines = ["manifest 1", f"name {self.name}"]
        lines += [" ".join(rec) for rec in self.records]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "Manifest":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "manifest 1":
            raise CompositionError("not a manifest (missing 'manifest 1' header)")
        if len(lines) < 2 or not lines[1].startswith("name "):
            raise CompositionError("manifest is missing its name line")
        name = lines[1][5:]
        return Manifest(name, tuple(tuple(ln.split()) for ln in lines[2:]))


@dataclass(frozen=True)
class AnnotatedModule:
    """A pure compute function plus symbolic input/output specs.

    ``compute`` maps one positional array per input spec to one array per
    output spec (a bare array stands for a single output). Calling the
    module validates values against the specs unless ``check=False``;
    validation never changes values, only observes them.
    """

    name: str
    input_spec: tuple[SymTensor, ...]
    output_spec: tuple[SymTensor, ...]
    compute: Callable = field(repr=False)
    manifest: Manifest | None = field(default=None, repr=False, compare=False)
    # circuit-backed modules carry their compiled artifacts here so loss and
    # gradient helpers can reach past the opaque compute function
    backend: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for attr in ("input_spec", "output_spec"):
            spec = getattr(self, attr)
            if isinstance(spec, SymTensor):
                spec = (spec,)
            object.__setattr__(self, attr, tuple(spec))

    def __call__(self, *values, check: bool = True):
        if len(values) != len(self.input_spec):
            raise CompositionError(f"{self.name} takes {len(self.input_spec)} "
                                   f"inputs, got {len(values)}")
        arrays = tuple(np.asarray(v, dtype=np.float64) for v in values)
        if check:
            _raise_on(_violations(self.name, "input", self.input_spec, arrays))
        outs = _run(self, arrays)
        if len(outs) != len(self.output_spec):
            raise CompositionError(f"{self.name} declared {len(self.output_spec)} "
                                   f"outputs, produced {len(outs)}")
        if check:
            _raise_on(_violations(self.name, "output", self.output_spec, outs))
        return outs[0] if len(outs) == 1 else outs


def _run(m: AnnotatedModule, arrays) -> tuple[np.ndarray, ...]:
    outs = m.compute(*arrays)
    if not isinstance(outs, tuple):
        outs = (outs,)
    return tuple(np.asarray(o, dtype=np.float64) for o in outs)


def identity_module(spec: SymTensor, name: str = "identity") -> AnnotatedModule:
    return AnnotatedModule(name, (spec,), (spec,), lambda x: x)


# ---------------------------------------------------------------------------
# Validation


def _shape_ok(spec: SymTensor, arr: np.ndarray) -> bool:
    if arr.shape == spec.shape:
        return True
    return arr.ndim == len(spec.shape) + 1 and arr.shape[1:] == spec.shape


def _violations(module: str, role: str, specs, arrays) -> list[Violation]:
    out: list[Violation] = []
    for k, (spec, arr) in enumerate(zip(specs, arrays)):
        tensor = f"{role}[{k}]"
        if not _shape_ok(spec, arr):
            out.append(Violation(module, tensor, (), None,
                                 f"shape {arr.shape} does not match {spec.shape}"))
            continue
        ok = spec.semantics.carrier.contains(arr)
        if not ok.all():
            for idx in np.argwhere(~ok)[:5]:
                index = tuple(int(i) for i in idx)
                val = float(arr[index]) if index else float(arr)
                out.append(Violation(module, tensor, index, val,
                                     f"value {val!r} {spec.semantics.carrier.reason} "
                                     f"for {spec.structure}"))
    return out


def _raise_on(violations: list[Violation]):
    if violations:
        raise CompositionError("; ".join(str(v) for v in violations[:10]))


def validate(m: AnnotatedModule, inputs) -> list[Violation]:
    """Check input values against m's specs; an empty list means ok."""
    arrays = tuple(np.asarray(v, dtype=np.float64) for v in inputs)
    if len(arrays) != len(m.input_spec):
        return [Violation(m.name, "input", (), None,
                          f"expected {len(m.input_spec)} tensors, got {len(arrays)}")]
    return _violations(m.name, "input", m.input_spec, arrays)


# ---------------------------------------------------------------------------
# Reshaping


def _positional_default(symbols: tuple[str, ...]) -> bool:
    return all(s == f"v{i}" for i, s in enumerate(symbols, start=1))


def reshape_input(m: AnnotatedModule, expected: SymTensor) -> AnnotatedModule:
    """Adapt a single-input module to a wider or reordered input spec.

    Entries are matched by symbol name; extra symbols in ``expected`` are
    ignored positions. Circuit-backed modules with the default positional
    symbols ``v1..vn`` instead bind v_i to the i-th entry of ``expected``,
    which is how plain DIMACS variables pick up user-facing names.
    """
    if len(m.input_spec) != 1:
        raise CompositionError(f"reshape_input needs a single-input module, "
                               f"{m.name} has {len(m.input_spec)}")
    src = m.input_spec[0]
    if expected.semantics != src.semantics:
        raise IncompatibleStructures(expected.structure, src.structure)
    if _positional_default(src.symbols) and not set(src.symbols) <= set(expected.symbols):
        if expected.size < src.size:
            raise CompositionError(f"{m.name} needs {src.size} positional inputs, "
                                   f"expected spec provides {expected.size}")
        perm = tuple(range(src.size))
    else:
        perm = tuple(expected.index(s) for s in src.symbols)
    n_batch_cut = len(expected.shape)

    def compute(value, _perm=np.asarray(perm, dtype=np.int64)):
        arr = np.asarray(value, dtype=np.float64)
        flat = arr.reshape(arr.shape[:arr.ndim - n_batch_cut] + (expected.size,))
        return _run(m, (flat[..., _perm].reshape(flat.shape[:-1] + src.shape),))

    records = (("module", m.name, _syms(m.input_spec), _syms(m.output_spec)),
               ("reshape", m.name + "[0]", ",".join(str(i) for i in perm)))
    return AnnotatedModule(m.name, (expected,), m.output_spec, compute,
                           Manifest(m.name, records))


def _syms(specs) -> str:
    return ";".join(",".join(st.symbols) for st in specs)


# ---------------------------------------------------------------------------
# Composition plumbing: gather plans


@dataclass(frozen=True)
class _Source:
    key: tuple
    label: str
    spec: SymTensor
    pos: int


class _Plan:
    """How to assemble one consumer input tensor from produced values."""

    def __init__(self, consumer: str, input_idx: int, target: SymTensor,
                 producers: dict[str, _Source]):
        self.dst = f"{consumer}[{input_idx}]"
        self.target = target
        self.sources = [producers[s] for s in target.symbols]
        frm, *others = {src.spec.semantics for src in self.sources} or {target.semantics}
        names = sorted({s.name for s in (frm, *others)})
        if len(names) > 1:
            raise CompositionError(f"{self.dst} mixes structures {names}")
        if others:  # a second structure under the same name
            raise IncompatibleStructures(frm.name, others[0].name)
        self.pair = None
        if frm != target.semantics:
            if (frm.name, target.structure) not in transform_pairs():
                raise IncompatibleStructures(frm.name, target.structure)
            self.pair = (frm, target.semantics)
        first = self.sources[0] if self.sources else None
        # what two plans share when they assemble the same array
        self.signature = (tuple((src.key, src.pos) for src in self.sources), self.pair,
                          target.shape)
        self.passthrough = (first is not None
                            and all(s.key == first.key for s in self.sources)
                            and first.spec.size == target.size
                            and tuple(s.pos for s in self.sources) == tuple(range(target.size))
                            and first.spec.shape == target.shape)

    def run(self, env: dict) -> np.ndarray:
        if self.passthrough:
            out = env[self.sources[0].key]
        else:
            cols = []
            for src in self.sources:
                arr = env[src.key]
                flat = arr.reshape(arr.shape[:arr.ndim - len(src.spec.shape)] + (src.spec.size,))
                cols.append(flat[..., src.pos])
            out = np.stack(cols, axis=-1).reshape(cols[0].shape + self.target.shape) \
                if self.target.shape else cols[0]
        if self.pair is not None:
            out = transform(out, *self.pair)
        return out

    def records(self) -> list[tuple[str, ...]]:
        recs: list[tuple[str, ...]] = []
        by_label: dict[str, list[str]] = {}
        for src in self.sources:
            by_label.setdefault(src.label, []).append(src.spec.symbols[src.pos])
        for label, syms in by_label.items():
            recs.append(("edge", label, "->", self.dst, ",".join(syms)))
        if self.pair is not None:
            recs.append(("transform", self.pair[0].name, "->", self.pair[1].name, self.dst))
        return recs


def _collect_producers(entries) -> dict[str, _Source]:
    """entries: iterable of (key, label, SymTensor). Errors on double production."""
    producers: dict[str, _Source] = {}
    owner: dict[str, str] = {}
    for key, label, spec in entries:
        for pos, s in enumerate(spec.symbols):
            if s in producers:
                raise CompositionError(f"symbol {s!r} produced by both "
                                       f"{owner[s]} and {label}")
            producers[s] = _Source(key, label, spec, pos)
            owner[s] = label
    return producers


def _input_symbols(m: AnnotatedModule) -> set[str]:
    out: set[str] = set()
    for spec in m.input_spec:
        for s in spec.symbols:
            if s in out:
                raise CompositionError(f"{m.name} consumes symbol {s!r} twice")
            out.add(s)
    return out


# ---------------------------------------------------------------------------
# Sequential and DAG composition


def chain(m1: AnnotatedModule, m2: AnnotatedModule, *, name: str | None = None) -> AnnotatedModule:
    """Compose sequentially by symbol name.

    m1's output symbols must equal m2's input symbols as sets; permutations
    are rewired and a structure transformation is inserted when the
    structures differ and the transform table allows it.
    """
    producers = _collect_producers(
        ((("o", i), f"{m1.name}[{i}]", spec) for i, spec in enumerate(m1.output_spec)))
    consumed = _input_symbols(m2)
    missing = sorted(consumed - set(producers))
    extra = sorted(set(producers) - consumed)
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"{m2.name} needs unproduced symbols {missing}")
        if extra:
            parts.append(f"{m1.name} outputs unconsumed symbols {extra}")
        raise CompositionError("; ".join(parts))
    plans = [_Plan(m2.name, k, spec, producers) for k, spec in enumerate(m2.input_spec)]

    def compute(*values):
        env = {("o", i): v for i, v in enumerate(_run(m1, values))}
        return _run(m2, tuple(plan.run(env) for plan in plans))

    records: list[tuple[str, ...]] = [
        ("module", m1.name, _syms(m1.input_spec), _syms(m1.output_spec)),
        ("module", m2.name, _syms(m2.input_spec), _syms(m2.output_spec)),
    ]
    for plan in plans:
        records.extend(plan.records())
    records.append(("group", "0", m1.name))
    records.append(("group", "1", m2.name))
    cname = name or f"{m1.name}>>{m2.name}"
    return AnnotatedModule(cname, m1.input_spec, m2.output_spec, compute,
                           Manifest(cname, tuple(records)))


def wire_dag(modules, external_inputs, *, name: str = "dag") -> AnnotatedModule:
    """Wire modules into a DAG by their symbolic dependencies.

    Every consumed symbol must be produced exactly once, by a module output
    or an external input tensor. Execution runs the topological generations
    in order. Within a generation, the circuit modules (those whose compute
    is their :class:`~nesycirc.factory.CircuitBackend`) that have the same
    structure and the same input plan, that is the same sources, positions
    and structure transformation, run as one group: the plan runs once and
    the group's circuits run as one forward pass over a multi-root layering
    built on the DAG's first call and shared by every group of the same
    circuits, such as the probability and log modules of the same formulas
    (see :func:`~nesycirc.factory.fused_compute`). Every other module runs
    alone.
    Groups and modules run in the name order of their first module. Output
    tensors whose symbols are not all consumed internally become composite
    outputs.
    """
    from .factory import CircuitBackend, fused_compute  # factory imports this module
    mods = sorted(modules, key=lambda m: m.name)
    if len({m.name for m in mods}) != len(mods):
        raise CompositionError("module names in a DAG must be unique")
    externals = tuple(external_inputs) if not isinstance(external_inputs, SymTensor) \
        else (external_inputs,)
    entries = [(("x", i), f"external[{i}]", spec) for i, spec in enumerate(externals)]
    for m in mods:
        entries.extend(((m.name, i), f"{m.name}[{i}]", spec)
                       for i, spec in enumerate(m.output_spec))
    producers = _collect_producers(entries)

    deps: dict[str, set[str]] = {}
    for m in mods:
        need = set()
        for s in _input_symbols(m):
            src = producers.get(s)
            if src is None:
                raise CompositionError(f"symbol {s!r} needed by {m.name} is never produced")
            if src.key[0] != "x":
                need.add(src.key[0])
        deps[m.name] = need

    by_name = {m.name: m for m in mods}
    remaining = dict(deps)
    generations: list[list[str]] = []
    done: set[str] = set()
    while remaining:
        ready = sorted(n for n, d in remaining.items() if d <= done)
        if not ready:
            cycle = sorted(remaining)
            raise CompositionError(f"dependency cycle among modules: {', '.join(cycle)}")
        generations.append(ready)
        done.update(ready)
        for n in ready:
            del remaining[n]

    plans = {m.name: [_Plan(m.name, k, spec, producers)
                      for k, spec in enumerate(m.input_spec)] for m in mods}
    consumed: set[str] = set()
    for m in mods:
        consumed |= _input_symbols(m)
    sink_keys: list[tuple] = []
    out_specs: list[SymTensor] = []
    for gen in generations:
        for n in gen:
            for i, spec in enumerate(by_name[n].output_spec):
                if not all(s in consumed for s in spec.symbols):
                    sink_keys.append((n, i))
                    out_specs.append(spec)
    if not out_specs:
        raise CompositionError("the DAG has no sink outputs")

    # one step per group or lone module: its module names, its input plans,
    # and a run mapping the plans' arrays to each module's outputs; groups
    # of the same circuits share one layering
    steps, layerings = [], {}
    for gen in generations:
        groups: dict = {}
        for n in gen:
            back = by_name[n].backend
            circuit = by_name[n].compute is back and isinstance(back, CircuitBackend)
            groups.setdefault((back.semantics, plans[n][0].signature) if circuit else n,
                              []).append(n)
        for key, names in groups.items():
            run = fused_compute((by_name[n].backend for n in names), layerings) \
                if isinstance(key, tuple) \
                else lambda *arrays, _m=by_name[names[0]]: (_run(_m, arrays),)
            steps.append((names, plans[names[0]], run))

    def compute(*values):
        env: dict = {("x", i): np.asarray(v, dtype=np.float64)
                     for i, v in enumerate(values)}
        for names, step_plans, run in steps:
            for n, outs in zip(names, run(*(plan.run(env) for plan in step_plans))):
                for i, out in enumerate(outs):
                    env[(n, i)] = out
        return tuple(env[key] for key in sink_keys)

    records: list[tuple[str, ...]] = []
    for i, spec in enumerate(externals):
        records.append(("external", str(i), ",".join(spec.symbols), spec.structure))
    for m in mods:
        records.append(("module", m.name, _syms(m.input_spec), _syms(m.output_spec)))
    for m in mods:
        for plan in plans[m.name]:
            records.extend(plan.records())
    for k, gen in enumerate(generations):
        records.append(("group", str(k), *gen))
    for (n, i), spec in zip(sink_keys, out_specs):
        records.append(("output", f"{n}[{i}]", ",".join(spec.symbols), spec.structure))
    return AnnotatedModule(name, externals, tuple(out_specs), compute,
                           Manifest(name, tuple(records)))


# ---------------------------------------------------------------------------
# Manifest files


def manifest_for(m: AnnotatedModule) -> Manifest:
    """The module's wiring manifest, or a minimal single-module one."""
    if m.manifest is not None:
        return m.manifest
    return Manifest(m.name, (("module", m.name, _syms(m.input_spec),
                              _syms(m.output_spec)),))


def save_manifest(m, path) -> None:
    manifest = m if isinstance(m, Manifest) else manifest_for(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest.to_text())


def load_manifest(path) -> Manifest:
    with open(path, encoding="utf-8") as fh:
        return Manifest.parse(fh.read())
