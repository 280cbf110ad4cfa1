"""Compilation of CNF into deterministic decomposable circuits.

The compiler runs an exhaustive DPLL search: unit propagation, splitting of
the live clauses into variable-disjoint connected components (each becomes a
child of an AND node), and binary decision splits. A decision produces
``OR(AND(v, sub_t), AND(~v, sub_f))`` with the decision variable recorded on
the OR node, which makes the two branches mutually inconsistent by
construction. Components are cached under the key (sorted live clause ids,
assigned literals touching those clauses), so structurally identical residual
subproblems compile once.

Circuit files are plain text::

    nnfc 1
    nvars <n>
    aux [<id> ...]
    nnodes <k>
    root <id>
    node <id> LIT <signed literal>
    node <id> AND <child> <child> ...
    node <id> OR <decision var> <child> <child>
    node <id> TRUE
    node <id> FALSE

Node ids are topologically ordered (children before parents). ``c ...`` lines
are comments; the writer emits the layer structure as comments for
inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CircuitError
from .formula import CNF
from .semantics import _COUNT

__all__ = [
    "CircuitNode", "Circuit", "PropertyReport", "compile_cnf", "smooth",
    "check_properties", "model_count", "circuit_to_text", "circuit_from_text",
    "save_circuit", "load_circuit",
]

_KINDS = ("LIT", "AND", "OR", "TRUE", "FALSE")
# integer fields after the kind in a circuit file; AND takes any number
_ARITY = {"LIT": 1, "OR": 3, "TRUE": 0, "FALSE": 0}


@dataclass(frozen=True)
class CircuitNode:
    kind: str
    children: tuple[int, ...] = ()
    literal: int = 0
    decision_var: int = 0


@dataclass(frozen=True)
class Circuit:
    """An immutable node table with a designated root.

    ``var_masks`` caches the set of variables below each node as a bitmask
    (bit v-1 for variable v); it is derived from the nodes and excluded from
    equality.
    """

    num_vars: int
    nodes: tuple[CircuitNode, ...]
    root: int
    aux_vars: frozenset[int] = field(default_factory=frozenset)
    var_masks: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "aux_vars", frozenset(self.aux_vars))
        if not self.nodes:
            raise CircuitError("a circuit needs at least one node")
        if not 0 <= self.root < len(self.nodes):
            raise CircuitError(f"root {self.root} out of range")
        for i, node in enumerate(self.nodes):
            if node.kind not in _KINDS:
                raise CircuitError(f"node {i}: unknown kind {node.kind!r}")
            if node.kind == "LIT":
                if node.literal == 0 or abs(node.literal) > self.num_vars:
                    raise CircuitError(f"node {i}: literal {node.literal} out of range")
            for c in node.children:
                if not 0 <= c < i:
                    raise CircuitError(f"node {i}: child {c} not topologically earlier")
        if not self.var_masks:
            object.__setattr__(self, "var_masks", _compute_masks(self.nodes))

    @property
    def n_inputs(self) -> int:
        return self.num_vars - len(self.aux_vars)


def _compute_masks(nodes: tuple[CircuitNode, ...]) -> tuple[int, ...]:
    masks = [0] * len(nodes)
    for i, node in enumerate(nodes):
        if node.kind == "LIT":
            masks[i] = 1 << (abs(node.literal) - 1)
        else:
            m = 0
            for c in node.children:
                m |= masks[c]
            masks[i] = m
    return tuple(masks)


class _Builder:
    """Append-only node table with constant folding and node reuse."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.nodes: list[CircuitNode] = []
        self.masks: list[int] = []
        self._memo: dict = {}

    def _add(self, key, node: CircuitNode, mask: int) -> int:
        nid = len(self.nodes)
        self.nodes.append(node)
        self.masks.append(mask)
        self._memo[key] = nid
        return nid

    def true(self) -> int:
        hit = self._memo.get("T")
        return hit if hit is not None else self._add("T", CircuitNode("TRUE"), 0)

    def false(self) -> int:
        hit = self._memo.get("F")
        return hit if hit is not None else self._add("F", CircuitNode("FALSE"), 0)

    def lit(self, literal: int) -> int:
        key = ("L", literal)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        return self._add(key, CircuitNode("LIT", literal=literal), 1 << (abs(literal) - 1))

    def kind(self, nid: int) -> str:
        return self.nodes[nid].kind

    def conj(self, ids: list[int]) -> int:
        flat: list[int] = []
        for i in ids:
            k = self.nodes[i].kind
            if k == "TRUE":
                continue
            if k == "FALSE":
                return self.false()
            if k == "AND":
                flat.extend(self.nodes[i].children)
            else:
                flat.append(i)
        out = list(dict.fromkeys(flat))
        if not out:
            return self.true()
        if len(out) == 1:
            return out[0]
        key = ("A", tuple(out))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        mask = 0
        for i in out:
            mask |= self.masks[i]
        return self._add(key, CircuitNode("AND", children=tuple(out)), mask)

    def disj(self, a: int, b: int, decision_var: int) -> int:
        if self.nodes[a].kind == "FALSE":
            return b
        if self.nodes[b].kind == "FALSE":
            return a
        key = ("O", a, b, decision_var)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        node = CircuitNode("OR", children=(a, b), decision_var=decision_var)
        return self._add(key, node, self.masks[a] | self.masks[b])

    def finish(self, root: int, aux_vars: frozenset[int]) -> Circuit:
        nodes, masks, new_root = _compact(self.nodes, self.masks, root)
        return Circuit(self.num_vars, nodes, new_root, aux_vars, masks)


def _compact(nodes, masks, root):
    """Drop nodes unreachable from the root, preserving relative order."""
    reach = set()
    stack = [root]
    while stack:
        i = stack.pop()
        if i in reach:
            continue
        reach.add(i)
        stack.extend(nodes[i].children)
    order = sorted(reach)
    remap = {old: new for new, old in enumerate(order)}
    new_nodes = []
    new_masks = []
    for old in order:
        node = nodes[old]
        if node.children:
            node = CircuitNode(node.kind, tuple(remap[c] for c in node.children),
                               node.literal, node.decision_var)
        new_nodes.append(node)
        new_masks.append(masks[old])
    return tuple(new_nodes), tuple(new_masks), remap[root]


def compile_cnf(cnf: CNF) -> Circuit:
    """Compile a CNF into a deterministic decomposable circuit.

    The output is deterministic for a given input: branch variables are
    chosen by most occurrences in the shortest live clauses with ties going
    to the lowest id, and components are visited in sorted order.
    Unsatisfiable input yields the single FALSE node.
    """
    builder = _Builder(cnf.num_vars)
    if cnf.unsat:
        return builder.finish(builder.false(), cnf.aux_vars)
    clauses = list(cnf.clauses)
    m = len(clauses)
    if m == 0:
        return builder.finish(builder.true(), cnf.aux_vars)

    clause_vars: list[tuple[int, ...]] = [tuple(dict.fromkeys(abs(l) for l in c)) for c in clauses]
    occ: dict[int, list[int]] = {}
    for cid, clause in enumerate(clauses):
        for lit in clause:
            occ.setdefault(lit, []).append(cid)
    occ_get = occ.get
    assign = [0] * (cnf.num_vars + 1)
    n_unass = [len(c) for c in clauses]
    sat_by = [0] * m
    trail: list[int] = []  # encoded: var stored as 3*v, sat cid as 3*c+1, unass cid as 3*c+2
    cache: dict = {}
    empty: tuple[int, ...] = ()

    def assign_lit(lit: int) -> bool:
        v = lit if lit > 0 else -lit
        assign[v] = 1 if lit > 0 else -1
        trail.append(3 * v)
        for cid in occ_get(lit, empty):
            if not sat_by[cid]:
                sat_by[cid] = lit
                trail.append(3 * cid + 1)
        ok = True
        for cid in occ_get(-lit, empty):
            n_unass[cid] -= 1
            trail.append(3 * cid + 2)
            if not sat_by[cid] and n_unass[cid] == 0:
                ok = False
        return ok

    def rollback(mark: int):
        while len(trail) > mark:
            code = trail.pop()
            x, tag = divmod(code, 3)
            if tag == 0:
                assign[x] = 0
            elif tag == 1:
                sat_by[x] = 0
            else:
                n_unass[x] += 1

    def compile_scope(scope) -> int:
        mark = len(trail)
        props: list[int] = []
        while True:
            unit = 0
            for cid in scope:
                if not sat_by[cid] and n_unass[cid] == 1:
                    for l in clauses[cid]:
                        if not assign[abs(l)]:
                            unit = l
                            break
                    break
            if not unit:
                break
            props.append(unit)
            if not assign_lit(unit):
                rollback(mark)
                return builder.false()
        live = [cid for cid in scope if not sat_by[cid]]
        parts = [builder.lit(l) for l in props]
        if live:
            for comp in _split_components(live, clause_vars, assign):
                node = compile_component(comp)
                if builder.kind(node) == "FALSE":
                    rollback(mark)
                    return node
                parts.append(node)
        rollback(mark)
        return builder.conj(parts)

    def compile_component(comp: list[int]) -> int:
        touch: set[int] = set()
        for cid in comp:
            for v in clause_vars[cid]:
                av = assign[v]
                if av:
                    touch.add(v if av > 0 else -v)
        key = (tuple(comp), tuple(sorted(touch)))
        hit = cache.get(key)
        if hit is not None:
            return hit
        v = _pick_var(comp, clauses, clause_vars, n_unass, assign)
        mark = len(trail)
        sub_t = compile_scope(comp) if assign_lit(v) else builder.false()
        rollback(mark)
        sub_f = compile_scope(comp) if assign_lit(-v) else builder.false()
        rollback(mark)
        node = builder.disj(builder.conj([builder.lit(v), sub_t]),
                            builder.conj([builder.lit(-v), sub_f]), v)
        cache[key] = node
        return node

    root = compile_scope(range(m))
    return builder.finish(root, cnf.aux_vars)


def _split_components(live, clause_vars, assign):
    """Group live clauses into connected components over unassigned variables."""
    var2cl: dict[int, list[int]] = {}
    for cid in live:
        for v in clause_vars[cid]:
            if not assign[v]:
                var2cl.setdefault(v, []).append(cid)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in live:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            cid = stack.pop()
            for v in clause_vars[cid]:
                lst = var2cl.get(v)
                if not lst:
                    continue
                var2cl[v] = ()
                for nc in lst:
                    if nc not in seen:
                        seen.add(nc)
                        comp.append(nc)
                        stack.append(nc)
        comp.sort()
        comps.append(comp)
    comps.sort()
    return comps


def _pick_var(comp, clauses, clause_vars, n_unass, assign):
    best_len = min(n_unass[cid] for cid in comp)
    counts: dict[int, int] = {}
    for cid in comp:
        if n_unass[cid] != best_len:
            continue
        for l in clauses[cid]:
            v = abs(l)
            if not assign[v]:
                counts[v] = counts.get(v, 0) + 1
    return min(counts, key=lambda v: (-counts[v], v))


# ---------------------------------------------------------------------------
# Smoothing


def smooth(c: Circuit) -> Circuit:
    """Rebuild the circuit so every OR's children mention the same variables
    and the root mentions every declared variable.

    Missing variables are supplied by gadgets ``OR(v, ~v)``, multiplied onto
    the deficient child (and onto the root for variables the whole circuit
    never mentions). Smoothing an already smooth circuit reproduces it
    structurally.
    """
    check_properties(c).require("decomposable", "deterministic")
    builder = _Builder(c.num_vars)
    gadgets: dict[int, int] = {}

    def gadget(v: int) -> int:
        hit = gadgets.get(v)
        if hit is None:
            hit = gadgets[v] = builder.disj(builder.lit(v), builder.lit(-v), v)
        return hit

    def pad(nid: int, missing_mask: int) -> int:
        if not missing_mask:
            return nid
        extras = [nid]
        v = 1
        while missing_mask:
            if missing_mask & 1:
                extras.append(gadget(v))
            missing_mask >>= 1
            v += 1
        return builder.conj(extras)

    new_id: list[int] = [0] * len(c.nodes)
    new_mask: list[int] = [0] * len(c.nodes)
    for i, node in enumerate(c.nodes):
        if node.kind == "LIT":
            new_id[i] = builder.lit(node.literal)
        elif node.kind == "TRUE":
            new_id[i] = builder.true()
        elif node.kind == "FALSE":
            new_id[i] = builder.false()
        elif node.kind == "AND":
            new_id[i] = builder.conj([new_id[ch] for ch in node.children])
        else:
            a, b = node.children
            target = new_mask[a] | new_mask[b]
            wa = pad(new_id[a], target & ~new_mask[a])
            wb = pad(new_id[b], target & ~new_mask[b])
            new_id[i] = builder.disj(wa, wb, node.decision_var)
        new_mask[i] = builder.masks[new_id[i]]
    full = (1 << c.num_vars) - 1
    root = pad(new_id[c.root], full & ~new_mask[c.root])
    return builder.finish(root, c.aux_vars)


# ---------------------------------------------------------------------------
# Property checks and counting


@dataclass
class PropertyReport:
    """Outcome of the structural checks, with up to five offenders each."""

    decomposable: bool
    deterministic: bool
    smooth: bool
    violations: dict[str, list[int]]

    @property
    def ok(self) -> bool:
        return self.decomposable and self.deterministic and self.smooth

    def require(self, *props: str) -> None:
        """Raise one CircuitError naming each listed property that fails."""
        failed = [f"{p} (nodes {' '.join(map(str, self.violations[p]))})"
                  for p in props if not getattr(self, p)]
        if failed:
            raise CircuitError(f"circuit violates {', '.join(failed)}")


def _forces(c: Circuit, nid: int, lit: int) -> bool:
    """Whether ``lit`` is a LIT node reachable from ``nid`` through ANDs only.

    Depth-first, children left to right, with an explicit stack so that
    long AND chains cannot exhaust the interpreter's recursion limit.
    """
    stack = [nid]
    seen = set()
    while stack:
        i = stack.pop()
        node = c.nodes[i]
        if node.kind == "LIT":
            if node.literal == lit:
                return True
        elif node.kind == "AND" and i not in seen:
            seen.add(i)
            stack.extend(reversed(node.children))
    return False


def check_properties(c: Circuit) -> PropertyReport:
    """Check decomposability, determinism, and smoothness.

    Determinism is checked structurally: each OR must carry a decision
    variable that one child forces positively and the other negatively.
    """
    bad: dict[str, list[int]] = {"decomposable": [], "deterministic": [], "smooth": []}
    for i, node in enumerate(c.nodes):
        if node.kind == "AND":
            acc = 0
            for ch in node.children:
                if acc & c.var_masks[ch]:
                    if len(bad["decomposable"]) < 5:
                        bad["decomposable"].append(i)
                    break
                acc |= c.var_masks[ch]
        elif node.kind == "OR":
            det_ok = (len(node.children) == 2 and node.decision_var > 0
                      and _forces(c, node.children[0], node.decision_var)
                      and _forces(c, node.children[1], -node.decision_var))
            if not det_ok and len(bad["deterministic"]) < 5:
                bad["deterministic"].append(i)
            masks = {c.var_masks[ch] for ch in node.children}
            if len(masks) > 1 and len(bad["smooth"]) < 5:
                bad["smooth"].append(i)
    return PropertyReport(
        decomposable=not bad["decomposable"],
        deterministic=not bad["deterministic"],
        smooth=not bad["smooth"],
        violations={k: v for k, v in bad.items() if v},
    )


def model_count(c: Circuit) -> int:
    """Exact model count over the declared variable set.

    Requires a smooth, deterministic, decomposable circuit whose root
    mentions every declared variable (what :func:`smooth` produces). The
    count is the layered forward pass over Python integers, so it is exact
    at any size.
    """
    from .layered import LeafBatch, _forward, layerize  # layered imports this module
    lc = layerize(c)
    full = (1 << c.num_vars) - 1
    if c.nodes[c.root].kind != "FALSE" and c.var_masks[c.root] != full:
        raise CircuitError("model_count requires the root to mention every declared "
                           "variable; smooth the circuit first")
    ones = [[1.0] * c.num_vars]
    return _forward(lc, LeafBatch.from_weights(ones, ones), _COUNT)[lc.root_slot, 0]


# ---------------------------------------------------------------------------
# Serialization


def circuit_to_text(c: Circuit, comments: list[str] | None = None) -> str:
    lines = ["nnfc 1"]
    for comment in comments or ():
        lines.append(f"c {comment}")
    lines.append(f"nvars {c.num_vars}")
    lines.append("aux " + " ".join(str(v) for v in sorted(c.aux_vars)) if c.aux_vars else "aux")
    lines.append(f"nnodes {len(c.nodes)}")
    lines.append(f"root {c.root}")
    for i, node in enumerate(c.nodes):
        if node.kind == "LIT":
            lines.append(f"node {i} LIT {node.literal}")
        elif node.kind == "AND":
            lines.append(f"node {i} AND " + " ".join(str(ch) for ch in node.children))
        elif node.kind == "OR":
            lines.append(f"node {i} OR {node.decision_var} "
                         + " ".join(str(ch) for ch in node.children))
        else:
            lines.append(f"node {i} {node.kind}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse a circuit file, validating ids, kinds, and the structural
    properties (decomposability and determinism)."""
    header: dict[str, str] = {}
    nodes: list[CircuitNode] = []
    expect_id = 0
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln and not ln.startswith("c ") and ln != "c"]
    if not body or body[0].split() != ["nnfc", "1"]:
        raise CircuitError("not a circuit file (missing 'nnfc 1' header)")
    for ln in body[1:]:
        parts = ln.split()
        if parts[0] == "node":
            try:
                kind = parts[2]
                nid, *ints = map(int, parts[1:2] + parts[3:])
                if len(ints) != _ARITY.get(kind, len(ints)):
                    raise ValueError
            except (IndexError, ValueError):
                raise CircuitError(f"malformed node record {ln!r}") from None
            if kind not in _KINDS:
                raise CircuitError(f"unknown node kind {kind!r}")
            if nid != expect_id:
                raise CircuitError(f"node ids must be dense and in order, got {nid}")
            expect_id += 1
            if kind == "LIT":
                nodes.append(CircuitNode("LIT", literal=ints[0]))
            elif kind == "OR":
                nodes.append(CircuitNode("OR", children=tuple(ints[1:]), decision_var=ints[0]))
            else:
                nodes.append(CircuitNode(kind, children=tuple(ints)))
        else:
            if len(parts) > 2:
                raise CircuitError(f"malformed header line {ln!r}")
            header[parts[0]] = parts[1] if len(parts) == 2 else ""
    for key in ("nvars", "nnodes", "root"):
        if key not in header:
            raise CircuitError(f"missing {key!r} header")
    try:
        num_vars = int(header["nvars"])
        nnodes = int(header["nnodes"])
        root = int(header["root"])
        aux = frozenset(int(x) for x in header.get("aux", "").split())
    except ValueError:
        raise CircuitError("malformed header value") from None
    if nnodes != len(nodes):
        raise CircuitError(f"declared {nnodes} nodes, found {len(nodes)}")
    circuit = Circuit(num_vars, tuple(nodes), root, aux)
    check_properties(circuit).require("decomposable", "deterministic")
    return circuit


def save_circuit(c: Circuit, path, comments: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(circuit_to_text(c, comments))


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return circuit_from_text(fh.read())
