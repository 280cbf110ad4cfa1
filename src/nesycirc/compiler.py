"""Compilation of CNF into smooth deterministic decomposable circuits.

The compiler runs an exhaustive DPLL search: unit propagation, splitting of
the live clauses into variable-disjoint connected components (each becomes a
child of an AND node), and binary decision splits. The decision variable has
the most occurrences in the shortest residual clauses; ties go to the
variable that an elimination order of the CNF's primal graph removes last,
so that decisions cut the constraint graph into components early, as a dtree
built from an elimination order does. The order is nested dissection: a
part of the graph whose middle breadth-first level holds at most an eighth
of it is cut there, the cut eliminated last, and a part with no such cut is
ranked by degree in the primal graph, highest first. An implication chain
is thus decided from its middle outwards (n log n edges in about log n
layers), while addition and random CNFs, whose level cuts are wider, are
decided by degree.

A decision produces ``OR(AND(v, sub_t), AND(~v, sub_f))`` with the decision
variable recorded on the OR node, which makes the two branches mutually
inconsistent by construction. The node builder keeps the circuit smooth as
it goes: each OR's branches are padded to the variables of both with gadgets
``OR(v, ~v)``, and the root to every declared variable, so no second pass
rebuilds the circuit. A conjunction stays a tuple of its conjuncts until an
OR or the root takes it, so a branch's literals, components and gadgets
become one AND, built once. A component is the tuple of its residual
clauses (the live clauses with their false literals dropped), and it is its
own cache key, so a residual subproblem compiles once however it is reached.
The search is one loop over an explicit stack of components, with no
recursion.

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

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain

from .errors import CircuitError
from .formula import CNF, _var_range_problem
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
    """An immutable node table with a designated root. Children come
    before their parents, and every AND and OR has at least one.

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
        problem = _var_range_problem(self.num_vars, self.aux_vars)
        if problem:
            raise CircuitError(problem)
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
            elif node.kind in ("AND", "OR") and not node.children:
                raise CircuitError(f"node {i}: {node.kind} without children")
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
    """Append-only node table with node reuse and smoothing: every OR it
    builds and the root it finishes are padded.

    A conjunction stays unbuilt until an OR or the root takes it. It is a
    tuple of the ids of its conjuncts, none of them an AND, with ``()`` for
    TRUE and ``None`` for FALSE, so a branch's conjuncts and the gadgets
    that pad it go into one AND, built once.
    """

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

    def lit(self, literal: int) -> int:
        hit = self._memo.get(literal)  # the one key that is an int
        if hit is not None:
            return hit
        return self._add(literal, CircuitNode("LIT", literal=literal), 1 << (abs(literal) - 1))

    @staticmethod
    def conj(parts: list) -> tuple[int, ...] | None:
        """The conjunction of the conjunctions ``parts``."""
        if None in parts:
            return None
        return tuple(chain.from_iterable(parts))

    def disj(self, a, b, decision_var: int) -> tuple[int, ...] | None:
        """The conjunction of ``OR(a, b)`` alone, with each branch padded to
        the variables of both; a FALSE branch folds away. Both branches are
        padded before either AND is built."""
        if a is None:
            return b
        if b is None:
            return a
        mask_a, mask_b = self._mask(a), self._mask(b)
        both = mask_a | mask_b
        a, b = self._pad(a, both & ~mask_a), self._pad(b, both & ~mask_b)
        a, b = self._and(a), self._and(b)
        key = ("O", a, b, decision_var)
        hit = self._memo.get(key)
        if hit is None:
            node = CircuitNode("OR", children=(a, b), decision_var=decision_var)
            hit = self._add(key, node, both)
        return (hit,)

    def _mask(self, ids) -> int:
        mask = 0
        for i in ids:
            mask |= self.masks[i]
        return mask

    def _pad(self, ids: tuple[int, ...], missing: int) -> tuple[int, ...]:
        """``ids`` and a gadget ``OR(v, ~v)`` for each variable of
        ``missing``, lowest variable first."""
        if not missing:
            return ids
        extras = list(ids)
        while missing:  # set bits only
            low = missing & -missing
            v = low.bit_length()
            extras += self.disj((self.lit(v),), (self.lit(-v),), v)
            missing ^= low
        return tuple(extras)

    def _and(self, ids: tuple[int, ...]) -> int:
        """The node of a conjunction that is not FALSE: its one conjunct,
        or an AND of them (TRUE if there are none)."""
        if len(ids) == 1:
            return ids[0]
        key = ("A", ids)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        return self._add(key, CircuitNode("AND" if ids else "TRUE", children=ids), self._mask(ids))

    def finish(self, root, aux_vars: frozenset[int]) -> Circuit:
        """The circuit of the conjunction ``root`` padded to every declared
        variable, with unreachable nodes dropped."""
        if root is None:
            top = self._add("F", CircuitNode("FALSE"), 0)
        else:
            top = self._and(self._pad(root, ((1 << self.num_vars) - 1) & ~self._mask(root)))
        nodes, masks, top = _compact(self.nodes, self.masks, top)
        return Circuit(self.num_vars, nodes, top, aux_vars, masks)


def _compact(nodes, masks, root):
    """Drop nodes unreachable from the root, preserving relative order.

    :func:`compile_cnf` leaves such nodes in one case: a component that
    compiles to FALSE after a satisfiable sibling was built, which leaves
    the sibling's nodes that nothing else reuses (Tseitin CNFs meet it).
    :func:`smooth` also drops what of its input the root does not reach.
    """
    reach = [False] * (root + 1)  # children come before parents
    reach[root] = True
    for i in range(root, -1, -1):
        if reach[i]:
            for c in nodes[i].children:
                reach[c] = True
    if root + 1 == len(nodes) and all(reach):
        return tuple(nodes), tuple(masks), root
    remap = [0] * (root + 1)
    new_nodes = []
    new_masks = []
    for old in range(root + 1):
        if reach[old]:
            node = nodes[old]
            remap[old] = len(new_nodes)
            if node.children:
                kids = tuple([remap[c] for c in node.children])
                if kids != node.children:  # nodes before the first dropped one keep theirs
                    node = CircuitNode(node.kind, kids, node.literal, node.decision_var)
            new_nodes.append(node)
            new_masks.append(masks[old])
    return tuple(new_nodes), tuple(new_masks), remap[root]


def compile_cnf(cnf: CNF) -> Circuit:
    """Compile a CNF into a smooth, deterministic, decomposable circuit
    whose root mentions every declared variable.

    The output is deterministic for a given input: branch variables are
    chosen by most occurrences in the shortest residual clauses, with ties
    going to the first variable in :func:`_elimination_rank` of the whole
    CNF (nested dissection at breadth-first level cuts of at most an eighth
    of a part, primal-graph degree elsewhere); units are
    propagated lowest clause first, and components are compiled in the
    order of their first clause.
    Unsatisfiable input yields the single FALSE node.

    The search is one loop over an explicit stack of components, so its
    depth is not bounded by the interpreter's recursion limit.
    """
    builder = _Builder(cnf.num_vars)
    rank = _elimination_rank(cnf.clauses)
    top = None if cnf.unsat else _condition(cnf.clauses, _occurrences(cnf.clauses), ())
    cache: dict[tuple, tuple[int, ...] | None] = {}  # component -> its conjunction

    def branch_node(branch) -> tuple[int, ...] | None:
        if branch is None:
            return None
        forced, comps = branch
        parts = [cache[c] for c in comps]
        if None in parts:  # an unsatisfiable component; build no literal for it
            return None
        return builder.conj([tuple(map(builder.lit, forced))] + parts)

    # entries are [component, None] until the component's branches are
    # conditioned, then [component, (v, true branch, false branch)]
    stack = [] if top is None else [[c, None] for c in reversed(top[1])]
    while stack:
        entry = stack[-1]
        comp, split = entry
        if split is None:
            if comp in cache:
                stack.pop()
                continue
            v = _pick_var(comp, rank)
            occ = _occurrences(comp)
            entry[1] = split = (v, _condition(comp, occ, (v,)), _condition(comp, occ, (-v,)))
            for branch in (split[2], split[1]):
                if branch is not None:
                    stack.extend([c, None] for c in reversed(branch[1]))
            continue
        stack.pop()
        v, sub_t, sub_f = split
        cache[comp] = builder.disj(branch_node(sub_t), branch_node(sub_f), v)
    return builder.finish(branch_node(top), cnf.aux_vars)


def _occurrences(clauses) -> dict[int, list[int]]:
    """Map each literal to the indices of the clauses that contain it."""
    occ: defaultdict[int, list[int]] = defaultdict(list)
    for i, clause in enumerate(clauses):
        for lit in clause:
            occ[lit].append(i)
    return occ


def _condition(comp, occ, lits):
    """Set ``lits`` true in the clauses ``comp`` and propagate units.

    ``occ`` is ``_occurrences(comp)``. Returns ``(forced, comps)``: every
    literal set true, ``lits`` first, and the residual clauses (false
    literals dropped) grouped into variable-disjoint components, each a
    tuple in clause order, ordered by their first clause. Returns ``None``
    if a clause is falsified.
    """
    n = len(comp)
    left = list(map(len, comp))
    sat = [False] * n
    true: set[int] = set()
    forced = list(lits)
    # a heap of clause indices; the components returned below hold no unit
    # clause, so only the whole CNF can have one here
    units = [i for i, m in enumerate(left) if m == 1] if 1 in left else []
    k = 0
    while True:
        # once every forced literal is set, force the lowest unit clause
        while k == len(forced) and units:
            i = heappop(units)
            if not sat[i]:
                forced.append(next(l for l in comp[i] if -l not in true))
        if k == len(forced):
            break
        lit = forced[k]
        k += 1
        true.add(lit)
        for i in occ.get(lit, ()):
            sat[i] = True
        for i in occ.get(-lit, ()):
            if not sat[i]:
                m = left[i] = left[i] - 1
                if m < 2:
                    if not m:
                        return None
                    heappush(units, i)
    # group the live clauses; from here on ``sat`` also marks grouped ones
    comps = []
    seen = {-l for l in true}  # false literals, and both of each variable reached
    for start in range(n):
        if sat[start]:
            continue
        sat[start] = True
        group = [start]
        for i in group:
            for l in comp[i]:
                if l not in seen:
                    seen.add(l)
                    seen.add(-l)
                    for j in occ.get(l, ()):
                        if not sat[j]:
                            sat[j] = True
                            group.append(j)
                    for j in occ.get(-l, ()):
                        if not sat[j]:
                            sat[j] = True
                            group.append(j)
        group.sort()
        comps.append(tuple([comp[i] if left[i] == len(comp[i])
                            else tuple([l for l in comp[i] if -l not in true])
                            for i in group]))
    return forced, comps


def _pick_var(comp, rank: dict[int, int]) -> int:
    best_len = min(map(len, comp))
    counts = Counter(map(abs, chain.from_iterable([c for c in comp if len(c) == best_len])))
    most = max(counts.values())
    return min([(rank[v], v) for v, c in counts.items() if c == most])[1]


def _elimination_rank(clauses) -> dict[int, int]:
    """Rank the variables of ``clauses`` by a nested-dissection elimination
    order, with parts that have no cut ranked by degree.

    The primal graph links two variables that share a clause. The variable
    eliminated last gets rank 0: it separates what is left, so deciding it
    first tends to split the clauses into components. Parts of the graph
    are taken off an explicit stack, starting from the whole CNF:

    - a part that is not connected splits into its connected parts, and the
      smallest is eliminated first, so it ranks last;
    - a connected part is cut at the middle level of its breadth-first level
      structure (:func:`_level_cut`) if that level holds at most an eighth
      of the part; the cut is eliminated after the rest of the part, so it
      ranks before it, and the rest goes back on the stack;
    - any other part is ranked by each variable's degree in the primal
      graph of the whole CNF (the number of distinct variables it shares a
      clause with), highest first and ties to the higher id.

    So a path is halved again and again and its middle is decided first,
    while the level cuts of addition or random CNFs are too wide and they
    are ranked by degree whole. The graph is never built: the search walks
    variable to clause to variable, so a clause of width k costs it k steps,
    and the degrees take one union of clause sets per variable.
    """
    # clause id -> its variables, and variable -> ids of its clauses
    members = {e: set(map(abs, clause)) for e, clause in enumerate(clauses)}
    cliques: defaultdict[int, set[int]] = defaultdict(set)
    for e, vs in members.items():
        for v in vs:
            cliques[v].add(e)
    # degree in the primal graph: the variables sharing a clause with v
    deg = {v: len(set().union(*map(members.__getitem__, own))) - 1
           for v, own in cliques.items()}

    order: list[int] = []  # the reverse of the elimination order
    # a part comes with its level structure from its lowest variable, if known
    stack = [(set(cliques), None)] if cliques else []
    while stack:
        part, levels = stack.pop()
        if levels is None:
            levels = _levels(min(part), part, members, cliques)
        if sum(map(len, levels)) < len(part):
            parts = []
            reached: set[int] = set()
            for v in sorted(part):  # the first is min(part), whose levels are known
                if v not in reached:
                    lv = _levels(v, part, members, cliques) if parts else levels
                    comp = set(chain.from_iterable(lv))
                    reached |= comp
                    parts.append((comp, lv))
            parts.sort(key=lambda p: len(p[0]))
            stack.extend(parts)
            continue
        cut = _level_cut(part, levels, members, cliques)
        if cut:
            order.extend(sorted(cut))
            stack.append((part.difference(cut), None))
        else:
            order.extend(sorted(part, key=lambda v: (deg[v], v), reverse=True))
    return {v: r for r, v in enumerate(order)}


def _levels(root: int, part: set[int], members, cliques) -> list[list[int]]:
    """Breadth-first levels of the variables of ``part`` reachable from
    ``root``, walking variable to clause to variable; each level lists its
    variables in the order they are reached."""
    seen = {root}
    expanded: set[int] = set()
    levels = [[root]]
    while True:
        nxt = []
        for v in levels[-1]:
            for e in cliques[v]:
                if e not in expanded:
                    expanded.add(e)
                    for u in members[e]:
                        if u not in seen and u in part:
                            seen.add(u)
                            nxt.append(u)
        if not nxt:
            return levels
        levels.append(nxt)


def _level_cut(part: set[int], levels, members, cliques) -> list[int]:
    """A cut of the connected ``part``, or no variable.

    ``levels`` is the part's level structure from its lowest variable. The
    root moves to the first variable of the last level while that makes the
    structure longer, which finds a pseudo-peripheral root. With at least
    three levels, the cut is the level at which the running count first
    reaches half the part, kept off the first and last level. It is taken
    only if 8 times its size is at most the part's size: wider cuts cost
    more decisions than their split saves (with a quarter, the four formula
    CNFs of the benchmark's ``modules`` workload grow from 3258 to 3319
    edges).
    """
    if len(part) < 8:  # even a one-variable cut is too wide
        return []
    while True:  # re-root while the structure gets longer
        again = _levels(levels[-1][0], part, members, cliques)
        if len(again) <= len(levels):
            break
        levels = again
    if len(levels) < 3:
        return []
    total = 0
    for i, level in enumerate(levels):
        total += len(level)
        if 2 * total >= len(part):
            break
    cut = levels[min(max(i, 1), len(levels) - 2)]
    return cut if 8 * len(cut) <= len(part) else []


# ---------------------------------------------------------------------------
# Smoothing


def smooth(c: Circuit) -> Circuit:
    """Rebuild a decomposable, deterministic circuit so that it is smooth.

    The circuit is rebuilt node by node through the same builder as
    :func:`compile_cnf`, which pads every OR's children to the same
    variables and the root to every declared variable with gadgets
    ``OR(v, ~v)``. :func:`compile_cnf` output is smooth already; this is for
    circuits from elsewhere. Smoothing a smooth circuit reproduces it
    structurally, and :func:`compile_cnf` output node for node.
    """
    check_properties(c).require("decomposable", "deterministic")
    builder = _Builder(c.num_vars)
    conj: list = [None] * len(c.nodes)  # each node as a builder conjunction; FALSE is None
    for i, node in enumerate(c.nodes):
        if node.kind == "LIT":
            conj[i] = (builder.lit(node.literal),)
        elif node.kind == "TRUE":
            conj[i] = ()
        elif node.kind == "AND":
            conj[i] = builder.conj([conj[ch] for ch in node.children])
        elif node.kind == "OR":
            a, b = node.children
            conj[i] = builder.disj(conj[a], conj[b], node.decision_var)
    return builder.finish(conj[c.root], c.aux_vars)


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
    mentions every declared variable (what :func:`compile_cnf` and
    :func:`smooth` produce). The count is the layered forward pass over
    Python integers, so it is exact at any size.
    """
    from .layered import LeafBatch, _forward, layerize  # layered imports this module
    lc = layerize(c)
    full = (1 << c.num_vars) - 1
    if c.nodes[c.root].kind != "FALSE" and c.var_masks[c.root] != full:
        raise CircuitError("model_count requires the root to mention every declared "
                           "variable; smooth the circuit first")
    ones = [[1.0] * c.num_vars]
    batch = LeafBatch.from_weights(ones, ones, aux_vars=c.aux_vars)
    return _forward(lc, batch.literals, _COUNT)[lc.root_slots[0], 0]


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
    """Parse a circuit file, validating the header (``nvars``, ``aux``,
    ``nnodes`` and ``root``, each once), ids, kinds, and the structural
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
            if (parts[0] not in ("nvars", "aux", "nnodes", "root") or parts[0] in header
                    or len(parts) > 2 and parts[0] != "aux"):
                raise CircuitError(f"malformed header line {ln!r}")
            header[parts[0]] = " ".join(parts[1:])
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
