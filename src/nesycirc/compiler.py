"""Compilation of CNF into deterministic decomposable circuits.

The compiler runs an exhaustive DPLL search: unit propagation, splitting of
the live clauses into variable-disjoint connected components (each becomes a
child of an AND node), and binary decision splits. The decision variable has
the most occurrences in the shortest residual clauses; ties go to the
variable that an elimination order of the CNF's primal graph removes last,
so that decisions cut the constraint graph into components early, as a dtree
built from an elimination order does. The order is nested dissection: a
part of the graph whose middle breadth-first level holds at most an eighth
of it is cut there, the cut eliminated last, and a part with no such cut is
ordered by min-degree. An implication chain is thus decided from its middle
outwards (n log n edges in about log n layers), while addition and random
CNFs, whose level cuts are wider, keep their min-degree order.

A decision produces ``OR(AND(v, sub_t), AND(~v, sub_f))`` with the decision
variable recorded on the OR node, which makes the two branches mutually
inconsistent by construction. A component is the tuple of its residual
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
from heapq import heapify, heappop, heappush
from itertools import chain, count

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
    chosen by most occurrences in the shortest residual clauses, with ties
    going to the first variable in :func:`_elimination_rank` of the whole
    CNF (nested dissection at breadth-first level cuts of at most an eighth
    of a part, min-degree elsewhere) and then to the lowest id; units are
    propagated lowest clause first, and components are compiled in the
    order of their first clause.
    Unsatisfiable input yields the single FALSE node.

    The search is one loop over an explicit stack of components, so its
    depth is not bounded by the interpreter's recursion limit.
    """
    builder = _Builder(cnf.num_vars)
    rank = _elimination_rank(cnf.clauses)
    top = None if cnf.unsat else _condition(cnf.clauses, _occurrences(cnf.clauses), ())
    cache: dict[tuple, int] = {}

    def branch_node(branch) -> int:
        if branch is None:
            return builder.false()
        forced, comps = branch
        return builder.conj([builder.lit(l) for l in forced] + [cache[c] for c in comps])

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
    units = [i for i, m in enumerate(left) if m == 1]  # a heap of clause indices
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
                left[i] -= 1
                if left[i] == 0:
                    return None
                if left[i] == 1:
                    heappush(units, i)
    # group the live clauses; from here on ``sat`` also marks grouped ones
    comps = []
    reached: set[int] = set()
    for start in range(n):
        if sat[start]:
            continue
        sat[start] = True
        group = [start]
        for i in group:
            for l in comp[i]:
                v = abs(l)
                if -l in true or v in reached:
                    continue
                reached.add(v)
                for j in chain(occ.get(v, ()), occ.get(-v, ())):
                    if not sat[j]:
                        sat[j] = True
                        group.append(j)
        group.sort()
        comps.append(tuple(comp[i] if left[i] == len(comp[i])
                           else tuple([l for l in comp[i] if -l not in true])
                           for i in group))
    return forced, comps


def _pick_var(comp, rank: dict[int, int]) -> int:
    best_len = min(map(len, comp))
    counts = Counter(map(abs, chain.from_iterable(c for c in comp if len(c) == best_len)))
    return min(counts, key=lambda v: (-counts[v], rank[v], v))


def _elimination_rank(clauses) -> dict[int, int]:
    """Rank the variables of ``clauses`` by a nested-dissection elimination
    order with a min-degree fallback.

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
    - any other part is ordered by :func:`_min_degree_order` on its clauses
      restricted to its variables.

    So a path is halved again and again and its middle is decided first,
    while the level cuts of addition or random CNFs are too wide and
    min-degree orders them whole. The graph is never built: the search
    walks variable to clause to variable, so a clause of width k costs k.
    A single wide clause has no cut, though, and min-degree still costs
    time quadratic in its width.
    """
    members: dict[int, set[int]] = {}  # clause id -> its variables
    cliques: dict[int, set[int]] = {}  # variable -> ids of its clauses
    for e, clause in enumerate(clauses):
        members[e] = {abs(l) for l in clause}
        for v in members[e]:
            cliques.setdefault(v, set()).add(e)

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
        elif len(part) == len(cliques):  # the whole CNF: no copy needed
            order.extend(reversed(_min_degree_order(members, cliques)))
        else:
            order.extend(reversed(_min_degree_order(*_restrict(part, members, cliques))))
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
    CNFs of the benchmark's ``modules`` workload grow from 3270 to 3570
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


def _restrict(part: set[int], members, cliques):
    """The clique maps of the clauses that meet ``part``, cut down to its
    variables and renumbered from 0, for :func:`_min_degree_order`."""
    sub_members: dict[int, set[int]] = {}
    sub_cliques: dict[int, set[int]] = {v: set() for v in part}
    ids: dict[int, int] = {}
    for v in part:
        for e in cliques[v]:
            if e not in ids:
                ids[e] = len(sub_members)
                sub_members[ids[e]] = members[e] & part
            sub_cliques[v].add(ids[e])
    return sub_members, sub_cliques


def _min_degree_order(members: dict[int, set[int]],
                      cliques: dict[int, set[int]]) -> list[int]:
    """A min-degree elimination order of the variables of ``cliques``.

    ``members`` maps clique ids ``0..len(members)-1`` to their variables and
    ``cliques`` each variable to the ids of its cliques; both are consumed.
    Variables are eliminated by least current degree, ties going to the
    lowest id, and an eliminated variable's neighbours become a clique.

    The graph is held as cliques, first the clauses and then one per
    eliminated variable that joins the cliques it was in, so a clause of
    width k takes memory k, not k squared. A variable in only one clique
    has a clique for a neighbourhood and leaves it without joining anything.
    """

    def degree(v: int) -> int:
        return len({v}.union(*map(members.__getitem__, cliques[v]))) - 1

    deg = {v: degree(v) for v in cliques}
    heap = [(d, v) for v, d in deg.items()]
    heapify(heap)  # stale entries, whose degree has changed, are skipped
    new_ids = count(len(members))
    order: list[int] = []
    while heap:
        d, v = heappop(heap)
        if deg.get(v) != d:
            continue
        del deg[v]
        order.append(v)
        own = cliques.pop(v)
        if len(own) == 1:
            touched = members[own.pop()]
            touched.discard(v)
            for u in touched:
                deg[u] -= 1
        else:
            touched = set().union(*(members.pop(e) for e in own))
            touched.discard(v)
            e = next(new_ids)
            members[e] = touched
            for u in touched:
                cliques[u] -= own
                cliques[u].add(e)
                deg[u] = degree(u)
        for u in touched:
            heappush(heap, (deg[u], u))
        if len(heap) > 2 * len(deg):  # mostly stale, as a wide clique leaves it
            heap = [(d, u) for u, d in deg.items()]
            heapify(heap)
    return order


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
        while missing_mask:  # set bits only, lowest variable first
            low = missing_mask & -missing_mask
            extras.append(gadget(low.bit_length()))
            missing_mask ^= low
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
            if len(parts) > 2 and parts[0] != "aux":
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
