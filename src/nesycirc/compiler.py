"""Compilation of CNF into smooth deterministic decomposable circuits.

The compiler runs an exhaustive DPLL search: unit propagation, splitting of
the live clauses into variable-disjoint connected components (each becomes a
child of an AND node), and decision splits. The decision variable has
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

A decision on a variable produces ``OR(AND(v, sub_t), AND(~v, sub_f))``
with the decision variable recorded on the OR node, which makes the two
branches mutually inconsistent by construction. The node builder keeps the
circuit smooth as it goes: each OR's branches are padded to the variables
of both with gadgets ``OR(v, ~v)``, and the root to every declared
variable, so no second pass rebuilds the circuit. A conjunction stays a
tuple of its conjuncts until an OR or the root takes it, so a branch's
literals, components and gadgets become one AND, built once. A component is
the tuple of its residual clauses (the live clauses with their false
literals dropped), and it is its own cache key, so a residual subproblem
compiles once however it is reached. The search is one loop over an
explicit stack of components, with no recursion.

Exactly-one groups compile to categorical leaves. A group is an
all-positive clause of at least two input literals whose every pair
``a, b`` also appears as a clause ``(~a | ~b)``; the groups are taken in
clause order, skipping one that shares a variable with an earlier group, as
declared categorical variables such as a digit's ten indicators are
written (DeepProbLog's annotated disjunctions, the exactly-one constraint
of Semantic Loss). A group's variables never become literals. When one is
set true, by a decision or by propagation, its group becomes one ``CAT``
leaf, whose weight is ``pos_d * prod_{j != d} neg_j`` over the group's
members: the weight of the one-hot assignment. A member set false adds no
leaf, as its negative weight is a factor of every other member's CAT leaf,
and the group's clauses exclude every assignment that is not one-hot. A
decision on a member branches on every live member of its group at once,
into one OR whose children each force a different member's CAT leaf; the
OR records the group's lowest member. A branch that lacks a group is
padded with the OR of the group's CAT leaves, which counts each of its
assignments once. A CNF without groups compiles as if the rule did not
exist.

Circuit files are plain text::

    nnfc 1
    nvars <n>
    aux [<id> ...]
    group <id> <id> ...
    nnodes <k>
    root <id>
    node <id> LIT <signed literal>
    node <id> CAT <variable of a group>
    node <id> AND <child> <child> ...
    node <id> OR <decision var> <child> <child> ...
    node <id> TRUE
    node <id> FALSE

There is one ``group`` line per group that a ``CAT`` node reads, in the
order the nodes first read them, and none in a circuit without CAT leaves.
An OR on a variable has two children; an OR on a group's lowest member has
one per member it chooses. Node ids are topologically ordered (children
before parents). ``c ...`` lines are comments; the writer emits the layer
structure as comments for inspection.
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

_KINDS = ("LIT", "CAT", "AND", "OR", "TRUE", "FALSE")
# integer fields after the kind in a circuit file; AND takes any number and
# OR a decision variable and at least two children
_ARITY = {"LIT": 1, "CAT": 1, "TRUE": 0, "FALSE": 0}


@dataclass(frozen=True)
class CircuitNode:
    """A node: ``literal`` is a LIT's signed literal or a CAT leaf's chosen
    member, and ``group`` the members of a CAT leaf's exactly-one group,
    lowest first."""

    kind: str
    children: tuple[int, ...] = ()
    literal: int = 0
    decision_var: int = 0
    group: tuple[int, ...] = ()


@dataclass(frozen=True)
class Circuit:
    """An immutable node table with a designated root. Children come
    before their parents, and every AND and OR has at least one.

    ``var_masks`` caches the set of variables below each node as a bitmask
    (bit v-1 for variable v); a CAT leaf's set is its group. ``groups``
    lists the groups of the CAT leaves in the order the nodes first read
    them. Both are derived from the nodes and excluded from equality. Two
    CAT leaves read one group or disjoint ones, and no LIT node reads a
    variable of a group.
    """

    num_vars: int
    nodes: tuple[CircuitNode, ...]
    root: int
    aux_vars: frozenset[int] = field(default_factory=frozenset)
    var_masks: tuple[int, ...] = field(default=(), compare=False, repr=False)
    groups: tuple[tuple[int, ...], ...] = field(default=(), init=False, compare=False,
                                                repr=False)

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
        groups: dict[tuple[int, ...], None] = {}
        for i, node in enumerate(self.nodes):
            if node.kind not in _KINDS:
                raise CircuitError(f"node {i}: unknown kind {node.kind!r}")
            if node.kind == "LIT":
                if node.literal == 0 or abs(node.literal) > self.num_vars:
                    raise CircuitError(f"node {i}: literal {node.literal} out of range")
            elif node.kind == "CAT":
                g = node.group
                if (len(g) < 2 or list(g) != sorted(set(g)) or g[0] < 1
                        or g[-1] > self.num_vars or node.literal not in g):
                    raise CircuitError(f"node {i}: CAT leaf {node.literal} of group {list(g)} "
                                       f"is not a member of 2 or more distinct variables "
                                       f"in range, lowest first")
                groups[g] = None
            elif node.kind in ("AND", "OR") and not node.children:
                raise CircuitError(f"node {i}: {node.kind} without children")
            for c in node.children:
                if not 0 <= c < i:
                    raise CircuitError(f"node {i}: child {c} not topologically earlier")
        if groups:
            member = _members(tuple(groups))
            if len(member) < sum(map(len, groups)):
                raise CircuitError("the groups of CAT leaves overlap")
            for i, node in enumerate(self.nodes):
                if node.kind == "LIT" and abs(node.literal) in member:
                    raise CircuitError(f"node {i}: literal {node.literal} reads a variable "
                                       f"of a group, which only CAT leaves may")
            object.__setattr__(self, "groups", tuple(groups))
        if not self.var_masks:
            object.__setattr__(self, "var_masks", _compute_masks(self.nodes))

    @property
    def n_inputs(self) -> int:
        return self.num_vars - len(self.aux_vars)


def _members(groups) -> dict[int, int]:
    """Each variable of ``groups`` mapped to the index of its group."""
    return {v: k for k, g in enumerate(groups) for v in g}


def _group_mask(group) -> int:
    mask = 0
    for v in group:
        mask |= 1 << (v - 1)
    return mask


def _compute_masks(nodes: tuple[CircuitNode, ...]) -> tuple[int, ...]:
    masks = [0] * len(nodes)
    for i, node in enumerate(nodes):
        if node.kind == "LIT":
            masks[i] = 1 << (abs(node.literal) - 1)
        elif node.kind == "CAT":
            masks[i] = _group_mask(node.group)
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
    that pad it go into one AND, built once. ``groups`` are the
    exactly-one groups whose variables only CAT leaves read.
    """

    def __init__(self, num_vars: int, groups=()):
        self.num_vars = num_vars
        self.nodes: list[CircuitNode] = []
        self.masks: list[int] = []
        self._memo: dict = {}
        self.groups = tuple(groups)
        self.member = _members(self.groups)
        self._group_masks = [_group_mask(g) for g in self.groups]

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

    def cat(self, v: int) -> int:
        """The CAT leaf of group member ``v``."""
        key = ("C", v)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        k = self.member[v]
        return self._add(key, CircuitNode("CAT", literal=v, group=self.groups[k]),
                         self._group_masks[k])

    def leaves(self, lits) -> tuple[int, ...]:
        """The conjunction of the literals ``lits``: a group member set
        true is its CAT leaf, one set false adds nothing."""
        if not self.member:
            return tuple(map(self.lit, lits))
        member = self.member
        return tuple([self.lit(l) if abs(l) not in member else self.cat(l)
                      for l in lits if l > 0 or -l not in member])

    @staticmethod
    def conj(parts: list) -> tuple[int, ...] | None:
        """The conjunction of the conjunctions ``parts``."""
        if None in parts:
            return None
        return tuple(chain.from_iterable(parts))

    def disj(self, parts: list, decision_var: int) -> tuple[int, ...] | None:
        """The conjunction of the OR of the conjunctions ``parts`` alone,
        with each branch padded to the variables of all; FALSE branches
        fold away. Every branch is padded before any AND is built."""
        parts = [p for p in parts if p is not None]
        if len(parts) < 2:
            return parts[0] if parts else None
        masks = [self._mask(p) for p in parts]
        union = 0
        for m in masks:
            union |= m
        padded = [self._pad(p, union & ~m) for p, m in zip(parts, masks)]
        kids = tuple([self._and(p) for p in padded])
        key = ("O", kids, decision_var)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._add(key, CircuitNode("OR", children=kids, decision_var=decision_var),
                            union)
        return (hit,)

    def _gadget(self, v: int) -> int:
        """The OR node of ``v`` and ``~v``, as ``disj`` builds it, without
        the generic path's lists: padding builds one per missing variable."""
        kids = (self.lit(v), self.lit(-v))
        key = ("O", kids, v)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._add(key, CircuitNode("OR", children=kids, decision_var=v),
                            1 << (v - 1))
        return hit

    def _mask(self, ids) -> int:
        mask = 0
        for i in ids:
            mask |= self.masks[i]
        return mask

    def _pad(self, ids: tuple[int, ...], missing: int) -> tuple[int, ...]:
        """``ids`` and, lowest variable first, a gadget ``OR(v, ~v)`` for
        each variable of ``missing``, or the OR of a group's CAT leaves for
        each group (a group's variables are missing together)."""
        if not missing:
            return ids
        extras = list(ids)
        while missing:  # set bits only
            v = (missing & -missing).bit_length()
            k = self.member.get(v)
            if k is None:
                extras.append(self._gadget(v))
                missing ^= 1 << (v - 1)
            else:
                extras += self.disj([(self.cat(u),) for u in self.groups[k]], v)
                missing &= ~self._group_masks[k]
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
                    node = CircuitNode(node.kind, kids, node.literal, node.decision_var,
                                       node.group)
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
    order of their first clause. A chosen member of an exactly-one group
    (:func:`_exactly_one_groups`) branches on its group's live members,
    lowest first; see the module notes.
    Unsatisfiable input yields the single FALSE node.

    The search is one loop over an explicit stack of components, so its
    depth is not bounded by the interpreter's recursion limit.
    """
    groups = _exactly_one_groups(cnf.clauses, cnf.aux_vars)
    builder = _Builder(cnf.num_vars, groups)
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
        return builder.conj([builder.leaves(forced)] + parts)

    # entries are [component, None] until the component's branches are
    # conditioned, then [component, (decision var, branches)]
    stack = [] if top is None else [[c, None] for c in reversed(top[1])]
    while stack:
        entry = stack[-1]
        comp, split = entry
        if split is None:
            if comp in cache:
                stack.pop()
                continue
            entry[1] = split = _split(comp, rank, groups, builder.member)
            for branch in reversed(split[1]):
                if branch is not None:
                    stack.extend([c, None] for c in reversed(branch[1]))
            continue
        stack.pop()
        v, branches = split
        cache[comp] = builder.disj([branch_node(b) for b in branches], v)
    return builder.finish(branch_node(top), cnf.aux_vars)


def _split(comp, rank, groups, member):
    """The decision on the component ``comp``: the variable an OR records
    and its branches, each a ``_condition`` of ``comp``.

    ``member`` maps each variable of the exactly-one ``groups`` to its
    group. Decisions do not count the clauses over one group's members
    alone. A decision on a member sets each live member true in turn and
    the others false, in clauses without those that every such choice
    satisfies.
    """
    if member:
        own = [member.get(abs(c[0])) for c in comp]  # the group a clause is over alone
        own = [k if k is not None and all(member.get(abs(l)) == k for l in c) else None
               for k, c in zip(own, comp)]
        v = _pick_var([c for c, k in zip(comp, own) if k is None] or comp, rank)
        k = member.get(v)
        if k is not None:
            # the live members, which the group's residual ALO clause lists
            live = {abs(l) for c, j in zip(comp, own) if j == k for l in c}
            rest = tuple([c for c, j in zip(comp, own) if j != k or not _one_hot_sat(c, live)])
            occ = _occurrences(rest)
            chosen = [u for u in groups[k] if u in live]
            return groups[k][0], [_condition(rest, occ, [u] + [-w for w in chosen if w != u])
                                  for u in chosen]
    else:
        v = _pick_var(comp, rank)
    occ = _occurrences(comp)
    return v, [_condition(comp, occ, (v,)), _condition(comp, occ, (-v,))]


def _one_hot_sat(clause, live: set[int]) -> bool:
    """Whether every assignment that sets exactly one of the variables
    ``live`` true satisfies ``clause``, a clause over them alone: two or
    more negative literals, or a positive literal of each."""
    if max(clause) < 0:
        return len(clause) > 1
    return min(clause) > 0 and live.issubset(clause)


def _exactly_one_groups(clauses, aux_vars=frozenset()) -> tuple[tuple[int, ...], ...]:
    """The disjoint exactly-one groups of input variables of ``clauses``,
    lowest member first.

    A group is an all-positive clause of at least two input literals whose
    every pair ``a, b`` is also a clause ``(~a | ~b)``. Clauses are taken
    in order, and one that shares a variable with an earlier group is
    skipped. An auxiliary is a definition, not a choice: a Tseitin
    encoding writes ``a = ~x`` as the group-shaped ``(a | x) & (~a | ~x)``.
    """
    pairs = {(min(c), max(c)) for c in clauses if len(c) == 2 and max(c) < 0}
    if not pairs:
        return ()
    groups, taken = [], set()
    for clause in [c for c in clauses if len(c) > 1 and min(c) > 0 and aux_vars.isdisjoint(c)]:
        g = sorted(clause)
        if taken.isdisjoint(g) and all((-b, -a) in pairs for i, a in enumerate(g)
                                       for b in g[i + 1:]):
            groups.append(tuple(g))
            taken.update(g)
    return tuple(groups)


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
    ``OR(v, ~v)``, or with the OR of its CAT leaves for a group.
    :func:`compile_cnf` output is smooth already; this is for circuits
    from elsewhere. Smoothing a smooth circuit reproduces it
    structurally, and :func:`compile_cnf` output node for node.
    """
    check_properties(c).require("decomposable", "deterministic")
    builder = _Builder(c.num_vars, c.groups)
    conj: list = [None] * len(c.nodes)  # each node as a builder conjunction; FALSE is None
    for i, node in enumerate(c.nodes):
        if node.kind == "LIT":
            conj[i] = (builder.lit(node.literal),)
        elif node.kind == "CAT":
            conj[i] = (builder.cat(node.literal),)
        elif node.kind == "TRUE":
            conj[i] = ()
        elif node.kind == "AND":
            conj[i] = builder.conj([conj[ch] for ch in node.children])
        elif node.kind == "OR":
            conj[i] = builder.disj([conj[ch] for ch in node.children], node.decision_var)
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


def _forced_member(c: Circuit, nid: int, group: tuple[int, ...]) -> int | None:
    """The member of ``group`` whose CAT leaf is reachable from ``nid``
    through ANDs only, if one is; the search is that of :func:`_forces`."""
    stack = [nid]
    seen = set()
    while stack:
        i = stack.pop()
        node = c.nodes[i]
        if node.kind == "CAT":
            if node.group == group:
                return node.literal
        elif node.kind == "AND" and i not in seen:
            seen.add(i)
            stack.extend(reversed(node.children))
    return None


def check_properties(c: Circuit) -> PropertyReport:
    """Check decomposability, determinism, and smoothness.

    Determinism is checked structurally. An OR on a variable must have two
    children, one forcing the variable positively and the other
    negatively; an OR on the lowest member of a group of CAT leaves must
    have at least two children, which force the CAT leaves of pairwise
    distinct members of the group.
    """
    bad: dict[str, list[int]] = {"decomposable": [], "deterministic": [], "smooth": []}
    group_of = {g[0]: g for g in c.groups}
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
            group = group_of.get(node.decision_var)
            if group is None:
                det_ok = (len(node.children) == 2 and node.decision_var > 0
                          and _forces(c, node.children[0], node.decision_var)
                          and _forces(c, node.children[1], -node.decision_var))
            else:
                chosen = [_forced_member(c, ch, group) for ch in node.children]
                det_ok = (len(chosen) >= 2 and None not in chosen
                          and len(set(chosen)) == len(chosen))
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
    Python integers, so it is exact at any size; a CAT leaf, the product of
    its group's literal weights, counts one model.
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
    for g in c.groups:
        lines.append("group " + " ".join(map(str, g)))
    lines.append(f"nnodes {len(c.nodes)}")
    lines.append(f"root {c.root}")
    for i, node in enumerate(c.nodes):
        if node.kind in ("LIT", "CAT"):
            lines.append(f"node {i} {node.kind} {node.literal}")
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
    ``nnodes`` and ``root``, each once, and the ``group`` lines), ids,
    kinds, and the structural properties (decomposability and
    determinism). The groups must be those the CAT leaves read, in the
    order they first read them."""
    header: dict[str, str] = {}
    groups: list[tuple[int, ...]] = []
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
                if len(ints) != _ARITY.get(kind, len(ints)) or kind == "OR" and len(ints) < 3:
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
            elif kind == "CAT":
                group = next((g for g in groups if ints[0] in g), None)
                if group is None:
                    raise CircuitError(f"CAT leaf {ints[0]} is in no group line")
                nodes.append(CircuitNode("CAT", literal=ints[0], group=group))
            elif kind == "OR":
                nodes.append(CircuitNode("OR", children=tuple(ints[1:]), decision_var=ints[0]))
            else:
                nodes.append(CircuitNode(kind, children=tuple(ints)))
        elif parts[0] == "group":
            try:
                groups.append(tuple(map(int, parts[1:])))
            except ValueError:
                raise CircuitError(f"malformed group record {ln!r}") from None
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
    if circuit.groups != tuple(groups):
        raise CircuitError(f"group lines {[list(g) for g in groups]} are not the groups "
                           f"the CAT leaves read, in order: {[list(g) for g in circuit.groups]}")
    check_properties(circuit).require("decomposable", "deterministic")
    return circuit


def save_circuit(c: Circuit, path, comments: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(circuit_to_text(c, comments))


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return circuit_from_text(fh.read())
