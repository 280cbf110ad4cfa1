"""Propositional input formats, normal forms, and brute-force oracles.

Two front-end formats are supported: DIMACS CNF files and a small infix
formula language. Both reduce to the :class:`CNF` clause representation,
which downstream compilation consumes.

The DIMACS dialect is the standard one with one amendment: anything on a
line after a clause's terminating ``0`` is skipped as a trailing comment,
so ``-1 2 0   c A -> B`` is legal. A clause may still span several lines
when no ``0`` has been seen yet. Tautological clauses are dropped during
parsing; the declared clause count refers to the list before removal.

The formula grammar:

    formula := iff
    iff     := impl ('<->' impl)*            (right associative)
    impl    := or ('->' impl)?               (right associative)
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | atom
    atom    := NAME | 'true' | 'false' | '(' formula ')'

Precedence from tightest to loosest: ``~  &  |  ->  <->``. Parentheses
nest at most :data:`MAX_PAREN_DEPTH` deep.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .errors import DimacsError, FormulaError

__all__ = [
    "CNF", "Formula", "Var", "Not", "And", "Or", "Implies", "Iff",
    "TrueF", "FalseF", "TRUE", "FALSE", "parse_dimacs", "serialize_dimacs",
    "make_name_table", "parse_formula", "to_nnf", "is_nnf", "to_cnf",
    "cnf_to_formula", "formula_vars", "eval_assignment", "brute_force_wmc",
    "brute_force_models",
]

ENUMERATION_GUARD = 26


@dataclass(frozen=True)
class CNF:
    """A clause set over variables ``1..num_vars``.

    Clauses are tuples of nonzero signed literals. The empty clause is never
    stored; an unsatisfiable formula is marked with ``unsat=True`` instead.
    Auxiliary variables introduced by :func:`to_cnf` occupy the top of the
    variable range and are listed in ``aux_vars``; they carry weight one on
    both polarities in weighted model counting, which leaves the count over
    the original variables unchanged.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    unsat: bool = False
    aux_vars: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(map(tuple, self.clauses)))
        object.__setattr__(self, "aux_vars", frozenset(self.aux_vars))
        problem = _var_range_problem(self.num_vars, self.aux_vars)
        if problem:
            raise ValueError(problem)
        if _clauses_ok(self.clauses, self.num_vars):
            return
        # name the first offending clause and literal
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause; use the unsat marker instead")
            seen = set()
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")
                if -lit in seen:
                    raise ValueError(f"tautological clause {clause}")
                seen.add(lit)

    @property
    def n_inputs(self) -> int:
        """Number of non-auxiliary variables."""
        return self.num_vars - len(self.aux_vars)


def _clauses_ok(clauses: tuple[tuple[int, ...], ...], num_vars: int) -> bool:
    """Whether every clause is nonempty, has its literals in ``±1..num_vars``
    and is no tautology, checked in numpy rather than literal by literal.

    Each literal gets the key ``2 * (clause * (num_vars + 1) + |lit|)``
    plus one if it is positive; sorted, a tautology shows as two neighbours
    that differ in the last bit alone.
    """
    lens = np.fromiter(map(len, clauses), np.int64, len(clauses))
    try:
        lits = np.fromiter(chain.from_iterable(clauses), np.int64, int(lens.sum()))
    except (OverflowError, TypeError, ValueError):
        return False
    mag = np.abs(lits)
    if not lens.all() or mag.size and (not mag.min() or mag.max() > num_vars):
        return False
    step = 2 * (num_vars + 1)
    keys = np.repeat(np.arange(0, step * len(clauses), step), lens)
    keys += mag
    keys += mag
    keys += lits > 0
    keys.sort()
    return not ((keys[1:] ^ keys[:-1]) == 1).any()


# Per-node variable bitmasks and smoothing's padding grow with the square of
# the declared variable count: on a 2-core Xeon host, `nesycirc compile` of
# the one clause ``1`` takes 4.3 s under 65536 declared variables and 6.8 s
# under 100000. Larger counts are refused rather than left to run on.
MAX_VARS = 1 << 16


def _var_range_problem(num_vars: int, aux_vars: frozenset[int]) -> str:
    """What is wrong with a variable count and auxiliary set, or ``""``.

    Variables are ``1..num_vars`` with ``num_vars`` at most :data:`MAX_VARS`,
    and the auxiliaries must be a (possibly empty) top slice of that range.
    :class:`CNF`, circuits and DIMACS problem lines share this rule.
    """
    if num_vars < 0:
        return "num_vars must be nonnegative"
    if num_vars > MAX_VARS:
        return f"{num_vars} variables exceed the limit of {MAX_VARS}"
    if aux_vars:
        lo = min(aux_vars)
        if lo < 1 or aux_vars != frozenset(range(lo, num_vars + 1)):
            return "auxiliary variables must occupy the top of the id range"
    return ""


def parse_dimacs(text: str) -> CNF:
    """Parse DIMACS CNF text.

    Raises :class:`DimacsError` (with a line number) for a malformed problem
    line, more than :data:`MAX_VARS` variables, a ``0`` where a literal was
    expected, a literal outside the declared range, a clause count mismatch,
    or an unterminated final clause.
    """
    num_vars: int | None = None
    declared_clauses = 0
    clauses: list[tuple[int, ...]] = []
    parsed_count = 0
    pending: list[int] = []
    pending_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            if num_vars is not None:
                raise DimacsError("duplicate problem line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line {line!r}", lineno)
            try:
                nv, nc = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed problem line {line!r}", lineno) from None
            if nv < 0 or nc < 0:
                raise DimacsError(f"malformed problem line {line!r}", lineno)
            problem = _var_range_problem(nv, frozenset())
            if problem:
                raise DimacsError(problem, lineno)
            num_vars, declared_clauses = nv, nc
            continue
        if num_vars is None:
            raise DimacsError("clause data before the problem line", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"expected an integer literal, got {tok!r}", lineno) from None
            if lit == 0:
                if not pending:
                    raise DimacsError("literal 0 where a clause body was expected (empty clause)", lineno)
                clause = _normalize_clause(pending)
                parsed_count += 1
                if clause is not None:
                    clauses.append(clause)
                pending = []
                break  # rest of the line is a trailing comment
            if abs(lit) > num_vars:
                raise DimacsError(f"literal {lit} exceeds the declared {num_vars} variables", lineno)
            if not pending:
                pending_line = lineno
            pending.append(lit)

    if num_vars is None:
        raise DimacsError("missing problem line")
    if pending:
        raise DimacsError("unterminated final clause (missing 0)", pending_line)
    if parsed_count != declared_clauses:
        raise DimacsError(f"clause count mismatch: declared {declared_clauses}, found {parsed_count}")
    return CNF(num_vars, tuple(clauses))


def _normalize_clause(lits: list[int]) -> tuple[int, ...] | None:
    """Deduplicate literals; return None for a tautological clause."""
    out: list[int] = []
    seen: set[int] = set()
    for lit in lits:
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def serialize_dimacs(cnf: CNF) -> str:
    """Render a CNF as DIMACS text.

    Parsing the result gives back the variable count and clauses, with two
    exceptions. ``aux_vars`` are not written (no ``c aux`` line), so they
    parse back as ordinary input variables. The unsat marker, which has no
    direct DIMACS spelling, is rendered as a contradictory pair of unit
    clauses over variable 1, so it parses back as the clauses ``(1,), (-1,)``
    with ``unsat`` false and at least one variable.
    """
    if cnf.unsat:
        nv = max(1, cnf.num_vars)
        body = [(1,), (-1,)]
    else:
        nv = cnf.num_vars
        body = list(cnf.clauses)
    lines = [f"p cnf {nv} {len(body)}"]
    for clause in body:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formula ASTs


class Formula:
    """Base class for formula AST nodes.

    Nodes are frozen dataclasses. The leaves (:class:`Var`, :class:`TrueF`
    and :class:`FalseF`) keep the dataclass ``==``, ``hash`` and ``repr``;
    the connectives take theirs from here, and these walk the formula as a
    DAG (:func:`_walk`), with no Python recursion and in time linear in its
    distinct nodes. So a 3000-deep ``And`` chain hashes, compares and
    prints, and the NNF of nested ``<->``, which shares subformulas, hashes
    in linear time though the tree it unfolds to doubles with each one.

    ``hash`` combines a node's class with its children's hashes, bottom up,
    and is cached on every connective it reaches. ``==`` is structural, as
    the dataclass one is: where two formulas of one class hash alike, both
    are numbered over one table keyed by a node's class and its children's
    numbers (a leaf by itself), and they are equal when their roots get one
    number. ``repr`` prints what the dataclass ``repr`` prints.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            nodes, kids = _walk(self)
            hashes: list[int] = []
            for node, ks in zip(nodes, kids):
                h = getattr(node, "_hash", None) if ks else hash(node)
                if h is None:
                    h = hash((type(node), *[hashes[k] for k in ks]))
                    object.__setattr__(node, "_hash", h)
                hashes.append(h)
        return h

    def __getstate__(self) -> dict:
        # class and string hashes change from process to process, so a
        # cached hash does not travel in a pickle or a copy
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        table: dict[tuple, int] = {}
        return _number(self, table) == _number(other, table)

    def __repr__(self) -> str:
        out, stack = [], [(False, self)]
        while stack:
            text, item = stack.pop()
            if text:
                out.append(item)
            elif isinstance(item, Formula) and type(item).__repr__ is Formula.__repr__:
                parts = [(True, f"{type(item).__qualname__}(")]
                for k, f in enumerate(fields(item)):
                    parts += [(True, f"{', ' if k else ''}{f.name}="),
                              (False, getattr(item, f.name))]
                parts.append((True, ")"))
                stack += reversed(parts)
            else:
                out.append(repr(item))
        return "".join(out)


def _number(f: Formula, table: dict[tuple, int]) -> int:
    """The number of f's structure in ``table``, which numbers every node
    of f it has not seen by its class and its children's numbers, a leaf
    by the leaf itself; structurally equal nodes get one number."""
    nodes, kids = _walk(f)
    ids: list[int] = []
    for node, ks in zip(nodes, kids):
        key = (type(node), *[ids[k] for k in ks]) if ks else (None, node)
        ids.append(table.setdefault(key, len(table)))
    return ids[-1]


@dataclass(frozen=True)
class Var(Formula):
    """A propositional variable: a dense 1-based id plus an optional name."""

    id: int
    name: str | None = None

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"variable ids are 1-based, got {self.id}")

    def __str__(self):
        return self.name or f"v{self.id}"


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()

_BINARY = (And, Or, Implies, Iff)


def make_name_table(names: Sequence[str]) -> dict[str, Var]:
    """Build a name table mapping each name to one shared :class:`Var` leaf,
    with dense ids in the order given."""
    table: dict[str, Var] = {}
    for i, name in enumerate(names, start=1):
        if name in table:
            raise FormulaError(f"duplicate variable name {name!r}")
        table[name] = Var(i, name)
    return table


# Binary connectives: token -> (precedence, node, right associative).
_BINARY_OPS = {"<->": (0, Iff, True), "->": (1, Implies, True),
               "|": (2, Or, False), "&": (3, And, False)}

# Each open parenthesis costs three parser frames; the limit keeps deep
# nesting a FormulaError well inside the interpreter's recursion limit.
MAX_PAREN_DEPTH = 100

_TOKEN_RE = re.compile(r"<->|->|[~&|()]|[A-Za-z_][A-Za-z0-9_]*")
_WS_RE = re.compile(r"\s*")


class _Parser:
    def __init__(self, text: str, table: Mapping[str, Var]):
        self.text = text
        self.table = table
        self.pos = 0
        self.tok: str | None = None
        self.tok_pos = 0
        self.depth = 0
        self._advance()

    def _advance(self):
        self.pos = _WS_RE.match(self.text, self.pos).end()
        if self.pos >= len(self.text):
            self.tok = None
            self.tok_pos = self.pos
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            raise FormulaError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        self.tok = m.group()
        self.tok_pos = self.pos
        self.pos = m.end()

    def _expect(self, tok: str):
        if self.tok != tok:
            got = "end of input" if self.tok is None else repr(self.tok)
            raise FormulaError(f"expected {tok!r}, got {got}", self.tok_pos)
        self._advance()

    def parse(self) -> Formula:
        f = self.binary()
        if self.tok is not None:
            raise FormulaError(f"unexpected token {self.tok!r}", self.tok_pos)
        return f

    def binary(self) -> Formula:
        """Operands and binary connectives up to the next ')' or the end.

        Operator precedence parsing with explicit stacks, so a long chain
        of connectives costs no Python recursion.
        """
        operands = [self.unary()]
        pending: list[tuple[int, type]] = []  # connectives still missing a right operand
        while self.tok in _BINARY_OPS:
            prec, node, right_assoc = _BINARY_OPS[self.tok]
            while pending and (pending[-1][0] > prec or pending[-1][0] == prec and not right_assoc):
                _reduce(operands, pending.pop()[1])
            pending.append((prec, node))
            self._advance()
            operands.append(self.unary())
        while pending:
            _reduce(operands, pending.pop()[1])
        return operands[0]

    def unary(self) -> Formula:
        negations = 0
        while self.tok == "~":
            self._advance()
            negations += 1
        f = self.atom()
        for _ in range(negations):
            f = Not(f)
        return f

    def atom(self) -> Formula:
        tok, pos = self.tok, self.tok_pos
        if tok == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise FormulaError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", pos)
            self.depth += 1
            self._advance()
            f = self.binary()
            self._expect(")")
            self.depth -= 1
            return f
        if tok is None:
            raise FormulaError("unexpected end of input", pos)
        if tok == "true":
            self._advance()
            return TRUE
        if tok == "false":
            self._advance()
            return FALSE
        if tok[0].isalpha() or tok[0] == "_":
            leaf = self.table.get(tok)
            if leaf is None:
                raise FormulaError(f"unknown identifier {tok!r}", pos)
            self._advance()
            return leaf if leaf.name else Var(leaf.id, tok)
        raise FormulaError(f"unexpected token {tok!r}", pos)


def _reduce(operands: list[Formula], node: type) -> None:
    right = operands.pop()
    operands.append(node(operands.pop(), right))


def parse_formula(text: str, name_table: Mapping[str, Var]) -> Formula:
    """Parse formula text against a pre-declared name table.

    The table maps names to :class:`Var` leaves, as :func:`make_name_table`
    builds it, and every occurrence of a name is that one shared leaf, so
    the formula's walk lists each variable once. An entry without a name
    gives a new leaf named after its token at each occurrence.
    """
    return _Parser(text, name_table).parse()


def _walk(f: Formula) -> tuple[tuple[Formula, ...], tuple[tuple[int, ...], ...]]:
    """Each distinct node of f once, children before parents and left first,
    with the positions of its children in that list; f itself is last.

    Nodes are told apart by identity, so a subformula reached along several
    paths, as :func:`to_nnf` shares them under ``<->``, is listed once and
    the walk grows with the DAG, not with the tree it unfolds to. Every
    formula pass loops over this list and reads its children's results by
    position. The walk is built with an explicit stack, so depth costs no
    Python recursion, and cached on f, whose class is frozen; the cache
    leaves f itself out, so it makes no reference cycle.
    """
    walk = getattr(f, "_dag", None)
    if walk is None:
        pos, nodes, kids, stack = {}, [], [], [f]
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):  # (node, child, other child or None): children listed
                node, a, b = node
                if id(node) not in pos:
                    pos[id(node)] = len(nodes)
                    nodes.append(node)
                    kids.append((pos[id(a)],) if b is None else (pos[id(a)], pos[id(b)]))
            elif id(node) in pos:
                continue
            elif isinstance(node, Not):
                stack += ((node, node.child, None), node.child)
            elif isinstance(node, _BINARY):  # the left child ends on top
                stack += ((node, node.left, node.right), node.right, node.left)
            else:
                pos[id(node)] = len(nodes)
                nodes.append(node)
                kids.append(())
        walk = tuple(nodes[:-1]), tuple(kids)
        object.__setattr__(f, "_dag", walk)
    return walk[0] + (f,), walk[1]


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negations on variables only, no -> or <->.

    ``Iff(a, b)`` becomes ``Or(And(a, b), And(~a, ~b))``. A first loop down
    :func:`_walk` marks which polarities of each node the result reaches;
    a second, bottom-up, builds the NNF of each marked node and of each
    marked negation once, so the NNFs of a and of ~a are shared by both
    conjunctions, and a subformula shared in f stays shared. The result is
    a DAG that grows linearly with nested equivalences, though the tree it
    unfolds to doubles with each one. It is cached on f like the walk, so
    converting f again (once per structure a module is built under)
    returns the same NNF, whose own walks are then built only once.
    """
    nnf = getattr(f, "_nnf", None)
    if nnf is not None:
        return nnf
    nodes, kids = _walk(f)
    # bit 1: the node's NNF is reached, bit 2: its negation's
    need = [0] * len(nodes)
    need[-1] = 1
    for i in range(len(nodes) - 1, -1, -1):
        node, want, ks = nodes[i], need[i], kids[i]
        if isinstance(node, (And, Or)):
            need[ks[0]] |= want
            need[ks[1]] |= want
        elif isinstance(node, Not):
            need[ks[0]] |= (want & 1) << 1 | want >> 1
        elif isinstance(node, Implies):  # ~a | b, negated a & ~b
            need[ks[0]] |= (want & 1) << 1 | want >> 1
            need[ks[1]] |= want
        elif isinstance(node, Iff):
            need[ks[0]] |= 3
            need[ks[1]] |= 3
        elif not isinstance(node, (Var, TrueF, FalseF)):
            raise FormulaError(f"unknown formula node {type(node).__name__}")
    pairs: list[tuple[Formula | None, Formula | None]] = []  # NNF and negation, if marked
    for node, ks, want in zip(nodes, kids, need):
        if isinstance(node, _BINARY):
            (ap, an), (bp, bn) = pairs[ks[0]], pairs[ks[1]]
            if isinstance(node, And):
                pair = (And(ap, bp) if want & 1 else None, Or(an, bn) if want & 2 else None)
            elif isinstance(node, Or):
                pair = (Or(ap, bp) if want & 1 else None, And(an, bn) if want & 2 else None)
            elif isinstance(node, Implies):
                pair = (Or(an, bp) if want & 1 else None, And(ap, bn) if want & 2 else None)
            else:
                pair = (Or(And(ap, bp), And(an, bn)) if want & 1 else None,
                        And(Or(an, bn), Or(ap, bp)) if want & 2 else None)
        elif isinstance(node, Var):
            pair = (node, Not(node) if want & 2 else None)
        elif isinstance(node, Not):
            pos, neg = pairs[ks[0]]
            pair = (neg, pos)
        else:
            pair = (TRUE, FALSE) if isinstance(node, TrueF) else (FALSE, TRUE)
        pairs.append(pair)
    nnf = pairs[-1][0]
    if nnf is not f:  # a variable or constant is its own NNF; no self-reference
        object.__setattr__(f, "_nnf", nnf)
    return nnf


def is_nnf(f: Formula) -> bool:
    """Whether f is in negation normal form: built from variables, constants,
    ``&`` and ``|``, with ``~`` on variables only."""
    return all(isinstance(node, (Var, And, Or, TrueF, FalseF))
               or isinstance(node, Not) and isinstance(node.child, Var)
               for node in _walk(f)[0])


def _fold_constants(f: Formula) -> Formula:
    """Drop TRUE and FALSE from an NNF formula, unless the whole folds to one."""
    nodes, kids = _walk(f)
    out: list[Formula] = []
    for node, ks in zip(nodes, kids):
        if isinstance(node, (And, Or)):
            a, b = out[ks[0]], out[ks[1]]
            absorbing, unit = (FalseF, TrueF) if isinstance(node, And) else (TrueF, FalseF)
            if isinstance(a, absorbing) or isinstance(b, absorbing):
                node = TRUE if absorbing is TrueF else FALSE
            elif isinstance(a, unit):
                node = b
            elif isinstance(b, unit):
                node = a
            elif a is not nodes[ks[0]] or b is not nodes[ks[1]]:
                node = type(node)(a, b)
        out.append(node)
    return out[-1]


def formula_vars(f: Formula) -> list[int]:
    """Sorted ids of the variables occurring in f."""
    return sorted({node.id for node in _walk(f)[0] if isinstance(node, Var)})


def formula_names(f: Formula) -> dict[int, str]:
    """Variable names recorded on the leaves of f, keyed by id.

    Where leaves of one id carry different names, the leftmost one wins:
    :func:`_walk` lists the leaves left to right.
    """
    out: dict[int, str] = {}
    for node in _walk(f)[0]:
        if isinstance(node, Var) and node.name and node.id not in out:
            out[node.id] = node.name
    return out


def to_cnf(f: Formula, num_vars: int | None = None) -> CNF:
    """Tseitin-encode an NNF formula as a CNF.

    Conjuncts that are already disjunctions of literals become plain clauses;
    every other subformula gets a fresh auxiliary variable defined by a full
    biconditional, so each model of f extends uniquely to the auxiliaries.
    Structurally equal subformulas share one auxiliary.
    Pass ``num_vars`` to declare more variables than f mentions.
    """
    if not is_nnf(f):
        raise FormulaError("to_cnf expects negation normal form; apply to_nnf first")
    base = max(formula_vars(f), default=0)
    if num_vars is not None:
        if num_vars < base:
            raise ValueError(f"num_vars={num_vars} is below the highest variable id {base}")
        base = num_vars

    folded = _fold_constants(f)
    if isinstance(folded, TrueF):
        return CNF(base, ())
    if isinstance(folded, FalseF):
        return CNF(base, (), unsat=True)

    clauses: list[tuple[int, ...]] = []
    # An auxiliary is keyed on its connective and its children's keys: a
    # literal's key is (signed id, name), an auxiliary's key is its own id.
    # Equal keys mean equal subformulas under dataclass ==, without hashing
    # (recursively) the formula itself.
    aux_of: dict[tuple, int] = {}
    next_aux = base

    def emit(lits: list[int]) -> None:
        # degenerate subformulas (x & ~x, x | x) yield tautological or
        # duplicated definition clauses; normalizing keeps the auxiliary
        # forced while satisfying the clause-type invariants
        clause = _normalize_clause(lits)
        if clause is not None:
            clauses.append(clause)

    def literal_of(sub: Formula) -> int:
        nonlocal next_aux
        nodes, kids = _walk(sub)
        out: list[tuple[int, object]] = []  # (literal, key) per node
        for node, ks in zip(nodes, kids):
            if isinstance(node, Var):
                out.append((node.id, (node.id, node.name)))
            elif isinstance(node, Not):
                lit, (v, name) = out[ks[0]]
                out.append((-lit, (-v, name)))
            else:
                (a, ka), (b, kb) = out[ks[0]], out[ks[1]]
                key = (isinstance(node, And), ka, kb)
                z = aux_of.get(key)
                if z is None:
                    next_aux += 1
                    z = aux_of[key] = next_aux
                    if isinstance(node, And):
                        emit([-z, a])
                        emit([-z, b])
                        emit([z, -a, -b])
                    else:
                        emit([z, -a])
                        emit([z, -b])
                        emit([-z, a, b])
                out.append((z, z))
        return out[-1][0]

    for conjunct in _flatten(folded, And):
        emit([literal_of(disjunct) for disjunct in _flatten(conjunct, Or)])

    aux = frozenset(range(base + 1, next_aux + 1))
    return CNF(next_aux, tuple(clauses), aux_vars=aux)


def _flatten(f: Formula, kind: type) -> list[Formula]:
    """The operands of the maximal ``kind`` chain at the top of f, left to right."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def cnf_to_formula(cnf: CNF) -> Formula:
    """Rebuild a formula AST (left-nested conjunction of disjunctions)."""
    if cnf.unsat:
        return FALSE
    if not cnf.clauses:
        return TRUE

    leaves: dict[int, Formula] = {}  # one Var and one Not per variable that occurs

    def lit_node(lit: int) -> Formula:
        node = leaves.get(lit)
        if node is None:
            node = leaves[lit] = Var(lit) if lit > 0 else Not(lit_node(-lit))
        return node

    def clause_node(clause: tuple[int, ...]) -> Formula:
        node = lit_node(clause[0])
        for lit in clause[1:]:
            node = Or(node, lit_node(lit))
        return node

    out = clause_node(cnf.clauses[0])
    for clause in cnf.clauses[1:]:
        out = And(out, clause_node(clause))
    return out


# ---------------------------------------------------------------------------
# Oracles


def _norm_assignment(assignment) -> dict[int, bool]:
    if isinstance(assignment, Mapping):
        return {int(v): bool(x) for v, x in assignment.items()}
    return {i + 1: bool(x) for i, x in enumerate(assignment)}


def eval_assignment(f: CNF | Formula, assignment) -> bool:
    """Evaluate under a total assignment of the non-auxiliary variables.

    For a CNF with Tseitin auxiliaries the auxiliaries are checked
    existentially: the result is True when some (necessarily unique)
    extension satisfies every clause. ``assignment`` is either a mapping
    from variable id to bool or a sequence indexed by id minus one.
    """
    a = _norm_assignment(assignment)
    if isinstance(f, CNF):
        if f.unsat:
            return False
        for v in range(1, f.num_vars + 1):
            if v not in a and v not in f.aux_vars:
                raise ValueError(f"missing assignment for variable {v}")
        residual = _residual(f.clauses, a)
        return residual is not None and _count_extensions(residual, len(f.aux_vars)) > 0
    return _eval_formula(f, a)


def _residual(clauses, a: dict[int, bool]) -> list[tuple[int, ...]] | None:
    """The clauses left over the unassigned variables, or None on a conflict."""
    residual: list[tuple[int, ...]] = []
    for clause in clauses:
        keep: list[int] = []
        satisfied = False
        for lit in clause:
            val = a.get(abs(lit))
            if val is None:
                keep.append(lit)
            elif (lit > 0) == val:
                satisfied = True
                break
        if satisfied:
            continue
        if not keep:
            return None
        residual.append(tuple(keep))
    return residual


def _eval_formula(f: Formula, a: dict[int, bool]) -> bool:
    """Truth value of f under a; one loop over :func:`_walk`, every leaf read."""
    nodes, kids = _walk(f)
    values: list[bool] = []
    for node, ks in zip(nodes, kids):
        if isinstance(node, Var):
            if node.id not in a:
                raise ValueError(f"missing assignment for variable {node.id}")
            value = a[node.id]
        elif isinstance(node, Not):
            value = not values[ks[0]]
        elif isinstance(node, _BINARY):
            left, right = values[ks[0]], values[ks[1]]
            if isinstance(node, And):
                value = left and right
            elif isinstance(node, Or):
                value = left or right
            elif isinstance(node, Implies):
                value = not left or right
            else:
                value = left == right
        elif isinstance(node, (TrueF, FalseF)):
            value = isinstance(node, TrueF)
        else:
            raise FormulaError(f"unknown formula node {type(node).__name__}")
        values.append(value)
    return values[-1]


def _assign(clauses: list[tuple[int, ...]], lit: int) -> list[tuple[int, ...]] | None:
    """Set ``lit`` true: drop satisfied clauses, shorten the rest."""
    out: list[tuple[int, ...]] = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            c = tuple(l for l in c if l != -lit)
            if not c:
                return None
        out.append(c)
    return out


def _count_extensions(clauses: list[tuple[int, ...]], free: int) -> int:
    """Models of ``clauses`` over ``free`` unassigned variables (DPLL count).

    ``free`` includes the variables the clauses no longer mention; each of
    those doubles the count.
    """
    while True:
        if not clauses:
            return 1 << free
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, unit)
        if clauses is None:
            return 0
        free -= 1
    lit = clauses[0][0]
    total = 0
    for branch in (lit, -lit):
        reduced = _assign(clauses, branch)
        if reduced is not None:
            total += _count_extensions(reduced, free - 1)
    return total


def _assignment_matrix(start: int, stop: int, n: int) -> np.ndarray:
    """Rows ``start..stop-1`` of the assignment table; bit i is variable i+1."""
    return ((np.arange(start, stop)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _sat_mask(cnf: CNF, X: np.ndarray) -> np.ndarray:
    sat = np.ones(X.shape[0], dtype=bool)
    for clause in cnf.clauses:
        csat = np.zeros(X.shape[0], dtype=bool)
        for lit in clause:
            csat |= X[:, abs(lit) - 1] == (1 if lit > 0 else 0)
        sat &= csat
    return sat


def brute_force_wmc(cnf: CNF, var_probs) -> float:
    """Weighted model count by exhaustive enumeration.

    ``var_probs`` gives the positive-literal weight per non-auxiliary
    variable (the negative literal gets one minus that); auxiliaries weigh
    one on both polarities, so an input assignment counts once per
    satisfying extension to the auxiliaries. Guarded to ``n_inputs <= 26``.

    Small CNFs are enumerated over every variable as a boolean table, in
    blocks of ``2**16`` rows so memory stays bounded. A CNF with many
    auxiliaries (a Tseitin encoding of a deep formula) and at most 16 inputs
    is enumerated over its inputs only, counting the extensions of each
    input assignment by DPLL; that also covers encodings past the guard.
    """
    if cnf.n_inputs > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guard: {cnf.n_inputs} input variables exceeds {ENUMERATION_GUARD}")
    if cnf.unsat:
        return 0.0
    p = np.asarray(var_probs, dtype=float).reshape(-1)
    if p.shape[0] != cnf.n_inputs:
        raise ValueError(f"expected {cnf.n_inputs} probabilities, got {p.shape[0]}")
    n_aux = len(cnf.aux_vars)
    if cnf.n_inputs <= _INPUT_ROW_LIMIT and (
            n_aux > _DENSE_AUX_LIMIT or cnf.num_vars > ENUMERATION_GUARD):
        return _wmc_over_inputs(cnf, p)
    if cnf.num_vars > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guard: {cnf.num_vars} variables exceeds {ENUMERATION_GUARD}")
    n = cnf.num_vars
    total = 0.0
    for start in range(0, 1 << n, _ROWS_PER_BLOCK):
        X = _assignment_matrix(start, min(start + _ROWS_PER_BLOCK, 1 << n), n)
        sat = _sat_mask(cnf, X)
        w = np.ones(X.shape[0], dtype=float)
        for v in range(1, n + 1):
            if v in cnf.aux_vars:
                continue
            col = X[:, v - 1]
            pv = p[v - 1]
            w *= np.where(col == 1, pv, 1.0 - pv)
        total += float(w[sat].sum())
    return total


_ROWS_PER_BLOCK = 1 << 16
_DENSE_AUX_LIMIT = 12
_INPUT_ROW_LIMIT = 16


def _wmc_over_inputs(cnf: CNF, p: np.ndarray) -> float:
    inputs = [v for v in range(1, cnf.num_vars + 1) if v not in cnf.aux_vars]
    total = 0.0
    for bits in range(1 << len(inputs)):
        a = {v: bool((bits >> i) & 1) for i, v in enumerate(inputs)}
        residual = _residual(cnf.clauses, a)
        if residual is None:
            continue
        count = _count_extensions(residual, len(cnf.aux_vars))
        if count:
            w = 1.0
            for i, v in enumerate(inputs):
                w *= p[i] if a[v] else 1.0 - p[i]
            total += w * count
    return total


def brute_force_models(f: CNF | Formula, num_vars: int | None = None) -> list[dict[int, bool]]:
    """Enumerate all models over the non-auxiliary variables."""
    if isinstance(f, CNF):
        n = f.num_vars
        inputs = [v for v in range(1, n + 1) if v not in f.aux_vars]
    else:
        ids = formula_vars(f)
        n = num_vars if num_vars is not None else (ids[-1] if ids else 0)
        inputs = list(range(1, n + 1))
    if len(inputs) > ENUMERATION_GUARD:
        raise ValueError("enumeration guard exceeded")
    models = []
    for bits in range(1 << len(inputs)):
        a = {v: bool((bits >> i) & 1) for i, v in enumerate(inputs)}
        if eval_assignment(f, a):
            models.append(a)
    return models
