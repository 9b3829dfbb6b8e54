"""Query algebra and evaluation.

A relation annotates every total mapping (from its variables into terms)
with a state, finitely represented as a default plus exceptions, mirroring
the graph representation.  Two evaluation modes share one evaluator:

* active-domain: mappings range over the finite set of terms occurring in
  the graph and the query, fixed once at the top level (nested belief
  contexts reuse it);
* open: mappings range over the infinite term universe; results are exact
  or the evaluator refuses with NonFinitelySupported when no finite
  default+exception table exists.

The universe is decided once per evaluation and carried by every
relation: each operator reads it from its input relation, where None
means open mode.

One engine serves both entry points.  ``evaluate`` interprets the full
algebra over the four states, each node with its own operator;
``evaluate_k`` interprets the plain fragment (patterns, join, union,
filter, projection) over an arbitrary commutative semiring, ignoring the
operator slots and using the semiring's add/multiply instead.  Projection
adds up a group's values with its default counted once per missing
extension; open mode has infinitely many, so it answers only when the
default is zero or idempotent (``d + d == d``, as for all four-valued
operators).
"""

from __future__ import annotations

import collections
import copy
import enum
import functools
import itertools
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator

from . import belief as belief_mod
from .errors import (
    IllFormedQuery,
    NonFinitelySupported,
    UniverseTooLarge,
)
from .four import (
    FourOperator,
    FourValue,
    JOIN_OPERATORS,
    MEET_OPERATORS,
    Semiring,
    UNKNOWN,
    absorbing_of,
    apply,
    identity_of,
)
from .model import (
    BeliefVocabulary,
    DEFAULT_VOCABULARY,
    FourGraph,
    Iri,
    StarTriple,
    Term,
    TriplePattern,
    Variable,
    _nest,
    active_domain,
    pattern_is_ground,
    pattern_to_term,
    pattern_variables,
    term_text,
    terms_of,
)

DEFAULT_CAP = 10**6


# ---------------------------------------------------------------------------
# Mappings and relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mapping:
    """A total assignment of terms to a finite set of variables.

    Stored as a name-sorted tuple so equal assignments hash equally.  The
    engine keeps rows positionally (see ``Relation``); mappings are its
    public view of them.
    """

    bindings: tuple[tuple[Variable, Term], ...]

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.bindings)
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def of(cls, binding: dict[Variable, Term]) -> "Mapping":
        return cls(tuple(sorted(binding.items(), key=lambda kv: kv[0].name)))

    @property
    def domain(self) -> frozenset[Variable]:
        return frozenset(v for v, _ in self.bindings)

    def get(self, var: Variable) -> Term | None:
        for v, t in self.bindings:
            if v == var:
                return t
        return None

    def restrict(self, vars: frozenset[Variable]) -> "Mapping":
        return Mapping(tuple((v, t) for v, t in self.bindings if v in vars))

    def sort_key(self) -> tuple[str, ...]:
        return tuple(term_text(t) for _, t in self.bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}={term_text(t)}" for v, t in self.bindings)
        return f"{{{inner}}}"


def _schema(vars: Iterable[Variable]) -> tuple[Variable, ...]:
    """The variables sorted by name: the order of a row's terms."""
    return tuple(sorted(vars, key=attrgetter("name")))


def _plan(target: tuple[Variable, ...], source: tuple[Variable, ...]) -> Callable[[tuple], tuple]:
    """The function taking a row over ``source`` to the row over ``target``,
    each variable read at its first position in ``source``."""
    if target == source:
        return lambda row: row
    first: dict[Variable, int] = {}
    for i, v in enumerate(source):
        first.setdefault(v, i)
    at = [first[v] for v in target]
    if len(at) == 1:
        i = at[0]
        return lambda row: (row[i],)
    return itemgetter(*at) if at else lambda row: ()


def mappings_over(vars: Iterable[Variable], universe: Iterable[Term]) -> Iterator[Mapping]:
    """Every total mapping from vars into universe, in deterministic order."""
    vs = _schema(set(vars))
    uni = sorted(set(universe), key=term_text)
    for combo in itertools.product(uni, repeat=len(vs)):
        yield Mapping(tuple(zip(vs, combo)))


class Relation:
    """Total annotation of all mappings over ``vars``: default + exceptions.

    Rows are positional: ``schema`` is ``vars`` sorted by name, and
    ``table`` maps each exception row, the tuple of its terms in schema
    order, to its value.  ``exceptions``, the same table keyed by
    ``Mapping``, is built on first read.  ``universe`` is the active-domain
    term set, or None in open mode.  Canonical form: no row carries the
    default value.  No code mutates a relation after construction, so
    operators may return an input unchanged and a run may hand one
    relation to several parents.
    """

    __slots__ = ("vars", "schema", "default", "table", "universe", "_exceptions")

    def __init__(self, vars: frozenset[Variable], default,
                 exceptions: dict[Mapping, Any] | None = None,
                 universe: frozenset[Term] | None = None):
        """Checks that every exception binds exactly ``vars``."""
        schema = _schema(frozenset(vars))
        table = {}
        for m, v in (exceptions or {}).items():
            if tuple(var for var, _ in m.bindings) != schema:
                raise ValueError(f"exception domain {set(m.domain)} != vars {set(schema)}")
            table[tuple(t for _, t in m.bindings)] = v
        self._fill(schema, default, table, universe)

    @classmethod
    def _of(cls, schema: tuple[Variable, ...], default, table: dict[tuple, Any],
            universe: frozenset[Term] | None) -> "Relation":
        """The engine's constructor: rows already in schema order, of which
        only the lengths are checked."""
        r = cls.__new__(cls)
        r._fill(schema, default, table, universe)
        return r

    def _fill(self, schema, default, table, universe) -> None:
        if not set(map(len, table)) <= {len(schema)}:
            raise ValueError(f"row length differs from the schema's {len(schema)}")
        self.vars = frozenset(schema)
        self.schema, self.default, self.universe = schema, default, universe
        # most operators drop default rows themselves; their dicts are kept
        if default in table.values():
            table = {k: v for k, v in table.items() if v != default}
        self.table = table
        self._exceptions = None

    @property
    def exceptions(self) -> dict[Mapping, Any]:
        if self._exceptions is None:
            schema = self.schema
            self._exceptions = {Mapping(tuple(zip(schema, k))): v for k, v in self.table.items()}
        return self._exceptions

    def value_at(self, m: Mapping):
        return self.exceptions.get(m, self.default)

    def rows(self) -> Iterator[tuple[Mapping, Any]]:
        """Exception rows in deterministic order (does not include the default)."""
        for m in sorted(self.exceptions, key=Mapping.sort_key):
            yield m, self.exceptions[m]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.default == other.default
            and self.table == other.table
            and self.universe == other.universe
        )

    __hash__ = None

    def __repr__(self) -> str:
        rows = ", ".join(f"{m!r}: {v!r}" for m, v in self.rows())
        names = " ".join(v.name for v in self.schema)
        return f"Relation([{names}] default={self.default!r} {{{rows}}})"


# ---------------------------------------------------------------------------
# Filter formulas (three-valued: a condition can error out on unbound input)
# ---------------------------------------------------------------------------


class ThreeValued(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    ERROR = "error"

    __hash__ = object.__hash__  # as FourValue's: Enum's hashes the name in Python


# read without the class's attribute lookup in per-row code
_TRUE3, _FALSE3, _ERROR3 = ThreeValued.TRUE, ThreeValued.FALSE, ThreeValued.ERROR
_NOT3 = {_TRUE3: _FALSE3, _FALSE3: _TRUE3, _ERROR3: _ERROR3}


@dataclass(frozen=True)
class Eq:
    left: Iri | Variable
    right: Iri | Variable


@dataclass(frozen=True)
class Bound:
    var: Variable


@dataclass(frozen=True)
class StateIs:
    state: FourValue


class _Connective:  # its fields, in order, are one formula or two
    def __post_init__(self):
        _nest(self, "condition", tuple(vars(self).values()))


@dataclass(frozen=True)
class Not(_Connective):
    inner: "FilterFormula"


@dataclass(frozen=True)
class And(_Connective):
    left: "FilterFormula"
    right: "FilterFormula"


@dataclass(frozen=True)
class Or(_Connective):
    left: "FilterFormula"
    right: "FilterFormula"


FilterFormula = Eq | Bound | StateIs | Not | And | Or


def _atoms(f: FilterFormula) -> Iterator[Eq | Bound | StateIs]:
    """The atoms of f, left to right."""
    if isinstance(f, Not):
        yield from _atoms(f.inner)
    elif isinstance(f, (And, Or)):
        yield from _atoms(f.left)
        yield from _atoms(f.right)
    else:
        yield f


def formula_constants(f: FilterFormula) -> frozenset[Iri]:
    return frozenset(s for a in _atoms(f) if isinstance(a, Eq)
                     for s in (a.left, a.right) if isinstance(s, Iri))


def _compared_variables(f: FilterFormula) -> frozenset[Variable]:
    """Variables that an equality atom of f compares."""
    return frozenset(s for a in _atoms(f) if isinstance(a, Eq)
                     for s in (a.left, a.right) if isinstance(s, Variable))


def _formula_value(f: FilterFormula, get: Callable[[Variable], Any], state) -> ThreeValued:
    """Three-valued formula evaluation.

    Equality errors out when a variable operand is unbound; negation keeps
    errors; conjunction lets a definite false win over an error and
    disjunction a definite true.
    """
    if isinstance(f, Eq):
        sides = []
        for side in (f.left, f.right):
            val = get(side) if isinstance(side, Variable) else side
            if val is None:
                return _ERROR3
            sides.append(val)
        return _TRUE3 if sides[0] == sides[1] else _FALSE3
    if isinstance(f, Bound):
        return _TRUE3 if get(f.var) is not None else _FALSE3
    if isinstance(f, StateIs):
        return _TRUE3 if state == f.state else _FALSE3
    if isinstance(f, Not):
        return _NOT3[_formula_value(f.inner, get, state)]
    if isinstance(f, (And, Or)):
        a = _formula_value(f.left, get, state)
        b = _formula_value(f.right, get, state)
        # a definite false wins a conjunction, a definite true a disjunction
        wins = _FALSE3 if isinstance(f, And) else _TRUE3
        if a is wins or b is wins:
            return wins
        if a is _ERROR3 or b is _ERROR3:
            return _ERROR3
        return _NOT3[wins]
    raise TypeError(f"not a filter formula: {f!r}")


# ---------------------------------------------------------------------------
# Query AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    pattern: TriplePattern


@dataclass(frozen=True)
class Join:
    op: FourOperator
    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Union:
    op: FourOperator
    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Filter:
    op: FourOperator
    query: "Query"
    formula: FilterFormula


@dataclass(frozen=True)
class Project:
    op: FourOperator
    vars: frozenset[Variable]
    query: "Query"


@dataclass(frozen=True)
class MapState:
    query: "Query"
    formula: FilterFormula
    then_state: FourValue
    else_state: FourValue


@dataclass(frozen=True)
class Belief:
    expr: belief_mod.BeliefQuery
    query: "Query"

    @functools.cached_property
    def _holders(self) -> frozenset[Variable]:  # read once per node
        return belief_mod.belief_variables(self.expr)


Query = Pattern | Join | Union | Filter | Project | MapState | Belief


_LEAVE = object()  # on _postorder's stack: the node below has its children listed
_UNARY = (Filter, Project, MapState, Belief)
_CHILDREN = frozenset(("left", "right", "query"))  # the fields that hold a node


def _postorder(q: Query, skip=(), bodies: bool = True,
               again: dict[int, int] | None = None) -> list[Query]:
    """Each distinct node of q once, by id, children before parents, with an
    explicit stack, so depth costs no recursion and shared nodes are listed
    once.  A node whose id is in ``skip`` is left out with its subtree, and
    so is a Belief's body unless ``bodies``.  ``again``, if given, counts
    under each id the further times a listed node is met, and every time a
    skipped one is."""
    order, seen, stack = [], set(), [q]
    while stack:
        node = stack.pop()
        if node is _LEAVE:
            order.append(stack.pop())
        elif (key := id(node)) in seen or key in skip:
            if again is not None:
                again[key] = again.get(key, 0) + 1
        else:
            seen.add(key)
            stack.append(node)
            stack.append(_LEAVE)
            kind = type(node)
            if kind is Join or kind is Union:
                stack.append(node.right)
                stack.append(node.left)
            elif kind in _UNARY:
                if bodies or kind is not Belief:
                    stack.append(node.query)
            elif kind is not Pattern:
                raise TypeError(f"not a query: {node!r}")
    return order


class _Value:
    """A query by value (``_value``): a flat tuple, hashed once."""

    __slots__ = ("items", "hash")

    def __init__(self, items: tuple) -> None:
        self.items, self.hash = items, hash(items)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is _Value and self.hash == other.hash
                                 and self.items == other.items)


def _value(q: Query) -> _Value:
    """q by value, a key that an equal query of another parse shares: each
    node of its post-order as its type and fields, a child by its position
    there.  Flat, so that a deep query hashes and compares without
    recursion; made and hashed once per node and kept on it."""
    key = q.__dict__.get("_value")
    if key is None:
        order, key = _postorder(q), []
        at = {id(node): i for i, node in enumerate(order)}
        for node in order:
            kind = type(node)
            if kind is Pattern:  # the most common nodes, spelled out
                key.append((kind, node.pattern))
            elif kind is Join or kind is Union:
                key.append((kind, node.op, at[id(node.left)], at[id(node.right)]))
            else:
                fields = [(name, getattr(node, name)) for name in node.__dataclass_fields__]
                key.append((kind, *(at[id(v)] if name in _CHILDREN else v for name, v in fields)))
        key = _Value(tuple(key))
        object.__setattr__(q, "_value", key)
    return key


def _scope(q: Query, table: dict[int, frozenset[Variable]],
           plain: bool = False) -> tuple[frozenset[Variable], int]:
    """q's in-scope variables, and the size of the widest node scope in the
    walk.  ``table`` maps node ids to scopes, and a node already there is
    not walked again.  The walk leaves there only q's scope: any other is
    dropped when its last parent reads it, so a chain of n patterns holds
    O(n) variables rather than n^2/2.  A Join that is the last reader of
    its larger child's scope, built in this walk, adds the smaller one to
    that set in place (small-to-large), so checking a chain takes
    O(n log n) rather than O(n^2); a scope built in the walk is a ``set``
    until it leaves, as q's, a ``frozenset``.
    Raises IllFormedQuery on any scoping-rule violation (join/union operator
    family, union scope mismatch, projection of an out-of-scope variable,
    belief variable shadowing) and, when ``plain``, on any node or state
    test outside the plain-annotated fragment."""
    again: dict[int, int] = {}
    order = _postorder(q, table, again=again)
    widest = 0

    def read(child: Query) -> frozenset[Variable] | set[Variable]:
        """child's scope, which the caller may change if it is a set."""
        key = id(child)
        if again.get(key):  # a later parent reads it too
            again[key] -= 1
            return frozenset(table[key])
        return table.pop(key)

    for node in order:
        if plain and isinstance(node, (MapState, Belief)):
            raise IllFormedQuery(f"{type(node).__name__} is outside the plain-annotated fragment")
        if plain and isinstance(node, Filter) and any(isinstance(a, StateIs)
                                                      for a in _atoms(node.formula)):
            raise IllFormedQuery("state tests have no meaning over a generic semiring")
        if isinstance(node, Pattern):
            w = pattern_variables(node.pattern)
        elif isinstance(node, Join):
            if node.op not in MEET_OPERATORS:
                raise IllFormedQuery(f"join must use a meet operator, got {node.op.value}")
            w, small = read(node.left), read(node.right)
            if len(w) < len(small):
                w, small = small, w
            if type(w) is set:
                w |= small
            else:
                w = set(w).union(small)
        elif isinstance(node, Union):
            if node.op not in JOIN_OPERATORS:
                raise IllFormedQuery(f"union must use a join operator, got {node.op.value}")
            w, right = read(node.left), read(node.right)
            if w != right:
                ln = sorted(v.name for v in w)
                rn = sorted(v.name for v in right)
                raise IllFormedQuery(f"union branches bind different variables: {ln} vs {rn}")
        elif isinstance(node, (Filter, MapState)):
            w = read(node.query)
        elif isinstance(node, Project):
            inner = read(node.query)
            if not node.vars <= inner:
                missing = sorted(v.name for v in node.vars - inner)
                raise IllFormedQuery(f"projection of out-of-scope variable(s): {missing}")
            w = frozenset(node.vars)
        else:  # Belief
            inner = read(node.query)
            shadowed = inner & node._holders
            if shadowed:
                names = sorted(v.name for v in shadowed)
                raise IllFormedQuery(f"belief variable(s) shadow body scope: {names}")
            w = inner | node._holders
        table[id(node)] = w
        widest = max(widest, len(w))
    w = table[id(q)] = frozenset(table[id(q)])
    return w, widest


def in_scope(q: Query) -> frozenset[Variable]:
    """Variables a query binds.  Raises IllFormedQuery on any scoping-rule
    violation anywhere in q."""
    return _scope(q, {})[0]


def _pattern_constant_terms(p, acc: set[Term]) -> None:
    if isinstance(p, Iri):
        acc.add(p)
        return
    if isinstance(p, Variable):
        return
    if pattern_is_ground(p):
        acc.add(pattern_to_term(p))
        return
    _pattern_constant_terms(p.subject, acc)
    _pattern_constant_terms(p.predicate, acc)
    _pattern_constant_terms(p.object, acc)


def query_constants(q: Query) -> frozenset[Term]:
    """Ground terms the query mentions; they join the active domain."""
    acc: set[Term] = set()
    for node in _postorder(q):
        if isinstance(node, Pattern):
            _pattern_constant_terms(node.pattern, acc)
        elif isinstance(node, (Filter, MapState)):
            acc.update(formula_constants(node.formula))
        elif isinstance(node, Belief):
            acc.update(a.holder for a in belief_mod.atoms(node.expr) if isinstance(a.holder, Iri))
    return frozenset(acc)


class EvalMode(enum.Enum):
    ACTIVE_DOMAIN = "active-domain"
    OPEN = "open"


# A synthetic "generic" term: distinct from every IRI and quoted triple, and
# from other generics with a different index.  Used to probe how a formula
# behaves on mappings outside the exception table.
@dataclass(frozen=True)
class _Generic:
    index: int


def _generic_outcome(f: FilterFormula, vars: frozenset[Variable], state) -> ThreeValued:
    """Formula outcome on a fully generic mapping: every in-scope variable
    bound to a fresh, pairwise-distinct term unequal to any constant."""
    rep = {v: _Generic(i) for i, v in enumerate(sorted(vars, key=lambda v: v.name))}
    return _formula_value(f, rep.get, state)


def _set_partitions(items: list, max_blocks: int) -> Iterator[list[list]]:
    """Partitions of items into at most max_blocks blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest, max_blocks):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        if len(part) < max_blocks:
            yield [[first]] + part


def _equality_classes(
    f: FilterFormula, vars: frozenset[Variable], state, max_generic: int | None
) -> Iterator[tuple[dict[Variable, Any], ThreeValued]]:
    """Partition the mappings over ``vars`` by formula behaviour.

    Only the variables the formula compares are partitioned; each block is
    pinned to one formula constant (injectively) or generic: a term of its
    own, unequal to every constant.  Yields (assignment, outcome) per class,
    the assignment binding each compared variable to its constant or to its
    block's ``_Generic``; the other variables range freely.  Sound because
    the atoms only compare variables with each other and with the formula's
    constants, and test the (fixed, default) state.  ``max_generic`` is how
    many terms generic blocks may take over the active domain; None means
    unboundedly many (open mode), where more than 10 compared variables are
    refused.
    """
    vs = sorted(_compared_variables(f) & vars, key=lambda v: v.name)
    if max_generic is None:
        if len(vs) > 10:
            raise NonFinitelySupported(
                f"refusing equality-type analysis over {len(vs)} variables"
            )
        max_generic = len(vs)
    constants = sorted(formula_constants(f), key=lambda i: i.text)
    uncompared = _Generic(-1)
    for partition in _set_partitions(vs, max_generic + len(constants)):
        for labels in itertools.product([None, *constants], repeat=len(partition)):
            pinned = [c for c in labels if c is not None]
            if len(set(pinned)) < len(pinned) or len(partition) - len(pinned) > max_generic:
                continue
            rep = {v: _Generic(bi) if c is None else c
                   for bi, (block, c) in enumerate(zip(partition, labels)) for v in block}
            yield rep, _formula_value(
                f, lambda v: rep.get(v, uncompared if v in vars else None), state)


def _class_members(rep: dict[Variable, Any], schema: tuple[Variable, ...],
                   pool: list[Term], universe: Iterable[Term]) -> Iterator[tuple]:
    """Every row over ``schema`` in the class of ``rep``: generic blocks
    take distinct terms of ``pool``, the other variables any universe term."""
    blocks = sorted({t for t in rep.values() if isinstance(t, _Generic)}, key=lambda g: g.index)
    free = [v for v in schema if v not in rep]
    for picks in itertools.permutations(pool, len(blocks)):
        term = dict(zip(blocks, picks))
        binding = {v: term.get(t, t) for v, t in rep.items()}
        for combo in itertools.product(universe, repeat=len(free)):
            binding.update(zip(free, combo))
            yield tuple([binding[v] for v in schema])


# ---------------------------------------------------------------------------
# Combinators, each parameterised by the node's operator
# ---------------------------------------------------------------------------
#
# A run plans each join, union and projection once from its inputs'
# schemas, defaults and universe, as (schema, default, run, key): ``run``
# takes the inputs' tables to the output's, and an output row's value
# depends only on the input rows that agree with it on the variables
# ``key``.  ``_combine_join`` and the others run a plan on whole tables; a
# FROM BELIEF change step runs the same plan on the rows of a few keys
# (``_keyed_changes``).


def _plan_join(r1: Relation, r2: Relation, op2: Callable[[Any, Any], Any]) -> tuple:
    """The join plan; its run repeats no one-sided row valued in its
    ``absorbed`` over the other side's variables (see ``_absorbed``)."""
    s1, s2 = r1.schema, r2.schema
    schema, shared = _schema(r1.vars | r2.vars), _schema(r1.vars & r2.vars)
    d, universe = op2(r1.default, r2.default), r1.universe
    # one side's exception against the other side's default, over every
    # extension to the variables only the other side binds (op2 commutes)
    sides = []
    for left, right in ((r1, r2), (r2, r1)):
        extra = _schema(right.vars - left.vars)
        sides.append((right.default, extra, extra and _plan(schema, left.schema + extra)))
    # pairs of exceptions that agree on the shared variables, hashed on them
    key1, key2, merge = _plan(shared, s1), _plan(shared, s2), _plan(schema, s1 + s2)

    def run(t1: dict, t2: dict, absorbed: frozenset = frozenset()) -> dict:
        table: dict[tuple, Any] = {}
        for t, (other, extra, extend) in zip((t1, t2), sides):
            hot = [(k, x) for k, v in t.items() if (x := op2(v, other)) != d]
            if not extra:
                table.update(hot)
                continue
            if hot and universe is None:
                names = ", ".join(f"?{v.name}" for v in extra)
                raise NonFinitelySupported(
                    f"join would repeat a one-sided row over every term of {names}")
            for k, x in hot:
                if x not in absorbed:
                    for combo in itertools.product(universe, repeat=len(extra)):
                        table[extend(k + combo)] = x
        index = _index(t2, key2)
        for k1, v1 in t1.items():
            for k2, v2 in index.get(key1(k1), ()):
                table[merge(k1 + k2)] = op2(v1, v2)
        return table

    return schema, d, run, shared


def _combine_join(r1: Relation, r2: Relation, plan: tuple,
                  absorbed: frozenset = frozenset()) -> Relation:
    schema, d, run, _ = plan
    return Relation._of(schema, d, run(r1.table, r2.table, absorbed), r1.universe)


def _absorbed(r1: Relation, r2: Relation, t1: dict, t2: dict, op2: Callable[[Any, Any], Any],
              keep: frozenset[Variable], add: Callable[[Any, Any], Any]) -> frozenset:
    """The values of the one-sided rows of the join of r1's rows t1 with r2's
    rows t2 that its projection onto ``keep`` with ``add`` folds into its
    default d: each x != d with add(x, d) == d, d idempotent under add.  A
    group listing fewer than all its extensions adds d, which absorbs x, so
    the join may skip them while no group can list all (``_below_full``)."""
    d = op2(r1.default, r2.default)
    if r1.universe is None or r1.vars | r2.vars <= keep or add(d, d) != d:
        return frozenset()
    xs = {op2(v, r2.default) for v in set(t1.values())}
    xs.update(op2(v, r1.default) for v in set(t2.values()))
    absorbed = frozenset(x for x in xs if x != d and add(x, d) == d)
    return absorbed if absorbed and _below_full(r1, r2, t1, t2, keep) else frozenset()


def _below_full(r1: Relation, r2: Relation, t1: dict, t2: dict, keep: frozenset[Variable]) -> bool:
    """Whether no group of the projection onto ``keep`` of the join of r1's
    rows t1 with r2's rows t2 can list all its |U|^|dropped| extensions: a
    listed row extends a row of one side over the dropped variables only
    the other side binds, so a group lists at most each side's most rows
    that agree on its kept variables, times |U| to the power of those."""
    size, dropped = len(r1.universe), (r1.vars | r2.vars) - keep
    listed = 0
    for side, t, other in ((r1, t1, r2), (r2, t2, r1)):
        group = _plan(_schema(side.vars & keep), side.schema)
        most = max(collections.Counter(map(group, t)).values(), default=0)
        listed += most * size ** len(dropped & (other.vars - side.vars))
    return listed < size ** len(dropped)


def _plan_union(r1: Relation, r2: Relation, op2: Callable[[Any, Any], Any]) -> tuple:
    d1, d2 = r1.default, r2.default

    def run(t1: dict, t2: dict) -> dict:
        return {k: op2(t1.get(k, d1), t2.get(k, d2)) for k in t1.keys() | t2.keys()}

    return r1.schema, op2(d1, d2), run, r1.schema


def _combine_union(r1: Relation, r2: Relation, plan: tuple) -> Relation:
    schema, d, run, _ = plan
    return Relation._of(schema, d, run(r1.table, r2.table), r1.universe)


def _by_row(rows: Iterable[tuple[tuple, Any]], schema: tuple[Variable, ...], f: FilterFormula,
            value_for: Callable[[ThreeValued, Any], Any]) -> dict:
    """Each row over ``schema`` with its value, filtered or state-mapped
    (see ``_transform_by_formula``) by itself alone."""
    return {k: value_for(_formula_value(f, dict(zip(schema, k)).get, v), v) for k, v in rows}


def _transform_by_formula(
    r: Relation,
    f: FilterFormula,
    value_for: Callable[[ThreeValued, Any], Any],
) -> Relation:
    """Shared core of filtering and state-mapping.

    value_for(outcome, annotation) gives the transformed annotation of a
    mapping from its formula outcome and current annotation.  The default
    is the value where all compared variables are generic and distinct.
    Off-support mappings take their equality class's value: over the active
    domain the members of each class that differs from the default become
    exceptions; in open mode only a class pinning every variable may
    differ, and any infinite one that does is refused.
    """
    w = r.vars
    default = value_for(_generic_outcome(f, w, r.default), r.default)
    open_mode = r.universe is None
    constants = formula_constants(f)
    pool = [] if open_mode else [t for t in r.universe if t not in constants]
    schema = r.schema
    table: dict[tuple, Any] = {}
    for rep, outcome in _equality_classes(f, w, r.default, None if open_mode else len(pool)):
        value = value_for(outcome, r.default)
        if value == default:
            continue
        if open_mode and (len(rep) < len(w) or any(isinstance(t, _Generic) for t in rep.values())):
            raise NonFinitelySupported(
                "formula distinguishes infinitely many off-support mappings"
            )
        for k in _class_members(rep, schema, pool, r.universe or ()):
            table[k] = value
    table.update(_by_row(r.table.items(), schema, f, value_for))
    return Relation._of(schema, default, table, r.universe)


def _plan_project(r: Relation, keep: frozenset[Variable], add: Callable[[Any, Any], Any],
                  zero: Any) -> tuple:
    """The plan of r summed over the variables outside ``keep`` with ``add``,
    whose identity is ``zero``: each group of exceptions that agree on
    ``keep`` adds up its values, and r's default once for each missing
    extension.  A default ``d`` with ``add(d, d) == d`` stands for any
    positive number of copies, which is exact in every semiring; any other
    default is added copy by copy, so open mode, with infinitely many
    extensions, refuses it."""
    schema, d = tuple(v for v in r.schema if v in keep), r.default
    if schema == r.schema:
        return schema, d, lambda t: t, schema
    idempotent = add(d, d) == d
    if r.universe is None and not idempotent:
        raise NonFinitelySupported(
            "projection over an infinite domain needs a zero or idempotent default"
        )
    # a group's extensions; None stands for infinitely many
    n = None if r.universe is None else len(r.universe) ** (len(r.schema) - len(schema))
    restrict = _plan(schema, r.schema)

    def total(vals: list):
        if idempotent:
            start = zero if n == len(vals) else d
        else:
            start = functools.reduce(add, itertools.repeat(d, n - len(vals)), zero)
        return functools.reduce(add, vals, start)

    def run(t: dict) -> dict:
        groups: dict[tuple, list] = {}
        for k, v in t.items():
            groups.setdefault(restrict(k), []).append(v)
        return {k: total(vals) for k, vals in groups.items()}

    return schema, total([]), run, schema


def _project_four(r: Relation, plan: tuple | None) -> Relation:
    if plan is None or plan[0] == r.schema:  # every variable kept
        return r
    schema, d, run, _ = plan
    return Relation._of(schema, d, run(r.table), r.universe)


def _keyed_changes(plan: tuple, ins: list[Relation], out: Relation,
                   at_ins: tuple[int, ...]) -> Callable[[list[dict], dict], dict]:
    """The change step of ``plan``'s operator over ``ins``, whose output is
    ``out``: from a change plan's changed rows, the inputs' at ``at_ins``
    (row -> new value, the default for a row that left the table), it runs
    the plan on each input's rows under the keys the changed rows hold,
    with the changes applied, and gives the default to every row that
    ``out`` lists under those keys and the run does not.  A row at its
    input's default reads as absent: change plans are four-valued, where
    every default is idempotent.  Inputs and ``out`` are indexed once, on
    the first call, so a step made again that never runs indexes nothing."""
    _, d, run, key = plan
    keys = [_plan(key, r.schema) for r in ins]
    indexed: list[dict] = []

    def changes(plan_changes: list[dict], triples: dict) -> dict:
        if not indexed:
            indexed.extend(_index(r.table, at) for r, at in zip(ins, keys))
            indexed.append(_index(out.table, _plan(key, out.schema)))
        *indexes, listed = indexed
        changed = [plan_changes[i] for i in at_ins]
        hit = {at(k) for c, at in zip(changed, keys) for k in c}
        rows = run(*({k: v for s in hit for k, v in index.get(s, ())} | c
                     for index, c in zip(indexes, changed)))
        for s in hit:
            for k, _ in listed.get(s, ()):
                rows.setdefault(k, d)
        return rows

    return changes


def _index(table: dict, at: Callable[[tuple], tuple]) -> dict[tuple, list]:
    """The (row, value) pairs of ``table`` by the row's key ``at``."""
    index: dict[tuple, list] = {}
    for k, v in table.items():
        index.setdefault(at(k), []).append((k, v))
    return index


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _pattern_matcher(p: TriplePattern) -> Callable[[StarTriple], tuple | None]:
    """Compile p into positional tests on a triple and extractors.

    The matcher gives the terms a matching triple binds p's variables to,
    in name order (a row over p's schema), or None.  A quoted position's
    type test is listed before the tests inside it, which wait on the stack;
    a repeated variable must equal its first position.  A pattern of three
    distinct variables and IRIs reads the triple with one ``attrgetter``:
    its IRI positions first, compared at once, then its variables.
    """
    named = list(zip(("subject", "predicate", "object"), (p.subject, p.predicate, p.object)))
    ground = [(name, part) for name, part in named if isinstance(part, Iri)]
    at = {part: name for name, part in named if isinstance(part, Variable)}
    if len(ground) + len(at) == 3:
        get = attrgetter(*(name for name, _ in ground), *(at[v] for v in _schema(at)))
        want, k = tuple(part for _, part in ground), len(ground)
        return lambda t: v[k:] if (v := get(t))[:k] == want else None
    tests: list[Callable[[StarTriple], bool]] = []
    first: dict[Variable, Callable[[StarTriple], Term]] = {}
    stack = [(p, "")]
    while stack:
        node, path = stack.pop()
        for part in ("subject", "predicate", "object"):
            sub, get = getattr(node, part), attrgetter(path + part)
            if isinstance(sub, Variable):
                seen = first.setdefault(sub, get)
                if seen is not get:
                    tests.append(lambda t, a=seen, b=get: a(t) == b(t))
            elif isinstance(sub, Iri):
                tests.append(lambda t, get=get, c=sub: get(t) is c)
            else:
                tests.append(lambda t, get=get: type(get(t)) is StarTriple)
                stack.append((sub, path + part + "."))
    extractors = [first[v] for v in _schema(first)]

    def matcher(t: StarTriple) -> tuple | None:
        for test in tests:
            if not test(t):
                return None
        return tuple([get(t) for get in extractors])

    return matcher


def _scan_plan(p: TriplePattern, plans: dict) -> tuple:
    """p's scan plan from ``plans``, an evaluation's table of them, compiled
    there on first use: the (position, term) probe of each ground part,
    the matcher and the schema."""
    plan = plans.get(p)
    if plan is None:
        probes = tuple((position, pattern_to_term(part))
                       for position in ("subject", "predicate", "object")
                       if pattern_is_ground(part := getattr(p, position)))
        plan = plans[p] = (probes, _pattern_matcher(p), _schema(pattern_variables(p)))
    return plan


def _eval_pattern(p: TriplePattern, g: FourGraph, universe: frozenset[Term] | None,
                  plans: dict) -> Relation:
    """Scan the smallest of the graph's buckets for p's ground subject,
    predicate and object, or every exception when none is ground, with
    p's plan from ``plans`` (see ``_scan_plan``)."""
    probes, matcher, schema = _scan_plan(p, plans)
    candidates = min((g.bucket(position, term) for position, term in probes),
                     key=len, default=g.exceptions)
    table = {row: v for t, v in candidates.items() if (row := matcher(t)) is not None}
    return Relation._of(schema, g.default, table, universe)


def _key(q: Query):
    """q's key among a run's relations: a Pattern's pattern, so a run scans
    equal patterns once, or else the node's id."""
    return q.pattern if isinstance(q, Pattern) else id(q)


def _inputs(q: Join | Union | Filter | Project | MapState, done: dict) -> tuple:
    """The nodes whose relations in ``done`` q reads: a Project whose Join
    a run left out (``_FourEngine._order``) reads that Join's children."""
    j = q if isinstance(q, (Join, Union)) else q.query
    return (j.left, j.right) if j is q or type(j) is Join and _key(j) not in done else (j,)


class _FourEngine:
    """One evaluation, four-valued or, given a semiring, over its carrier."""

    def __init__(self, vocab: BeliefVocabulary, universe: frozenset[Term] | None,
                 semiring: Semiring | None = None):
        self.vocab = vocab
        self.universe = universe
        self.semiring = semiring
        self._plans: dict = {}

    # -- helpers -----------------------------------------------------------

    def _ops(self, op: FourOperator, additive: bool) -> tuple:
        """A node's (operator, identity, absorbing element): its own
        FourOperator's, or the semiring's add (Union, Project) or multiply
        (Join, Filter) in its place.  ``apply`` is looked up at each call,
        so a replaced module global reaches every operator run after it is
        replaced, change steps included, but not a relation already kept
        on a graph (``_KeptRun``): that keeps the values it was made with."""
        s = self.semiring
        if s is None:
            return (lambda a, b: apply(op, a, b)), identity_of(op), absorbing_of(op)
        return (s.add, s.zero, None) if additive else (s.multiply, s.one, s.zero)

    def _extract(self, ext: belief_mod.Extraction, key: tuple[Iri | None, ...]) -> dict:
        """``ext``'s delta under the holder ``key`` (``Extraction.delta``);
        one call per holder key, where the bench tracer counts holder
        assignments."""
        return ext.delta(key)

    def run(self, q: Query, g: FourGraph, done: dict | None = None) -> Relation:
        """q's relation over g: each node of ``_order(q)``, up to Belief
        bodies, through ``eval`` once, recorded with its relation in ``done``,
        in that order.  A caller that passes ``done``, a kept run (``_kept``),
        keeps each plan there too: held in every run, plans keep the
        collector busy."""
        keep, done = done is not None, {} if done is None else done
        for node in self._order(q):
            r = self.eval(node, g, done, keep)
        return r

    def _order(self, q: Query) -> list[Query]:
        """q's post-order up to Belief bodies, made once per ``run``,
        without a Join that only a Project reads: that Project joins its
        children itself, leaving out the rows it absorbs (``_absorbed``)."""
        again: dict[int, int] = {}
        order = _postorder(q, bodies=False, again=again)
        fused = {id(n.query) for n in order
                 if type(n) is Project and type(n.query) is Join and id(n.query) not in again}
        return [n for n in order if id(n) not in fused]

    def eval(self, q: Query, g: FourGraph, done: dict, keep: bool) -> Relation:
        """q's relation over g, recorded in ``done`` under ``_key(q)`` as
        (q, its relation, its plan if ``keep``, else None)."""
        key = _key(q)
        entry = done.get(key)
        if entry is None:
            r, plan = self._eval(q, g, done)
            entry = done[key] = (q, r, plan if keep else None)
        return entry[1]

    # -- node cases ---------------------------------------------------------

    def _eval(self, q: Query, g: FourGraph, done: dict) -> tuple[Relation, Any]:
        """q's relation over g and its plan, which its ``_changes_step`` runs
        too: a join's, union's or projection's, a Belief's base, or None."""
        if isinstance(q, Pattern):
            return _eval_pattern(q.pattern, g, self.universe, self._plans), None
        if isinstance(q, (Join, Union)):
            union, r1, r2 = isinstance(q, Union), done[_key(q.left)][1], done[_key(q.right)][1]
            plan = (_plan_union if union else _plan_join)(r1, r2, self._ops(q.op, union)[0])
            return (_combine_union if union else _combine_join)(r1, r2, plan), plan
        if isinstance(q, Belief):
            return self._eval_belief(q, g)
        ins = [done[_key(kid)][1] for kid in _inputs(q, done)]
        if isinstance(q, (Filter, MapState)):
            return _transform_by_formula(ins[0], q.formula, self._value_for(q)), None
        (add, zero, _), keep = self._ops(q.op, True), frozenset(q.vars)
        if len(ins) == 1:
            plan = None if ins[0].vars <= keep else _plan_project(ins[0], keep, add, zero)
            return _project_four(ins[0], plan), plan
        (left, right), op2 = ins, self._ops(q.query.op, False)[0]
        join = _plan_join(left, right, op2)
        r1 = _combine_join(left, right, join,
                           _absorbed(left, right, left.table, right.table, op2, keep, add))
        plan = _plan_project(r1, keep, add, zero)
        # one step keyed on the kept shared variables: a group, its join rows and
        # their input rows share a key, so it decides what to skip on whole groups
        def run(t1: dict, t2: dict) -> dict:
            return plan[2](join[2](t1, t2, _absorbed(left, right, t1, t2, op2, keep, add)))

        return _project_four(r1, plan), (*plan[:2], run, tuple(v for v in join[3] if v in keep))

    def _value_for(self, q: Filter | MapState) -> Callable[[ThreeValued, Any], Any]:
        """A Filter's or MapState's value of a row from its formula's outcome
        there and its value in the input."""
        if isinstance(q, MapState):
            return lambda outcome, v: q.then_state if outcome is _TRUE3 else q.else_state
        multiply, one, zero = self._ops(q.op, False)
        return lambda outcome, v: multiply(v, one if outcome is _TRUE3 else zero)

    def _changes_plan(self, done: dict) -> list[tuple]:
        """The nodes of the run that filled ``done``, in its order, each as its
        ``_changes_step``: made once per kept run, and run per holder key of a
        Belief base or per catch-up of a query base (``_slice_changes``)."""
        at = {key: i for i, key in enumerate(done)}
        return [self._changes_step(node, done, at) for node, _, _ in done.values()]

    def _changes_step(self, q: Query, done: dict, at: dict) -> tuple:
        """(the positions of q's inputs in the plan ``at`` indexes, or None
        for a pattern or a Belief, which read the graph; q's relation in
        ``done``; and the function, holding no engine, of the plan's changed
        rows so far and the graph's changed triples that recomputes, by q's
        plan in ``done``, the rows of q's relation they reach)."""
        _, out, plan = done[_key(q)]
        if isinstance(q, Pattern):
            matcher = _scan_plan(q.pattern, self._plans)[1]
            return None, out, lambda changes, triples: {
                row: v for t, v in triples.items() if (row := matcher(t)) is not None}
        if isinstance(q, Belief):
            return None, out, lambda changes, triples: _FourEngine(
                plan.vocab, plan.universe)._belief_changes(plan, triples)
        kids = _inputs(q, done)
        ins, at_ins = [done[_key(kid)][1] for kid in kids], tuple(at[_key(kid)] for kid in kids)
        if isinstance(q, (Filter, MapState)):
            (i,), schema, f, value_for = at_ins, ins[0].schema, q.formula, self._value_for(q)
            return at_ins, out, lambda changes, triples: _by_row(
                changes[i].items(), schema, f, value_for)
        if plan is None:  # a projection that keeps every variable
            return at_ins, out, lambda changes, triples: changes[at_ins[0]]
        return at_ins, out, _keyed_changes(plan, ins, out, at_ins)

    @staticmethod
    def _slice_changes(steps: list[tuple], triples: dict) -> dict:
        """The rows where a Belief body's relation over an extraction that
        differs from the fresh one on ``triples`` differs from its relation
        over the fresh one, with their new values: the body's last node's
        ``_step_changes``."""
        return _FourEngine._step_changes(steps, triples)[-1]

    @staticmethod
    def _step_changes(steps: list[tuple], triples: dict,
                      given: dict[int, dict] | None = None) -> list[dict]:
        """For each node of a run, the rows where its relation over a graph
        that differs from the run's own on ``triples`` differs from its
        relation there, with their new values: ``steps``, the run's
        ``_changes_plan``, in order, or the rows ``given`` by position.  A
        step runs only when its input changed, and keeps only the rows
        whose value did."""
        changes: list[dict] = []
        for at, (kids, out, step) in enumerate(steps):
            rows = {}
            if given and at in given:
                rows = given[at]
            elif triples if kids is None else any(changes[i] for i in kids):
                table, d = out.table, out.default
                rows = {k: v for k, v in step(changes, triples).items() if v != table.get(k, d)}
            changes.append(rows)
        return changes

    def _eval_belief(self, q: Belief, g: FourGraph) -> tuple[Relation, "_BeliefBase"]:
        """q's relation over g, and its base (see ``_BeliefBase``), kept on
        g under q's value, so that an equal node of another parse finds it:
        built on first use, and caught up here when updates have left it
        behind."""
        # a partial, not a lambda: one frame less per nested FROM BELIEF
        b = g.derived(("belief", self.vocab, self.universe, _value(q)),
                      functools.partial(self._build_base, q, g), _BeliefBase.carry)
        if b.since:
            self._catch_up(b)
        return b.relation, b

    def _build_base(self, q: Belief, g: FourGraph) -> "_BeliefBase":
        """q's base over g: its body run once, over the extraction in which
        no variable holder has stances, and q's relation there caught up
        to g, as if updates had given every holder its stances."""
        b = _BeliefBase()
        b.node, b.since, b.slices, b.came = q, frozenset(), {}, None
        b.ext = belief_mod.extraction(g, q.expr, self.vocab)
        b.evars, b.relevant, b.iris = (), set(), frozenset()
        if q._holders:
            b.evars = _schema(q._holders)
            b.iris = frozenset(t for t in self.universe or () if isinstance(t, Iri))
        r0 = self._kept(b, q.query, FourGraph(b.ext.default, b.ext.fresh))
        if q._holders and self.universe is None and (r0.table or r0.default != UNKNOWN):
            raise NonFinitelySupported(
                "belief over a quantified holder is not constantly unknown off-support"
            )
        b.schema, b.relation = _schema(r0.vars.union(b.evars)), r0
        b.extend = _plan(b.schema, r0.schema + b.evars)
        if not q._holders:
            return b
        # every slice has r0's default and schema: an extraction's default,
        # the expression's value where no atom believes, is the same under
        # every binding, and so is each operator's given its inputs'.  With
        # no stances, r0 stands under every key of IRIs; a quoted triple
        # holds no beliefs, so under a key holding one the body is
        # constantly unknown.  Open mode lists none of them: its r0 is
        # constantly unknown (checked above)
        universe, extend = self.universe or (), b.extend
        quoted = [] if r0.default == UNKNOWN else [
            (tuple(t for _, t in m.bindings), UNKNOWN) for m in mappings_over(r0.vars, universe)]
        table: dict[tuple, Any] = {}
        if r0.table or quoted:
            for combo in itertools.product(universe, repeat=len(b.evars)):
                for k, v in (r0.table.items() if b.iris.issuperset(combo) else quoted):
                    table[extend(k + combo)] = v
        b.since = frozenset(h for h, _ in belief_mod.holder_index(g, self.vocab))
        self._catch_up(b, table)
        return b

    def _catch_up(self, b: "_BeliefBase", table: dict | None = None) -> None:
        """Bring b up to its extraction, whose holders ``b.since`` updates
        (``_BeliefBase.carry``) or a build gave their stances.  A build
        passes the table it spread r0 into, which is changed in place; a
        carried base's relation is its parent graph's base's too, so it is
        copied."""
        now, slices, rows = self._stance_changes(b, b.ext, b.since)
        # an old key holding a changed holder was visited again, or its
        # holder is no longer relevant and the key is gone
        b.slices = {**{k: s for k, s in b.slices.items() if b.since.isdisjoint(k)}, **slices}
        b.came = None if table is not None else (b.relation, rows)
        if rows or table is not None:
            table, d = dict(b.relation.table) if table is None else table, b.r0.default
            b.relation = Relation._of(b.schema, d, _patch(table, rows, d), b.universe)
        b.relevant, b.since = now, frozenset()

    def _belief_changes(self, b: "_BeliefBase", triples: dict) -> dict:
        """The rows where b's node's relation over b's graph with
        ``triples`` set to their values differs from ``b.relation``, with
        their new values, found without that graph.  The node reads its
        graph only through the belief statements and the default, which is
        the same under every key of an enclosing Belief; so only the
        holders whose stances ``triples`` changes (``Extraction.after``)
        change a key."""
        ext, changed = b.ext.after(triples)
        return self._stance_changes(b, ext, changed)[2] if changed else {}

    def _stance_changes(self, b: "_BeliefBase", ext: belief_mod.Extraction,
                        changed) -> tuple[set[Iri], dict, dict]:
        """The holders relevant to b's body under ``ext``, in which only
        the holders ``changed`` may have other stances than under
        ``b.ext``: those with a stance on a triple the body reads; and
        ``_changed_rows`` from b's relevant holders to those, which visits
        only the keys holding a changed holder."""
        now = b.relevant.difference(changed)
        now.update(h for h in changed if any(map(b.reads, ext.believed(h))))
        return now, *self._changed_rows(b, ext, b.relevant, now, changed & (b.relevant | now))

    def _changed_rows(self, b: "_BeliefBase", ext: belief_mod.Extraction,
                      was: set[Iri], now: set[Iri], hot: set[Iri]) -> tuple[dict, dict]:
        """The rows of b's node's relation under ``ext``, whose holders
        relevant to the body are ``now``, that differ from ``b.relation``,
        whose relevant holders were ``was`` (none: the relation in which no
        holder has stances), with their new values; and the changed rows
        from r0 of each key visited, by key.  Only the keys holding a
        holder of ``hot`` change, or every key when a ground atom's
        believers do (``ext.moved``); without holder variables that is the
        empty key.  A key is visited as the key of ``now`` and None (an
        IRI without stances) that a whole run over ``ext`` visits in its
        place, in a whole run's order, so a refusal is the one a whole run
        would make."""
        # a key position is a holder relevant now, one relevant before only,
        # or None for every other IRI.  Listed in this order, the keys map
        # through ``to_now`` onto a whole run's keys over ``ext`` in that
        # run's order; but a whole run refuses its r0 first
        # (``_build_base``), so the all-None key moves to the front
        by_text = attrgetter("text")
        listed = sorted(now, key=by_text) + sorted(was - now, key=by_text) + [None]
        to_now = {h: h if h in now else None for h in listed}
        keys = [key for key in itertools.product(listed, repeat=len(b.evars))
                if ext.moved or not hot.isdisjoint(key)]
        now_keys = [tuple(map(to_now.__getitem__, key)) for key in keys]
        visits = list(dict.fromkeys(now_keys))
        all_none = (None,) * len(b.evars)
        if visits and visits[-1] == all_none:
            visits.insert(0, visits.pop())
        slices: dict[tuple, dict] = {all_none: {}}  # r0 is its slice, unless visited
        for key in visits:
            if b.steps is None:
                b.steps = self._changes_plan(b.done)
            slices[key] = changes = self._slice_changes(b.steps, self._extract(ext, key))
            if changes and self.universe is None and None in key:  # r0 lists no rows here
                raise NonFinitelySupported(
                    "belief over a quantified holder is not constantly unknown off-support"
                    if key == all_none else
                    "belief naming a holder and a quantified non-holder is not constantly unknown"
                )
        r0t, d = b.r0.table, b.r0.default
        to_was = {h: h if h in was else None for h in listed}
        spread = {h: (h,) for h in listed}
        spread[None] = b.iris.difference(was, now)
        out: dict[tuple, Any] = {}
        for key, now_key in zip(keys, now_keys):
            rows = new = slices[now_key]
            if was:  # else the old slice is r0's
                old = b.slices[tuple(map(to_was.__getitem__, key))]
                rows = {k: v for k in new.keys() | old.keys()
                        if (v := new.get(k, r0t.get(k, d))) != old.get(k, r0t.get(k, d))}
            if not rows:
                continue
            for combo in itertools.product(*map(spread.__getitem__, key)):
                for k, v in rows.items():
                    out[b.extend(k + combo)] = v
        return slices, out

    def _kept(self, b: "_KeptRun", q: Query, g: FourGraph) -> Relation:
        """q's relation over g, its run kept in b (see ``_KeptRun``); a run
        that refuses leaves b as it was."""
        done = {}
        b.r0 = self.run(q, g, done)
        b.vocab, b.universe, b.done, b.steps = self.vocab, self.universe, done, None
        b.reads = self._reads([node for node, _, _ in done.values()])
        return b.r0

    def _forward(self, b: "_QueryBase", g: FourGraph) -> None:
        """Move b's kept run to g, b's graph, which differs from the run's
        on the triples ``b.changed``: the change plan runs once over them,
        each node's relation takes its changed rows, a Belief node takes
        the base g keeps for it (``_eval_belief``), and the step of each
        node whose relation, base or input moved is made again.  A refusal
        leaves b's run as it was."""
        if b.steps is None:
            b.steps = self._changes_plan(b.done)
        bases, given = {}, {}
        for i, (node, _, plan) in enumerate(b.done.values()):
            if isinstance(node, Belief):  # its rows are its catch-up's if that started at plan
                bases[i] = base = self._eval_belief(node, g)[1]
                if base is plan or base.came is not None and base.came[0] is plan.relation:
                    given[i] = {} if base is plan else base.came[1]
        changes = self._step_changes(
            b.steps, {t: value for t, (_, value) in b.changed.items()}, given)
        done, stale = {}, []
        for i, ((key, (node, r, plan)), rows, (kids, _, _)) in enumerate(
                zip(b.done.items(), changes, b.steps)):
            base = bases.get(i, plan)
            if base is not plan:
                r = base.relation
            elif rows:
                r = Relation._of(r.schema, r.default, _patch(dict(r.table), rows, r.default),
                                 r.universe)
            done[key] = (node, r, base)
            stale.append(base is not plan or bool(rows)
                         or kids is not None and any(changes[j] for j in kids))
        at = {key: i for i, key in enumerate(done)}
        b.steps = [self._changes_step(node, done, at) if again else step
                   for (node, _, _), step, again in zip(done.values(), b.steps, stale)]
        b.done, b.r0 = done, r

    def _reads(self, nodes: list[Query]) -> Callable[[StarTriple], bool]:
        """Whether a run of ``nodes`` reads a triple: a pattern reads the
        triples it matches, all if its predicate is a variable; a nested
        Belief reads the belief statements.  A triple no node reads changes
        no relation of the run.  In a Belief body, a holder without a stance
        on a triple the body reads extracts, as far as the body can see,
        like an IRI without stances, so it is not relevant
        (``_stance_changes``)."""
        patterns = [n.pattern for n in nodes if isinstance(n, Pattern)]
        if any(not isinstance(p.predicate, Iri) for p in patterns):
            return lambda t: True
        matchers = [_scan_plan(p, self._plans)[1] for p in patterns]
        nested, predicates = any(isinstance(n, Belief) for n in nodes), self.vocab.predicates()
        return lambda t: (nested and belief_mod.is_statement(t, predicates)) \
            or any(m(t) is not None for m in matchers)


class _KeptRun:
    """A run kept on a graph (``FourGraph.derived``), so that it lives as
    long as the graph; it holds no engine and no graph.  ``vocab`` and
    ``universe`` it ran with; ``done``, each node of its order with its
    relation and plan (``_FourEngine.run``), from which its change plan
    ``steps`` is made on first use, or None where only the answer is
    kept; ``reads``, its test on a triple (a query base's is made on the
    first update); ``r0``, its relation; ``relation``, its owner's
    relation over the graph it is kept on."""

    __slots__ = ("vocab", "universe", "done", "reads", "steps", "r0", "relation")

    def same_universe(self, child: FourGraph, t: StarTriple, new) -> bool:
        """Whether ``child``, the graph kept on with t set to ``new``, has
        the same universe: always in open mode; over the active domain,
        when t's terms are in it and, if t is removed, occur in ``child``
        still, so that t neither brings a term in nor takes one out."""
        return self.universe is None or terms_of(t) <= (
            child.domain() if new == child.default else self.universe)


def _patch(table: dict, rows: dict, d) -> dict:
    """``table`` with ``rows`` set in place, a row at the default ``d`` taken out."""
    for k, v in rows.items():
        if v == d:
            table.pop(k, None)
        else:
            table[k] = v
    return table


class _BeliefBase(_KeptRun):
    """A Belief node's evaluation over a graph, up to its holder keys, kept
    under the vocabulary, the universe and the node's value (``_value``).
    ``node`` built it, and its ids key ``done``; then the extraction
    ``ext``; for holder variables ``evars``, the holders ``relevant`` to
    the body and the universe's IRIs ``iris``.  The kept run is the body's,
    over the extraction in which no variable holder has stances
    (``Extraction.fresh``), and ``r0`` the body's relation there.
    ``slices`` holds the changed rows from r0 of each key a whole run
    visits and of the all-None key; ``relation`` the node's relation, with
    its ``schema`` and the plan ``extend`` of a body row and key onto it.
    A key holds one holder per variable of ``evars``, None standing for
    every IRI without stances.  ``since`` holds the holders whose stances
    updates changed after ``relevant``, ``slices`` and ``relation`` were
    made, which the next use catches up (``_FourEngine._catch_up``), as a
    build catches up every holder; ``came`` is the relation that catch-up
    started from, with the rows it changed, or None after a build, so that
    a kept query run reading the node from that relation takes those rows
    (``_FourEngine._forward``)."""

    __slots__ = ("node", "ext", "evars", "relevant", "iris", "slices", "schema", "extend",
                 "since", "came")

    def carry(self, child: FourGraph, t: StarTriple, old, new) -> "_BeliefBase | None":
        """The base over ``child``, this one's graph with t set from ``old``
        to ``new`` (``FourGraph.derived``'s carry): this base when no stance
        changed; else a copy over child's extraction, carried before it as
        built before it, whose ``since`` adds t's holder.  None, to build
        it again on first use, when the ground atoms' believers move, which
        changes the fresh extraction and so every key; and when child's
        universe may not be ``universe`` (``same_universe``), as an
        evaluation keyed by another universe would not find the base."""
        if not self.same_universe(child, t, new):
            return None
        ext = belief_mod.extraction(child, self.node.expr, self.vocab)
        if ext is self.ext:
            return self
        if not ext.same_ground(self.ext):
            return None
        out = copy.copy(self)
        out.ext = ext
        if self.evars:
            out.since = self.since | {t.subject}
        return out


class _QueryBase(_KeptRun):
    """A query's evaluation over a graph, kept under the vocabulary, the
    mode and the query's value (``_value``), so that the query of another
    parse finds it.  The run is the query's, over the graph it was made
    on or last caught up to; ``widest`` is its widest node scope, from
    which with |U| an evaluation checks its cap again.  A first run keeps
    only its relation ``r0`` and ``reads``, its ``done`` None: a graph
    that is never updated reads nothing else.  Once an update reaches it,
    the query runs again and keeps its run, which each later catch-up
    moves forward (``_FourEngine._forward``).  ``changed`` holds each
    triple that updates since set to another value than the run's graph
    had, as (that value, the value here); ``relation`` is the query's
    relation here, or None until an evaluation runs or catches it up."""

    __slots__ = ("query", "widest", "changed")

    def carry(self, child: FourGraph, t: StarTriple, old, new) -> "_QueryBase | None":
        """The base over ``child``, this one's graph with t set from ``old``
        to ``new`` (``FourGraph.derived``'s carry): None, to build it again
        on first use, when child's universe may not be ``universe``
        (``same_universe``); this base when the run reads no t; else a copy
        to run again if the run is not kept, or whose ``changed`` adds t,
        or drops it when t is back at its value in the run's graph."""
        if not self.same_universe(child, t, new):
            return None
        if self.reads is None:  # made on the first update, from the query
            self.reads = _FourEngine(self.vocab, self.universe)._reads(
                _postorder(self.query, bodies=False))
            self.query = None
        if not self.reads(t):
            return self
        out = copy.copy(self)
        out.changed = dict(self.changed)
        was = out.changed.pop(t, (old,))[0]
        if new != was:
            out.changed[t] = (was, new)
        out.relation = None if out.changed else self.r0
        return out

    def answer(self, q: Query, g: FourGraph, cap: int) -> Relation:
        """q's relation over g, this base's graph, refused as a fresh
        evaluation with ``cap`` would refuse it up front (``_universe``);
        run again, keeping its run, or caught up, if updates have left it
        behind."""
        if self.universe is not None:
            _check_cap(len(self.universe), self.widest, cap)
        if self.relation is None:
            engine = _FourEngine(self.vocab, self.universe)
            if self.done is None:
                engine._kept(self, q, g)
            else:
                engine._forward(self, g)
            self.relation, self.changed = self.r0, {}
        return self.relation


def _check_cap(size: int, widest: int, cap: int) -> None:
    if size ** widest > cap:
        raise UniverseTooLarge(f"|universe| ** |vars| = {size}**{widest} exceeds cap {cap}")


def _universe(q: Query, g: FourGraph, mode: EvalMode, cap: int,
              widest: int) -> frozenset[Term] | None:
    """The active-domain universe of q over g, or None in open mode.
    Refuses up front when the widest sub-result, of ``widest`` variables,
    could exceed the enumeration cap."""
    if mode is EvalMode.OPEN:
        return None
    universe = active_domain(g, query_constants(q))
    _check_cap(len(universe), widest, cap)
    return universe


def _build_query_base(q: Query, g: FourGraph, vocab: BeliefVocabulary, mode: EvalMode,
                      cap: int) -> _QueryBase:
    """q's base over g (see ``_QueryBase``): scopes checked, the universe
    fixed and q run, each once, its run not kept and its reader test left
    to the first update; a refusal keeps no base."""
    b = _QueryBase()
    b.query, b.widest, b.changed = q, _scope(q, {})[1], {}
    engine = _FourEngine(vocab, _universe(q, g, mode, cap, b.widest))
    b.relation = b.r0 = engine.run(q, g)
    b.vocab, b.universe, b.done, b.steps, b.reads = vocab, engine.universe, None, None, None
    return b


def evaluate(
    q: Query,
    g: FourGraph,
    *,
    vocab: BeliefVocabulary = DEFAULT_VOCABULARY,
    mode: EvalMode = EvalMode.ACTIVE_DOMAIN,
    cap: int = DEFAULT_CAP,
) -> Relation:
    """Evaluate a four-valued query.

    Validates scoping first (IllFormedQuery).  In active-domain mode the
    universe is fixed once from the graph and the query's constant terms;
    open mode may raise NonFinitelySupported.  The answer is kept on g,
    and the run too once an update reaches it (``_QueryBase``): an equal
    query over g, or over a graph that ``set_value`` made from g, answers
    from them, caught up to the triples the updates changed.  The relation
    returned is shared with g and with later evaluations, and must not be
    changed.
    """
    b = g.derived(("query", vocab, mode, _value(q)),
                  functools.partial(_build_query_base, q, g, vocab, mode, cap), _QueryBase.carry)
    return b.answer(q, g, cap)


def evaluate_k(
    q: Query,
    g: FourGraph,
    s: Semiring,
    *,
    mode: EvalMode = EvalMode.ACTIVE_DOMAIN,
    cap: int = DEFAULT_CAP,
) -> Relation:
    """Evaluate the plain fragment over an arbitrary commutative semiring.

    Join/union/filter/projection operator slots are ignored; the semiring's
    multiply and add take their place (filters multiply by one or zero, so
    a failed condition annihilates).  Graph annotations must live in the
    semiring's carrier.  Open-mode projection needs a zero or idempotent
    default, else NonFinitelySupported.  Nothing is kept on g: change steps
    read a row at its input's default as absent, which holds only where
    every default is idempotent, as in the four-valued operators, so each
    call runs q whole.
    """
    widest = _scope(q, {}, plain=True)[1]
    return _FourEngine(DEFAULT_VOCABULARY, _universe(q, g, mode, cap, widest), s).run(q, g)
