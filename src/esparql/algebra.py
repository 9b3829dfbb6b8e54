"""Query algebra and evaluation.

A relation annotates every total mapping (from its variables into terms)
with a state, finitely represented as a default plus exceptions, mirroring
the graph representation.  Two evaluation modes share one recursive
evaluator:

* active-domain: mappings range over the finite set of terms occurring in
  the graph and the query, fixed once at the top level (nested belief
  contexts reuse it);
* open: mappings range over the infinite term universe; results are exact
  or the evaluator refuses with NonFinitelySupported when no finite
  default+exception table exists.

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

import enum
import functools
import itertools
from dataclasses import dataclass
from operator import attrgetter
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
    active_domain,
    pattern_is_ground,
    pattern_to_term,
    pattern_variables,
    term_text,
)

DEFAULT_CAP = 10**6


# ---------------------------------------------------------------------------
# Mappings and relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mapping:
    """A total assignment of terms to a finite set of variables.

    Stored as a name-sorted tuple so equal assignments hash equally.
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

    def merge(self, other: "Mapping") -> "Mapping | None":
        """Union of compatible mappings, None on any disagreement."""
        combined = dict(self.bindings)
        for v, t in other.bindings:
            seen = combined.get(v)
            if seen is None:
                combined[v] = t
            elif seen != t:
                return None
        return Mapping.of(combined)

    def extend(self, extra: dict[Variable, Term]) -> "Mapping":
        combined = dict(self.bindings)
        combined.update(extra)
        return Mapping.of(combined)

    def sort_key(self) -> tuple[str, ...]:
        return tuple(term_text(t) for _, t in self.bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}={term_text(t)}" for v, t in self.bindings)
        return f"{{{inner}}}"


def mappings_over(vars: Iterable[Variable], universe: Iterable[Term]) -> Iterator[Mapping]:
    """Every total mapping from vars into universe, in deterministic order."""
    vs = sorted(set(vars), key=lambda v: v.name)
    uni = sorted(set(universe), key=term_text)
    for combo in itertools.product(uni, repeat=len(vs)):
        yield Mapping(tuple(zip(vs, combo)))


class Relation:
    """Total annotation of all mappings over ``vars``: default + exceptions.

    ``universe`` is the active-domain term set, or None in open mode.
    Canonical form: no exception carries the default value and every
    exception's domain is exactly ``vars``.  No code mutates a relation
    after construction, so operators may return an input unchanged and
    the engine's memo may hand one relation to several nodes.
    """

    __slots__ = ("vars", "default", "exceptions", "universe")

    def __init__(self, vars: frozenset[Variable], default,
                 exceptions: dict[Mapping, Any] | None = None,
                 universe: frozenset[Term] | None = None):
        self.vars = frozenset(vars)
        self.default = default
        self.universe = universe
        exc = {}
        if exceptions:
            order = sorted(self.vars, key=lambda v: v.name)
            for m, v in exceptions.items():
                if [b[0] for b in m.bindings] != order:
                    raise ValueError(f"exception domain {set(m.domain)} != vars {set(self.vars)}")
                if v != default:
                    exc[m] = v
        self.exceptions = exc

    def value_at(self, m: Mapping):
        return self.exceptions.get(m, self.default)

    def rows(self) -> Iterator[tuple[Mapping, Any]]:
        """Exception rows in deterministic order (does not include the default)."""
        for m in sorted(self.exceptions, key=Mapping.sort_key):
            yield m, self.exceptions[m]

    def all_rows(self) -> Iterator[tuple[Mapping, Any]]:
        """Every mapping over the universe with its value; active-domain only."""
        if self.universe is None:
            raise ValueError("open relation has no finite row set")
        for m in mappings_over(self.vars, self.universe):
            yield m, self.value_at(m)

    def same_function(self, other: "Relation") -> bool:
        """Equality as total functions, tolerant of default choice when every
        mapping happens to be listed as an exception."""
        if self.vars != other.vars or self.universe != other.universe:
            return False
        for m in self.exceptions.keys() | other.exceptions.keys():
            if self.value_at(m) != other.value_at(m):
                return False
        if self.default == other.default:
            return True
        if self.universe is None:
            return False
        total = len(self.universe) ** len(self.vars)
        covered = len(self.exceptions.keys() | other.exceptions.keys())
        return covered >= total

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.default == other.default
            and self.exceptions == other.exceptions
            and self.universe == other.universe
        )

    __hash__ = None

    def __repr__(self) -> str:
        rows = ", ".join(f"{m!r}: {v!r}" for m, v in self.rows())
        names = " ".join(sorted(v.name for v in self.vars))
        return f"Relation([{names}] default={self.default!r} {{{rows}}})"


# ---------------------------------------------------------------------------
# Filter formulas (three-valued: a condition can error out on unbound input)
# ---------------------------------------------------------------------------


class ThreeValued(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    ERROR = "error"


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


@dataclass(frozen=True)
class Not:
    inner: "FilterFormula"


@dataclass(frozen=True)
class And:
    left: "FilterFormula"
    right: "FilterFormula"


@dataclass(frozen=True)
class Or:
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
    T, F, E = ThreeValued.TRUE, ThreeValued.FALSE, ThreeValued.ERROR
    if isinstance(f, Eq):
        sides = []
        for side in (f.left, f.right):
            val = get(side) if isinstance(side, Variable) else side
            if val is None:
                return E
            sides.append(val)
        return T if sides[0] == sides[1] else F
    if isinstance(f, Bound):
        return T if get(f.var) is not None else F
    if isinstance(f, StateIs):
        return T if state == f.state else F
    if isinstance(f, Not):
        inner = _formula_value(f.inner, get, state)
        return {T: F, F: T, E: E}[inner]
    if isinstance(f, And):
        a = _formula_value(f.left, get, state)
        b = _formula_value(f.right, get, state)
        if F in (a, b):
            return F
        if E in (a, b):
            return E
        return T
    if isinstance(f, Or):
        a = _formula_value(f.left, get, state)
        b = _formula_value(f.right, get, state)
        if T in (a, b):
            return T
        if E in (a, b):
            return E
        return F
    raise TypeError(f"not a filter formula: {f!r}")


def eval_formula(f: FilterFormula, m: Mapping, r: Relation) -> ThreeValued:
    return _formula_value(f, m.get, r.value_at(m))


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


Query = Pattern | Join | Union | Filter | Project | MapState | Belief


def _scope(q: Query, table: dict[int, frozenset[Variable]],
           plain: bool = False) -> frozenset[Variable]:
    """q's in-scope variables; each node's scope is also stored in ``table``
    under its id.  Raises IllFormedQuery on any scoping-rule violation
    (join/union operator family, union scope mismatch, projection of an
    out-of-scope variable, belief variable shadowing) and, when ``plain``,
    on any node or state test outside the plain-annotated fragment."""
    if plain:
        if isinstance(q, (MapState, Belief)):
            raise IllFormedQuery(f"{type(q).__name__} is outside the plain-annotated fragment")
        if isinstance(q, Filter) and any(isinstance(a, StateIs) for a in _atoms(q.formula)):
            raise IllFormedQuery("state tests have no meaning over a generic semiring")
    if isinstance(q, Pattern):
        w = pattern_variables(q.pattern)
    elif isinstance(q, Join):
        if q.op not in MEET_OPERATORS:
            raise IllFormedQuery(f"join must use a meet operator, got {q.op.value}")
        w = _scope(q.left, table, plain) | _scope(q.right, table, plain)
    elif isinstance(q, Union):
        if q.op not in JOIN_OPERATORS:
            raise IllFormedQuery(f"union must use a join operator, got {q.op.value}")
        w, right = _scope(q.left, table, plain), _scope(q.right, table, plain)
        if w != right:
            ln = sorted(v.name for v in w)
            rn = sorted(v.name for v in right)
            raise IllFormedQuery(f"union branches bind different variables: {ln} vs {rn}")
    elif isinstance(q, (Filter, MapState)):
        w = _scope(q.query, table, plain)
    elif isinstance(q, Project):
        inner = _scope(q.query, table, plain)
        if not q.vars <= inner:
            missing = sorted(v.name for v in q.vars - inner)
            raise IllFormedQuery(f"projection of out-of-scope variable(s): {missing}")
        w = frozenset(q.vars)
    elif isinstance(q, Belief):
        inner = _scope(q.query, table)
        evars = belief_mod.belief_variables(q.expr)
        shadowed = inner & evars
        if shadowed:
            names = sorted(v.name for v in shadowed)
            raise IllFormedQuery(f"belief variable(s) shadow body scope: {names}")
        w = inner | evars
    else:
        raise TypeError(f"not a query: {q!r}")
    table[id(q)] = w
    return w


def _scopes(q: Query, plain: bool = False) -> dict[int, frozenset[Variable]]:
    """Every node's in-scope variables, keyed by node id, in one pass."""
    table: dict[int, frozenset[Variable]] = {}
    _scope(q, table, plain)
    return table


def in_scope(q: Query) -> frozenset[Variable]:
    """Variables a query binds.  Raises IllFormedQuery on any scoping-rule
    violation anywhere in q."""
    return _scope(q, {})


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


def _belief_holders(e: belief_mod.BeliefQuery, acc: set[Term]) -> None:
    if isinstance(e, belief_mod.AtomicBelief):
        if isinstance(e.holder, Iri):
            acc.add(e.holder)
        return
    _belief_holders(e.left, acc)
    _belief_holders(e.right, acc)


def query_constants(q: Query) -> frozenset[Term]:
    """Ground terms the query mentions; they join the active domain."""
    acc: set[Term] = set()

    def walk(node: Query) -> None:
        if isinstance(node, Pattern):
            _pattern_constant_terms(node.pattern, acc)
        elif isinstance(node, (Join, Union)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Filter):
            acc.update(formula_constants(node.formula))
            walk(node.query)
        elif isinstance(node, Project):
            walk(node.query)
        elif isinstance(node, MapState):
            acc.update(formula_constants(node.formula))
            walk(node.query)
        elif isinstance(node, Belief):
            _belief_holders(node.expr, acc)
            walk(node.query)
        else:
            raise TypeError(f"not a query: {node!r}")

    walk(q)
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


def _class_members(rep: dict[Variable, Any], vars: frozenset[Variable],
                   pool: list[Term], universe_list: list[Term]) -> Iterator[Mapping]:
    """Every mapping over ``vars`` in the class of ``rep``: generic blocks
    take distinct terms of ``pool``, the other variables any universe term."""
    names = sorted(vars, key=lambda v: v.name)
    blocks = sorted({t for t in rep.values() if isinstance(t, _Generic)}, key=lambda g: g.index)
    free = [v for v in names if v not in rep]
    for picks in itertools.permutations(pool, len(blocks)):
        term = dict(zip(blocks, picks))
        binding = {v: term.get(t, t) for v, t in rep.items()}
        for combo in itertools.product(universe_list, repeat=len(free)):
            binding.update(zip(free, combo))
            yield Mapping(tuple((v, binding[v]) for v in names))


# ---------------------------------------------------------------------------
# Combinators, each parameterised by the node's operator
# ---------------------------------------------------------------------------


def _combine_join(
    r1: Relation,
    r2: Relation,
    op2: Callable[[Any, Any], Any],
    mode: EvalMode,
    universe_list: list[Term] | None,
) -> Relation:
    w1, w2 = r1.vars, r2.vars
    d = op2(r1.default, r2.default)
    exceptions: dict[Mapping, Any] = {}
    # one side's exception against the other side's default, over every
    # extension to the variables only the other side binds
    for left, right, extra in ((r1, r2, w2 - w1), (r2, r1, w1 - w2)):
        if left is r1:
            hot = [(m, x) for m, v in left.exceptions.items() if (x := op2(v, right.default)) != d]
        else:
            hot = [(m, x) for m, v in left.exceptions.items() if (x := op2(right.default, v)) != d]
        if not extra:
            exceptions.update(hot)
            continue
        if hot and mode is EvalMode.OPEN:
            raise NonFinitelySupported(
                "join of relations with disjoint variables whose defaults do not absorb"
            )
        extra_sorted = sorted(extra, key=lambda v: v.name)
        for m, x in hot:
            for combo in itertools.product(universe_list, repeat=len(extra_sorted)):
                exceptions[m.extend(dict(zip(extra_sorted, combo)))] = x
    # pairs of exceptions that agree on the shared variables, hashed on them
    shared = w1 & w2
    at1 = [i for i, v in enumerate(sorted(w1, key=lambda v: v.name)) if v in shared]
    at2 = [i for i, v in enumerate(sorted(w2, key=lambda v: v.name)) if v in shared]
    index: dict[tuple, list] = {}
    for m2, v2 in r2.exceptions.items():
        index.setdefault(tuple(m2.bindings[i][1] for i in at2), []).append((m2, v2))
    for m1, v1 in r1.exceptions.items():
        for m2, v2 in index.get(tuple(m1.bindings[i][1] for i in at1), ()):
            m, x = m1.merge(m2), op2(v1, v2)
            if x != d:
                exceptions[m] = x
            else:
                exceptions.pop(m, None)
    universe = frozenset(universe_list) if universe_list is not None else None
    return Relation(w1 | w2, d, exceptions, universe)


def _combine_union(r1: Relation, r2: Relation, op2: Callable[[Any, Any], Any]) -> Relation:
    d = op2(r1.default, r2.default)
    exceptions: dict[Mapping, Any] = {}
    for m in r1.exceptions.keys() | r2.exceptions.keys():
        v = op2(r1.value_at(m), r2.value_at(m))
        if v != d:
            exceptions[m] = v
    return Relation(r1.vars, d, exceptions, r1.universe)


def _transform_by_formula(
    r: Relation,
    f: FilterFormula,
    value_for: Callable[[ThreeValued, Any], Any],
    mode: EvalMode,
    universe_list: list[Term] | None,
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
    open_mode = mode is EvalMode.OPEN
    constants = formula_constants(f)
    pool = [] if open_mode else [t for t in universe_list if t not in constants]
    exceptions: dict[Mapping, Any] = {}
    for rep, outcome in _equality_classes(f, w, r.default, None if open_mode else len(pool)):
        value = value_for(outcome, r.default)
        if value == default:
            continue
        if open_mode and (len(rep) < len(w) or any(isinstance(t, _Generic) for t in rep.values())):
            raise NonFinitelySupported(
                "formula distinguishes infinitely many off-support mappings"
            )
        for m in _class_members(rep, w, pool, universe_list or []):
            exceptions[m] = value
    for m, v in r.exceptions.items():
        nv = value_for(_formula_value(f, m.get, v), v)
        if nv != default:
            exceptions[m] = nv
        else:
            exceptions.pop(m, None)
    return Relation(w, default, exceptions, r.universe)


def _project_four(
    r: Relation,
    keep: frozenset[Variable],
    add: Callable[[Any, Any], Any],
    zero: Any,
    mode: EvalMode,
    universe_list: list[Term] | None,
) -> Relation:
    """Sum r over the variables outside ``keep`` with ``add``, whose identity
    is ``zero``.

    Each group of exceptions that agree on ``keep`` adds up its values plus
    r's default once for each missing extension.  A default ``d`` with
    ``add(d, d) == d`` stands for any positive number of copies, which is
    exact in every semiring; any other default is added copy by copy, so
    open mode, with infinitely many extensions, refuses it.
    """
    dropped = r.vars - keep
    if not dropped:
        return r
    d = r.default
    idempotent = add(d, d) == d
    if mode is EvalMode.OPEN and not idempotent:
        raise NonFinitelySupported(
            "projection over an infinite domain needs a zero or idempotent default"
        )
    total = None if mode is EvalMode.OPEN else len(universe_list) ** len(dropped)

    def copies(n: int | None):
        """d added n times; None stands for infinitely many."""
        if idempotent:
            return zero if n == 0 else d
        return functools.reduce(add, itertools.repeat(d, n), zero)

    groups: dict[Mapping, list] = {}
    for m, v in r.exceptions.items():
        groups.setdefault(m.restrict(keep), []).append(v)
    default = copies(total)
    exceptions: dict[Mapping, Any] = {}
    for m, vals in groups.items():
        acc = functools.reduce(add, vals, copies(None if total is None else total - len(vals)))
        if acc != default:
            exceptions[m] = acc
    return Relation(keep, default, exceptions, r.universe)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _pattern_matcher(p: TriplePattern) -> Callable[[StarTriple], tuple | None]:
    """Compile p into positional tests on a triple and extractors.

    The matcher gives the name-sorted bindings of p's variables that a
    matching triple makes (a ``Mapping``'s tuple), or None.  Tests run in
    pre-order, so a quoted position is known to hold a triple before any
    test looks inside it; a repeated variable must equal its first position.
    """
    tests: list[Callable[[StarTriple], bool]] = []
    first: dict[Variable, Callable[[StarTriple], Term]] = {}

    def walk(node: TriplePattern, path: str) -> None:
        for part in ("subject", "predicate", "object"):
            sub, get = getattr(node, part), attrgetter(path + part)
            if isinstance(sub, Variable):
                seen = first.setdefault(sub, get)
                if seen is not get:
                    tests.append(lambda t, a=seen, b=get: a(t) == b(t))
            elif isinstance(sub, Iri):
                tests.append(lambda t, get=get, c=sub: get(t) == c)
            else:
                tests.append(lambda t, get=get: type(get(t)) is StarTriple)
                walk(sub, path + part + ".")

    walk(p, "")
    names = sorted(first, key=lambda v: v.name)
    extractors = [first[v] for v in names]

    def matcher(t: StarTriple) -> tuple | None:
        for test in tests:
            if not test(t):
                return None
        return tuple(zip(names, [get(t) for get in extractors]))

    return matcher


def _eval_pattern(p: TriplePattern, g: FourGraph, universe: frozenset[Term] | None) -> Relation:
    """Scan the graph's predicate bucket when p's predicate is an IRI, its
    subject bucket when p's subject is ground, else every exception."""
    if isinstance(p.predicate, Iri):
        candidates = g.bucket("predicate", p.predicate)
    elif pattern_is_ground(p.subject):
        candidates = g.bucket("subject", pattern_to_term(p.subject))
    else:
        candidates = g.exceptions
    matcher = _pattern_matcher(p)
    exceptions = {Mapping(bindings): g.exceptions[t]
                  for t in candidates if (bindings := matcher(t)) is not None}
    return Relation(pattern_variables(p), g.default, exceptions, universe)


class _FourEngine:
    """One evaluation, four-valued or, given a semiring, over its carrier.

    Memos are keyed on graph identity, and each memo value keeps its graph
    alive so the id cannot be reused meanwhile."""

    def __init__(self, vocab: BeliefVocabulary, mode: EvalMode, universe: frozenset[Term] | None,
                 universe_list: list[Term] | None, scopes: dict[int, frozenset[Variable]],
                 semiring: Semiring | None = None):
        self.vocab = vocab
        self.mode = mode
        self.universe = universe
        self.universe_list = universe_list
        self.scopes = scopes
        self.semiring = semiring
        self._indexes: dict = {}
        self._extract_cache: dict = {}
        self._eval_cache: dict = {}

    # -- helpers -----------------------------------------------------------

    def _ops(self, op: FourOperator, additive: bool) -> tuple:
        """A node's (operator, identity, absorbing element): its own
        FourOperator's, or the semiring's add (Union, Project) or multiply
        (Join, Filter) in its place.  ``apply`` is looked up at each call,
        so a replaced module global reaches the engine."""
        s = self.semiring
        if s is None:
            return (lambda a, b: apply(op, a, b)), identity_of(op), absorbing_of(op)
        return (s.add, s.zero, None) if additive else (s.multiply, s.one, s.zero)

    def _index(self, g: FourGraph) -> dict:
        hit = self._indexes.get(id(g))
        if hit is None:
            hit = self._indexes[id(g)] = (g, belief_mod.holder_index(g, self.vocab))
        return hit[1]

    def _extract(self, g: FourGraph, e: belief_mod.BeliefQuery) -> FourGraph:
        key = (id(g), e)
        hit = self._extract_cache.get(key)
        if hit is None:
            extracted = belief_mod.extract(g, e, self.vocab, self._index(g))
            hit = self._extract_cache[key] = (g, extracted)
        return hit[1]

    def eval(self, q: Query, g: FourGraph) -> Relation:
        key = (id(q), id(g))
        hit = self._eval_cache.get(key)
        if hit is None:
            hit = self._eval_cache[key] = (g, self._eval(q, g))
        return hit[1]

    # -- node cases ---------------------------------------------------------

    def _eval(self, q: Query, g: FourGraph) -> Relation:
        if isinstance(q, Pattern):
            return _eval_pattern(q.pattern, g, self.universe)
        if isinstance(q, Join):
            multiply = self._ops(q.op, False)[0]
            return _combine_join(self.eval(q.left, g), self.eval(q.right, g), multiply,
                                 self.mode, self.universe_list)
        if isinstance(q, Union):
            add = self._ops(q.op, True)[0]
            return _combine_union(self.eval(q.left, g), self.eval(q.right, g), add)
        if isinstance(q, Filter):
            multiply, one, zero = self._ops(q.op, False)

            def value_for(outcome: ThreeValued, v):
                return multiply(v, one if outcome is ThreeValued.TRUE else zero)

            return _transform_by_formula(self.eval(q.query, g), q.formula, value_for,
                                         self.mode, self.universe_list)
        if isinstance(q, MapState):
            r1 = self.eval(q.query, g)

            def value_for(outcome: ThreeValued, v):
                return q.then_state if outcome is ThreeValued.TRUE else q.else_state

            return _transform_by_formula(r1, q.formula, value_for, self.mode, self.universe_list)
        if isinstance(q, Project):
            add, zero, _ = self._ops(q.op, True)
            return _project_four(self.eval(q.query, g), frozenset(q.vars), add, zero,
                                 self.mode, self.universe_list)
        if isinstance(q, Belief):
            return self._eval_belief(q, g)
        raise TypeError(f"not a query: {q!r}")

    def _eval_belief(self, q: Belief, g: FourGraph) -> Relation:
        evars = belief_mod.belief_variables(q.expr)
        if not evars:
            return self.eval(q.query, self._extract(g, q.expr))

        evars_sorted = sorted(evars, key=lambda v: v.name)
        w1 = self.scopes[id(q.query)]
        open_mode = self.mode is EvalMode.OPEN
        taken = {h for h, _ in self._index(g)}
        fresh = next(i for i in (Iri(f"urn:esparql:fresh{n}") for n in itertools.count())
                     if i not in taken)

        def slice_at(key: tuple[Iri, ...]) -> Relation:
            inst = belief_mod.instantiate(q.expr, dict(zip(evars_sorted, key)))
            return self.eval(q.query, self._extract(g, inst))

        r0 = slice_at((fresh,) * len(evars))
        # a key position is a holder; or fresh, standing for every IRI without
        # belief statements (they all extract alike), infinitely many in open
        # mode; or, over the active domain, None, standing for the quoted
        # triples, whose slices are constantly unknown
        stands_for: dict[Iri | None, list[Term]]
        if open_mode:
            if r0.exceptions or r0.default != UNKNOWN:
                raise NonFinitelySupported(
                    "belief over a quantified holder is not constantly unknown off-support"
                )
            stands_for = {fresh: []}
        else:
            stands_for = {
                fresh: [t for t in self.universe_list if isinstance(t, Iri) and t not in taken],
                None: [t for t in self.universe_list if not isinstance(t, Iri)],
            }
        default = r0.default
        unknown = Relation(w1, UNKNOWN, None, self.universe)
        exceptions: dict[Mapping, Any] = {}
        keys = sorted(taken, key=lambda i: i.text) + list(stands_for)
        for key in itertools.product(keys, repeat=len(evars)):
            rel = unknown if None in key else slice_at(key)
            if rel.default == default and not rel.exceptions:
                continue
            if open_mode and fresh in key:
                raise NonFinitelySupported(
                    "belief naming a holder and a quantified non-holder is not constantly unknown"
                )
            if rel.default == default:
                rows = list(rel.exceptions.items())
            elif open_mode and w1:
                raise NonFinitelySupported(
                    "belief slice disagrees with the default on infinitely many mappings"
                )
            else:
                rows = [(m1, rel.value_at(m1))
                        for m1 in mappings_over(w1, self.universe_list or ())]
            for combo in itertools.product(*(stands_for.get(t, (t,)) for t in key)):
                binding = dict(zip(evars_sorted, combo))
                for m1, v in rows:
                    if v != default:
                        exceptions[m1.extend(binding)] = v
        return Relation(w1 | evars, default, exceptions, self.universe)


def _scope_guard(q: Query, universe: frozenset[Term], cap: int,
                 scopes: dict[int, frozenset[Variable]]) -> None:
    """Refuse up front when any sub-result could exceed the enumeration cap."""
    size = len(universe)

    def walk(node: Query) -> None:
        w = len(scopes[id(node)])
        if size ** w > cap:
            raise UniverseTooLarge(
                f"|universe| ** |vars| = {size}**{w} exceeds cap {cap}"
            )
        if isinstance(node, (Join, Union)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Filter, Project, MapState, Belief)):
            walk(node.query)

    walk(q)


def _universe(q: Query, g: FourGraph, mode: EvalMode, cap: int,
              scopes: dict[int, frozenset[Variable]]) -> tuple:
    """The active-domain universe of q over g and its ``term_text``-sorted
    list (the graph's cached one when q adds no term), or (None, None) in
    open mode."""
    if mode is EvalMode.OPEN:
        return None, None
    universe = active_domain(g, query_constants(q))
    _scope_guard(q, universe, cap, scopes)
    domain, ordered = g.domain()
    return universe, ordered if universe is domain else sorted(universe, key=term_text)


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
    open mode may raise NonFinitelySupported.
    """
    scopes = _scopes(q)
    return _FourEngine(vocab, mode, *_universe(q, g, mode, cap, scopes), scopes).eval(q, g)


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
    default, else NonFinitelySupported.
    """
    scopes = _scopes(q, plain=True)
    universe, universe_list = _universe(q, g, mode, cap, scopes)
    return _FourEngine(DEFAULT_VOCABULARY, mode, universe, universe_list, scopes, s).eval(q, g)
