"""Seeded random graphs and queries for differential testing.

Everything here is driven by an explicit ``random.Random`` so a seed fully
determines the output.  Collections are sorted before sampling; iteration
order of hash-based containers must never leak into generated cases.
"""

from __future__ import annotations

import random
from typing import Optional

from .belief import AtomicBelief, BeliefQuery, CompoundBelief, all_states_shorthand
from .four import (
    STATES,
    FourOperator,
    FourValue,
    JOIN_OPERATORS,
    MEET_OPERATORS,
)
from .model import (
    DEFAULT_BASE_IRI,
    DEFAULT_VOCABULARY,
    BeliefVocabulary,
    FourGraph,
    Iri,
    StarTriple,
    TriplePattern,
    Variable,
    term_to_pattern,
)
from .algebra import (
    And,
    Belief,
    Bound,
    Eq,
    Filter,
    FilterFormula,
    Join,
    MapState,
    Not,
    Or,
    Pattern,
    Project,
    Query,
    StateIs,
    Union,
    in_scope,
)

VARS = (Variable("x"), Variable("y"), Variable("z"))

ALL_OPERATORS = tuple(FourOperator)


def iri_pool() -> list[Iri]:
    return [Iri(f"{DEFAULT_BASE_IRI}n{i}") for i in range(6)]


def _sorted_vars(scope) -> list[Variable]:
    return sorted(scope, key=lambda v: v.name)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def _random_ground_term(rng: random.Random, pool: list[Iri], depth: int):
    if depth > 0 and rng.random() < 0.3:
        return _random_ground_triple(rng, pool, depth - 1)
    return rng.choice(pool)


def _random_ground_triple(rng: random.Random, pool: list[Iri], depth: int) -> StarTriple:
    return StarTriple(
        _random_ground_term(rng, pool, depth),
        rng.choice(pool),
        _random_ground_term(rng, pool, depth),
    )


def random_graph(
    rng: random.Random,
    pool: Optional[list[Iri]] = None,
    *,
    max_exceptions: int = 12,
    vocab: BeliefVocabulary = DEFAULT_VOCABULARY,
) -> FourGraph:
    """Graph with a small active domain and a healthy share of belief triples.

    Defaults stay in {unknown, false} so belief extraction is always finite.
    """
    pool = pool or iri_pool()
    default = FourValue.FALSE if rng.random() < 0.3 else FourValue.UNKNOWN
    exceptions: dict[StarTriple, FourValue] = {}
    for _ in range(rng.randint(0, max_exceptions)):
        if rng.random() < 0.5:
            # belief statement: holder says something about a quoted triple
            t = StarTriple(
                rng.choice(pool),
                vocab.predicate_for(rng.choice(STATES)),
                _random_ground_triple(rng, pool, 1),
            )
        else:
            t = _random_ground_triple(rng, pool, 1)
        exceptions[t] = rng.choice(STATES)
    return FourGraph(default, exceptions)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def random_pattern(
    rng: random.Random,
    pool: list[Iri],
    scope,
    *,
    vocab: BeliefVocabulary = DEFAULT_VOCABULARY,
) -> TriplePattern:
    """Triple pattern whose variable set is exactly ``scope`` (at most 3)."""
    want = _sorted_vars(scope)
    if len(want) > 3:
        raise ValueError("a single pattern can place at most 3 variables")
    rng.shuffle(want)
    slots: dict[str, object] = {}
    for slot, v in zip(rng.sample(("s", "p", "o"), k=len(want)), want):
        slots[slot] = v

    def fill(slot: str):
        held = slots.get(slot)
        if held is not None:
            if slot != "p" and rng.random() < 0.25:
                # tuck the variable inside a quoted pattern
                return TriplePattern(held, rng.choice(pool), rng.choice(pool))
            return held
        if slot == "p":
            if rng.random() < 0.3:
                return vocab.predicate_for(rng.choice(STATES))
            return rng.choice(pool)
        return term_to_pattern(_random_ground_term(rng, pool, 1))

    return TriplePattern(fill("s"), fill("p"), fill("o"))


# ---------------------------------------------------------------------------
# Filter formulas
# ---------------------------------------------------------------------------


def random_formula(
    rng: random.Random,
    pool: list[Iri],
    scope,
    *,
    depth: int = 2,
    allow_state: bool = True,
) -> FilterFormula:
    if depth > 0 and rng.random() < 0.4:
        kind = rng.choice(("not", "and", "or"))
        if kind == "not":
            return Not(random_formula(rng, pool, scope, depth=depth - 1, allow_state=allow_state))
        left = random_formula(rng, pool, scope, depth=depth - 1, allow_state=allow_state)
        right = random_formula(rng, pool, scope, depth=depth - 1, allow_state=allow_state)
        return And(left, right) if kind == "and" else Or(left, right)
    atoms = ["bound", "eq-const"]
    if allow_state:
        atoms.append("state")
    in_vars = _sorted_vars(scope)
    if len(in_vars) >= 2:
        atoms.append("eq-var")
    kind = rng.choice(atoms)
    if kind == "state":
        return StateIs(rng.choice(STATES))
    if kind == "bound":
        return Bound(rng.choice(VARS))
    if kind == "eq-var":
        a, b = rng.sample(in_vars, 2)
        return Eq(a, b)
    v = rng.choice(in_vars) if in_vars else rng.choice(VARS)
    return Eq(v, rng.choice(pool))


# ---------------------------------------------------------------------------
# Belief expressions
# ---------------------------------------------------------------------------


# Fallbacks stay non-truth-implying so a nested extraction never sees a
# true/conflicted default (which extract refuses as non-finite).
_FALLBACKS = (FourValue.FALSE, FourValue.UNKNOWN)


def random_belief_expr(rng: random.Random, pool: list[Iri], holder) -> BeliefQuery:
    kind = rng.choice(("atomic", "shorthand", "compound"))
    if kind == "atomic":
        return AtomicBelief(holder, rng.choice(STATES), rng.choice(_FALLBACKS))
    if kind == "shorthand":
        return all_states_shorthand(holder, rng.choice(JOIN_OPERATORS))
    # second holder stays ground (or repeats) so var(E) gains nothing new
    other = holder if rng.random() < 0.3 else rng.choice(pool)
    return CompoundBelief(
        AtomicBelief(holder, rng.choice(STATES), rng.choice(_FALLBACKS)),
        rng.choice(ALL_OPERATORS),
        AtomicBelief(other, rng.choice(STATES), rng.choice(_FALLBACKS)),
    )


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

_PLAIN_KINDS = ("join", "union", "filter", "project")
_NODE_KINDS = (*_PLAIN_KINDS, "map", "belief")


def _plain_node(rng: random.Random, pool: list[Iri], kind: str, target, child,
                filter_ops, allow_state: bool) -> Query:
    """A ``kind`` node (one of ``_PLAIN_KINDS``) with in-scope set ``target``;
    ``child(scope)`` builds each sub-query.  Shared by both query
    generators; the order of the draws is part of every seed's output."""
    if kind == "join":
        left, right = set(), set()
        for v in _sorted_vars(target):
            side = rng.randint(0, 2)
            if side in (0, 2):
                left.add(v)
            if side in (1, 2):
                right.add(v)
        return Join(rng.choice(MEET_OPERATORS), child(frozenset(left)), child(frozenset(right)))
    if kind == "union":
        return Union(rng.choice(JOIN_OPERATORS), child(target), child(target))
    if kind == "filter":
        return Filter(rng.choice(filter_ops), child(target),
                      random_formula(rng, pool, target, allow_state=allow_state))
    spare = [v for v in VARS if v not in target]
    wider = set(target)
    for v in spare:
        if len(wider) < 3 and rng.random() < 0.5:
            wider.add(v)
    return Project(rng.choice(ALL_OPERATORS), target, child(frozenset(wider)))


def _random_node(rng: random.Random, pool: list[Iri], vocab: BeliefVocabulary,
                 target, budget: int, var_holder_ok: bool) -> Query:
    """One node of ``random_query`` and its sub-queries.  A module-level
    function, not a closure that calls itself, so a query leaves nothing
    for the cyclic collector."""
    if budget <= 0 or rng.random() < 0.25:
        return Pattern(random_pattern(rng, pool, target, vocab=vocab))
    kind = rng.choice(_NODE_KINDS)
    if kind in _PLAIN_KINDS:
        return _plain_node(rng, pool, kind, target,
                           lambda t: _random_node(rng, pool, vocab, t, budget - 1, var_holder_ok),
                           ALL_OPERATORS, True)
    if kind == "map":
        return MapState(
            _random_node(rng, pool, vocab, target, budget - 1, var_holder_ok),
            random_formula(rng, pool, target),
            rng.choice(STATES),
            rng.choice(STATES),
        )
    # belief: the expression may consume one of the target variables;
    # at most one variable holder per ancestor chain, because every
    # nesting level multiplies the evaluation contexts by |universe|
    names = _sorted_vars(target)
    if names and var_holder_ok and rng.random() < 0.5:
        holder = rng.choice(names)
        inner = frozenset(v for v in target if v != holder)
        return Belief(
            random_belief_expr(rng, pool, holder),
            _random_node(rng, pool, vocab, inner, budget - 1, False),
        )
    holder = rng.choice(pool)
    return Belief(
        random_belief_expr(rng, pool, holder),
        _random_node(rng, pool, vocab, target, budget - 1, var_holder_ok),
    )


def random_query(rng: random.Random, *, vocab: BeliefVocabulary = DEFAULT_VOCABULARY) -> Query:
    """Query over every algebra operator, binding one to three variables."""
    scope = frozenset(rng.sample(VARS, rng.randint(1, 3)))
    q = _random_node(rng, iri_pool(), vocab, scope, 4, True)
    assert in_scope(q) == scope
    return q
