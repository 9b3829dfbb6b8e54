"""The dense brute-force oracle and differential comparison against it."""

import random

import pytest

from esparql import (
    FOUR_INFO,
    FOUR_TRUTH,
    MEET_OPERATORS,
    STATES,
    And,
    AtomicBelief,
    Belief,
    Bound,
    CompoundBelief,
    DenseRelation,
    Eq,
    Filter,
    FourGraph,
    FourOperator,
    FourValue,
    Iri,
    Join,
    MapState,
    Mapping,
    Not,
    Or,
    Pattern,
    Project,
    Relation,
    ShapeMismatch,
    StarTriple,
    StateIs,
    TriplePattern,
    Union,
    UniverseTooLarge,
    Variable,
    active_domain,
    all_states_shorthand,
    apply,
    diff,
    evaluate,
    evaluate_k,
    oracle_eval,
)
import esparql.algebra
from esparql.model import term_to_pattern
from esparql import randgen

from conftest import (
    A,
    ARIUS,
    CHRISTIAN,
    FULL_DEITY,
    JESUS_DEITY,
    POPE,
    VOCAB,
    example_graph,
)

F, T, U, C = (FourValue.FALSE, FourValue.TRUE,
              FourValue.UNKNOWN, FourValue.CONFLICTED)
OTIMES, OPLUS = FourOperator.INFO_MEET, FourOperator.INFO_JOIN
X, Y, S, P, O = (Variable(n) for n in ("x", "y", "s", "p", "o"))

IS_CHRISTIAN = Pattern(TriplePattern(X, A, CHRISTIAN))


def assert_agrees(q, g):
    assert diff(evaluate(q, g), oracle_eval(q, g)) == []


# ---------------------------------------------------------------------------
# DenseRelation and diff mechanics
# ---------------------------------------------------------------------------


def test_dense_relation_must_be_complete():
    uni = frozenset({POPE, ARIUS})
    rows = {Mapping.of({X: POPE}): T}
    with pytest.raises(ValueError):
        DenseRelation(frozenset({X}), uni, rows)
    rows[Mapping.of({X: ARIUS})] = U
    dense = DenseRelation(frozenset({X}), uni, rows)
    assert dense.value_at(Mapping.of({X: POPE})) == T


def test_diff_catches_shape_mismatches():
    uni = frozenset({POPE, ARIUS})
    dense = DenseRelation(frozenset({X}), uni,
                          {Mapping.of({X: POPE}): T, Mapping.of({X: ARIUS}): U})
    with pytest.raises(ShapeMismatch):
        diff(Relation(frozenset({Y}), U, universe=uni), dense)
    with pytest.raises(ShapeMismatch):
        diff(Relation(frozenset({X}), U, universe=frozenset({POPE})), dense)


def test_diff_reports_disagreements():
    uni = frozenset({POPE, ARIUS})
    dense = DenseRelation(frozenset({X}), uni,
                          {Mapping.of({X: POPE}): T, Mapping.of({X: ARIUS}): U})
    agreeing = Relation(frozenset({X}), U, {Mapping.of({X: POPE}): T}, universe=uni)
    assert diff(agreeing, dense) == []
    wrong = Relation(frozenset({X}), U, {Mapping.of({X: POPE}): C}, universe=uni)
    found = diff(wrong, dense)
    assert found == [(Mapping.of({X: POPE}), C, T)]


def test_oracle_cap():
    with pytest.raises(UniverseTooLarge):
        oracle_eval(Pattern(TriplePattern(S, P, O)), example_graph(), cap=100)


# ---------------------------------------------------------------------------
# Agreement on directed queries, including the ledgered edge cases
# ---------------------------------------------------------------------------


def test_oracle_agrees_on_running_example_queries(g1):
    deity = Variable("deity")
    assert_agrees(Pattern(TriplePattern(X, VOCAB.to_be_false,
                                        TriplePattern(Y, A, FULL_DEITY))), g1)
    u1 = Project(OPLUS, frozenset({deity}),
                 Belief(all_states_shorthand(POPE, OPLUS),
                        Pattern(TriplePattern(deity, A, FULL_DEITY))))
    assert_agrees(u1, g1)


def test_oracle_agrees_on_quoted_triple_predicate_rows(g1):
    # the universe contains quoted triples, so ?p ranges over them; both
    # sides must give such rows the context default
    assert_agrees(Pattern(TriplePattern(S, P, O)), g1)


def test_oracle_agrees_on_nested_double_quantified_belief():
    # two stacked variable holders; the random generator caps itself at one
    # per chain, so keep a handcrafted case alive here
    h1, h2, c = Iri("urn:h1"), Iri("urn:h2"), Iri("urn:c")
    base = StarTriple(h2, A, c)
    g = FourGraph(U, {
        StarTriple(h1, VOCAB.to_be_true, base): T,
        StarTriple(h2, VOCAB.to_be_false, base): C,
        base: T,
    })
    q = Belief(all_states_shorthand(X, OPLUS),
               Belief(all_states_shorthand(Y, OPLUS),
                      Pattern(term_to_pattern(base))))
    assert_agrees(q, g)
    r = evaluate(q, g)
    assert r.vars == {X, Y}


def test_oracle_agrees_on_mixed_query(g1):
    q = Project(
        OPLUS, frozenset({X}),
        Join(OTIMES,
             MapState(IS_CHRISTIAN, StateIs(T), C, U),
             Union(OPLUS,
                   Pattern(TriplePattern(X, VOCAB.to_be_false,
                                         term_to_pattern(JESUS_DEITY))),
                   IS_CHRISTIAN)))
    assert_agrees(q, g1)


# ---------------------------------------------------------------------------
# Fault injection: the differential harness must catch a wrong table
# ---------------------------------------------------------------------------


def _flipped_apply(op, a, b):
    if op == OPLUS and {a, b} == {T, F}:
        return T
    return apply(op, a, b)


@pytest.fixture
def faulty_engine(monkeypatch):
    # the engine resolves the operator through its module global; the oracle
    # holds its own binding, so only the engine sees the flipped entry
    monkeypatch.setattr(esparql.algebra, "apply", _flipped_apply)


def conflict_query():
    return Union(OPLUS, IS_CHRISTIAN, MapState(IS_CHRISTIAN, StateIs(T), F, U))


def test_seeded_fault_is_detected(g1, faulty_engine):
    q = conflict_query()
    engine = evaluate(q, g1)
    reference = oracle_eval(q, g1)
    found = diff(engine, reference)
    assert found, "flipped table entry went unnoticed"
    first = found[0]
    assert first[1] == T and first[2] == C
    assert diff(evaluate(q, g1), oracle_eval(q, g1)) == found


def test_same_query_agrees_without_the_fault(g1):
    assert_agrees(conflict_query(), g1)


# ---------------------------------------------------------------------------
# Seeded random agreement (small smoke; the acceptance gate runs 1000)
# ---------------------------------------------------------------------------


def test_random_cases_agree():
    rng = random.Random(7)
    for _ in range(40):
        g = randgen.random_graph(rng)
        q = randgen.random_query(rng)
        try:
            engine = evaluate(q, g)
            reference = oracle_eval(q, g)
        except UniverseTooLarge:
            continue
        assert diff(engine, reference) == []


# ---------------------------------------------------------------------------
# Belief shapes the random generator never draws: two variable holders in
# one expression, quoted-triple holders, holders whose stances are all
# valued false or unknown, variable holders inside a belief context
# ---------------------------------------------------------------------------

SHAPE_HOLDERS = [Iri(f"urn:h{i}") for i in range(3)]
SHAPE_CLAIMS = [StarTriple(Iri(f"urn:s{i}"), A, FULL_DEITY) for i in range(2)]
SHAPE_PREDICATES = (VOCAB.to_be_true, VOCAB.to_be_false, VOCAB.to_be_conflicted)
SHAPE_CAP = 3000


def shape_graph(rng):
    exceptions = {}
    for h in SHAPE_HOLDERS:
        for claim in rng.sample(SHAPE_CLAIMS, rng.randint(1, 2)):
            # the last holder's stances never count for extraction
            value = rng.choice((F, U)) if h == SHAPE_HOLDERS[-1] else rng.choice((T, F, U, C))
            exceptions[StarTriple(h, rng.choice(SHAPE_PREDICATES), claim)] = value
    # a belief about a belief, and a quoted triple in holder position
    stance = rng.choice(sorted(exceptions, key=repr))
    believer = rng.choice(SHAPE_HOLDERS)
    exceptions[StarTriple(believer, VOCAB.to_be_true, stance)] = rng.choice((T, C))
    exceptions[StarTriple(SHAPE_CLAIMS[0], VOCAB.to_be_true, SHAPE_CLAIMS[1])] = T
    return FourGraph(rng.choice((U, F)), exceptions)


def shape_queries(rng):
    def atom(holder, fallbacks=(T, F, U, C)):
        return AtomicBelief(holder, rng.choice((T, F, U, C)), rng.choice(fallbacks))

    def op():
        return rng.choice(list(FourOperator))

    def shorthand(holder):
        return all_states_shorthand(holder, rng.choice((OPLUS, FourOperator.TRUTH_JOIN)))

    deity = Pattern(TriplePattern(S, A, FULL_DEITY))
    about_deity = Pattern(TriplePattern(S, P, FULL_DEITY))
    ground = rng.choice(SHAPE_HOLDERS)
    return [
        Belief(CompoundBelief(atom(X), op(), atom(Y)), deity),
        Belief(shorthand(X), Belief(atom(Y), deity)),
        Belief(CompoundBelief(atom(X), op(), atom(ground)), about_deity),
        Belief(CompoundBelief(atom(X), op(), atom(X)),
               MapState(deity, Eq(S, SHAPE_CLAIMS[0].subject), T, F)),
        # an outer context defaulting to true or conflicted has no finite
        # inner extraction, so its fallback is false or unknown
        Belief(atom(ground, (F, U)), Belief(CompoundBelief(atom(ground), op(), atom(X)), deity)),
        Project(OPLUS, frozenset({X}), Belief(CompoundBelief(atom(Y), op(), atom(X)), deity)),
    ]


def test_belief_shapes_agree_with_oracle():
    checked = 0
    for seed in range(14):
        rng = random.Random(seed)
        g = shape_graph(rng)
        for q in shape_queries(rng):
            engine = evaluate(q, g, cap=SHAPE_CAP)
            reference = oracle_eval(q, g, cap=SHAPE_CAP)
            assert diff(engine, reference) == [], (seed, q)
            checked += 1
    assert checked == 84


# ---------------------------------------------------------------------------
# Filters and state maps with variable equalities: formula constants, ! and
# ||, in-scope variables the formula leaves alone, a variable no pattern
# binds, and universes smaller than the compared variables (so the class
# where they are all distinct is empty), through Filter, MapState and
# evaluate_k
# ---------------------------------------------------------------------------

EQ_VARS = [Variable(n) for n in "abcde"]
EQ_UNBOUND = Variable("z")


def eq_case(rng, allow_state):
    terms = [Iri(f"urn:t{i}") for i in range(rng.randint(2, 4))]
    exceptions = {StarTriple(*(rng.choice(terms) for _ in range(3))): rng.choice(STATES)
                  for _ in range(rng.randint(1, 8))}
    g = FourGraph(rng.choice(STATES), exceptions)
    constants = terms + [Iri("urn:elsewhere")]

    def slot():
        return rng.choice(EQ_VARS) if rng.random() < 0.8 else rng.choice(terms)

    patterns = [Pattern(TriplePattern(slot(), slot(), slot())) for _ in range(2)]
    scope = sorted(in_scope_of(patterns), key=lambda v: v.name) or [EQ_UNBOUND]

    def formula(depth):
        if depth and rng.random() < 0.5:
            kind = rng.choice(("not", "and", "or"))
            if kind == "not":
                return Not(formula(depth - 1))
            return (And if kind == "and" else Or)(formula(depth - 1), formula(depth - 1))
        kind = rng.choice(("vars", "vars", "const", "bound", "state") if allow_state
                          else ("vars", "vars", "const", "bound"))
        if kind == "vars":
            return Eq(rng.choice(scope + [EQ_UNBOUND]), rng.choice(scope))
        if kind == "const":
            return Eq(rng.choice(scope), rng.choice(constants))
        if kind == "bound":
            return Bound(rng.choice(scope + [EQ_UNBOUND]))
        return StateIs(rng.choice(STATES))

    return g, patterns, formula(2)


def in_scope_of(patterns):
    return frozenset().union(*(esparql.algebra.in_scope(p) for p in patterns))


def compared(f):
    if isinstance(f, Eq):
        return {s for s in (f.left, f.right) if isinstance(s, Variable)}
    if isinstance(f, Not):
        return compared(f.inner)
    if isinstance(f, (And, Or)):
        return compared(f.left) | compared(f.right)
    return set()


def test_variable_equalities_agree_with_oracle():
    ops = list(FourOperator)
    semirings = ((FOUR_TRUTH, FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN),
                 (FOUR_INFO, OTIMES, OPLUS))
    no_distinct_class = 0
    for seed in range(300):
        rng = random.Random(seed)
        g, (p1, p2), f = eq_case(rng, allow_state=True)
        # a state map gives the left side a default of its own
        left = MapState(p1, StateIs(rng.choice(STATES)), rng.choice(STATES), rng.choice(STATES))
        body = Join(rng.choice(list(MEET_OPERATORS)), left if seed % 2 else p1, p2)
        for q in (Filter(rng.choice(ops), body, f),
                  MapState(body, f, rng.choice(STATES), rng.choice(STATES))):
            assert diff(evaluate(q, g), oracle_eval(q, g)) == [], (seed, q)
        universe = active_domain(g, esparql.algebra.query_constants(q))
        no_distinct_class += len(universe) < len(compared(f) & in_scope_of([p1, p2]))

        g, (p1, p2), f = eq_case(rng, allow_state=False)
        s, meet, join = semirings[seed % 2]
        q = Filter(meet, Join(meet, p1, p2), f)
        bound = sorted(in_scope_of([p1, p2]), key=lambda v: v.name)
        if bound and rng.random() < 0.5:
            q = Project(join, frozenset(rng.sample(bound, 1)), q)
        assert diff(evaluate_k(q, g, s), oracle_eval(q, g)) == [], (seed, q)
    assert no_distinct_class >= 10
