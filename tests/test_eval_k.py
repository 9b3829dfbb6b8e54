"""Generic semiring evaluation of the plain query fragment."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esparql import (
    BOOLEAN,
    COUNTING,
    FOUR_INFO,
    FOUR_TRUTH,
    Belief,
    Eq,
    EvalMode,
    Filter,
    FourGraph,
    FourOperator,
    FourValue,
    IllFormedQuery,
    NonFinitelySupported,
    Join,
    MapState,
    Pattern,
    Project,
    StateIs,
    StarTriple,
    TriplePattern,
    Union,
    Variable,
    all_states_shorthand,
    evaluate,
    evaluate_k,
    Mapping,
)
from esparql import randgen

from conftest import A, ARIUS, CHRISTIAN, FULL_DEITY, JESUS, POPE

X, Y = Variable("x"), Variable("y")
AND, OR = FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN
OTIMES, OPLUS = FourOperator.INFO_MEET, FourOperator.INFO_JOIN

POPE_CHRISTIAN = StarTriple(POPE, A, CHRISTIAN)
ARIUS_CHRISTIAN = StarTriple(ARIUS, A, CHRISTIAN)
JESUS_DEITY = StarTriple(JESUS, A, FULL_DEITY)

X_CHRISTIAN = Pattern(TriplePattern(X, A, CHRISTIAN))
X_DEITY = Pattern(TriplePattern(X, A, FULL_DEITY))
Y_CHRISTIAN = Pattern(TriplePattern(Y, A, CHRISTIAN))


# ---------------------------------------------------------------------------
# Boolean semantics: classical set-based SPARQL
# ---------------------------------------------------------------------------


@pytest.fixture
def bool_graph():
    return FourGraph(False, {POPE_CHRISTIAN: True, ARIUS_CHRISTIAN: True,
                             JESUS_DEITY: True})


def members(r):
    return {m.get(X) for m, v in r.exceptions.items() if v}


def test_boolean_pattern(bool_graph):
    r = evaluate_k(X_CHRISTIAN, bool_graph, BOOLEAN)
    assert r.default is False
    assert members(r) == {POPE, ARIUS}


def test_boolean_join_is_intersection(bool_graph):
    r = evaluate_k(Join(OTIMES, X_CHRISTIAN, X_DEITY), bool_graph, BOOLEAN)
    assert members(r) == set()
    r2 = evaluate_k(Join(OTIMES, X_CHRISTIAN, X_CHRISTIAN), bool_graph, BOOLEAN)
    assert members(r2) == {POPE, ARIUS}


def test_boolean_union_is_union(bool_graph):
    r = evaluate_k(Union(OPLUS, X_CHRISTIAN, X_DEITY), bool_graph, BOOLEAN)
    assert members(r) == {POPE, ARIUS, JESUS}


def test_boolean_projection_is_exists(bool_graph):
    gone = evaluate_k(Project(OPLUS, frozenset(), X_DEITY), bool_graph, BOOLEAN)
    assert gone.value_at(Mapping.of({})) is True
    empty = evaluate_k(
        Project(OPLUS, frozenset(), Join(OTIMES, X_CHRISTIAN, X_DEITY)),
        bool_graph, BOOLEAN)
    assert empty.value_at(Mapping.of({})) is False


def test_boolean_filter(bool_graph):
    r = evaluate_k(Filter(OTIMES, X_CHRISTIAN, Eq(X, POPE)), bool_graph, BOOLEAN)
    assert members(r) == {POPE}


# ---------------------------------------------------------------------------
# Counting semantics: how many derivations
# ---------------------------------------------------------------------------


@pytest.fixture
def count_graph():
    return FourGraph(0, {POPE_CHRISTIAN: 2, ARIUS_CHRISTIAN: 3})


def test_counting_pattern_and_join(count_graph):
    r = evaluate_k(X_CHRISTIAN, count_graph, COUNTING)
    assert r.value_at(Mapping.of({X: POPE})) == 2
    assert r.value_at(Mapping.of({X: ARIUS})) == 3
    squared = evaluate_k(Join(OTIMES, X_CHRISTIAN, X_CHRISTIAN),
                         count_graph, COUNTING)
    assert squared.value_at(Mapping.of({X: POPE})) == 4
    assert squared.value_at(Mapping.of({X: ARIUS})) == 9


def test_counting_projection_sums(count_graph):
    total = evaluate_k(Project(OPLUS, frozenset(), X_CHRISTIAN),
                       count_graph, COUNTING)
    assert total.value_at(Mapping.of({})) == 5

    product = Join(OTIMES, X_CHRISTIAN, Y_CHRISTIAN)
    per_x = evaluate_k(Project(OPLUS, frozenset({X}), product),
                       count_graph, COUNTING)
    assert per_x.value_at(Mapping.of({X: POPE})) == 10
    assert per_x.value_at(Mapping.of({X: ARIUS})) == 15


def test_counting_union_adds(count_graph):
    doubled = evaluate_k(Union(OPLUS, X_CHRISTIAN, X_CHRISTIAN),
                         count_graph, COUNTING)
    assert doubled.value_at(Mapping.of({X: POPE})) == 4
    assert doubled.value_at(Mapping.of({X: ARIUS})) == 6


def test_counting_filter_annihilates(count_graph):
    r = evaluate_k(Filter(OTIMES, X_CHRISTIAN, Eq(X, POPE)),
                   count_graph, COUNTING)
    assert r.value_at(Mapping.of({X: POPE})) == 2
    assert r.value_at(Mapping.of({X: ARIUS})) == 0


# ---------------------------------------------------------------------------
# Fragment boundary
# ---------------------------------------------------------------------------


def test_rejects_state_tests(bool_graph):
    with pytest.raises(IllFormedQuery):
        evaluate_k(Filter(OTIMES, X_CHRISTIAN, StateIs(FourValue.TRUE)),
                   bool_graph, BOOLEAN)


def test_rejects_mapstate_and_belief(bool_graph):
    with pytest.raises(IllFormedQuery):
        evaluate_k(MapState(X_CHRISTIAN, Eq(X, POPE),
                            FourValue.TRUE, FourValue.FALSE),
                   bool_graph, BOOLEAN)
    with pytest.raises(IllFormedQuery):
        evaluate_k(Belief(all_states_shorthand(Y, OPLUS), X_CHRISTIAN),
                   bool_graph, BOOLEAN)


# ---------------------------------------------------------------------------
# Agreement with the four-valued engine on its own semirings
# ---------------------------------------------------------------------------


def _with_ops(q, meet, join):
    if isinstance(q, Pattern):
        return q
    if isinstance(q, Join):
        return Join(meet, _with_ops(q.left, meet, join), _with_ops(q.right, meet, join))
    if isinstance(q, Union):
        return Union(join, _with_ops(q.left, meet, join), _with_ops(q.right, meet, join))
    if isinstance(q, Filter):
        return Filter(meet, _with_ops(q.query, meet, join), q.formula)
    if isinstance(q, Project):
        return Project(join, q.vars, _with_ops(q.query, meet, join))
    raise TypeError(q)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_engine_on_info_semiring(seed):
    rng = random.Random(seed)
    pool = randgen.iri_pool()
    g = randgen.random_graph(rng, pool)
    q = _with_ops(randgen.random_plain_query(rng, pool, depth=3), OTIMES, OPLUS)
    assert evaluate_k(q, g, FOUR_INFO).same_function(evaluate(q, g))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_engine_on_truth_semiring(seed):
    rng = random.Random(seed)
    pool = randgen.iri_pool()
    g = randgen.random_graph(rng, pool)
    q = _with_ops(randgen.random_plain_query(rng, pool, depth=3), AND, OR)
    assert evaluate_k(q, g, FOUR_TRUTH).same_function(evaluate(q, g))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9),
       st.sampled_from([(FOUR_INFO, OTIMES, OPLUS), (FOUR_TRUTH, AND, OR)]))
def test_matches_engine_in_open_mode(seed, ops):
    # random graphs default to unknown or false; whichever is not the
    # semiring's zero exercises the idempotent-default projection rule
    s, meet, join = ops
    rng = random.Random(seed)
    pool = randgen.iri_pool()
    g = randgen.random_graph(rng, pool)
    q = _with_ops(randgen.random_plain_query(rng, pool, depth=3), meet, join)
    try:
        want = evaluate(q, g, mode=EvalMode.OPEN)
    except NonFinitelySupported:
        with pytest.raises(NonFinitelySupported):
            evaluate_k(q, g, s, mode=EvalMode.OPEN)
        return
    assert evaluate_k(q, g, s, mode=EvalMode.OPEN) == want


def test_open_projection_of_an_idempotent_default():
    g = FourGraph(True, {POPE_CHRISTIAN: False, ARIUS_CHRISTIAN: False})
    q = Project(OPLUS, frozenset({X}), Pattern(TriplePattern(X, A, Y)))
    r = evaluate_k(q, g, BOOLEAN, mode=EvalMode.OPEN)
    assert r.default is True and not r.exceptions
    for m, want in evaluate_k(q, g, BOOLEAN).all_rows():
        assert r.value_at(m) == want


def test_open_projection_refuses_a_non_idempotent_default():
    g = FourGraph(1, {POPE_CHRISTIAN: 2})
    q = Project(OPLUS, frozenset(), X_CHRISTIAN)
    with pytest.raises(NonFinitelySupported, match="zero or idempotent"):
        evaluate_k(q, g, COUNTING, mode=EvalMode.OPEN)
    # over the active domain {POPE, A, CHRISTIAN}: POPE's 2, the others' 1 each
    assert evaluate_k(q, g, COUNTING).value_at(Mapping.of({})) == 2 + 1 + 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([BOOLEAN, COUNTING, FOUR_INFO]))
def test_open_mode_stays_finitely_supported(seed, semiring):
    rng = random.Random(seed)
    pool = randgen.iri_pool()
    g = randgen.random_k_graph(rng, semiring, pool)
    q = randgen.random_plain_query(rng, pool, depth=3)
    r = evaluate_k(q, g, semiring, mode=EvalMode.OPEN)
    assert r.universe is None
    assert r.default == semiring.zero
    ad = evaluate_k(q, g, semiring)
    for m, want in ad.all_rows():
        assert r.value_at(m) == want
