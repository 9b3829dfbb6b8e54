"""Algebra: mappings, relations, scoping rules and the four-valued engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esparql.algebra
from esparql import belief as belief_mod
from esparql import (
    And,
    AtomicBelief,
    Belief,
    Bound,
    CompoundBelief,
    Eq,
    EvalMode,
    Filter,
    FourGraph,
    FourOperator,
    FourValue,
    IllFormedQuery,
    Iri,
    Join,
    MapState,
    Mapping,
    Not,
    Or,
    Pattern,
    Project,
    Relation,
    STATES,
    StateIs,
    StarTriple,
    TriplePattern,
    Union,
    UniverseTooLarge,
    Variable,
    active_domain,
    all_states_shorthand,
    diff,
    evaluate,
    in_scope,
    mappings_over,
    oracle_eval,
)
from esparql.algebra import ThreeValued, eval_formula
from esparql.model import term_to_pattern
from esparql import randgen

from conftest import (
    ARIUS,
    CHRISTIAN,
    CHRISTIANITY,
    FULL_DEITY,
    JESUS,
    JESUS_DEITY,
    A,
    POPE,
    POPE_AFFIRMS,
    POPE_DENIES,
    RUSSELL,
    VOCAB,
    ZEUS_DEITY,
    example_graph,
)

F, T, U, C = (FourValue.FALSE, FourValue.TRUE,
              FourValue.UNKNOWN, FourValue.CONFLICTED)
AND, OR = FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN
OTIMES, OPLUS = FourOperator.INFO_MEET, FourOperator.INFO_JOIN

X, Y, S, P, O, DEITY = (Variable(n) for n in ("x", "y", "s", "p", "o", "deity"))

IS_CHRISTIAN = Pattern(TriplePattern(X, A, CHRISTIAN))
DENIES_JESUS = Pattern(TriplePattern(X, VOCAB.to_be_false,
                                     term_to_pattern(JESUS_DEITY)))


def row(binding, value):
    return (Mapping.of(binding), value)


def exceptions(r):
    return dict(r.exceptions)


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------


def test_mapping_basics():
    m = Mapping.of({Y: JESUS, X: POPE})
    assert m.domain == {X, Y}
    assert m.get(X) == POPE
    assert m.get(S) is None
    assert m == Mapping.of({X: POPE, Y: JESUS})
    assert hash(m) == hash(Mapping.of({X: POPE, Y: JESUS}))
    assert m.restrict(frozenset({X})) == Mapping.of({X: POPE})
    assert m.restrict(frozenset()) == Mapping.of({})


def test_mapping_merge_and_extend():
    a = Mapping.of({X: POPE})
    b = Mapping.of({Y: JESUS})
    assert a.merge(b) == Mapping.of({X: POPE, Y: JESUS})
    assert a.merge(Mapping.of({X: POPE, Y: JESUS})) is not None
    assert a.merge(Mapping.of({X: ARIUS})) is None
    assert a.extend({Y: JESUS}).domain == {X, Y}


def test_mappings_over_is_exhaustive_and_ordered():
    universe = [POPE, ARIUS, JESUS]
    ms = list(mappings_over([X, Y], universe))
    assert len(ms) == 9
    assert len(set(ms)) == 9
    assert ms == sorted(ms, key=Mapping.sort_key)


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


def test_relation_canonical_form():
    uni = frozenset({POPE, ARIUS})
    r = Relation(frozenset({X}), U,
                 {Mapping.of({X: POPE}): T, Mapping.of({X: ARIUS}): U},
                 universe=uni)
    assert exceptions(r) == {Mapping.of({X: POPE}): T}
    assert r.value_at(Mapping.of({X: ARIUS})) == U
    with pytest.raises(ValueError):
        Relation(frozenset({X}), U, {Mapping.of({Y: POPE}): T})


def test_relation_rows_and_all_rows():
    uni = frozenset({POPE, ARIUS})
    r = Relation(frozenset({X}), U, {Mapping.of({X: POPE}): T}, universe=uni)
    assert list(r.rows()) == [row({X: POPE}, T)]
    assert dict(r.all_rows()) == {Mapping.of({X: POPE}): T,
                                  Mapping.of({X: ARIUS}): U}
    open_r = Relation(frozenset({X}), U)
    with pytest.raises(ValueError):
        list(open_r.all_rows())


def test_relation_same_function_tolerates_default_choice():
    uni = frozenset({POPE, ARIUS})
    sparse = Relation(frozenset({X}), U, {Mapping.of({X: POPE}): T}, universe=uni)
    dense = Relation(frozenset({X}), F,
                     {Mapping.of({X: POPE}): T, Mapping.of({X: ARIUS}): U},
                     universe=uni)
    assert sparse.same_function(dense)
    assert sparse != dense
    other = Relation(frozenset({X}), U, {Mapping.of({X: ARIUS}): T}, universe=uni)
    assert not sparse.same_function(other)


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------


def test_in_scope_of_each_node(g1):
    assert in_scope(IS_CHRISTIAN) == {X}
    assert in_scope(Join(OTIMES, IS_CHRISTIAN, Pattern(TriplePattern(Y, A, CHRISTIAN)))) == {X, Y}
    assert in_scope(Union(OPLUS, IS_CHRISTIAN, DENIES_JESUS)) == {X}
    assert in_scope(Project(OPLUS, frozenset({X}), Join(OTIMES, IS_CHRISTIAN, Pattern(TriplePattern(Y, A, CHRISTIAN))))) == {X}
    assert in_scope(Belief(all_states_shorthand(Y, OPLUS), IS_CHRISTIAN)) == {X, Y}


def test_join_requires_meet_operator():
    with pytest.raises(IllFormedQuery):
        in_scope(Join(OPLUS, IS_CHRISTIAN, DENIES_JESUS))


def test_union_requires_join_operator_and_equal_scopes():
    with pytest.raises(IllFormedQuery):
        in_scope(Union(OTIMES, IS_CHRISTIAN, DENIES_JESUS))
    with pytest.raises(IllFormedQuery):
        in_scope(Union(OPLUS, IS_CHRISTIAN, Pattern(TriplePattern(Y, A, CHRISTIAN))))


def test_projection_must_stay_in_scope():
    with pytest.raises(IllFormedQuery):
        in_scope(Project(OPLUS, frozenset({Y}), IS_CHRISTIAN))


def test_belief_variable_must_not_shadow_body():
    with pytest.raises(IllFormedQuery):
        in_scope(Belief(all_states_shorthand(X, OPLUS), IS_CHRISTIAN))


def test_evaluate_checks_scoping_before_running(g1):
    bad = Project(OPLUS, frozenset({Y}), IS_CHRISTIAN)
    with pytest.raises(IllFormedQuery):
        evaluate(bad, g1)


# ---------------------------------------------------------------------------
# Filter formulas
# ---------------------------------------------------------------------------


def test_formula_three_valued_semantics():
    TV = ThreeValued
    uni = frozenset({POPE, ARIUS})
    r = Relation(frozenset({X}), U, {Mapping.of({X: POPE}): T}, universe=uni)
    at_pope = Mapping.of({X: POPE})

    assert eval_formula(Eq(X, POPE), at_pope, r) == TV.TRUE
    assert eval_formula(Eq(X, ARIUS), at_pope, r) == TV.FALSE
    assert eval_formula(Eq(POPE, POPE), at_pope, r) == TV.TRUE
    assert eval_formula(Eq(Y, POPE), at_pope, r) == TV.ERROR
    assert eval_formula(Bound(X), at_pope, r) == TV.TRUE
    assert eval_formula(Bound(Y), at_pope, r) == TV.FALSE
    assert eval_formula(StateIs(T), at_pope, r) == TV.TRUE
    assert eval_formula(StateIs(U), at_pope, r) == TV.FALSE
    assert eval_formula(Not(Eq(Y, POPE)), at_pope, r) == TV.ERROR
    # definite false beats an error in a conjunction, definite true in a disjunction
    assert eval_formula(And(Eq(X, ARIUS), Eq(Y, POPE)), at_pope, r) == TV.FALSE
    assert eval_formula(And(Eq(X, POPE), Eq(Y, POPE)), at_pope, r) == TV.ERROR
    assert eval_formula(Or(Eq(X, POPE), Eq(Y, POPE)), at_pope, r) == TV.TRUE
    assert eval_formula(Or(Eq(X, ARIUS), Eq(Y, POPE)), at_pope, r) == TV.ERROR


# ---------------------------------------------------------------------------
# Engine: directed cases over the running graph
# ---------------------------------------------------------------------------


def test_pattern_with_quoted_variables(g1):
    q = Pattern(TriplePattern(X, VOCAB.to_be_false,
                              TriplePattern(Y, A, FULL_DEITY)))
    r = evaluate(q, g1)
    assert r.default == U
    assert exceptions(r) == {Mapping.of({X: ARIUS, Y: JESUS}): T}


def test_ground_pattern_queries(g1):
    unstated = evaluate(Pattern(term_to_pattern(JESUS_DEITY)), g1)
    assert unstated.vars == frozenset()
    assert unstated.value_at(Mapping.of({})) == U
    asserted = evaluate(Pattern(term_to_pattern(POPE_AFFIRMS)), g1)
    assert asserted.value_at(Mapping.of({})) == T


def test_join_combines_pointwise(g1):
    r = evaluate(Join(OTIMES, IS_CHRISTIAN, DENIES_JESUS), g1)
    assert r.default == U
    assert exceptions(r) == {Mapping.of({X: ARIUS}): T}


def test_join_over_disjoint_scopes_is_a_product(g1):
    q = Join(OTIMES, IS_CHRISTIAN, Pattern(TriplePattern(Y, A, CHRISTIAN)))
    r = evaluate(q, g1)
    assert r.vars == {X, Y}
    assert exceptions(r) == {
        Mapping.of({X: a, Y: b}): T
        for a in (POPE, ARIUS) for b in (POPE, ARIUS)
    }


def test_union_combines_pointwise(g1):
    r = evaluate(Union(OPLUS, IS_CHRISTIAN, DENIES_JESUS), g1)
    assert exceptions(r) == {Mapping.of({X: POPE}): T, Mapping.of({X: ARIUS}): T}
    conflicted = evaluate(
        Union(OPLUS, IS_CHRISTIAN,
              MapState(IS_CHRISTIAN, StateIs(T), F, U)), g1)
    assert exceptions(conflicted) == {Mapping.of({X: POPE}): C,
                                      Mapping.of({X: ARIUS}): C}


def test_filter_keeps_or_annihilates(g1):
    kept = evaluate(Filter(AND, IS_CHRISTIAN, StateIs(T)), g1)
    assert kept.default == F
    assert exceptions(kept) == {Mapping.of({X: POPE}): T, Mapping.of({X: ARIUS}): T}

    pinned = evaluate(Filter(OTIMES, IS_CHRISTIAN, Eq(X, POPE)), g1)
    assert pinned.default == U
    assert exceptions(pinned) == {Mapping.of({X: POPE}): T}


def test_mapstate_rewrites_states(g1):
    r = evaluate(MapState(IS_CHRISTIAN, StateIs(T), C, F), g1)
    assert r.default == F
    assert exceptions(r) == {Mapping.of({X: POPE}): C, Mapping.of({X: ARIUS}): C}


def test_projection_folds_default_rows_too(g1):
    to_unit = Project(OPLUS, frozenset(),
                      Pattern(TriplePattern(X, VOCAB.to_be_conflicted,
                                            term_to_pattern(JESUS_DEITY))))
    r = evaluate(to_unit, g1)
    # one true row joined with sixteen unknown defaults
    assert r.value_at(Mapping.of({})) == T

    meet = Project(OTIMES, frozenset(),
                   Pattern(TriplePattern(X, VOCAB.to_be_conflicted,
                                         term_to_pattern(JESUS_DEITY))))
    assert evaluate(meet, g1).value_at(Mapping.of({})) == U


def test_projection_identity_on_full_scope(g1):
    base = evaluate(IS_CHRISTIAN, g1)
    projected = evaluate(Project(OPLUS, frozenset({X}), IS_CHRISTIAN), g1)
    assert projected.same_function(base)


def test_filter_on_always_true_formula_is_identity(g1):
    base = evaluate(IS_CHRISTIAN, g1)
    filtered = evaluate(Filter(OTIMES, IS_CHRISTIAN, Bound(X)), g1)
    assert filtered.same_function(base)


def test_universe_cap(g1):
    with pytest.raises(UniverseTooLarge):
        evaluate(Pattern(TriplePattern(S, P, O)), g1, cap=100)


# ---------------------------------------------------------------------------
# Engine: nested belief contexts
# ---------------------------------------------------------------------------


def test_belief_with_variable_holder(g1):
    q = Belief(all_states_shorthand(X, OPLUS),
               Pattern(TriplePattern(Y, A, FULL_DEITY)))
    r = evaluate(q, g1)
    assert r.vars == {X, Y}
    assert r.value_at(Mapping.of({X: POPE, Y: JESUS})) == T
    assert r.value_at(Mapping.of({X: ARIUS, Y: JESUS})) == F
    assert r.value_at(Mapping.of({X: CHRISTIANITY, Y: JESUS})) == C
    assert r.value_at(Mapping.of({X: RUSSELL, Y: JESUS})) == U
    assert r.value_at(Mapping.of({X: JESUS, Y: JESUS})) == U
    assert r.default == U


def test_named_belief_query(g1):
    u1 = Project(OPLUS, frozenset({DEITY}),
                 Belief(all_states_shorthand(POPE, OPLUS),
                        Pattern(TriplePattern(DEITY, A, FULL_DEITY))))
    r = evaluate(u1, g1)
    assert r.default == U
    assert exceptions(r) == {Mapping.of({DEITY: JESUS}): T}


def test_christians_aggregated_beliefs(g1):
    # which deities do the Christians jointly believe in: the two holders
    # disagree about Jesus, so the aggregate lands on conflicted
    u2 = Project(
        OPLUS, frozenset({DEITY}),
        Join(
            OTIMES,
            MapState(IS_CHRISTIAN, StateIs(T), C, U),
            Project(OPLUS, frozenset({DEITY, X}),
                    Belief(all_states_shorthand(X, OPLUS),
                           Pattern(TriplePattern(DEITY, A, FULL_DEITY)))),
        ),
    )
    r = evaluate(u2, g1)
    assert r.default == U
    assert exceptions(r) == {Mapping.of({DEITY: JESUS}): C}


def test_conflict_listing_with_two_holders(g1):
    inner = Project(
        OPLUS, frozenset({X}),
        Belief(CompoundBelief(all_states_shorthand(POPE, OPLUS), OPLUS,
                              all_states_shorthand(X, OPLUS)),
               Pattern(TriplePattern(S, P, O))))
    mapped = MapState(inner, StateIs(C), T, F)
    literal = evaluate(mapped, g1)
    projected = evaluate(Project(OR, frozenset({X}), mapped), g1)
    for r in (literal, projected):
        assert r.default == F
        assert exceptions(r) == {Mapping.of({X: ARIUS}): T,
                                 Mapping.of({X: CHRISTIANITY}): T}
    assert literal.same_function(projected)


def test_nested_belief_of_belief(g1):
    inner = Belief(all_states_shorthand(X, OPLUS),
                   Pattern(term_to_pattern(ZEUS_DEITY)))
    outer = Project(OPLUS, frozenset({X}),
                    Belief(all_states_shorthand(Y, OPLUS), inner))
    r = evaluate(outer, g1)
    assert r.default == U
    assert exceptions(r) == {Mapping.of({X: POPE}): F}

    corrected = Project(
        OPLUS, frozenset({X}),
        MapState(Belief(all_states_shorthand(Y, OPLUS), inner),
                 StateIs(F), T, U))
    r2 = evaluate(corrected, g1)
    assert r2.default == U
    assert exceptions(r2) == {Mapping.of({X: POPE}): T}


def test_variable_holder_work_is_sparse(monkeypatch):
    # N holders with stances and many more IRIs without any: the body runs
    # once per holder plus once for all the rest, and no memo hashes the graph
    n = 8
    claims = [StarTriple(Iri(f"urn:god{i}"), A, FULL_DEITY) for i in range(4)]
    stances = {StarTriple(Iri(f"urn:holder{i}"), VOCAB.predicate_for(STATES[i % 4]),
                          claims[i % 4]): T for i in range(n)}
    noise = {StarTriple(Iri(f"urn:thing{i}"), Iri("urn:p"), Iri(f"urn:other{i}")): T
             for i in range(5 * n)}
    g = FourGraph(U, {**stances, **noise})
    q = Belief(all_states_shorthand(X, OPLUS), Pattern(TriplePattern(S, A, FULL_DEITY)))

    atomic_calls = 0
    real_extract = belief_mod.extract

    def counting_extract(g, e, vocab, index=None):
        nonlocal atomic_calls
        atomic_calls += isinstance(e, AtomicBelief)
        return real_extract(g, e, vocab, index)

    scope_passes = 0
    real_scopes = esparql.algebra._scopes

    def counting_scopes(q):
        nonlocal scope_passes
        scope_passes += 1
        return real_scopes(q)

    monkeypatch.setattr(belief_mod, "extract", counting_extract)
    monkeypatch.setattr(esparql.algebra, "_scopes", counting_scopes)
    r = evaluate(q, g)
    monkeypatch.undo()

    assert len(active_domain(g)) >= 5 * n
    assert atomic_calls <= (n + 1) * 4
    assert scope_passes == 1
    assert diff(r, oracle_eval(q, g)) == []


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _ring_graph(n, preds):
    """n nodes; each predicate links node i to one other node, valued
    true, false or conflicted in turn, on an unknown default."""
    nodes = [Iri(f"urn:n{i}") for i in range(n)]
    return FourGraph(U, {StarTriple(nodes[i], p, nodes[(i * (k + 2) + 1) % n]): (T, F, C)[i % 3]
                         for k, p in enumerate(preds) for i in range(n)})


def test_triangle_filter_lists_only_the_diagonal(monkeypatch):
    p, q = Iri("urn:p"), Iri("urn:q")
    g = _ring_graph(38, (p, q))
    a, b, c = (Variable(n) for n in "abc")
    tri = Join(AND, Pattern(TriplePattern(a, p, b)), Pattern(TriplePattern(b, q, c)))
    queries = (Filter(AND, tri, Eq(a, c)), MapState(tri, Eq(a, c), T, F))

    def no_dense(*args):
        raise AssertionError("mappings_over called")

    monkeypatch.setattr(esparql.algebra, "mappings_over", no_dense)
    results = [evaluate(x, g) for x in queries]
    monkeypatch.undo()

    assert len(active_domain(g)) == 40
    # only the a = c class differs from the default: 40 values of a times
    # 40 of b, less the rows whose own exception agrees with the default
    rows = results[0].exceptions
    assert all(m.get(a) == m.get(c) for m in rows) and 1000 < len(rows) <= 40 * 40
    assert diff(results[0], oracle_eval(queries[0], g)) == []
    mapped = results[1]
    assert mapped.default == F and len(mapped.exceptions) == 40 * 40
    assert all(m.get(a) == m.get(c) and v == T for m, v in mapped.exceptions.items())


def test_wide_filter_classifies_only_the_compared_variables(monkeypatch):
    # twelve variables over three terms; the filter compares two of them,
    # so it sees a handful of classes, not Bell(12) partitions or 3**12 rows
    x, y, z = (Iri(f"urn:{n}") for n in "xyz")
    g = FourGraph(U, {StarTriple(x, y, z): T, StarTriple(z, y, x): C})
    vs = [Variable(f"v{i:02d}") for i in range(12)]
    body = Pattern(TriplePattern(*vs[:3]))
    for i in range(3, 12, 3):
        body = Join(OTIMES, body, Pattern(TriplePattern(*vs[i:i + 3])))
    joined = evaluate(body, g)
    q = Filter(OTIMES, body, Eq(vs[0], vs[3]))

    calls = _counting(monkeypatch, esparql.algebra, "_formula_value")
    r = evaluate(q, g)
    open_r = evaluate(q, g, mode=EvalMode.OPEN)
    monkeypatch.undo()

    assert calls[0] <= 200
    assert len(active_domain(g)) == 3 and len(joined.exceptions) == 16
    want = {m: v for m, v in joined.exceptions.items() if m.get(vs[0]) == m.get(vs[3])}
    assert (r.default, exceptions(r)) == (U, want)
    assert (open_r.default, exceptions(open_r)) == (U, want)


def test_join_merges_only_matching_exception_pairs(monkeypatch):
    p, q = Iri("urn:p"), Iri("urn:q")
    g = _ring_graph(30, (p, q))
    left, right = Pattern(TriplePattern(X, p, Y)), Pattern(TriplePattern(Y, q, S))
    pairs = sum(1 for t1 in g.exceptions for t2 in g.exceptions
                if t1.predicate == p and t2.predicate == q and t1.object == t2.subject)

    merges = _counting(monkeypatch, Mapping, "merge")
    r = evaluate(Join(OTIMES, left, right), g)
    monkeypatch.undo()

    # every node has one p-successor and one q-successor: 30 of 30 * 30 pairs
    assert merges[0] == pairs == 30
    assert diff(r, oracle_eval(Join(OTIMES, left, right), g)) == []


def _counting_matcher(monkeypatch):
    """Count the triples pattern scans examine: every call of every
    per-triple matcher that ``_pattern_matcher`` compiles."""
    calls = [0]
    compile_pattern = esparql.algebra._pattern_matcher

    def counted_compile(pattern):
        matcher = compile_pattern(pattern)

        def counted(t):
            calls[0] += 1
            return matcher(t)

        return counted

    monkeypatch.setattr(esparql.algebra, "_pattern_matcher", counted_compile)
    return calls


def test_pattern_scan_matches_only_its_predicate(monkeypatch):
    p, q = Iri("urn:p"), Iri("urn:q")
    g = _ring_graph(20, (p, q, Iri("urn:r")))
    calls = _counting_matcher(monkeypatch)
    r = evaluate(Pattern(TriplePattern(X, p, Y)), g)
    assert calls[0] == 20
    assert len(r.exceptions) == 20
    evaluate(Pattern(TriplePattern(X, P, Y)), g)
    assert calls[0] == 20 + 60


def test_pattern_scan_with_a_ground_subject_examines_only_its_triples(monkeypatch):
    p, q = Iri("urn:p"), Iri("urn:q")
    g = _ring_graph(20, (p, q, Iri("urn:r")))
    node = Iri("urn:n7")
    calls = _counting_matcher(monkeypatch)
    r = evaluate(Pattern(TriplePattern(node, P, Y)), g)
    monkeypatch.undo()
    # the ring gives every node one triple per predicate
    assert calls[0] == 3
    assert exceptions(r) == {Mapping.of({P: t.predicate, Y: t.object}): v
                             for t, v in g.exceptions.items() if t.subject == node}
    assert diff(r, oracle_eval(Pattern(TriplePattern(node, P, Y)), g)) == []


# ---------------------------------------------------------------------------
# Algebraic laws, engine-level
# ---------------------------------------------------------------------------


def _seeded_case(seed, n_queries, scope):
    rng = random.Random(seed)
    pool = randgen.iri_pool()
    g = randgen.random_graph(rng, pool)
    qs = [randgen.random_plain_query(rng, pool, depth=2, scope=scope)
          for _ in range(n_queries)]
    return g, qs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_join_and_union_are_commutative(seed):
    g, (qa, qb) = _seeded_case(seed, 2, frozenset({X, Y}))
    for op in (OTIMES, AND):
        ab = evaluate(Join(op, qa, qb), g)
        ba = evaluate(Join(op, qb, qa), g)
        assert ab.same_function(ba)
    for op in (OPLUS, OR):
        ab = evaluate(Union(op, qa, qb), g)
        ba = evaluate(Union(op, qb, qa), g)
        assert ab.same_function(ba)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_join_and_union_are_associative(seed):
    g, (qa, qb, qc) = _seeded_case(seed, 3, frozenset({X}))
    for node, op in ((Join, OTIMES), (Union, OPLUS)):
        left = evaluate(node(op, node(op, qa, qb), qc), g)
        right = evaluate(node(op, qa, node(op, qb, qc)), g)
        assert left.same_function(right)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_projection_and_filter_identities_hold_generally(seed):
    g, (q,) = _seeded_case(seed, 1, frozenset({X, Y}))
    base = evaluate(q, g)
    assert evaluate(Project(OPLUS, frozenset({X, Y}), q), g).same_function(base)
    assert evaluate(Filter(OTIMES, q, Bound(X)), g).same_function(base)
