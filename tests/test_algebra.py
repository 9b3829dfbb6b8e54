"""Algebra: mappings, relations, scoping rules and the four-valued engine."""

import copy
import gc
import importlib.util
import random
from pathlib import Path

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
    NonFinitelySupported,
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
    parse_and_desugar,
    parse_graph,
)
from esparql.algebra import ThreeValued
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
from helpers import all_rows, eval_formula, random_plain_query, same_function

F, T, U, C = (FourValue.FALSE, FourValue.TRUE,
              FourValue.UNKNOWN, FourValue.CONFLICTED)
AND, OR = FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN
OTIMES, OPLUS = FourOperator.INFO_MEET, FourOperator.INFO_JOIN

X, Y, S, P, O, DEITY = (Variable(n) for n in ("x", "y", "s", "p", "o", "deity"))

BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"

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


def test_relation_rejects_mappings_over_other_variables():
    stray = (Mapping.of({Y: POPE}), Mapping.of({}), Mapping.of({X: POPE, Y: ARIUS}))
    for m in stray:
        # a stray row is refused even when it carries the default
        for value in (T, U):
            with pytest.raises(ValueError, match="exception domain"):
                Relation(frozenset({X}), U, {m: value})
    # the right variables out of name order
    with pytest.raises(ValueError, match="exception domain"):
        Relation(frozenset({X, Y}), U, {Mapping(((Y, POPE), (X, ARIUS))): T})


def test_engine_rows_must_have_the_schema_length():
    for schema, row in (((X,), (POPE, ARIUS)), ((X, Y), (POPE,)), ((X,), ())):
        for value in (T, U):
            with pytest.raises(ValueError, match="row length"):
                Relation._of(schema, U, {row: value}, None)
    r = Relation._of((X,), U, {(POPE,): T, (ARIUS,): U}, None)
    assert r == Relation(frozenset({X}), U, {Mapping.of({X: POPE}): T})
    assert r.table == {(POPE,): T}


def test_default_rows_are_dropped_and_other_tables_kept():
    # either constructor drops a row equal to the default, leaving the
    # caller's dict as it was; a table without one is kept as handed in
    for default, at_default in ((U, U), (0, False), (1, True)):
        table = {(POPE,): T, (ARIUS,): at_default}
        assert Relation._of((X,), default, table, None).table == {(POPE,): T}
        assert len(table) == 2
        rows = {Mapping.of({X: POPE}): T, Mapping.of({X: ARIUS}): at_default}
        assert Relation(frozenset({X}), default, rows).table == {(POPE,): T}
    fresh = {(POPE,): T}
    assert Relation._of((X,), U, fresh, None).table is fresh


def test_relation_rows_and_all_rows():
    uni = frozenset({POPE, ARIUS})
    r = Relation(frozenset({X}), U, {Mapping.of({X: POPE}): T}, universe=uni)
    assert list(r.rows()) == [row({X: POPE}, T)]
    assert dict(all_rows(r)) == {Mapping.of({X: POPE}): T,
                                  Mapping.of({X: ARIUS}): U}
    open_r = Relation(frozenset({X}), U)
    with pytest.raises(ValueError):
        list(all_rows(open_r))


def test_relation_same_function_tolerates_default_choice():
    uni = frozenset({POPE, ARIUS})
    sparse = Relation(frozenset({X}), U, {Mapping.of({X: POPE}): T}, universe=uni)
    dense = Relation(frozenset({X}), F,
                     {Mapping.of({X: POPE}): T, Mapping.of({X: ARIUS}): U},
                     universe=uni)
    assert same_function(sparse, dense)
    assert sparse != dense
    other = Relation(frozenset({X}), U, {Mapping.of({X: ARIUS}): T}, universe=uni)
    assert not same_function(sparse, other)


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
    assert same_function(projected, base)


def test_filter_on_always_true_formula_is_identity(g1):
    base = evaluate(IS_CHRISTIAN, g1)
    filtered = evaluate(Filter(OTIMES, IS_CHRISTIAN, Bound(X)), g1)
    assert same_function(filtered, base)


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
    assert same_function(literal, projected)


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


def _on_change_steps(monkeypatch, seen):
    """Call ``seen(node, triples)`` whenever a Belief body's node
    recomputes its changed rows under one holder key."""
    engine = esparql.algebra._FourEngine
    real = engine._changes_step

    def changes_step(self, q, *rest):
        kids, out, step = real(self, q, *rest)

        def counted(changes, triples):
            seen(q, triples)
            return step(changes, triples)

        return kids, out, counted

    monkeypatch.setattr(engine, "_changes_step", changes_step)


def _counting_body_evaluations(monkeypatch, node):
    """Count the evaluations of a Belief node's body: one per slice the
    engine computes, a whole run over the fresh extraction or the body's
    changed rows under one holder key."""
    calls = [0]
    real = esparql.algebra._FourEngine._eval

    def counted(self, q, g, done):
        calls[0] += q is node.query
        return real(self, q, g, done)

    def seen(q, triples):
        calls[0] += q is node.query

    monkeypatch.setattr(esparql.algebra._FourEngine, "_eval", counted)
    _on_change_steps(monkeypatch, seen)
    return calls


def test_variable_holder_work_is_sparse(monkeypatch):
    # n holders with stances the body reads, 4 with stances it does not
    # read and many more IRIs without any: the body runs once per relevant
    # holder plus once for all the rest
    n = 8
    claims = [StarTriple(Iri(f"urn:god{i}"), A, FULL_DEITY) for i in range(4)]
    stances = {StarTriple(Iri(f"urn:holder{i}"), VOCAB.predicate_for(STATES[i % 4]),
                          claims[i % 4]): T for i in range(n)}
    noise = {StarTriple(Iri(f"urn:thing{i}"), Iri("urn:p"), Iri(f"urn:other{i}")): T
             for i in range(5 * n)}
    off_body = {StarTriple(Iri(f"urn:aside{i}"), VOCAB.to_be_true, t): T
                for i, t in enumerate(sorted(noise, key=repr)[:4])}
    g = FourGraph(U, {**stances, **noise, **off_body})
    q = Belief(all_states_shorthand(X, OPLUS), Pattern(TriplePattern(S, A, FULL_DEITY)))

    scope_passes = 0
    real_scope = esparql.algebra._scope

    def counting_scope(*args, **kwargs):
        nonlocal scope_passes
        scope_passes += 1
        return real_scope(*args, **kwargs)

    bodies = _counting_body_evaluations(monkeypatch, q)
    monkeypatch.setattr(esparql.algebra, "_scope", counting_scope)
    r = evaluate(q, g)
    monkeypatch.undo()

    assert len(active_domain(g)) >= 5 * n
    assert bodies[0] == n + 1
    assert scope_passes == 1
    assert diff(r, oracle_eval(q, g)) == []


def test_every_slice_of_a_belief_has_one_default(monkeypatch, g1):
    # _eval_belief reads the default and schema of every slice off the
    # fresh slice: each body relation it evaluates for one Belief node with
    # holder variables has the same default, here over seeded random cases
    # and a belief of a belief, in both modes
    frames, checked = [], []
    real_run = esparql.algebra._FourEngine.run
    real_belief = esparql.algebra._FourEngine._eval_belief

    def run(self, q, g, *rest):
        r = real_run(self, q, g, *rest)
        if frames and q is frames[-1][0]:
            frames[-1][1].add(r.default)
        return r

    def eval_belief(self, q, g):
        frames.append((q.query, set()))
        try:
            return real_belief(self, q, g)
        finally:
            _, defaults = frames.pop()
            if belief_mod.belief_variables(q.expr):
                checked.append(defaults)

    monkeypatch.setattr(esparql.algebra._FourEngine, "run", run)
    monkeypatch.setattr(esparql.algebra._FourEngine, "_eval_belief", eval_belief)
    rng = random.Random(15)
    cases = [(randgen.random_graph(rng), randgen.random_query(rng)) for _ in range(200)]
    inner = Belief(all_states_shorthand(X, OPLUS), Pattern(term_to_pattern(ZEUS_DEITY)))
    cases.append((g1, Belief(all_states_shorthand(Y, OPLUS), inner)))
    for g, q in cases:
        for mode in EvalMode:
            try:
                evaluate(q, g, mode=mode)
            except (NonFinitelySupported, UniverseTooLarge):
                pass
    evaluated = [defaults for defaults in checked if defaults]  # not refused at once
    assert len(evaluated) > 50
    assert all(len(defaults) == 1 for defaults in evaluated)
    assert len(set().union(*evaluated)) > 1


def test_two_holder_variables_enumerate_only_relevant_holder_pairs(monkeypatch):
    # the benchmark's seed-12 belief graph: 100 holders, of which 8 have a
    # stance on Zeus's divinity; every other holder folds into the fresh
    # class, so the body runs (8 + 1) ** 2 times, not (100 + 1) ** 2: once
    # whole, and once per key that holds one of the 8, each slice once
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    g = parse_graph(gen.graph_f4s(gen.belief_graph(random.Random(12))))
    q = parse_and_desugar("SELECT INFO ?x ?y FROM BELIEF ?x ?y WHERE { <Zeus> a <FullDeity> }")
    node = q.query
    assert isinstance(node, Belief)

    bodies = _counting_body_evaluations(monkeypatch, node)
    r = evaluate(q, g)
    monkeypatch.undo()

    assert bodies[0] == 81
    assert len(r.table) == 1616


HOLDER, HOLDER2 = Variable("h"), Variable("k")
CLAIM_TERMS = [Iri(f"urn:c{i}") for i in range(2)]
HOLDERS = [Iri(f"urn:holder{i}") for i in range(4)]


def random_claim(rng):
    return StarTriple(*(rng.choice(CLAIM_TERMS) for _ in range(3)))


def holder_graph(rng):
    """Stances of four holders on triples over two IRIs, which bodies
    over those IRIs often read, and some such triples asserted."""
    exceptions = {}
    for _ in range(rng.randint(4, 16)):
        if rng.random() < 0.8:
            stance = StarTriple(rng.choice(HOLDERS), VOCAB.predicate_for(rng.choice(STATES)),
                                random_claim(rng))
            exceptions[stance] = rng.choice((T, T, C, F))
        else:
            exceptions[random_claim(rng)] = rng.choice(STATES)
    return FourGraph(rng.choice((U, F)), exceptions)


def random_body(rng, target, budget):
    """A Belief body over ``CLAIM_TERMS`` binding ``target`` (variables of
    ``randgen.VARS``): patterns, some with a variable predicate, joins over
    shared and over disjoint variables, unions, filters, maps and
    projections."""
    if budget <= 0 or rng.random() < 0.2:
        if rng.random() < 0.2:  # quoted parts and belief predicates too
            return Pattern(randgen.random_pattern(rng, CLAIM_TERMS, target))
        slots = [rng.choice(CLAIM_TERMS) for _ in range(3)]
        for v, at in zip(sorted(target, key=lambda v: v.name), rng.sample(range(3), len(target))):
            slots[at] = v
        return Pattern(TriplePattern(*slots))
    kind = rng.choice(("join", "join", "union", "filter", "filter", "map", "project"))
    if kind == "join":
        left, right = set(), set()
        for v in sorted(target, key=lambda v: v.name):
            side = rng.randint(0, 2)  # 2: both sides
            if side != 1:
                left.add(v)
            if side != 0:
                right.add(v)
        return Join(rng.choice((AND, OTIMES)), random_body(rng, frozenset(left), budget - 1),
                    random_body(rng, frozenset(right), budget - 1))
    if kind == "union":
        return Union(rng.choice((OR, OPLUS)), random_body(rng, target, budget - 1),
                     random_body(rng, target, budget - 1))
    if kind in ("filter", "map"):
        inner = random_body(rng, target, budget - 1)
        formula = randgen.random_formula(rng, CLAIM_TERMS, target)
        if kind == "filter":
            return Filter(rng.choice((AND, OTIMES)), inner, formula)
        return MapState(inner, formula, rng.choice(STATES), rng.choice(STATES))
    spare = sorted(set(randgen.VARS) - target, key=lambda v: v.name)
    wider = target | set(rng.sample(spare, min(len(spare), rng.randint(1, 2))))
    return Project(rng.choice(list(FourOperator)), target,
                   random_body(rng, frozenset(wider), budget - 1))


def random_holder_query(rng):
    """A Belief over one or two holder variables, often beside a ground
    holder (as in u3), and a ``random_body``."""
    expr = randgen.random_belief_expr(rng, HOLDERS, HOLDER)
    if rng.random() < 0.6:
        expr = CompoundBelief(randgen.random_belief_expr(rng, HOLDERS, rng.choice(HOLDERS)),
                              rng.choice(list(FourOperator)), expr)
    if rng.random() < 0.3:
        expr = CompoundBelief(expr, rng.choice(list(FourOperator)),
                              randgen.random_belief_expr(rng, HOLDERS, HOLDER2))
    scope = frozenset(rng.sample(randgen.VARS, rng.randint(1, 2)))
    return Belief(expr, random_body(rng, scope, 3))


def restance(rng, g):
    """g with one stance added, or, when ``rng`` says so and g has one,
    one removed (set to the default)."""
    stances = sorted((t for t in g.exceptions if t.predicate in VOCAB.predicates()), key=repr)
    if stances and rng.random() < 0.5:
        return g.set_value(rng.choice(stances), g.default)
    stance = StarTriple(rng.choice(HOLDERS), VOCAB.predicate_for(rng.choice(STATES)),
                        random_claim(rng))
    return g.set_value(stance, rng.choice((T, C)))


def _compare_key_slices(monkeypatch, cases):
    """Evaluate each (graph, query) case in both modes, asserting that each
    holder key's slice, r0's table with the rows its changed triples reach
    recomputed, equals the body run whole over that key's belief.extract
    graph (a key's None read as an IRI without stances), refusals
    included.  The keys of a Belief nested in a body under an outer key
    are left out, as no graph of theirs is built: each outer key's slice
    holds their rows.  Returns the slices compared per mode and
    the kinds of body node whose changed rows were recomputed."""
    engine = esparql.algebra._FourEngine
    real_belief, real_extract = engine._eval_belief, engine._extract
    real_slice, real_step = engine._slice_changes, engine._changes_step
    beliefs, keys, compared = [], [], {mode: 0 for mode in EvalMode}
    kinds, nested = set(), [0]

    def eval_belief(self, q, g):
        beliefs.append((q, g))
        try:
            return real_belief(self, q, g)
        finally:
            beliefs.pop()

    def extract(self, ext, key):
        keys.append(key)
        return real_extract(self, ext, key)

    def changes_step(self, q, *rest):
        kids, out, step = real_step(self, q, *rest)

        def counted(changes, triples):
            kinds.add(type(q))
            nested[0] += isinstance(q, Belief)
            try:
                return step(changes, triples)
            finally:
                nested[0] -= isinstance(q, Belief)

        return kids, out, counted

    def slice_changes(steps, triples):
        if nested[0]:
            return real_slice(steps, triples)
        q, g = beliefs[-1]
        r0 = steps[-1][1]  # the body's relation over the fresh extraction
        universe = r0.universe
        holders = [h or Iri("urn:no-stances") for h in keys[-1]]
        binding = dict(zip(esparql.algebra._schema(q._holders), holders))
        graph = belief_mod.extract(g, q.expr, VOCAB, binding)
        try:
            want = engine(VOCAB, universe).run(q.query, graph)
        except NonFinitelySupported as e:
            want = str(e)
        try:
            changed = real_slice(steps, triples)
        except NonFinitelySupported as e:
            got = str(e)
        else:
            table = {k: v for k, v in {**r0.table, **changed}.items() if v != r0.default}
            got = Relation._of(r0.schema, r0.default, table, universe)
        assert got == want, (q, keys[-1])
        compared[EvalMode.OPEN if universe is None else EvalMode.ACTIVE_DOMAIN] += 1
        if isinstance(got, str):
            raise NonFinitelySupported(got)
        return changed

    monkeypatch.setattr(engine, "_eval_belief", eval_belief)
    monkeypatch.setattr(engine, "_extract", extract)
    monkeypatch.setattr(engine, "_slice_changes", staticmethod(slice_changes))
    monkeypatch.setattr(engine, "_changes_step", changes_step)
    for graph, q in cases:
        for mode in EvalMode:
            try:
                evaluate(q, graph, mode=mode, cap=10**5)
            except (NonFinitelySupported, UniverseTooLarge):
                pass
    monkeypatch.undo()
    return compared, kinds


def test_each_key_slice_equals_a_full_evaluation_of_its_extraction(monkeypatch):
    # each holder key's slice, r0's table with the rows its changed triples
    # reach recomputed, equals the body run whole over that key's
    # belief.extract graph, refusals included, in both modes and after
    # set_value adds or removes a stance
    # a case the random ones miss: the ground holder's false makes a
    # one-sided join row differ from the default on every extension, and
    # holder 1's true takes it back
    c0, c1 = CLAIM_TERMS
    claim, other = StarTriple(c0, c0, c0), StarTriple(c1, c1, c1)
    cooling = FourGraph(U, {StarTriple(HOLDERS[0], VOCAB.to_be_false, claim): T,
                            StarTriple(HOLDERS[1], VOCAB.to_be_true, claim): T,
                            StarTriple(HOLDERS[2], VOCAB.to_be_true, other): T})
    expr = CompoundBelief(AtomicBelief(HOLDERS[0], F, U), OR, AtomicBelief(HOLDER, T, F))
    body = Join(AND, Pattern(TriplePattern(X, c0, c0)), Pattern(TriplePattern(Y, c1, c1)))
    # and a belief about holder 1's belief in the claim, held by holder 3
    about = FourGraph(U, {**cooling.exceptions, StarTriple(
        HOLDERS[3], VOCAB.to_be_true, StarTriple(HOLDERS[1], VOCAB.to_be_true, claim)): T})
    rng = random.Random(25)
    cases = [(cooling, Belief(expr, body)),
             (about, Belief(all_states_shorthand(HOLDER2, OPLUS), Belief(expr, body)))]
    for _ in range(100):
        g, q = holder_graph(rng), random_holder_query(rng)
        cases += [(g, q), (restance(rng, g), q)]
    compared, kinds = _compare_key_slices(monkeypatch, cases)
    assert compared[EvalMode.ACTIVE_DOMAIN] > 900 and compared[EvalMode.OPEN] > 300
    assert kinds == {Pattern, Join, Union, Filter, MapState, Project, Belief}


EDGE_P, EDGE_Q, Z = Iri("urn:p"), Iri("urn:q"), Variable("z")


def edge_stance(rng, nodes):
    """A stance of one of the four holders, true or false and now and then
    conflicted, on a <p> or <q> edge between two of ``nodes``."""
    edge = StarTriple(rng.choice(nodes), rng.choice((EDGE_P, EDGE_Q)), rng.choice(nodes))
    return StarTriple(rng.choice(HOLDERS), VOCAB.predicate_for(rng.choice((T, F, F, C))), edge)


def projected_join_case(rng):
    """A graph of the four holders' stances on edges between 2-4 nodes,
    with a few edges asserted, and a Belief over a holder variable, two of
    them or one beside a ground holder, whose body projects a join of a <p>
    pattern and a <q> pattern.  The truth pair of operators makes false
    one-sided rows that the projection's unknown default absorbs; the
    info pair and the mixed ones absorb none.  A variable that only one
    side binds and the projection drops lets a group list all its
    extensions.  Returns the graph, the query and the nodes."""
    nodes = [Iri(f"urn:n{i}") for i in range(rng.randint(2, 4))]
    exceptions = {}
    for _ in range(rng.randint(3, 10)):
        if rng.random() < 0.85:
            exceptions[edge_stance(rng, nodes)] = rng.choice((T, T, T, C))
        else:
            exceptions[StarTriple(rng.choice(nodes), EDGE_P, rng.choice(nodes))] = T
    left = Pattern(TriplePattern(X, EDGE_P, Y))
    right = Pattern(TriplePattern(rng.choice((X, Y)), EDGE_Q, rng.choice((Z, rng.choice(nodes)))))
    scope = sorted(in_scope(left) | in_scope(right), key=lambda v: v.name)
    keep = frozenset(rng.sample(scope, rng.randint(0, len(scope) - 1)))
    meet, join = rng.choice(((AND, OR), (AND, OR), (OTIMES, OPLUS), (AND, OPLUS), (OTIMES, OR)))
    expr = rng.choice((
        all_states_shorthand(HOLDER, OPLUS),
        CompoundBelief(all_states_shorthand(HOLDER, OPLUS), OPLUS,
                       all_states_shorthand(HOLDER2, OPLUS)),
        CompoundBelief(all_states_shorthand(HOLDERS[0], OPLUS), rng.choice((OPLUS, OR)),
                       all_states_shorthand(HOLDER, OPLUS))))
    q = Belief(expr, Project(join, keep, Join(meet, left, right)))
    return FourGraph(U, exceptions), q, nodes


def test_a_projected_join_change_step_equals_a_full_evaluation(monkeypatch):
    # a Project over a Join in a FROM BELIEF body is one change step, keyed
    # on the shared variables it keeps, which decides on the rows it reads
    # which one-sided rows to leave out: each key's slice still equals the
    # body run whole over that key's extraction, in both modes and after a
    # stance update, and the answer the oracle's.  Both of the step's
    # branches run: a step that leaves rows out, and one whose rows let a
    # group list all its extensions, so that it leaves none out
    algebra = esparql.algebra
    real_absorbed, real_below = algebra._absorbed, algebra._below_full
    steps = {"absorbing": 0, "full": 0}

    def absorbed(r1, r2, t1, t2, *rest):
        out = real_absorbed(r1, r2, t1, t2, *rest)
        steps["absorbing"] += bool(out) and t1 is not r1.table  # a whole run reads its table
        return out

    def below_full(r1, r2, t1, t2, keep):
        below = real_below(r1, r2, t1, t2, keep)
        steps["full"] += not below and t1 is not r1.table
        return below

    # a case the random ones miss: the ground holder's false <p> edge makes
    # false one-sided rows that the fresh extraction's run leaves out, but
    # holder 1's false <q> edge fills every group of ?x = n0 and ?z = n1
    n0, n1 = Iri("urn:n0"), Iri("urn:n1")
    filling = FourGraph(U, {
        StarTriple(HOLDERS[0], VOCAB.to_be_false, StarTriple(n0, EDGE_P, n1)): T,
        StarTriple(HOLDERS[1], VOCAB.to_be_false, StarTriple(n0, EDGE_Q, n1)): T})
    body = Project(OR, frozenset({X, Z}), Join(AND, Pattern(TriplePattern(X, EDGE_P, Y)),
                                                Pattern(TriplePattern(X, EDGE_Q, Z))))
    expr = CompoundBelief(all_states_shorthand(HOLDERS[0], OPLUS), OPLUS,
                          all_states_shorthand(HOLDER, OPLUS))
    cases = [(filling, Belief(expr, body))]
    rng = random.Random(36)
    for _ in range(120):
        g, q, nodes = projected_join_case(rng)
        cases += [(g, q), (g.set_value(edge_stance(rng, nodes), rng.choice((T, U))), q)]
    monkeypatch.setattr(algebra, "_absorbed", absorbed)
    monkeypatch.setattr(algebra, "_below_full", below_full)
    compared, kinds = _compare_key_slices(monkeypatch, cases)
    assert compared[EvalMode.ACTIVE_DOMAIN] > 1000 and compared[EvalMode.OPEN] > 500, compared
    assert Project in kinds and Join not in kinds  # the Join is its Project's step
    assert steps["absorbing"] > 300 and steps["full"] > 30, steps
    assert evaluate(cases[0][1], filling).exceptions == {
        Mapping.of({HOLDER: HOLDERS[1], X: n0, Z: n1}): F}
    # the dense oracle runs the body once per holder binding, so it checks
    # the cases of one holder variable among the first 60 draws
    checked = [(g, q) for g, q in cases[:121] if len(q._holders) == 1]
    assert len(checked) > 50
    for g, q in checked:
        assert diff(evaluate(q, g), oracle_eval(q, g)) == [], q


HOLDER3 = Variable("j")


def believing_graph(rng, claims):
    """A ``holder_graph`` whose holders also have stances, mostly true, on
    the four holders' stances on ``claims`` (or on random claims), some of
    those stances asserted too."""
    exceptions = dict(holder_graph(rng).exceptions)
    for _ in range(rng.randint(4, 12)):
        claim = rng.choice(claims) if claims and rng.random() < 0.7 else random_claim(rng)
        stance = StarTriple(rng.choice(HOLDERS), VOCAB.predicate_for(rng.choice(STATES)), claim)
        about = StarTriple(rng.choice(HOLDERS), VOCAB.predicate_for(rng.choice((T, T, C, F))),
                           stance)
        exceptions[about] = rng.choice((T, T, C, F))
        if rng.random() < 0.3:
            exceptions[stance] = rng.choice((T, C))
    return FourGraph(rng.choice((U, F)), exceptions)


def claims_read(rng, body):
    """For each pattern of ``body``, a triple of its shape whose variables
    take claim terms, each occurrence its own: mostly triples it reads."""
    def ground(p):
        if isinstance(p, Variable):
            return rng.choice(CLAIM_TERMS)
        if isinstance(p, Iri):
            return p
        return StarTriple(ground(p.subject), ground(p.predicate), ground(p.object))
    return [ground(node.pattern) for node in esparql.algebra._postorder(body)
            if isinstance(node, Pattern)]


def random_nested_expr(rng, holder, ground):
    """A belief expression over ``holder``: its full picture or one of
    ``randgen``'s, beside a ground holder with probability ``ground``."""
    if rng.random() < 0.5:
        expr = all_states_shorthand(holder, rng.choice((OR, OPLUS)))
    else:
        expr = randgen.random_belief_expr(rng, HOLDERS, holder)
    if rng.random() < ground:
        expr = CompoundBelief(randgen.random_belief_expr(rng, HOLDERS, rng.choice(HOLDERS)),
                              rng.choice(list(FourOperator)), expr)
    return expr


def random_nested_query(rng):
    """A Belief over ``HOLDER2`` whose body holds a Belief over ``HOLDER``
    (sometimes also ``HOLDER3``), each at times beside a ground holder: the
    inner Belief alone, projected, joined with a pattern or state-mapped."""
    inner_expr = random_nested_expr(rng, HOLDER, 0.5)
    if rng.random() < 0.3:
        inner_expr = CompoundBelief(inner_expr, rng.choice((OR, OPLUS)),
                                    all_states_shorthand(HOLDER3, rng.choice((OR, OPLUS))))
    inner = Belief(inner_expr, random_body(rng, frozenset({rng.choice(randgen.VARS)}), 1))
    scope = sorted(in_scope(inner), key=lambda v: v.name)
    kind = rng.choice(("belief", "project", "join", "map"))
    if kind == "project":
        body = Project(rng.choice(list(FourOperator)),
                       frozenset(rng.sample(scope, rng.randint(1, len(scope)))), inner)
    elif kind == "join":
        shared = frozenset({rng.choice([v for v in scope if v in randgen.VARS])})
        body = Join(rng.choice((AND, OTIMES)), inner, random_body(rng, shared, 0))
    elif kind == "map":
        body = MapState(inner, randgen.random_formula(rng, CLAIM_TERMS + HOLDERS, set(scope)),
                        rng.choice(STATES), rng.choice(STATES))
    else:
        body = inner
    return Belief(random_nested_expr(rng, HOLDER2, 0.3), body)


def test_nested_belief_slices_equal_full_evaluations(monkeypatch):
    # beliefs about beliefs, holders variables at both levels: each outer
    # key's slice, the fresh slice with its changed rows (a nested Belief's
    # found from its own fresh slice, without its graph), equals the body
    # run whole over that key's extraction, refusals included, in both
    # modes and after set_value adds or removes a stance; and the engine
    # agrees with the oracle
    # cases the random ones seldom draw: under an outer key, the inner
    # ground holder gains a stance, which moves every inner key, and an
    # outer ground holder's belief in a stance is outvoted, so that holder
    # 1 leaves the inner holders; with one inner holder variable and two
    c0, _ = CLAIM_TERMS
    stance = StarTriple(HOLDERS[1], VOCAB.to_be_true, StarTriple(c0, c0, c0))
    graph = FourGraph(U, {
        StarTriple(HOLDERS[0], VOCAB.to_be_true, stance): T,
        StarTriple(HOLDERS[2], VOCAB.to_be_false, stance): T,
        StarTriple(HOLDERS[3], VOCAB.to_be_true,
                   StarTriple(HOLDERS[2], VOCAB.to_be_true, StarTriple(c0, c0, c0))): T})
    body = Pattern(TriplePattern(X, c0, c0))
    inner = [CompoundBelief(AtomicBelief(HOLDERS[1], T, F), OR, all_states_shorthand(HOLDER, OR)),
             CompoundBelief(all_states_shorthand(HOLDER, OR), OPLUS,
                            all_states_shorthand(HOLDER3, OR))]
    outer = [all_states_shorthand(HOLDER2, OPLUS),
             CompoundBelief(AtomicBelief(HOLDERS[0], T, F), AND, AtomicBelief(HOLDER2, F, T))]
    cases = [(graph, Belief(o, Belief(i, body))) for o in outer for i in inner]
    rng = random.Random(26)
    for _ in range(60):
        q = random_nested_query(rng)
        g = believing_graph(rng, claims_read(rng, q.query))
        cases += [(g, q), (restance(rng, g), q)]
    compared, kinds = _compare_key_slices(monkeypatch, cases)
    assert compared[EvalMode.ACTIVE_DOMAIN] > 400 and compared[EvalMode.OPEN] > 150
    assert Belief in kinds
    agreed = 0
    for g, q in cases:  # over a universe small enough for the dense oracle
        if _dense_rows(q, len(active_domain(g, esparql.algebra.query_constants(q)))) <= 5 * 10**4:
            assert diff(evaluate(q, g), oracle_eval(q, g)) == [], q
            agreed += 1
    assert agreed > 40


def _outcome(q, g, mode):
    """q's relation over g in ``mode``, or the type and text of its refusal."""
    try:
        return evaluate(q, g, mode=mode, cap=10**5)
    except (NonFinitelySupported, UniverseTooLarge) as e:
        return f"{type(e).__name__}: {e}"


def random_update(rng, g, holders, terms):
    """g after one random update: an exception set to another state than
    its own and the default, one reset to the default, a stance of one of
    ``holders`` on an exception, or a new triple over ``terms``."""
    existing = sorted(g.exceptions, key=repr)
    kind = rng.choice(("change", "reset", "believe", "plain")) if existing else "plain"
    if kind == "change":
        t = rng.choice(existing)
        return g.set_value(t, rng.choice([s for s in STATES if s not in (g.lookup(t), g.default)]))
    if kind == "reset":
        return g.set_value(rng.choice(existing), g.default)
    if kind == "believe":
        stance = StarTriple(rng.choice(holders), VOCAB.predicate_for(rng.choice(STATES)),
                            rng.choice(existing))
        return g.set_value(stance, rng.choice((T, T, C, F)))
    t = StarTriple(rng.choice(terms), rng.choice(terms), rng.choice(terms))
    return g.set_value(t, rng.choice([s for s in STATES if s != g.default]))


def test_an_update_stream_answers_as_a_fresh_graph_does():
    # randgen's graphs and queries and the holder cases above, each query
    # evaluated over its graph in both modes and then again after each of
    # a chain of set_value steps (now and then two between evaluations),
    # alternately as a copy of the query made before any evaluation: the
    # relation or refusal equals the one over a graph built afresh from
    # the updated exceptions
    rng = random.Random(31)
    streams = [(randgen.random_graph(rng), randgen.random_query(rng),
                randgen.iri_pool(), randgen.iri_pool()) for _ in range(120)]
    for _ in range(60):
        streams.append((holder_graph(rng), random_holder_query(rng), HOLDERS, CLAIM_TERMS))
    for _ in range(30):
        q = random_nested_query(rng)
        streams.append((believing_graph(rng, claims_read(rng, q.query)), q, HOLDERS,
                        CLAIM_TERMS + HOLDERS))
    outcomes = {"relation": 0, "refusal": 0}
    for g, q, holders, terms in streams:
        twin = copy.deepcopy(q)
        for mode in EvalMode:
            _outcome(q, g, mode)
        for step in range(4):
            for _ in range(rng.choice((1, 1, 2))):
                g = random_update(rng, g, holders, terms)
            fresh = FourGraph(g.default, dict(g.exceptions))
            for mode in EvalMode:
                got = _outcome(twin if step % 2 else q, g, mode)
                assert got == _outcome(q, fresh, mode), (q, g, mode)
                outcomes["refusal" if isinstance(got, str) else "relation"] += 1
    assert outcomes["relation"] > 1000 and outcomes["refusal"] > 100, outcomes


def test_a_catch_up_over_every_holder_answers_as_a_fresh_graph_does():
    # the holder and nested-belief cases over their graphs with every
    # belief statement at the default, evaluated in both modes; then every
    # statement is set back in one chain of set_value steps, in a random
    # order, and the query evaluated once: the relation or refusal equals
    # the one over a graph built afresh.  Where the open-mode run kept a
    # base and no ground holder's stances came back, the base is carried
    # through the chain, and its catch-up takes in every holder at once
    rng = random.Random(32)
    cases = [(holder_graph(rng), random_holder_query(rng)) for _ in range(120)]
    for _ in range(60):
        q = random_nested_query(rng)
        cases.append((believing_graph(rng, claims_read(rng, q.query)), q))
    predicates = VOCAB.predicates()
    outcomes, wide, checked = {"relation": 0, "refusal": 0}, 0, dict.fromkeys(EvalMode, 0)
    for g, q in cases:
        statements = sorted((t for t in g.exceptions if t.predicate in predicates), key=repr)
        rng.shuffle(statements)
        chained = FourGraph(g.default, {t: v for t, v in g.exceptions.items()
                                        if t.predicate not in predicates})
        for mode in EvalMode:
            _outcome(q, chained, mode)
        for t in statements:
            chained = chained.set_value(t, g.exceptions[t])
        wide += any(len(b.since) > 1 for key, b in chained._derived.items()
                    if isinstance(key, tuple) and key[0] == "belief")
        fresh = FourGraph(g.default, dict(g.exceptions))
        got = {mode: _outcome(q, chained, mode) for mode in EvalMode}
        for mode in EvalMode:
            assert got[mode] == _outcome(q, fresh, mode), (q, g, mode)
            outcomes["refusal" if isinstance(got[mode], str) else "relation"] += 1
        # a fresh build runs the same catch-up, so the dense oracle checks
        # the answers too, where its tables are small
        if _dense_rows(q, len(active_domain(g, esparql.algebra.query_constants(q)))) > 10**4:
            continue
        want = oracle_eval(q, fresh)
        assert diff(got[EvalMode.ACTIVE_DOMAIN], want) == [], q
        checked[EvalMode.ACTIVE_DOMAIN] += 1
        if not isinstance(got[EvalMode.OPEN], str):
            assert all(got[EvalMode.OPEN].value_at(m) == v for m, v in want.rows.items()), q
            checked[EvalMode.OPEN] += 1
    assert outcomes["relation"] > 180 and outcomes["refusal"] > 100, outcomes
    assert wide > 30 and checked[EvalMode.ACTIVE_DOMAIN] > 40 and checked[EvalMode.OPEN] > 15, \
        (wide, checked)


def _dense_rows(q, size):
    """The rows of the oracle's dense tables for q over ``size`` terms:
    |U|^|scope| for each node and belief context."""
    total, stack = 0, [(q, 1)]
    while stack:
        node, contexts = stack.pop()
        total += contexts * size ** len(in_scope(node))
        if isinstance(node, (Join, Union)):
            stack += [(node.left, contexts), (node.right, contexts)]
        elif isinstance(node, Belief):
            stack.append((node.query, contexts * size ** len(node._holders)))
        elif not isinstance(node, Pattern):
            stack.append((node.query, contexts))
    return total


def test_belief_slices_build_no_graph_per_key(monkeypatch):
    # a Belief whose body holds no Belief builds one graph, the fresh
    # extraction, however many holder keys it visits; the u3 shape reads
    # every triple through a variable predicate
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    g = parse_graph(gen.graph_f4s(gen.belief_graph(random.Random(12))))
    engine = esparql.algebra._FourEngine
    real_init, real_extract = FourGraph.__init__, engine._extract
    graphs, keys = [0], [0]

    def init(self, *args, **kwargs):
        graphs[0] += 1
        real_init(self, *args, **kwargs)

    def extract(self, *args, **kwargs):
        keys[0] += 1
        return real_extract(self, *args, **kwargs)

    monkeypatch.setattr(FourGraph, "__init__", init)
    monkeypatch.setattr(engine, "_extract", extract)
    for text in (
        "SELECT INFO ?x FROM BELIEF <h071> ?x WHERE { ?s ?p ?o }",
        "SELECT INFO ?x ?d FROM BELIEF ?x WHERE { ?d a <FullDeity> . ?d ?p ?o }",
        "SELECT INFO ?x ?d ?e FROM BELIEF ?x WHERE { ?d a <FullDeity> . ?e a <FullDeity> }",
        "SELECT INFO ?x ?d FROM BELIEF ?x WHERE { { ?d a <FullDeity> } UNION { ?d a <Christian> }"
        " FILTER (!(?d = <Zeus>)) . MAP IF (STATE IS TRUE) TO CONFLICTED ELSE FALSE }",
    ):
        graphs[0] = keys[0] = 0
        assert evaluate(parse_and_desugar(text), g, cap=10**10).table
        assert graphs[0] == 1 and keys[0] > 20, text


def test_a_stance_update_recomputes_only_the_changed_holders_keys(monkeypatch):
    # u1_var on the seed-12 belief_holders graph, evaluated once, then again
    # after set_value flips one stance: the updated graph is handed the
    # domain, the holder index and the extraction, so it builds none of
    # them, and only the key holding the flipped holder is extracted
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    g = parse_graph(gen.graph_f4s(gen.belief_graph(random.Random(12))))
    q = parse_and_desugar(gen.belief_queries(random.Random(12))[0]["u1_var"])
    evaluate(q, g)
    stance = min((t for t, v in g.exceptions.items() if v == T and t.predicate in VOCAB.predicates()
                  and isinstance(t.object, StarTriple) and t.object.predicate == A), key=repr)
    updated = g.set_value(stance, F)
    extraction = belief_mod.Extraction
    real_derived, real_init, real_delta = FourGraph.derived, extraction.__init__, extraction.delta
    built, inits, computed = [], [0], []

    def derived(self, key, build, carry=None):
        if self is updated and key not in self._derived:
            built.append(key)
        return real_derived(self, key, build, carry)

    def init(self, *args):
        inits[0] += 1
        real_init(self, *args)

    def delta(self, key):
        computed.append(key)
        return real_delta(self, key)

    monkeypatch.setattr(FourGraph, "derived", derived)
    monkeypatch.setattr(extraction, "__init__", init)
    monkeypatch.setattr(extraction, "delta", delta)
    r = evaluate(q, updated)
    monkeypatch.undo()
    assert built == [] and inits == [0]
    assert computed == [(stance.subject,)]
    assert r == evaluate(q, FourGraph(updated.default, dict(updated.exceptions)))


def test_a_join_change_step_runs_on_the_rows_its_changed_keys_select(monkeypatch):
    # under each holder key, the change step of a join on ?deity hands the
    # join only its inputs' rows, with the key's changes applied, whose
    # ?deity is one that the key's changed rows hold: <h0> believes ten
    # deities and their realms, so the fresh slice lists 10 rows on each
    # side, and each other holder changes the rows of two deities
    true, false = (f"<https://esparql.dev/vocab#believesTo{s}>" for s in ("BeTrue", "BeFalse"))
    text = ["@default unknown ."]
    for i in range(10):
        text += [f"<h0> {true} << <d{i}> <a> <FullDeity> >> .",
                 f"<h0> {true} << <d{i}> <rules> <realm{i}> >> ."]
    for k in range(1, 7):
        text += [f"<h{k}> {false} << <d{k}> <a> <FullDeity> >> .",
                 f"<h{k}> {true} << <d{k + 2}> <rules> <realm{k}> >> ."]
    g = parse_graph("\n".join(text) + "\n")
    q = parse_and_desugar(
        "SELECT INFO * FROM BELIEF <h0> ?x WHERE { ?deity a <FullDeity> . ?deity <rules> ?r }")
    algebra = esparql.algebra
    real_plan, real_step = algebra._plan_join, algebra._FourEngine._changes_step
    handed, checked = [], []

    def plan_join(r1, r2, op2):
        schema, d, run, key = real_plan(r1, r2, op2)

        def counted(t1, t2, *absorbed):
            handed.append((t1, t2))
            return run(t1, t2, *absorbed)

        return schema, d, counted, key

    def changes_step(self, node, done, at):
        kids, out, step = real_step(self, node, done, at)
        if not isinstance(node, Join):
            return kids, out, step
        ins = [done[algebra._key(kid)][1] for kid in (node.left, node.right)]

        def counted(changes, triples):
            handed.clear()
            rows = step(changes, triples)
            changed = [changes[i] for i in kids]
            deities = {k[r.schema.index(DEITY)] for r, c in zip(ins, changed) for k in c}
            want = tuple({k: v for k, v in {**r.table, **c}.items()
                          if k[r.schema.index(DEITY)] in deities and v != r.default}
                         for r, c in zip(ins, changed))
            assert handed == [want]
            checked.append((len(deities), [len(r.table) for r in ins]))
            return rows

        return kids, out, counted

    monkeypatch.setattr(algebra, "_plan_join", plan_join)
    monkeypatch.setattr(algebra._FourEngine, "_changes_step", changes_step)
    r = evaluate(q, g)
    monkeypatch.undo()
    assert not diff(r, oracle_eval(q, g))
    # one step per holder with stances but h0; each of them changes two of
    # the ten deities
    assert checked == [(2, [10, 10])] * 6


def test_a_belief_of_a_belief_builds_no_graph_per_outer_key(monkeypatch):
    # u4, a belief about a belief, on the seed-12 belief_holders graph: the
    # nested Belief's changed rows under an outer key come from its slices
    # over the fresh extraction, so the graphs and extractions built do not
    # grow with the outer keys, and each graph's holder index is built
    # once per vocabulary
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    g = parse_graph(gen.graph_f4s(gen.belief_graph(random.Random(12))))
    q = parse_and_desugar(gen.belief_queries(random.Random(12))[0]["u4"])
    engine = esparql.algebra._FourEngine
    real_graph, real_extraction = FourGraph.__init__, belief_mod.Extraction.__init__
    real_derived, real_extract = FourGraph.derived, engine._extract
    graphs, extractions, keys, indexes, held = [0], [0], [0], [], []

    def graph(self, *args, **kwargs):
        graphs[0] += 1
        real_graph(self, *args, **kwargs)

    def extraction(self, *args, **kwargs):
        extractions[0] += 1
        real_extraction(self, *args, **kwargs)

    def derived(self, key, build, carry=None):
        def counted():
            indexes.append((id(self), key))
            held.append(self)  # so no later graph takes its id
            return build()
        return real_derived(self, key, counted if key[0] == "holders" else build, carry)

    def extract(self, *args, **kwargs):
        keys[0] += 1
        return real_extract(self, *args, **kwargs)

    monkeypatch.setattr(FourGraph, "__init__", graph)
    monkeypatch.setattr(belief_mod.Extraction, "__init__", extraction)
    monkeypatch.setattr(FourGraph, "derived", derived)
    monkeypatch.setattr(engine, "_extract", extract)
    runs = []
    for mode in (EvalMode.OPEN, EvalMode.OPEN, EvalMode.ACTIVE_DOMAIN):
        graphs[0] = extractions[0] = keys[0] = 0
        assert evaluate(q, g, mode=mode).table
        runs.append((graphs[0], extractions[0], keys[0]))
    monkeypatch.undo()
    # each Belief's fresh extraction as a graph, and each Belief's
    # extraction from its graph: the outer one's is kept with g.  The
    # repeat run finds the outer Belief's base kept with g and builds and
    # visits nothing; the active-domain run's bases are its universe's own
    assert [built for *built, _ in runs] == [[2, 2], [0, 0], [2, 1]], runs
    assert runs[0][2] > 30 and runs[1][2] == 0 and runs[2][2] > 30, runs
    # g's index once, and that of each outer base's fresh extraction
    assert len(indexes) == len(set(indexes)) == 1 + 2
    # and nothing is left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        evaluate(q, g, mode=EvalMode.OPEN)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _belief_of_a_belief():
    inner = Belief(all_states_shorthand(X, OPLUS), Pattern(term_to_pattern(ZEUS_DEITY)))
    return Belief(all_states_shorthand(Y, OPLUS), inner)


def _joins_only_a_project_reads(q):
    """The ids of q's Joins, bodies included, whose one parent is a Project."""
    parents, projected = {}, set()
    for node in esparql.algebra._postorder(q):
        kids = (node.left, node.right) if isinstance(node, (Join, Union)) else (
            () if isinstance(node, Pattern) else (node.query,))
        for kid in kids:
            parents[id(kid)] = parents.get(id(kid), 0) + 1
        if isinstance(node, Project) and isinstance(node.query, Join):
            projected.add(id(node.query))
    return {j for j in projected if parents[j] == 1}


def test_each_node_is_evaluated_once_per_run(monkeypatch, g1):
    # a run lists every node but a Join that only its Project reads, which
    # that Project joins itself; it enters eval once per node it lists and
    # runs _eval once per distinct key and graph, equal patterns sharing
    # one key.  A change plan reads the run's relations and plans and
    # enters eval for no node, such a Join included.  A Belief
    # runs its body once, over the all-fresh extraction, and recomputes a
    # body node's changed rows at most once per holder key, a nested
    # Belief included.  Every graph and key's triples are held, so no two
    # share an id
    engine = esparql.algebra._FourEngine
    listed, entered, planned, evaluated, runs, changed, held = [], [], [], [], [], [], []
    planning = [0]
    real_run, real_eval, real_inner = engine.run, engine.eval, engine._eval
    real_plan = engine._changes_plan

    def key(q, g):
        held.append(g)
        return (q.pattern if isinstance(q, Pattern) else id(q), id(g))

    def run(self, q, g, *rest):
        listed.extend(map(id, self._order(q)))
        runs.append(key(q, g))
        return real_run(self, q, g, *rest)

    def eval_(self, q, g, *rest):
        (planned if planning[0] else entered).append(id(q))
        return real_eval(self, q, g, *rest)

    def inner(self, q, g, *rest):
        evaluated.append(key(q, g))
        return real_inner(self, q, g, *rest)

    def changes_plan(self, *args):
        planning[0] += 1
        try:
            return real_plan(self, *args)
        finally:
            planning[0] -= 1

    monkeypatch.setattr(engine, "run", run)
    monkeypatch.setattr(engine, "eval", eval_)
    monkeypatch.setattr(engine, "_eval", inner)
    monkeypatch.setattr(engine, "_changes_plan", changes_plan)
    _on_change_steps(monkeypatch, lambda q, triples: changed.append(key(q, triples)))
    patterns = ("?s <a> ?o", "?s <a> <Christian>", "?s ?p ?o")
    chain = parse_and_desugar(
        "SELECT ?s WHERE { " + " . ".join(patterns[i % 3] for i in range(9)) + " }")
    nested = _belief_of_a_belief()
    flat = parse_and_desugar(
        "SELECT INFO ?h ?s FROM BELIEF ?h WHERE { ?s ?p ?o . ?s ?p <FullDeity> }")
    projected = parse_and_desugar(
        "SELECT INFO * FROM BELIEF ?h WHERE { SELECT ?s WHERE { ?s ?p ?o . ?s ?p <FullDeity> } }")
    # four holders with beliefs about a belief on Zeus's divinity, so that
    # the nested case has several outer keys whose slices change
    about_zeus = g1
    for outer, inner, state in ((ARIUS, POPE, F), (CHRISTIANITY, ARIUS, T), (POPE, RUSSELL, F)):
        about_zeus = about_zeus.set_value(StarTriple(
            outer, VOCAB.to_be_true, StarTriple(inner, VOCAB.predicate_for(state), ZEUS_DEITY)), T)
    cases = [(chain, mode, g1) for mode in EvalMode] + [
        (nested, EvalMode.ACTIVE_DOMAIN, about_zeus), (flat, EvalMode.ACTIVE_DOMAIN, g1),
        (projected, EvalMode.ACTIVE_DOMAIN, g1)]
    for q, mode, g in cases:
        for log in (listed, entered, planned, evaluated, runs, changed):
            log.clear()
        assert evaluate(q, g, mode=mode).table
        fused = _joins_only_a_project_reads(q)
        assert set(listed) == {id(n) for n in esparql.algebra._postorder(q)} - fused
        assert sorted(entered) == sorted(listed)
        assert set(planned) - set(listed) == set()
        assert len(evaluated) == len(set(evaluated))
        assert len(listed) + len(fused & set(planned)) - len(evaluated) == (
            6 if q is chain else 0)  # the repeated patterns
        assert len(runs) == len(set(runs))
        assert len(changed) == len(set(changed))
        if q is nested:
            assert sum(r[0] == id(nested.query) for r in runs) == 1  # over the fresh extraction
            assert len({triples for _, triples in changed}) > 3  # changed rows under several keys
        if q in (flat, projected):
            assert len(runs) == 2  # the query, and the body over the fresh extraction
            assert len(changed) > 3  # the body's changed rows under several keys
        if q is chain:
            assert len(fused) == 1 and not changed
    for q, mode, g in cases:
        if mode is EvalMode.ACTIVE_DOMAIN:
            assert diff(evaluate(q, g), oracle_eval(q, g)) == []
    assert diff(evaluate(nested, g1), oracle_eval(nested, g1)) == []


def test_holder_variables_are_read_once_per_belief_node(monkeypatch, g1):
    calls = _counting(monkeypatch, belief_mod, "belief_variables")
    for mode in EvalMode:
        q = _belief_of_a_belief()
        try:
            evaluate(q, g1, mode=mode)
        except NonFinitelySupported:
            pass
        assert calls[0] == 2
        evaluate(q, g1)
        assert calls[0] == 2
        calls[0] = 0


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

    # count the join keys computed: calls of every plan onto the shared schema
    keys, real_plan = [0], esparql.algebra._plan

    def counted_plan(target, source):
        plan = real_plan(target, source)
        if target != (Y,):
            return plan

        def counted(row):
            keys[0] += 1
            return plan(row)

        return counted

    monkeypatch.setattr(esparql.algebra, "_plan", counted_plan)
    r = evaluate(Join(OTIMES, left, right), g)
    monkeypatch.undo()

    # every node has one p-successor and one q-successor: a hash join keys
    # each of the 30 + 30 rows once, where a nested loop keys 30 * 30 pairs
    assert pairs == 30 and keys[0] == 30 + 30
    assert diff(r, oracle_eval(Join(OTIMES, left, right), g)) == []


def test_evaluation_builds_no_mapping_until_exceptions_are_read(monkeypatch):
    p, q = Iri("urn:p"), Iri("urn:q")
    g = _ring_graph(30, (p, q))
    a, b, c = (Variable(n) for n in "abc")
    tri = Join(AND, Pattern(TriplePattern(a, p, b)), Pattern(TriplePattern(b, q, c)))
    query = Project(OR, frozenset({a, c}), Filter(AND, tri, Not(Eq(a, c))))

    made = _counting(monkeypatch, Mapping, "__init__")
    r = evaluate(query, g)
    assert made[0] == 0
    rows = r.exceptions
    assert made[0] == len(rows) > 0
    assert r.exceptions is rows and made[0] == len(rows)
    monkeypatch.undo()
    assert diff(r, oracle_eval(query, g)) == []


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


@pytest.mark.parametrize("pattern, examined", [
    # predicate bucket 20 triples, object bucket 7: <n1> is the object of
    # two p-links, one q-link and four r-links
    (TriplePattern(X, Iri("urn:p"), Iri("urn:n1")), 7),
    (TriplePattern(Iri("urn:n7"), P, O), 3),
    (TriplePattern(Iri("urn:n7"), Iri("urn:p"), O), 3),
])
def test_pattern_scan_reads_the_narrowest_bucket(monkeypatch, pattern, examined):
    g = _ring_graph(20, (Iri("urn:p"), Iri("urn:q"), Iri("urn:r")))
    matcher = esparql.algebra._pattern_matcher(pattern)
    full_scan = {row: v for t, v in g.exceptions.items() if (row := matcher(t)) is not None}
    assert full_scan
    calls = _counting_matcher(monkeypatch)
    for mode in EvalMode:
        r = evaluate(Pattern(pattern), g, mode=mode)
        assert (r.default, r.table) == (U, full_scan)
    monkeypatch.undo()
    assert calls[0] == 2 * examined


def test_repeated_patterns_are_scanned_once_per_evaluation(monkeypatch):
    preds = [Iri(f"urn:p{i}") for i in range(3)]
    g = _ring_graph(12, preds)

    def chain(length):
        # every node built apart, so only the pattern values repeat
        q = Pattern(TriplePattern(X, Iri("urn:p0"), Y))
        for i in range(1, length):
            q = Join(AND, q, Pattern(TriplePattern(X, Iri(f"urn:p{i % 3}"), Y)))
        return q

    calls = _counting(monkeypatch, esparql.algebra, "_eval_pattern")
    long = evaluate(chain(60), g)
    assert calls[0] == 3
    monkeypatch.undo()
    # the truth meet is idempotent, so repeating a conjunct changes nothing
    assert long == evaluate(chain(3), g)


# ---------------------------------------------------------------------------
# Algebraic laws, engine-level
# ---------------------------------------------------------------------------


def _seeded_case(seed, n_queries, scope):
    rng = random.Random(seed)
    pool = randgen.iri_pool()
    g = randgen.random_graph(rng, pool)
    qs = [random_plain_query(rng, pool, depth=2, scope=scope)
          for _ in range(n_queries)]
    return g, qs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_join_and_union_are_commutative(seed):
    g, (qa, qb) = _seeded_case(seed, 2, frozenset({X, Y}))
    for op in (OTIMES, AND):
        ab = evaluate(Join(op, qa, qb), g)
        ba = evaluate(Join(op, qb, qa), g)
        assert same_function(ab, ba)
    for op in (OPLUS, OR):
        ab = evaluate(Union(op, qa, qb), g)
        ba = evaluate(Union(op, qb, qa), g)
        assert same_function(ab, ba)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_join_and_union_are_associative(seed):
    g, (qa, qb, qc) = _seeded_case(seed, 3, frozenset({X}))
    for node, op in ((Join, OTIMES), (Union, OPLUS)):
        left = evaluate(node(op, node(op, qa, qb), qc), g)
        right = evaluate(node(op, qa, node(op, qb, qc)), g)
        assert same_function(left, right)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_projection_and_filter_identities_hold_generally(seed):
    g, (q,) = _seeded_case(seed, 1, frozenset({X, Y}))
    base = evaluate(q, g)
    assert same_function(evaluate(Project(OPLUS, frozenset({X, Y}), q), g), base)
    assert same_function(evaluate(Filter(OTIMES, q, Bound(X)), g), base)
