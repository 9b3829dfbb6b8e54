"""Algebra: mappings, relations, scoping rules and the four-valued engine."""

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


def _counting_body_evaluations(monkeypatch, node):
    """Count the evaluations of a Belief node's body: one per extracted
    graph the engine evaluates it over."""
    calls = [0]
    real = esparql.algebra._FourEngine._eval

    def counted(self, q, g, done):
        calls[0] += q is node.query
        return real(self, q, g, done)

    monkeypatch.setattr(esparql.algebra._FourEngine, "_eval", counted)
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

    def run(self, q, g):
        r = real_run(self, q, g)
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
    # class, so the body runs (8 + 1) ** 2 times, not (100 + 1) ** 2
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

    assert bodies[0] <= 100
    assert len(r.table) == 1616


def _belief_of_a_belief():
    inner = Belief(all_states_shorthand(X, OPLUS), Pattern(term_to_pattern(ZEUS_DEITY)))
    return Belief(all_states_shorthand(Y, OPLUS), inner)


def test_each_node_is_evaluated_once_per_run(monkeypatch, g1):
    # a run enters eval once per node it lists and runs _eval once per
    # distinct key and graph, equal patterns sharing one key; a Belief
    # runs its body once per extracted graph, the all-fresh one included
    engine = esparql.algebra._FourEngine
    listed, entered, evaluated, runs = [], [], [], []
    real_run, real_eval, real_inner = engine.run, engine.eval, engine._eval

    def key(q, g):
        return (q.pattern if isinstance(q, Pattern) else id(q), id(g))

    def run(self, q, g):
        listed.extend(map(id, self._order(q)))
        runs.append(key(q, g))
        return real_run(self, q, g)

    def eval_(self, q, g, *rest):
        entered.append(id(q))
        return real_eval(self, q, g, *rest)

    def inner(self, q, g, *rest):
        evaluated.append(key(q, g))
        return real_inner(self, q, g, *rest)

    monkeypatch.setattr(engine, "run", run)
    monkeypatch.setattr(engine, "eval", eval_)
    monkeypatch.setattr(engine, "_eval", inner)
    patterns = ("?s <a> ?o", "?s <a> <Christian>", "?s ?p ?o")
    chain = parse_and_desugar(
        "SELECT ?s WHERE { " + " . ".join(patterns[i % 3] for i in range(9)) + " }")
    belief = _belief_of_a_belief()
    for q, mode in [(chain, mode) for mode in EvalMode] + [(belief, EvalMode.ACTIVE_DOMAIN)]:
        for log in (listed, entered, evaluated, runs):
            log.clear()
        assert evaluate(q, g1, mode=mode).table
        assert sorted(entered) == sorted(listed)
        assert len(evaluated) == len(set(evaluated))
        assert len(listed) - len(evaluated) == (6 if q is chain else 0)  # the repeated patterns
        assert len(runs) == len(set(runs))
    assert len(runs) > 3  # the belief's bodies ran over several extractions
    for q in (chain, belief):
        assert diff(evaluate(q, g1), oracle_eval(q, g1)) == []


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
