"""The dense brute-force oracle and differential comparison against it."""

import ast
import collections
import gc
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
    EvalMode,
    Filter,
    FourGraph,
    FourOperator,
    FourValue,
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
import esparql.oracle
from esparql.model import term_to_pattern
from esparql import randgen

from conftest import (
    A,
    ARIUS,
    CHRISTIAN,
    CHRISTIANITY,
    FULL_DEITY,
    JESUS,
    JESUS_DEITY,
    POPE,
    POPE_AFFIRMS,
    RUSSELL,
    VOCAB,
    example_graph,
)
from helpers import all_rows, random_plain_query

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


def test_dense_relation_keeps_values_in_product_order():
    uni = frozenset({POPE, ARIUS})
    # ARIUS sorts before POPE; x is the more significant digit
    order = [(ARIUS, ARIUS), (ARIUS, POPE), (POPE, ARIUS), (POPE, POPE)]
    values = [F, T, U, C]
    rows = {Mapping.of({Y: y, X: x}): v for (x, y), v in reversed(list(zip(order, values)))}
    dense = DenseRelation(frozenset({X, Y}), uni, rows)
    assert dense.values == values
    assert list(dense.rows) == [Mapping.of({X: x, Y: y}) for x, y in order]
    assert dense.value_at(Mapping.of({X: POPE, Y: ARIUS})) == U


def test_dense_relation_rejects_keys_off_the_table():
    uni = frozenset({POPE, ARIUS})
    # a key over another variable
    with pytest.raises(ValueError):
        DenseRelation(frozenset({X}), uni, {Mapping.of({Y: POPE}): T, Mapping.of({X: ARIUS}): U})
    # a term outside the universe
    with pytest.raises(ValueError):
        DenseRelation(frozenset({X}), uni, {Mapping.of({X: POPE}): T, Mapping.of({X: JESUS}): U})
    # two keys on one row: the same assignment with its bindings out of order
    rows = {Mapping.of({X: x, Y: y}): T for x in uni for y in uni}
    del rows[Mapping.of({X: POPE, Y: POPE})]
    rows[Mapping(((Y, ARIUS), (X, POPE)))] = U
    with pytest.raises(ValueError):
        DenseRelation(frozenset({X, Y}), uni, rows)


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


def test_diff_reports_a_wrong_default_in_canonical_order():
    # the engine's exceptions are right; its default is wrong on every other
    # row, and those rows come back in table order whatever the dict order
    uni = frozenset({POPE, ARIUS})
    dense = DenseRelation(frozenset({X, Y}), uni, {
        Mapping.of({X: x, Y: y}): T if x == y == POPE else U for x in uni for y in uni})
    engine = Relation(frozenset({X, Y}), F, {
        Mapping.of({X: POPE, Y: POPE}): T, Mapping.of({X: ARIUS, Y: POPE}): U}, universe=uni)
    assert diff(engine, dense) == [
        (Mapping.of({X: ARIUS, Y: ARIUS}), F, U),
        (Mapping.of({X: POPE, Y: ARIUS}), F, U),
    ]


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
# Hand-computed dense tables on the running example, independent of the
# engine.  Its universe has 17 terms: 13 IRIs and 4 quoted triples.
# ---------------------------------------------------------------------------


def non_default_rows(dense, default):
    assert len(dense.rows) == 17 ** len(dense.vars)
    return {m: v for m, v in dense.rows.items() if v != default}


def test_oracle_join_reads_each_side_by_its_own_variables(g1):
    # ?x ?p <<Jesus a FullDeity>> meets ?x a ?y on the shared ?x
    q = Join(FourOperator.TRUTH_MEET,
             Pattern(TriplePattern(X, P, term_to_pattern(JESUS_DEITY))),
             Pattern(TriplePattern(X, A, Y)))
    assert non_default_rows(oracle_eval(q, g1), U) == {
        Mapping.of({X: POPE, P: VOCAB.to_be_true, Y: CHRISTIAN}): T,
        Mapping.of({X: ARIUS, P: VOCAB.to_be_false, Y: CHRISTIAN}): T,
    }


def test_oracle_project_under_info_join(g1):
    # every (?p, ?o) row of a subject maps to true if stated, else false; the
    # info join over them is conflicted for the four subjects of a stated
    # triple and false for the other 13 terms
    q = Project(OPLUS, frozenset({X}),
                MapState(Pattern(TriplePattern(X, P, O)), StateIs(T), T, F))
    dense = oracle_eval(q, g1)
    stated = {POPE, ARIUS, CHRISTIANITY, RUSSELL}
    assert non_default_rows(dense, F) == {Mapping.of({X: x}): C for x in stated}


def test_oracle_variable_holder_belief(g1):
    # the running example's full picture of ?x about ?s a FullDeity: the
    # pope affirms, Arius denies, Christianity is conflicted, Russell's
    # unknown stance adds nothing, and quoted-triple holders hold nothing
    q = Belief(all_states_shorthand(X, OPLUS), Pattern(TriplePattern(S, A, FULL_DEITY)))
    dense = oracle_eval(q, g1)
    assert non_default_rows(dense, U) == {
        Mapping.of({X: POPE, S: JESUS}): T,
        Mapping.of({X: ARIUS, S: JESUS}): F,
        Mapping.of({X: CHRISTIANITY, S: JESUS}): C,
    }
    # a quoted-triple holder is unknown even under an atom whose fallback is not
    atom = Belief(AtomicBelief(X, T, F), Pattern(term_to_pattern(JESUS_DEITY)))
    values = collections.Counter(oracle_eval(atom, g1).rows.values())
    assert values == {T: 1, F: 12, U: 4}


def test_oracle_quoted_triple_in_predicate_slot_takes_the_context_default(g1):
    # inside the pope's true-beliefs context (fallback false) a row that puts
    # a quoted triple in the predicate slot names no triple: it reads the
    # context's default, false, not unknown
    q = Belief(AtomicBelief(POPE, T, F), Pattern(TriplePattern(S, P, O)))
    dense = oracle_eval(q, g1)
    assert dense.value_at(Mapping.of({S: POPE, P: POPE_AFFIRMS, O: CHRISTIAN})) == F
    assert non_default_rows(dense, F) == {Mapping.of({S: JESUS, P: A, O: FULL_DEITY}): T}
    # in the base graph the same rows read the graph's default
    assert oracle_eval(q.query, g1).value_at(
        Mapping.of({S: POPE, P: POPE_AFFIRMS, O: CHRISTIAN})) == U


# ---------------------------------------------------------------------------
# Substitution edge cases: each against the engine and against hand-computed
# values.  Default unknown; (a p b) true, (a p a) false, (<<a p b>> q a)
# conflicted, h believes (a p b) true and h2 believes that belief true.
# ---------------------------------------------------------------------------

SA, SB, SP, SQ, SH, SH2 = (Iri(f"urn:sub:{n}") for n in ("a", "b", "p", "q", "h", "h2"))
AB = StarTriple(SA, SP, SB)
H_AB = StarTriple(SH, VOCAB.to_be_true, AB)


def substitution_graph():
    return FourGraph(U, {AB: T, StarTriple(SA, SP, SA): F, StarTriple(AB, SQ, SA): C,
                         H_AB: T, StarTriple(SH2, VOCAB.to_be_true, H_AB): T})


def quoted_ab(x=SA, y=SB, p=SP):
    return TriplePattern(x, p, y)


def nested(outer, inner=SH, body=TriplePattern(SA, SP, SB)):
    return Belief(AtomicBelief(outer, T, U), Belief(AtomicBelief(inner, T, F), Pattern(body)))



@pytest.mark.parametrize("q, default, expected", [
    # a fully ground pattern: one row over no variables
    (Pattern(TriplePattern(SA, SP, SB)), T, {}),
    (Pattern(TriplePattern(SB, SP, SA)), U, {}),
    # a ground quoted part
    (Pattern(TriplePattern(quoted_ab(), SQ, O)), U, {Mapping.of({O: SA}): C}),
    # a quoted part over a strict subset of the node's scope
    (Pattern(TriplePattern(quoted_ab(x=X), SQ, O)), U, {Mapping.of({X: SA, O: SA}): C}),
    # a quoted part sharing a variable with the outer triple
    (Pattern(TriplePattern(quoted_ab(x=X, y=Y), SQ, X)), U, {Mapping.of({X: SA, Y: SB}): C}),
    # one variable twice
    (Pattern(TriplePattern(X, SP, X)), U, {Mapping.of({X: SA}): F}),
    # a variable predicate, which also ranges over the two quoted triples
    (Pattern(TriplePattern(SA, P, SB)), U, {Mapping.of({P: SP}): T}),
    (Pattern(TriplePattern(quoted_ab(p=P), SQ, O)), U, {Mapping.of({P: SP, O: SA}): C}),
    # in a context falling back to false, a quoted predicate reads false too
    (Belief(AtomicBelief(SH, T, F), Pattern(TriplePattern(SA, P, SB))), F,
     {Mapping.of({P: SP}): T}),
    # a belief nested in a belief: h2 believes h's belief, h does not
    (nested(SH2), T, {}),
    (nested(SH), F, {}),
    (nested(SH2, body=TriplePattern(SB, SP, SA)), F, {}),
    (nested(X), F, {Mapping.of({X: SH2}): T, Mapping.of({X: AB}): U, Mapping.of({X: H_AB}): U}),
])
def test_oracle_substitution_edge_cases(q, default, expected):
    g = substitution_graph()
    dense = oracle_eval(q, g)
    assert len(dense.values) == 9 ** len(dense.vars)
    assert {m: v for m, v in dense.rows.items() if v != default} == expected
    assert_agrees(q, g)


def _nodes(q):
    children = ((q.left, q.right) if isinstance(q, (Join, Union))
                else () if isinstance(q, Pattern) else (q.query,))
    return 1 + sum(_nodes(c) for c in children)


def test_oracle_computes_each_scope_once(g1, monkeypatch):
    christian = Pattern(TriplePattern(S, A, CHRISTIAN))
    q = Project(OPLUS, frozenset({S}), Join(
        OTIMES,
        Belief(all_states_shorthand(X, OPLUS), Pattern(TriplePattern(S, A, FULL_DEITY))),
        Union(OPLUS, Filter(OPLUS, christian, Eq(S, POPE)),
              MapState(Pattern(TriplePattern(S, A, CHRISTIAN)), StateIs(T), F, U))))
    calls = 0
    real = esparql.oracle.in_scope

    def counting(node):
        nonlocal calls
        calls += 1
        return real(node)

    monkeypatch.setattr(esparql.oracle, "in_scope", counting)
    dense = oracle_eval(q, g1)
    monkeypatch.undo()
    assert calls <= _nodes(q) == 9
    assert diff(evaluate(q, g1), dense) == []


def test_oracle_imports_nothing_new_from_the_engine():
    # the oracle may share the four-valued tables and the model types; from
    # the engine it takes only the query and belief syntax it walks
    tree = ast.parse(open(esparql.oracle.__file__, encoding="utf-8").read())
    imported = collections.defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.name: {"*"} for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            imported["." * node.level + (node.module or "")] |= {a.name for a in node.names}
    assert set(imported) <= {"__future__", "functools", "itertools", "operator", "typing",
                             ".algebra", ".belief", ".errors", ".four", ".model"}
    assert imported[".algebra"] == {
        "And", "Belief", "Bound", "Eq", "Filter", "Join", "MapState", "Mapping", "Not", "Or",
        "Pattern", "Project", "Query", "Relation", "StateIs", "Union",
        "in_scope", "query_constants"}
    assert imported[".belief"] == {
        "AtomicBelief", "BeliefQuery", "CompoundBelief", "belief_variables"}


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


def test_evaluations_leave_nothing_for_the_cyclic_collector():
    # the collector is off only so that it counts: everything evaluate and
    # oracle_eval build, refusals included, must be freed by reference
    # counting when they return; the cases are drawn before, because the
    # generator is not what is measured
    rng = random.Random(0)
    cases = [(randgen.random_graph(rng), randgen.random_query(rng)) for _ in range(200)]
    refused = 0
    gc.collect()
    gc.disable()
    try:
        for g, q in cases:
            for run in (lambda: evaluate(q, g), lambda: evaluate(q, g, mode=EvalMode.OPEN),
                        lambda: oracle_eval(q, g)):
                try:
                    run()
                except (NonFinitelySupported, UniverseTooLarge):
                    refused += 1
        left = gc.collect()
    finally:
        gc.enable()
    assert refused == 47
    assert left == 0


def test_generated_queries_leave_nothing_for_the_cyclic_collector():
    rng = random.Random(0)
    gc.collect()
    gc.disable()
    try:
        for _ in range(200):
            randgen.random_graph(rng)
            randgen.random_query(rng)
            random_plain_query(rng)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


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
# Holder relevance: bodies that read only a few holders' stances, so most
# holders fold into the fresh class; a variable predicate and a nested
# belief, which count every holder relevant; two and three holder variables
# ---------------------------------------------------------------------------

REL_HOLDERS = [Iri(f"urn:r{i}") for i in range(4)]
REL_SUBJECTS = [Iri("urn:s0"), Iri("urn:s1")]
REL_RULES = Iri("urn:rules")
REL_CLAIMS = [StarTriple(REL_SUBJECTS[0], A, FULL_DEITY),
              StarTriple(REL_SUBJECTS[1], A, FULL_DEITY),
              StarTriple(REL_SUBJECTS[0], REL_RULES, REL_SUBJECTS[1])]
REL_CAP = 5000
Z = Variable("z")


def relevance_graph(rng):
    exceptions = {}
    for h in REL_HOLDERS:
        for claim in rng.sample(REL_CLAIMS, rng.randint(1, 2)):
            exceptions[StarTriple(h, rng.choice(SHAPE_PREDICATES), claim)] = rng.choice((T, T, C, F))
    # beliefs about stances on the second claim, which a body reads only
    # through a nested belief
    stances = sorted((t for t in exceptions if t.object == REL_CLAIMS[1]), key=repr)
    for h in rng.sample(REL_HOLDERS, 2):
        stance = rng.choice(stances or sorted(exceptions, key=repr))
        exceptions[StarTriple(h, VOCAB.to_be_true, stance)] = T
    exceptions[StarTriple(REL_SUBJECTS[1], A, FULL_DEITY)] = rng.choice((T, F))
    return FourGraph(rng.choice((U, F)), exceptions)


def relevance_queries(rng):
    def atom(holder, fallbacks=(U, F, T)):
        return AtomicBelief(holder, rng.choice((T, F, C)), rng.choice(fallbacks))

    def op():
        return rng.choice(list(FourOperator))

    s0, s1 = REL_SUBJECTS
    return [
        # ground subject, ground object
        Belief(all_states_shorthand(X, OPLUS), Pattern(TriplePattern(s0, A, O))),
        Belief(atom(X), Pattern(TriplePattern(S, REL_RULES, s1))),
        Belief(atom(X), MapState(Pattern(TriplePattern(S, A, FULL_DEITY)), Eq(S, s1), T, F)),
        # a variable predicate
        Belief(atom(X), Pattern(TriplePattern(s0, P, O))),
        # a nested belief, and a nested belief beside a pattern; the outer
        # context falls back to false or unknown (see shape_queries)
        Belief(AtomicBelief(X, T, rng.choice((U, F))),
               Belief(all_states_shorthand(Y, OPLUS), Pattern(TriplePattern(s1, A, FULL_DEITY)))),
        Belief(atom(X, (U, F)), Join(OTIMES, Pattern(TriplePattern(s0, REL_RULES, O)),
                             Belief(atom(rng.choice(REL_HOLDERS)),
                                    Pattern(TriplePattern(s0, A, FULL_DEITY))))),
        # two and three holder variables
        Belief(CompoundBelief(atom(X), op(), atom(Y)), Pattern(TriplePattern(S, A, FULL_DEITY))),
        Belief(CompoundBelief(CompoundBelief(atom(X), op(), atom(Y)), op(), atom(Z)),
               Pattern(TriplePattern(s0, A, FULL_DEITY))),
    ]


def test_holder_relevance_agrees_with_oracle_and_open_mode():
    checked = opened = 0
    for seed in range(12):
        rng = random.Random(seed)
        g = relevance_graph(rng)
        for q in relevance_queries(rng):
            engine = evaluate(q, g, cap=REL_CAP)
            assert diff(engine, oracle_eval(q, g, cap=REL_CAP)) == [], (seed, q)
            checked += 1
            try:
                open_r = evaluate(q, g, mode=EvalMode.OPEN)
            except NonFinitelySupported:
                continue
            for m, want in all_rows(engine):
                assert open_r.value_at(m) == want, (seed, q, m)
            opened += 1
    assert checked == 96 and opened > 0


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
