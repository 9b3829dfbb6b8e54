"""Open-mode evaluation: no finite universe, results must self-support."""

import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from esparql import (
    AtomicBelief,
    Belief,
    CompoundBelief,
    Eq,
    EvalMode,
    Filter,
    FourGraph,
    FourOperator,
    FourValue,
    Join,
    MapState,
    Mapping,
    NonFiniteBeliefExtraction,
    NonFinitelySupported,
    Or,
    Pattern,
    Project,
    StateIs,
    TriplePattern,
    Union,
    Variable,
    all_states_shorthand,
    diff,
    evaluate,
    oracle_eval,
    parse_and_desugar,
    parse_graph,
)
from esparql.cli import main
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
    VOCAB,
    ZEUS,
    data,
    example_graph,
)
from helpers import all_rows, random_join_free_query

F, T, U, C = (FourValue.FALSE, FourValue.TRUE,
              FourValue.UNKNOWN, FourValue.CONFLICTED)
AND, OR = FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN
OTIMES, OPLUS = FourOperator.INFO_MEET, FourOperator.INFO_JOIN
X, Y, S, P, O = (Variable(n) for n in ("x", "y", "s", "p", "o"))

IS_CHRISTIAN = Pattern(TriplePattern(X, A, CHRISTIAN))
DENIES_JESUS = Pattern(TriplePattern(X, VOCAB.to_be_false,
                                     term_to_pattern(JESUS_DEITY)))
Y_DEITY = Pattern(TriplePattern(Y, A, FULL_DEITY))


def open_eval(q, g):
    return evaluate(q, g, mode=EvalMode.OPEN)


# ---------------------------------------------------------------------------
# Patterns, unions, same-scope joins: always finitely supported
# ---------------------------------------------------------------------------


def test_open_pattern(g1):
    r = open_eval(IS_CHRISTIAN, g1)
    assert r.universe is None
    assert r.default == U
    assert dict(r.exceptions) == {Mapping.of({X: POPE}): T,
                                  Mapping.of({X: ARIUS}): T}


def test_open_union(g1):
    r = open_eval(Union(OPLUS, IS_CHRISTIAN, DENIES_JESUS), g1)
    assert r.default == U
    assert dict(r.exceptions) == {Mapping.of({X: POPE}): T,
                                  Mapping.of({X: ARIUS}): T}


def test_open_join_same_scope(g1):
    r = open_eval(Join(OTIMES, IS_CHRISTIAN, DENIES_JESUS), g1)
    assert dict(r.exceptions) == {Mapping.of({X: ARIUS}): T}


def test_open_agrees_with_active_domain(g1):
    q = Union(OPLUS, IS_CHRISTIAN, DENIES_JESUS)
    opened = open_eval(q, g1)
    grounded = evaluate(q, g1)
    for m, want in all_rows(grounded):
        assert opened.value_at(m) == want


# ---------------------------------------------------------------------------
# Disjoint-scope joins: the defaults decide
# ---------------------------------------------------------------------------


def test_open_join_disjoint_scopes_absorbing_default(g1):
    # unknown absorbs the information meet, so the hot left rows wash out
    r = open_eval(Join(OTIMES, IS_CHRISTIAN, Y_DEITY), g1)
    assert r.vars == {X, Y}
    assert r.default == U
    assert dict(r.exceptions) == {}


def test_open_join_disjoint_scopes_raises_otherwise(g1):
    # force the right side constant true; now every hot left row extends to
    # infinitely many non-default result rows
    left = MapState(IS_CHRISTIAN, StateIs(T), T, F)
    right = MapState(Y_DEITY, StateIs(U), T, C)
    q = Join(OTIMES, left, right)
    with pytest.raises(NonFinitelySupported):
        open_eval(q, g1)
    grounded = evaluate(q, g1)
    assert grounded.default == U
    hot = {m for m, v in grounded.exceptions.items() if v == T}
    assert {m.get(X) for m in hot} == {POPE, ARIUS}
    assert len(hot) == 2 * 17


# ---------------------------------------------------------------------------
# Filters and state maps off-support
# ---------------------------------------------------------------------------


def test_open_filter_state_test(g1):
    r = open_eval(Filter(AND, IS_CHRISTIAN, StateIs(T)), g1)
    assert r.default == F
    assert dict(r.exceptions) == {Mapping.of({X: POPE}): T,
                                  Mapping.of({X: ARIUS}): T}


def test_open_filter_variable_equality(g1):
    r = open_eval(Filter(OTIMES, IS_CHRISTIAN, Eq(X, POPE)), g1)
    assert r.default == U
    assert dict(r.exceptions) == {Mapping.of({X: POPE}): T}


def test_open_mapstate_uniform(g1):
    r = open_eval(MapState(IS_CHRISTIAN, StateIs(T), C, F), g1)
    assert r.default == F
    assert dict(r.exceptions) == {Mapping.of({X: POPE}): C,
                                  Mapping.of({X: ARIUS}): C}


def test_open_mapstate_pinned_class(g1):
    # x = PopeDI pins one extra row; the rest stays uniform
    r = open_eval(MapState(IS_CHRISTIAN, Eq(X, POPE), T, F), g1)
    assert r.default == F
    assert r.value_at(Mapping.of({X: POPE})) == T
    assert r.value_at(Mapping.of({X: ARIUS})) == F


def test_open_mapstate_pinned_class_with_a_free_variable_raises(g1):
    # x = PopeDI pins x alone; y still ranges over infinitely many terms
    q = MapState(Join(OTIMES, IS_CHRISTIAN, Y_DEITY), Eq(X, POPE), T, F)
    with pytest.raises(NonFinitelySupported):
        open_eval(q, g1)
    grounded = evaluate(q, g1)
    assert grounded.value_at(Mapping.of({X: POPE, Y: ARIUS})) == T
    assert grounded.value_at(Mapping.of({X: ARIUS, Y: ARIUS})) == F


def test_open_mapstate_diagonal_raises(g1):
    # x = y splits the plane into two infinite classes with different
    # outcomes; no default plus finite exceptions can express that
    q = MapState(Join(OTIMES, IS_CHRISTIAN,
                      Pattern(TriplePattern(Y, A, CHRISTIAN))),
                 Eq(X, Y), T, F)
    with pytest.raises(NonFinitelySupported):
        open_eval(q, g1)
    grounded = evaluate(q, g1)
    assert grounded.value_at(Mapping.of({X: POPE, Y: POPE})) == T
    assert grounded.value_at(Mapping.of({X: POPE, Y: ARIUS})) == F


# six patterns bind twelve variables, but the filter compares only two:
# the equality-type analysis counts and partitions those two
WIDE_GRAPH = "@default unknown .\n<x> <p1> <x> .\n" + "".join(
    f"<x> <p{i}> <y> .\n" for i in range(1, 7))
WIDE_QUERY = ("SELECT INFO ?a ?b WHERE { ?a <p1> ?b . ?c <p2> ?d . ?e <p3> ?f . "
              "?g <p4> ?h . ?i <p5> ?j . ?k <p6> ?l . FILTER (?a = ?b) }")


def test_open_filter_counts_only_the_compared_variables(tmp_path):
    g = parse_graph(WIDE_GRAPH)
    r = open_eval(parse_and_desugar(WIDE_QUERY), g)
    assert r.default == U
    assert dict(r.exceptions) == {Mapping.of({Variable("a"): data("x"),
                                              Variable("b"): data("x")}): T}
    grounded = evaluate(parse_and_desugar(WIDE_QUERY), g, cap=10**11)
    assert (grounded.default, grounded.exceptions) == (r.default, r.exceptions)

    graph = tmp_path / "wide.f4s"
    graph.write_text(WIDE_GRAPH)
    result = CliRunner().invoke(main, ["query", "--graph", str(graph), "--mode", "open",
                                       "--eval", WIDE_QUERY])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == ["a | b | state", "x | x | true"]


def test_open_filter_refuses_more_than_ten_compared_variables(g1):
    vs = [Variable(f"v{i:02d}") for i in range(12)]
    body = Pattern(TriplePattern(*vs[:3]))
    for i in range(3, 12, 3):
        body = Join(OTIMES, body, Pattern(TriplePattern(*vs[i:i + 3])))
    chain = Eq(vs[0], vs[1])
    for i in range(1, 10):
        chain = Or(chain, Eq(vs[i], vs[i + 1]))
    with pytest.raises(NonFinitelySupported, match="over 11 variables"):
        open_eval(Filter(OTIMES, body, chain), g1)


def test_open_projection(g1):
    r = open_eval(Project(OPLUS, frozenset(), DENIES_JESUS), g1)
    assert r.value_at(Mapping.of({})) == T


# ---------------------------------------------------------------------------
# Quantified belief holders
# ---------------------------------------------------------------------------


def test_open_belief_quantified_holder(g1):
    q = Belief(all_states_shorthand(X, OPLUS), Pattern(term_to_pattern(JESUS_DEITY)))
    r = open_eval(q, g1)
    assert r.default == U
    assert dict(r.exceptions) == {
        Mapping.of({X: POPE}): T,
        Mapping.of({X: ARIUS}): F,
        Mapping.of({X: CHRISTIANITY}): C,
    }


def test_open_belief_quantified_holder_with_body_scope(g1):
    q = Belief(all_states_shorthand(X, OPLUS), Y_DEITY)
    r = open_eval(q, g1)
    assert r.default == U
    assert r.value_at(Mapping.of({X: POPE, Y: JESUS})) == T
    assert r.value_at(Mapping.of({X: ARIUS, Y: JESUS})) == F
    grounded = evaluate(q, g1)
    for m, want in all_rows(grounded):
        assert r.value_at(m) == want


def test_open_belief_raises_when_generic_slice_is_not_unknown(g1):
    q = Belief(all_states_shorthand(X, OPLUS),
               MapState(Y_DEITY, StateIs(T), T, F))
    with pytest.raises(NonFinitelySupported):
        open_eval(q, g1)
    assert evaluate(q, g1).vars == {X, Y}


def test_open_belief_refuses_a_fresh_slice_that_is_not_constantly_unknown(g1):
    # the all-fresh slice stands for infinitely many holders: a row from a
    # ground holder's stance, or a default other than unknown, refuses;
    # over the active domain both answer
    body = Pattern(term_to_pattern(JESUS_DEITY))
    with_pope = CompoundBelief(AtomicBelief(X, T, U), OPLUS, AtomicBelief(POPE, T, U))
    for expr in (with_pope, AtomicBelief(X, T, F)):
        q = Belief(expr, body)
        with pytest.raises(NonFinitelySupported) as refused:
            open_eval(q, g1)
        assert str(refused.value) == (
            "belief over a quantified holder is not constantly unknown off-support")
        assert diff(evaluate(q, g1), oracle_eval(q, g1)) == []


MIXED_HOLDERS_GRAPH = """@default unknown .
<h1> <https://esparql.dev/vocab#believesToBeTrue> << <Zeus> <a> <FullDeity> >> .
<h2> <https://esparql.dev/vocab#believesToBeFalse> << <Zeus> <a> <FullDeity> >> .
<other> <p> <o> .
"""
MIXED_HOLDERS_QUERY = "SELECT INFO * FROM BELIEF ?x ?y WHERE { ?s ?p ?o }"


def test_open_belief_mixing_a_holder_and_a_non_holder_raises(tmp_path):
    # x = h1 with y bound to any IRI that holds no belief is true: an
    # infinite family that pairs of holders alone never reveal
    g = parse_graph(MIXED_HOLDERS_GRAPH)
    q = parse_and_desugar(MIXED_HOLDERS_QUERY)
    with pytest.raises(NonFinitelySupported):
        open_eval(q, g)
    grounded = evaluate(q, g)
    row = {X: data("h1"), Y: data("other"), S: ZEUS, P: A, O: FULL_DEITY}
    assert grounded.value_at(Mapping.of(row)) == T

    graph = tmp_path / "mixed.f4s"
    graph.write_text(MIXED_HOLDERS_GRAPH)
    result = CliRunner().invoke(main, ["query", "--graph", str(graph), "--mode", "open",
                                       "--eval", MIXED_HOLDERS_QUERY])
    assert result.exit_code == 4
    assert result.stderr == (
        "error: belief naming a holder and a quantified non-holder is not constantly unknown\n"
    )


def test_a_refused_belief_keeps_no_base_and_refuses_again_alike():
    # the refusal comes from a holder key, found while the base is built:
    # no base is kept on the graph, and a second evaluation refuses with
    # the same text
    g = parse_graph(MIXED_HOLDERS_GRAPH)
    q = parse_and_desugar(MIXED_HOLDERS_QUERY)
    texts = []
    for _ in range(2):
        with pytest.raises(NonFinitelySupported) as refused:
            open_eval(q, g)
        assert not any(isinstance(key, tuple) and key[0] == "belief" for key in g._derived)
        texts.append(str(refused.value))
    assert texts == ["belief naming a holder and a quantified non-holder is not "
                     "constantly unknown"] * 2


def test_open_belief_refuses_at_the_first_refusing_key_of_a_whole_run():
    # two holder keys refuse with different texts, and the one a whole run
    # meets first is reported.  After the key of no stances, keys run with
    # holders in text order, IRIs without stances last: under (h1, h1) the
    # join pairs h1's false ?a = s1 with every ?b, which no finite table
    # lists; under (an IRI without stances, h2) h2's true row holds, for
    # every such IRI
    g = parse_graph("""@default unknown .
<h1> <https://esparql.dev/vocab#believesToBeFalse> << <s1> <p> <o> >> .
<h2> <https://esparql.dev/vocab#believesToBeTrue> << <s2> <p> <o> >> .
<h2> <https://esparql.dev/vocab#believesToBeTrue> << <s3> <q> <o> >> .
""")
    q = parse_and_desugar("SELECT * FROM BELIEF ?x ?y WHERE { ?a <p> <o> . ?b <q> <o> }")
    with pytest.raises(NonFinitelySupported) as refused:
        open_eval(q, g)
    assert str(refused.value) == (
        "join of relations with disjoint variables whose defaults do not absorb")


def test_truth_implying_extraction_default_refused(g1):
    # a true fallback would assert beliefs for every absent triple, so a
    # nested extraction over that context must refuse
    q = Belief(AtomicBelief(POPE, T, T),
               Belief(all_states_shorthand(ARIUS, OPLUS),
                      Pattern(term_to_pattern(JESUS_DEITY))))
    with pytest.raises(NonFiniteBeliefExtraction):
        evaluate(q, g1)
    with pytest.raises(NonFiniteBeliefExtraction):
        open_eval(q, g1)


# ---------------------------------------------------------------------------
# Join-free queries never fail in open mode
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_join_free_open_queries_always_finite(seed):
    rng = random.Random(seed)
    pool = randgen.iri_pool()
    g = randgen.random_graph(rng, pool)
    q = random_join_free_query(rng, pool)
    r = open_eval(q, g)
    assert r.universe is None
    grounded = evaluate(q, g)
    for m, want in all_rows(grounded):
        assert r.value_at(m) == want
