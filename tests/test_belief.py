"""Belief extraction: single holders, shorthands and pointwise combination."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esparql import (
    AtomicBelief,
    BeliefVocabulary,
    CompoundBelief,
    FourGraph,
    FourOperator,
    FourValue,
    Iri,
    NonFiniteBeliefExtraction,
    NonIriHolder,
    StarTriple,
    STATES,
    UnboundBeliefVariable,
    Variable,
    all_states_shorthand,
    apply,
    belief_variables,
    evaluate,
    extract,
    identity_of,
    parse_and_desugar,
)
from esparql.belief import believers, extraction, holder_index
from esparql.model import term_text

from conftest import (
    A,
    ARIUS,
    CHRISTIANITY,
    FULL_DEITY,
    JESUS_DEITY,
    POPE,
    POPE_AFFIRMS,
    POPE_DENIES,
    RUSSELL,
    VOCAB,
    ZEUS_DEITY,
    example_graph,
)

F, T, U, C = STATES
INFO_JOIN = FourOperator.INFO_JOIN
X = Variable("x")


def shorthand(holder):
    return all_states_shorthand(holder, INFO_JOIN)


# ---------------------------------------------------------------------------
# The worked extraction examples over the running graph
# ---------------------------------------------------------------------------


def test_atomic_pope_believes_true(g1):
    got = extract(g1, AtomicBelief(POPE, T, U), VOCAB)
    assert got == FourGraph(U, {JESUS_DEITY: T})


def test_shorthand_pope(g1):
    assert extract(g1, shorthand(POPE), VOCAB) == FourGraph(U, {JESUS_DEITY: T})


def test_shorthand_arius(g1):
    assert extract(g1, shorthand(ARIUS), VOCAB) == FourGraph(U, {JESUS_DEITY: F})


def test_shorthand_russell(g1):
    # Russell asserts believing-true both quoted pope statements, so both
    # extract to true; a printed source table showing the second as false
    # contradicts that source's own pointwise-union table and is corrected
    # here (see the project decisions ledger).
    got = extract(g1, shorthand(RUSSELL), VOCAB)
    assert got == FourGraph(U, {POPE_AFFIRMS: T, POPE_DENIES: T})
    assert got.lookup(POPE_DENIES) == T


def test_combined_pope_arius_conflict(g1):
    e = CompoundBelief(shorthand(POPE), INFO_JOIN, shorthand(ARIUS))
    assert extract(g1, e, VOCAB) == FourGraph(U, {JESUS_DEITY: C})


def test_combined_pope_russell(g1):
    e = CompoundBelief(shorthand(POPE), INFO_JOIN, shorthand(RUSSELL))
    assert extract(g1, e, VOCAB) == FourGraph(
        U, {POPE_AFFIRMS: T, JESUS_DEITY: T, POPE_DENIES: T}
    )


def test_shorthand_christianity(g1):
    got = extract(g1, shorthand(CHRISTIANITY), VOCAB)
    assert got == FourGraph(U, {JESUS_DEITY: C})


def test_unknown_holder_extracts_all_fallback(g1):
    got = extract(g1, shorthand(Iri("urn:nobody")), VOCAB)
    assert got == FourGraph(U)


# ---------------------------------------------------------------------------
# Extraction mechanics
# ---------------------------------------------------------------------------


def test_conflicted_assertion_counts_as_believing():
    # a belief statement annotated conflicted contains a true annotation,
    # so it still witnesses the probed state
    belief = StarTriple(POPE, VOCAB.to_be_true, JESUS_DEITY)
    for witness, expected in ((T, {JESUS_DEITY: T}), (C, {JESUS_DEITY: T}),
                              (F, {}), (U, {})):
        g = FourGraph(U, {belief: witness})
        assert extract(g, AtomicBelief(POPE, T, U), VOCAB).exceptions == expected


def test_extraction_ignores_non_quoted_objects(g1):
    # "PopeDI a Christian" is not a belief statement; neither is a belief
    # predicate applied to a plain IRI
    g = g1.set_value(StarTriple(POPE, VOCAB.to_be_true, ARIUS), FourValue.TRUE)
    got = extract(g, AtomicBelief(POPE, T, U), VOCAB)
    assert got == FourGraph(U, {JESUS_DEITY: T})


def test_extraction_fallback_becomes_default(g1):
    got = extract(g1, AtomicBelief(POPE, T, F), VOCAB)
    assert got.default == F
    assert got.lookup(ZEUS_DEITY) == F
    assert got.lookup(JESUS_DEITY) == T


def test_extract_refuses_truth_implying_defaults():
    for default in (T, C):
        g = FourGraph(default)
        with pytest.raises(NonFiniteBeliefExtraction):
            extract(g, AtomicBelief(POPE, T, U), VOCAB)


def test_extract_requires_ground_expression(g1):
    with pytest.raises(UnboundBeliefVariable):
        extract(g1, AtomicBelief(X, T, U), VOCAB)


def test_shorthand_structure():
    e = shorthand(POPE)
    fallback = identity_of(INFO_JOIN)
    probes = []
    while isinstance(e, CompoundBelief):
        assert e.op == INFO_JOIN
        assert isinstance(e.right, AtomicBelief)
        probes.append(e.right.state)
        assert e.right.fallback == fallback
        e = e.left
    assert isinstance(e, AtomicBelief)
    probes.append(e.state)
    assert probes == [C, U, F, T]


@given(st.sampled_from(STATES), st.sampled_from(STATES),
       st.sampled_from(tuple(FourOperator)))
def test_compound_extraction_is_pointwise(left_value, right_value, op):
    ta = StarTriple(POPE, VOCAB.to_be_true, JESUS_DEITY)
    tb = StarTriple(POPE, VOCAB.to_be_false, JESUS_DEITY)
    g = FourGraph(U, {ta: left_value, tb: right_value})
    e = CompoundBelief(AtomicBelief(POPE, T, U), op, AtomicBelief(POPE, F, U))
    left = extract(g, e.left, VOCAB)
    right = extract(g, e.right, VOCAB)
    combined = extract(g, e, VOCAB)
    for t in (JESUS_DEITY, ZEUS_DEITY):
        assert combined.lookup(t) == apply(op, left.lookup(t), right.lookup(t))
    assert combined.default == apply(op, left.default, right.default)


# ---------------------------------------------------------------------------
# Variables and bindings
# ---------------------------------------------------------------------------


def test_belief_variables():
    e = CompoundBelief(shorthand(X), INFO_JOIN, shorthand(POPE))
    assert belief_variables(e) == {X}
    assert belief_variables(shorthand(POPE)) == frozenset()


def test_extract_with_a_binding(g1):
    e = shorthand(X)
    for holder in (POPE, ARIUS, RUSSELL, CHRISTIANITY, Iri("urn:nobody")):
        assert extract(g1, e, VOCAB, {X: holder}) == extract(g1, shorthand(holder), VOCAB)
    for binding in ({}, None, {Variable("y"): POPE}):
        with pytest.raises(UnboundBeliefVariable):
            extract(g1, e, VOCAB, binding)
    with pytest.raises(NonIriHolder):
        extract(g1, e, VOCAB, {X: JESUS_DEITY})


def test_a_binding_leaves_ground_holders_alone(g1):
    e = CompoundBelief(shorthand(POPE), INFO_JOIN, shorthand(X))
    ground = CompoundBelief(shorthand(POPE), INFO_JOIN, shorthand(ARIUS))
    got = extract(g1, e, VOCAB, {X: ARIUS})
    assert got == extract(g1, ground, VOCAB) == FourGraph(U, {JESUS_DEITY: C})
    assert extract(g1, ground, VOCAB, {X: RUSSELL}) == extract(g1, ground, VOCAB)
    # a variable holder inside a compound is looked up too, not read as a
    # holder without beliefs
    with pytest.raises(UnboundBeliefVariable):
        extract(g1, e, VOCAB)
    with pytest.raises(NonIriHolder):
        extract(g1, e, VOCAB, {X: POPE_AFFIRMS})


def test_extract_names_the_variable_of_the_first_atom_it_cannot_read(g1):
    # the binding is checked in the order of e's atoms, not in the name
    # order of the holder keys the extraction is kept under
    y = Variable("y")
    e = CompoundBelief(shorthand(y), INFO_JOIN, shorthand(X))
    with pytest.raises(UnboundBeliefVariable) as unbound:
        extract(g1, e, VOCAB, {})
    assert str(unbound.value) == "belief variable ?y is unbound"
    with pytest.raises(NonIriHolder) as quoted:
        extract(g1, e, VOCAB, {X: POPE_AFFIRMS, y: JESUS_DEITY})
    assert str(quoted.value) == f"belief variable ?y bound to {JESUS_DEITY!r}"
    assert extract(g1, e, VOCAB, {X: POPE, y: ARIUS}) == \
        extract(g1, CompoundBelief(shorthand(ARIUS), INFO_JOIN, shorthand(POPE)), VOCAB)


# ---------------------------------------------------------------------------
# The holder index lives on the graph
# ---------------------------------------------------------------------------


def test_holder_index_is_built_once_per_graph_and_vocabulary(g1):
    index = holder_index(g1, VOCAB)
    assert index[(POPE, VOCAB.to_be_true)] == [JESUS_DEITY]
    assert holder_index(g1, VOCAB) is index
    q = parse_and_desugar("SELECT ?h ?x FROM BELIEF ?h WHERE { ?x a <FullDeity> }")
    first = evaluate(q, g1)
    assert holder_index(g1, VOCAB) is index
    assert evaluate(q, g1) == first
    assert holder_index(g1, VOCAB) is index
    # another vocabulary finds no belief statements in g1, in an index of its own
    other = BeliefVocabulary.from_namespace("urn:b#")
    assert holder_index(g1, other) == {}
    assert holder_index(g1, other) is holder_index(g1, other)
    assert holder_index(g1, VOCAB) is index
    # a graph that set_value returns gets its own, with the new stance
    updated = g1.set_value(StarTriple(ARIUS, VOCAB.to_be_true, ZEUS_DEITY), T)
    assert holder_index(updated, VOCAB) is not index
    assert holder_index(updated, VOCAB)[(ARIUS, VOCAB.to_be_true)] == [ZEUS_DEITY]
    assert (ARIUS, VOCAB.to_be_true) not in index


# ---------------------------------------------------------------------------
# set_value hands a graph's structures on
# ---------------------------------------------------------------------------


def _by_key(index):
    return {k: Counter(items) for k, items in index.items()}


def test_set_value_carries_what_a_rebuild_makes():
    # a seeded chain of updates adds belief statements, flips them between
    # believed and not, removes them, and adds and removes plain triples.
    # After each, every structure the new graph was handed equals the one
    # a graph built from its exceptions makes: buckets list for list, the
    # domain, the holder indexes as multisets per key, and each extraction
    # under every holder and an IRI without stances
    rng = random.Random(2929)
    holders = [Iri(f"urn:h{i}") for i in range(4)]
    nobody = Iri("urn:nobody")
    claims = [StarTriple(Iri(f"urn:d{i}"), A, FULL_DEITY) for i in range(4)]
    predicates = sorted(VOCAB.predicates(), key=term_text)
    plain = [StarTriple(Iri(f"urn:d{i}"), Iri("urn:rules"), Iri(f"urn:realm{i % 3}"))
             for i in range(4)] + [StarTriple(claims[0], Iri("urn:says"), holders[1])]
    x, y = Variable("x"), Variable("y")
    join, meet = FourOperator.INFO_JOIN, FourOperator.TRUTH_MEET
    expressions = {
        all_states_shorthand(x, join): [(h,) for h in holders + [nobody]],
        all_states_shorthand(holders[0], join): [()],
        CompoundBelief(all_states_shorthand(holders[1], join), join,
                       all_states_shorthand(x, join)): [(h,) for h in holders + [nobody]],
        CompoundBelief(AtomicBelief(x, T, F), meet, AtomicBelief(y, C, F)):
            list(itertools.product(holders + [nobody], repeat=2)),
    }
    positions = ("subject", "predicate", "object")
    carried = Counter()
    for default in (U, F):
        g = FourGraph(default)
        for _ in range(60):
            for position in positions:
                g.bucket(position, A)
            g.domain()
            holder_index(g, VOCAB)
            believers(g, VOCAB)
            for e, keys in expressions.items():
                ext = extraction(g, e, VOCAB)
                for key in keys:
                    ext.delta(key)
            if rng.random() < 0.7:
                t = StarTriple(rng.choice(holders), rng.choice(predicates), rng.choice(claims))
            else:
                t = rng.choice(plain)
            child = g.set_value(t, rng.choice(STATES))
            scratch = FourGraph(child.default, dict(child.exceptions))
            assert set(child._derived) >= set(g._derived) - {"domain"}
            for key, made in child._derived.items():
                carried[key if isinstance(key, str) else key[0]] += made is not g._derived[key]
                if key in positions:
                    scratch.bucket(key, A)
                    assert made == scratch._derived[key], key
                elif key == "domain":
                    assert made == scratch.domain()
                elif key[0] == "holders":
                    assert _by_key(made) == _by_key(holder_index(scratch, VOCAB))
                elif key[0] == "believers":
                    assert _by_key(made) == _by_key(believers(scratch, VOCAB))
                else:
                    e = key[2]
                    want = extraction(scratch, e, VOCAB)
                    assert (made.default, made.fresh, made.moved) == \
                        (want.default, want.fresh, want.moved)
                    for holder_key in expressions[e]:
                        assert made.delta(holder_key) == want.delta(holder_key), (e, holder_key)
            g = child
    # every kind of structure was patched, not only kept
    assert set(carried) == {*positions, "domain", "holders", "believers", "extraction"}
    assert all(carried.values()), carried
