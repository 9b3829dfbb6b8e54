"""Terms, patterns, graphs and the active domain."""

import random

import pytest

import esparql.model

from esparql import (
    BeliefVocabulary,
    EvalMode,
    FourGraph,
    FourValue,
    FourOperator,
    Iri,
    Join,
    Mapping,
    NonFinitelySupported,
    Pattern,
    StarTriple,
    STATES,
    TriplePattern,
    Variable,
    active_domain,
    evaluate,
    parse_graph,
    pattern_variables,
    render_graph,
    term_text,
)
from esparql import randgen
from esparql.model import pattern_is_ground, pattern_to_term, term_to_pattern

from conftest import (
    A,
    ARIUS,
    CHRISTIAN,
    FULL_DEITY,
    JESUS,
    JESUS_DEITY,
    POPE,
    POPE_AFFIRMS,
    POPE_DENIES,
    RUSSELL,
    VOCAB,
    ZEUS,
    ZEUS_DEITY,
    example_graph,
)

X = Variable("x")
Y = Variable("y")


# ---------------------------------------------------------------------------
# Terms and patterns
# ---------------------------------------------------------------------------


def test_iri_validation():
    with pytest.raises(ValueError):
        Iri("")
    with pytest.raises(ValueError):
        Iri("has space")
    with pytest.raises(ValueError):
        Iri("a<b>")
    assert Iri("urn:ok") == Iri("urn:ok")
    assert len({Iri("urn:ok"), Iri("urn:ok")}) == 1


def test_iri_character_check_matches_isspace_and_brackets():
    # the validator is one regex search; over every code point it must
    # reject exactly what str.isspace() or an angle bracket rejects
    bad = esparql.model._BAD_IRI_CHAR
    rejected = [i for i in range(0x110000) if bad(chr(i))]
    expected = [i for i in range(0x110000) if chr(i).isspace() or chr(i) in "<>"]
    assert rejected == expected
    with pytest.raises(ValueError):
        Iri("urn:a\u2028b")
    with pytest.raises(ValueError):
        Iri("urn:a\x1cb")
    assert Iri("urn:a\u200bb").text == "urn:a\u200bb"  # zero-width space is not whitespace


def test_variable_validation():
    with pytest.raises(ValueError):
        Variable("")
    with pytest.raises(ValueError):
        Variable("?x")
    with pytest.raises(ValueError):
        Variable("a b")
    assert Variable("x") == X
    assert Variable("x") != Iri("x")


def test_star_triple_validation():
    with pytest.raises(TypeError):
        StarTriple("s", A, CHRISTIAN)
    with pytest.raises(TypeError):
        StarTriple(POPE, X, CHRISTIAN)
    with pytest.raises(TypeError):
        StarTriple(POPE, JESUS_DEITY, CHRISTIAN)
    with pytest.raises(TypeError):
        StarTriple(POPE, A, Variable("o"))


def test_star_triple_hash_and_equality():
    again = StarTriple(POPE, VOCAB.to_be_true, StarTriple(JESUS, A, FULL_DEITY))
    assert again == POPE_AFFIRMS
    assert hash(again) == hash(POPE_AFFIRMS)
    assert hash(again) == hash(again)
    assert POPE_AFFIRMS != POPE_DENIES


def test_triple_pattern_validation():
    TriplePattern(X, A, Y)
    TriplePattern(X, Y, TriplePattern(X, A, Y))
    with pytest.raises(TypeError):
        TriplePattern(X, TriplePattern(X, A, Y), Y)
    with pytest.raises(TypeError):
        TriplePattern("s", A, Y)


def test_term_text_is_canonical():
    assert term_text(JESUS) == f"<{JESUS.text}>"
    assert term_text(JESUS_DEITY) == (
        f"<< <{JESUS.text}> <{A.text}> <{FULL_DEITY.text}> >>"
    )
    nested = term_text(POPE_DENIES)
    assert nested.count("<<") == 2 and nested.count(">>") == 2


def test_pattern_term_conversions():
    p = term_to_pattern(POPE_DENIES)
    assert pattern_is_ground(p)
    assert pattern_variables(p) == frozenset()
    assert pattern_to_term(p) == POPE_DENIES
    q = TriplePattern(X, A, FULL_DEITY)
    assert pattern_variables(q) == {X}
    with pytest.raises(ValueError):
        pattern_to_term(q)


def test_match_binds_and_rejects():
    def rows(p, t):
        g = FourGraph(FourValue.UNKNOWN, {t: FourValue.TRUE})
        return dict(evaluate(Pattern(p), g).exceptions)

    p = TriplePattern(X, A, Y)
    assert rows(p, StarTriple(POPE, A, CHRISTIAN)) == {
        Mapping.of({X: POPE, Y: CHRISTIAN}): FourValue.TRUE}
    assert rows(p, StarTriple(POPE, VOCAB.to_be_true, CHRISTIAN)) == {}

    repeated = TriplePattern(X, A, X)
    assert rows(repeated, StarTriple(POPE, A, POPE)) == {Mapping.of({X: POPE}): FourValue.TRUE}
    assert rows(repeated, StarTriple(POPE, A, CHRISTIAN)) == {}

    quoted = TriplePattern(X, VOCAB.to_be_false, TriplePattern(Y, A, FULL_DEITY))
    assert rows(quoted, StarTriple(ARIUS, VOCAB.to_be_false, JESUS_DEITY)) == {
        Mapping.of({X: ARIUS, Y: JESUS}): FourValue.TRUE}
    assert rows(quoted, StarTriple(ARIUS, VOCAB.to_be_false, ZEUS)) == {}
    assert rows(quoted, StarTriple(ARIUS, VOCAB.to_be_false, StarTriple(JESUS, A, ZEUS))) == {}


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def test_graph_drops_default_valued_exceptions():
    g = FourGraph(FourValue.UNKNOWN, {JESUS_DEITY: FourValue.UNKNOWN,
                                      ZEUS_DEITY: FourValue.FALSE})
    assert JESUS_DEITY not in g.exceptions
    assert g.lookup(JESUS_DEITY) == FourValue.UNKNOWN
    assert g.lookup(ZEUS_DEITY) == FourValue.FALSE


def test_graph_set_value_stays_canonical():
    g = FourGraph(FourValue.UNKNOWN)
    g2 = g.set_value(JESUS_DEITY, FourValue.TRUE)
    assert g.exceptions == {}
    assert g2.lookup(JESUS_DEITY) == FourValue.TRUE
    g3 = g2.set_value(JESUS_DEITY, FourValue.UNKNOWN)
    assert g3.exceptions == {}
    assert g3 == g


def test_graph_equality():
    g = FourGraph(FourValue.UNKNOWN, {JESUS_DEITY: FourValue.TRUE, POPE_AFFIRMS: FourValue.TRUE})
    assert g.default == FourValue.UNKNOWN
    assert g.lookup(POPE_AFFIRMS) == FourValue.TRUE
    assert g.lookup(ZEUS_DEITY) == FourValue.UNKNOWN
    same = FourGraph(FourValue.UNKNOWN, {POPE_AFFIRMS: FourValue.TRUE,
                                         JESUS_DEITY: FourValue.TRUE})
    assert g == same
    assert g != FourGraph(FourValue.FALSE, dict(g.exceptions))


def test_graph_rejects_non_triple_keys():
    with pytest.raises(TypeError):
        FourGraph(FourValue.UNKNOWN, {JESUS: FourValue.TRUE})


def test_active_domain_of_running_example(g1):
    dom = active_domain(g1)
    assert len(dom) == 17
    for expected in (JESUS, ZEUS, POPE, ARIUS, RUSSELL, FULL_DEITY, CHRISTIAN, A,
                     JESUS_DEITY, ZEUS_DEITY, POPE_AFFIRMS, POPE_DENIES,
                     VOCAB.to_be_true, VOCAB.to_be_false, VOCAB.to_be_unknown,
                     VOCAB.to_be_conflicted):
        assert expected in dom
    # Christianity closes the count
    assert len([t for t in dom if isinstance(t, StarTriple)]) == 4


def test_active_domain_quotes_only():
    # the asserting triple itself stays out; only quoted occurrences enter
    belief = StarTriple(RUSSELL, VOCAB.to_be_true, POPE_AFFIRMS)
    g = FourGraph(FourValue.UNKNOWN, {belief: FourValue.TRUE})
    dom = active_domain(g)
    assert belief not in dom
    assert dom == frozenset({RUSSELL, VOCAB.to_be_true, POPE_AFFIRMS,
                             POPE, JESUS_DEITY, JESUS, A, FULL_DEITY})


def test_active_domain_extra_terms_are_closed():
    g = FourGraph(FourValue.UNKNOWN)
    assert active_domain(g) == frozenset()
    dom = active_domain(g, [POPE_AFFIRMS])
    assert dom == frozenset({POPE_AFFIRMS, POPE, VOCAB.to_be_true,
                             JESUS_DEITY, JESUS, A, FULL_DEITY})


def test_active_domain_reuses_the_graph_cache_when_extra_terms_add_nothing(g1):
    dom = active_domain(g1)
    assert active_domain(g1, [JESUS, POPE_AFFIRMS]) is dom
    assert active_domain(g1, [Iri("urn:new")]) == dom | {Iri("urn:new")}
    assert active_domain(g1) is dom


def _closure_from_scratch(g, extra):
    acc = set()

    def add(t):
        acc.add(t)
        if isinstance(t, StarTriple):
            add(t.subject)
            add(t.predicate)
            add(t.object)

    for t in g.exceptions:
        add(t.subject)
        add(t.predicate)
        add(t.object)
    for t in extra:
        add(t)
    return frozenset(acc)


def _answers(queries, g):
    """Every query's relation in both modes, or the refusal's type."""
    out = []
    for q in queries:
        for mode in EvalMode:
            try:
                out.append(evaluate(q, g, mode=mode))
            except NonFinitelySupported as e:
                out.append(type(e))
    return out


def test_graph_caches_stay_coherent_under_set_value():
    rng = random.Random(60606)
    pool = randgen.iri_pool()
    predicates = pool + sorted(VOCAB.predicates(), key=term_text)
    x, y, z, p = (Variable(n) for n in "xyzp")
    for _ in range(12):
        g = randgen.random_graph(rng, pool, max_exceptions=20)
        for _ in range(6):
            triples = sorted(g.exceptions, key=term_text)
            subject = rng.choice([t.subject for t in triples] or pool)
            pred = rng.choice(predicates)
            by_predicate = Pattern(TriplePattern(x, pred, y))
            by_subject = Pattern(TriplePattern(term_to_pattern(subject), p, z))
            queries = [
                by_predicate,
                by_subject,
                Pattern(TriplePattern(x, p, y)),
                Pattern(TriplePattern(TriplePattern(x, pred, y), p, z)),
                Join(FourOperator.INFO_MEET, by_predicate, by_subject),
            ]
            answers = _answers(queries, g)
            assert answers == _answers(queries, parse_graph(render_graph(g)))
            extra = [rng.choice(pool), Iri("urn:elsewhere"), *rng.sample(triples, min(2, len(triples)))]
            assert active_domain(g, extra) == _closure_from_scratch(g, extra)
            assert active_domain(g) == _closure_from_scratch(g, ())
            # change or add a triple, or reset one to the default
            if triples and rng.random() < 0.6:
                t = rng.choice(triples)
            else:
                t = StarTriple(rng.choice(pool), pred, rng.choice(pool))
            state = g.default if rng.random() < 0.4 else rng.choice(STATES)
            updated = g.set_value(t, state)
            # the update leaves the graph it came from as it was
            assert _answers(queries, g) == answers
            g = updated


# ---------------------------------------------------------------------------
# Belief vocabulary
# ---------------------------------------------------------------------------


def test_vocabulary_round_trip():
    for state in STATES:
        assert VOCAB.state_for(VOCAB.predicate_for(state)) == state
    assert VOCAB.state_for(A) is None
    assert len(VOCAB.predicates()) == 4


def test_vocabulary_custom_namespace():
    v = BeliefVocabulary.from_namespace("urn:b#")
    assert v.to_be_true == Iri("urn:b#believesToBeTrue")
    assert v.predicate_for(FourValue.CONFLICTED) == Iri("urn:b#believesToBeConflicted")
    assert v.predicates().isdisjoint(VOCAB.predicates())
