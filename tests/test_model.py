"""Terms, patterns, graphs and the active domain."""

import copy
import pickle
import random

import pytest

import esparql.model

from esparql import (
    Belief,
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
    all_states_shorthand,
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
from helpers import state_for

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


def test_each_spelling_is_one_object():
    assert Iri("urn:one") is Iri(text="urn:one") and Variable("one") is Variable(name="one")
    # the two vocabularies are apart, whatever the spelling
    assert Iri("one") is not Variable("one") and Iri("one") != Variable("one")
    assert Variable("one") != Iri("one") and len({Iri("one"), Variable("one")}) == 2
    for term in (Iri("urn:one"), Variable("one")):
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.deepcopy(term) is term and copy.copy(term) is term


def test_interned_terms_compare_and_hash_in_c():
    # no Python-level __eq__ or __hash__: equality is identity
    for cls in (Iri, Variable):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__
    assert StarTriple.__hash__ is not object.__hash__  # triples stay value objects


def test_triples_parsed_apart_share_their_iris():
    text = "<urn:apart:s> <urn:apart:p> << <urn:apart:s> <urn:apart:p> <urn:apart:o> >> ."
    (a,), (b,) = parse_graph(text).exceptions, parse_graph(text).exceptions
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.subject is b.subject is b.object.subject and a.object.object is b.object.object


@pytest.mark.parametrize("cls, spelling, error, message", [
    (Iri, "", ValueError, "empty IRI"),
    (Iri, "urn:a b", ValueError, "bad IRI text: 'urn:a b'"),
    (Iri, " ", ValueError, "bad IRI text: ' '"),
    (Iri, "<", ValueError, "bad IRI text: '<'"),
    (Iri, None, ValueError, "empty IRI"),
    (Iri, 5, TypeError, "expected string or bytes-like object, got 'int'"),
    (Iri, b"urn:b", TypeError, "cannot use a string pattern on a bytes-like object"),
    (Iri, ["urn:c"], TypeError, "expected string or bytes-like object, got 'list'"),
    (Variable, "", ValueError, "empty variable name"),
    (Variable, "a b", ValueError, "bad variable name: 'a b'"),
    (Variable, "?x", ValueError, "bad variable name: '?x'"),
    (Variable, 5, TypeError, "'int' object is not iterable"),
])
def test_a_refused_spelling_is_refused_again(cls, spelling, error, message):
    # nothing is cached on a refusal, so a retry meets the same check
    for _ in range(2):
        with pytest.raises(error) as err:
            cls(spelling)
        assert str(err.value) == message


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


def test_iris_and_variables_of_one_spelling_differ():
    assert Iri("x") != Variable("x") and Variable("x") != Iri("x")
    assert not Iri("x") == Variable("x")
    assert len({Iri("x"), Variable("x"), Iri("x"), Variable("x")}) == 2


def test_triples_built_apart_are_equal_and_hash_alike():
    def build(s, p, o):
        # fresh objects all the way down
        return StarTriple(StarTriple(Iri(s), Iri(p), Iri(o)), Iri(p), Iri(o))

    a, b = build("urn:s", "urn:p", "urn:o"), build("urn:s", "urn:p", "urn:o")
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != build("urn:s", "urn:p", "urn:x")
    assert a != build("urn:x", "urn:p", "urn:o")
    # keywords build the same term as positions
    assert StarTriple(subject=a, predicate=Iri(text="urn:p"), object=Iri("urn:o")) == \
        StarTriple(b, Iri("urn:p"), Iri("urn:o"))
    assert Variable(name="v") == Variable("v")
    assert repr(a) == "<< << <urn:s> <urn:p> <urn:o> >> <urn:p> <urn:o> >>"


@pytest.mark.parametrize("term", [Iri("urn:a"), Variable("v"), POPE_AFFIRMS])
def test_terms_are_immutable(term):
    for name in ("text", "name", "subject", "predicate", "object", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(term, name, Iri("urn:z"))
        with pytest.raises(AttributeError):
            delattr(term, name)


def test_triple_positions_reject_variables_and_strings_with_the_same_messages():
    cases = [
        (("s", A, CHRISTIAN), "subject must be a term, got str"),
        ((POPE, A, Variable("o")), "object must be a term, got Variable"),
        ((X, A, "o"), "subject must be a term, got Variable"),
        ((POPE, X, CHRISTIAN), "predicate must be an IRI"),
        ((POPE, "a", CHRISTIAN), "predicate must be an IRI"),
        ((POPE, JESUS_DEITY, CHRISTIAN), "predicate must be an IRI"),
    ]
    for args, message in cases:
        with pytest.raises(TypeError) as err:
            StarTriple(*args)
        assert str(err.value) == message


@pytest.mark.parametrize("term", [Iri("urn:a"), Variable("v"), POPE_AFFIRMS])
def test_terms_survive_pickle_and_deepcopy(term):
    for again in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
        assert again == term and hash(again) == hash(term)
        assert type(again) is type(term)


def test_deep_triples_hash_and_compare_without_recursion():
    def deep(n, leaf):
        t = StarTriple(Iri(leaf), A, CHRISTIAN)
        for _ in range(n - 1):
            t = StarTriple(t, A, StarTriple(Iri("urn:y"), A, CHRISTIAN))
        return t

    a, b = deep(2000, "urn:x"), deep(2000, "urn:x")
    assert a is not b and hash(a) == hash(b) and a == b
    assert {a: 1}[b] == 1
    assert a != deep(2000, "urn:other") and a != deep(1999, "urn:x")


def test_deep_triples_print_pickle_and_evaluate_without_recursion():
    # quoted in object and subject position in turn, far past the parser's
    # limit; the expected text grows at both ends
    a, c = term_text(A), term_text(CHRISTIAN)
    deep, heads, tails = StarTriple(Iri("urn:x"), A, CHRISTIAN), [], []
    for i in range(1999):
        if i % 2:
            deep = StarTriple(CHRISTIAN, A, deep)
            heads.append(f"<< {c} {a} ")
            tails.append(" >>")
        else:
            deep = StarTriple(deep, A, CHRISTIAN)
            heads.append("<< ")
            tails.append(f" {a} {c} >>")
    text = term_text(deep)
    assert text == "".join(reversed(heads)) + f"<< <urn:x> {a} {c} >>" + "".join(tails)
    assert repr(deep) == text
    for again in (pickle.loads(pickle.dumps(deep)), copy.deepcopy(deep)):
        assert again == deep and again is not deep and term_text(again) == text

    g = FourGraph(FourValue.UNKNOWN, {deep: FourValue.TRUE, POPE_AFFIRMS: FourValue.FALSE})
    # the 1,999 triples quoted in deep and its 3 IRIs, and 5 terms of the other
    assert deep.subject in active_domain(g) and len(active_domain(g)) == 1999 + 3 + 5
    q = Pattern(TriplePattern(X, A, CHRISTIAN))
    for mode in EvalMode:
        r = evaluate(q, g, mode=mode)
        assert r.exceptions == {Mapping.of({X: deep.subject}): FourValue.TRUE}
        assert [term_text(t) for m, _ in r.rows() for _, t in m.bindings] == [
            term_text(deep.subject)]


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


def test_an_update_that_changes_nothing_keeps_the_graph():
    g = example_graph()
    built = (g.domain(), g.bucket("subject", POPE), g.bucket("object", JESUS_DEITY))
    for t in (POPE_AFFIRMS, ZEUS_DEITY):  # an exception, and a triple at the default
        same = g.set_value(t, g.lookup(t))
        assert same is g
        assert (same.domain(), same.bucket("subject", POPE),
                same.bucket("object", JESUS_DEITY)) == built
    # only the key is checked, and that before the value
    for key in (POPE, "triple", None):
        for value in (g.default, FourValue.TRUE):
            with pytest.raises(TypeError, match="exception key must be a triple"):
                g.set_value(key, value)


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
    x, y, z, p, h = (Variable(n) for n in "xyzph")
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
                Belief(all_states_shorthand(h, FourOperator.INFO_JOIN), by_predicate),
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
        assert state_for(VOCAB, VOCAB.predicate_for(state)) == state
    assert state_for(VOCAB, A) is None
    assert len(VOCAB.predicates()) == 4


def test_vocabulary_custom_namespace():
    v = BeliefVocabulary.from_namespace("urn:b#")
    assert v.to_be_true == Iri("urn:b#believesToBeTrue")
    assert v.predicate_for(FourValue.CONFLICTED) == Iri("urn:b#believesToBeConflicted")
    assert v.predicates().isdisjoint(VOCAB.predicates())
