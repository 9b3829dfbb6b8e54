"""Surface syntax: tokenizer, graph reader/writer, query parser, serializer.

Error messages are part of the interface, so several tests pin them verbatim.
"""

import random
import re
import tracemalloc
from pathlib import Path

import pytest

import esparql.algebra
import esparql.model
import esparql.parser
from esparql import (
    DEFAULT_BASE_IRI,
    EvalMode,
    FourGraph,
    FourOperator,
    FourValue,
    Iri,
    Mapping,
    Relation,
    StarTriple,
    Variable,
    evaluate,
    parse_and_desugar,
    parse_graph,
    parse_query,
    render_graph,
    serialize_relation,
)
from esparql.algebra import (
    And,
    Belief,
    Bound,
    Eq,
    Filter,
    Join,
    MapState,
    Not,
    Or,
    Pattern,
    Project,
    StateIs,
    Union,
    in_scope,
)
from esparql.belief import CompoundBelief, all_states_shorthand, atoms
from esparql.errors import DuplicateTriple, EsparqlError, IllFormedQuery, ParseError
from esparql.model import DEPTH_LIMIT, TriplePattern
from esparql.model import term_text
from esparql.parser import (
    desugar,
    resolve_iri,
)
from esparql.randgen import random_graph

from conftest import (
    ARIUS,
    CHRISTIAN,
    JESUS,
    JESUS_DEITY,
    POPE,
    data,
    example_graph,
)
from helpers import FUZZ_SOURCES, fixture_path, fixture_text, mutant

T = FourValue.TRUE
F = FourValue.FALSE
U = FourValue.UNKNOWN
C = FourValue.CONFLICTED


# ---------------------------------------------------------------- IRI helpers


def test_resolve_iri_joins_bare_names_against_the_base():
    assert resolve_iri("Jesus", DEFAULT_BASE_IRI) == data("Jesus")


def test_resolve_iri_keeps_absolute_references():
    for text in ("urn:x:1", "https://elsewhere.org/y", "mailto:a@b.c"):
        assert resolve_iri(text, DEFAULT_BASE_IRI) == Iri(text)


def test_shorten_iri_strips_only_proper_prefixes():
    # table cells shorten IRIs under the base, alone or quoted; the bare
    # base is not shortened to an empty name
    x, base = Variable("x"), Iri(DEFAULT_BASE_IRI)
    cells = {data("Jesus"): "Jesus", Iri("urn:x:1"): "urn:x:1", base: DEFAULT_BASE_IRI,
             StarTriple(base, data("a"), Iri("urn:x:1")):
             f"<< <{DEFAULT_BASE_IRI}> <a> <urn:x:1> >>"}
    for term, cell in cells.items():
        r = Relation(frozenset({x}), FourValue.UNKNOWN, {Mapping.of({x: term}): FourValue.TRUE})
        assert serialize_relation(r, "table") == f"x | state\n{cell} | true\n"


# ------------------------------------------------------------------ tokenizer


@pytest.mark.parametrize(
    "text,message",
    [
        ("<abc", "1:1: unterminated IRI"),
        ("< a> <b> <c> .", "1:2: bad character inside IRI"),
        ("<> <b> <c> .", "1:1: empty IRI"),
        ("\n\n  <a> <b> $ .", "3:11: unexpected character '$'"),
        ("<a> >", "1:5: unexpected '>'"),
        ("<a> <b> @ .", "1:9: expected a word after '@'"),
        ("<a> <b> & <c> .", "1:9: unexpected '&'"),
        ("<a> <b\n> <c> .", "1:5: unterminated IRI"),
        ("<a<b> <p> <o> .", "1:3: bad character inside IRI"),
        # every str.isspace character inside '<...>' is a syntax error
        ("<a\x0bb> <p> <o> .", "1:3: bad character inside IRI"),
        ("<a> <p\rq> <o> .", "1:7: bad character inside IRI"),
        ("<a> <p> <o\xa0> .", "1:11: bad character inside IRI"),
        # a tokenizer error anywhere wins over an earlier grammar error
        ("<a> . <b>\n$", "2:1: unexpected character '$'"),
    ],
)
def test_tokenizer_errors_carry_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_whitespace_inside_a_query_iri_is_a_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_query("SELECT * WHERE { ?s <p\x0c> ?o }")
    assert str(err.value) == "1:23: bad character inside IRI"


def test_lone_question_mark_needs_a_variable_name():
    with pytest.raises(ParseError) as err:
        parse_query("SELECT ? WHERE { ?x <p> ?y }")
    assert str(err.value) == "1:8: expected a variable name after '?'"


# --------------------------------------------------------------- graph reader


def test_table_fixture_matches_the_handbuilt_graph():
    assert parse_graph(fixture_text("table1.f4s")) == example_graph()


def test_fixture_path_points_at_a_readable_file():
    path = fixture_path("table1.f4s")
    assert path.is_file()
    assert parse_graph(path.read_text()) == example_graph()


def test_annotation_defaults_to_true():
    g = parse_graph("<Arius> <a> <Christian> .")
    assert g.exceptions == {StarTriple(ARIUS, data("a"), CHRISTIAN): T}
    assert g.default == U


def test_explicit_annotations_set_the_stated_value():
    g = parse_graph(
        "<a> <p> <b> @false .\n"
        "<a> <p> <c> @conflicted .\n"
        "<a> <p> <d> @true ."
    )
    values = {t.object: v for t, v in g.exceptions.items()}
    assert values == {data("b"): F, data("c"): C, data("d"): T}


def test_default_header_sets_the_fallback_value():
    g = parse_graph("@default false .\n<a> <p> <b> .")
    assert g.default == F
    assert g.lookup(StarTriple(data("x"), data("y"), data("z"))) == F


def test_default_valued_statements_are_dropped_from_the_exception_map():
    g = parse_graph("@default false .\n<a> <p> <b> @false .")
    assert g.exceptions == {}


def test_default_header_must_come_first():
    with pytest.raises(ParseError) as err:
        parse_graph("<a> <b> <c> .\n@default false .")
    assert str(err.value) == "2:1: '@default' must be the first statement, found 'default'"


def test_default_header_rejects_made_up_states():
    with pytest.raises(ParseError) as err:
        parse_graph("@default both .")
    assert str(err.value) == "1:10: expected a state name, found 'both'"


def test_annotations_reject_made_up_states():
    with pytest.raises(ParseError) as err:
        parse_graph("<a> <b> <c> @maybe .")
    assert str(err.value) == "1:13: unknown state 'maybe'"


def test_duplicate_triples_are_rejected_even_with_equal_values():
    text = "<a> <b> <c> .\n<a> <b> <c> ."
    with pytest.raises(DuplicateTriple) as err:
        parse_graph(text)
    assert str(err.value) == (
        "2:1: triple annotated twice: << <https://esparql.dev/data#a> "
        "<https://esparql.dev/data#b> <https://esparql.dev/data#c> >>"
    )
    with pytest.raises(DuplicateTriple):
        parse_graph("<a> <b> <c> .\n<a> <b> <c> @false .")
    # the position is the statement's first token, for a quoted subject its '<<'
    with pytest.raises(DuplicateTriple) as err:
        parse_graph("<x> <y> <z> .\n<< <a> <b> <c> >> <p> <o> .\n<< <a> <b> <c> >> <p> <o> .")
    assert str(err.value).startswith("3:1: triple annotated twice: ")


def test_bare_words_are_not_graph_terms():
    with pytest.raises(ParseError) as err:
        parse_graph("Jesus <a> <c> .")
    assert str(err.value) == "1:1: expected an IRI or a quoted triple, found 'Jesus'"


def test_statements_must_end_with_a_dot():
    with pytest.raises(ParseError) as err:
        parse_graph("<a> <b> <c>")
    assert str(err.value) == "1:12: expected '.', found 'end of input'"


def test_end_of_input_after_a_trailing_comment_is_at_the_true_end():
    with pytest.raises(ParseError) as err:
        parse_graph("<a> <b> <c> # x")
    assert str(err.value) == "1:16: expected '.', found 'end of input'"


def test_comments_and_blank_lines_are_ignored():
    g = parse_graph("# header\n\n<Arius> <a> <Christian> .  # trailing note\n")
    assert g == parse_graph("<Arius> <a> <Christian> .")


def test_the_readme_graph_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```\n(@default .*?)```", readme, re.DOTALL)
    g = parse_graph(block)
    assert g.default == U
    assert len(g.exceptions) == 5
    assert g.lookup(StarTriple(POPE, data("a"), CHRISTIAN)) == T
    assert g.lookup(StarTriple(ARIUS, data("a"), CHRISTIAN)) == T


def test_quoted_terms_nest_in_subject_and_object_position():
    g = parse_graph("<< << <a> <p> <b> >> <q> <c> >> <r> << <d> <s> <e> >> @conflicted .")
    (triple,) = g.exceptions
    assert triple.subject.subject == StarTriple(data("a"), data("p"), data("b"))
    assert triple.object == StarTriple(data("d"), data("s"), data("e"))
    assert g.exceptions[triple] == C


def test_each_iri_spelling_is_resolved_and_validated_once(monkeypatch):
    # spellings no other test interns, so each is new to this process
    names = ["once-a", "once-b", "once-c", "https://elsewhere.org/once-d"]
    lines = [f"<{s}> <{p}> << <{s}> <{p}> <{o}> >> ."
             for s in names for p in names for o in names]
    resolved, validated = [], []
    resolve, check = esparql.parser.resolve_iri, esparql.model._BAD_IRI_CHAR

    def counted_resolve(text, base):
        resolved.append(text)
        return resolve(text, base)

    def counted_check(text):
        validated.append(text)
        return check(text)

    monkeypatch.setattr(esparql.parser, "resolve_iri", counted_resolve)
    monkeypatch.setattr(esparql.model, "_BAD_IRI_CHAR", counted_check)
    g = parse_graph("\n".join(lines))
    assert len(g.exceptions) == len(names) ** 3
    assert sorted(resolved) == sorted(names)
    # a second parse resolves its spellings again, but meets each IRI interned
    assert parse_graph("\n".join(lines)) == g
    monkeypatch.undo()
    assert sorted(resolved) == sorted(names * 2)
    assert sorted(validated) == sorted(n if ":" in n else DEFAULT_BASE_IRI + n for n in names)


def _nested_graph(depth: int) -> str:
    term = "<x>"
    for _ in range(depth):
        term = f"<< {term} <p> <y> >>"
    return f"{term} <says> <z> .\n"


def test_quoting_may_nest_up_to_the_limit():
    g = parse_graph(_nested_graph(DEPTH_LIMIT))
    (triple,) = g.exceptions
    depth = 0
    term = triple.subject
    while isinstance(term, StarTriple):
        depth += 1
        term = term.subject
    assert depth == DEPTH_LIMIT
    assert parse_graph(render_graph(g)) == g


def test_quoting_past_the_limit_is_a_syntax_error():
    limit = DEPTH_LIMIT
    column = 3 * limit + 1  # the first '<<' past the limit
    message = f"1:{column}: quoting nested deeper than {limit} levels"
    with pytest.raises(ParseError) as err:
        parse_graph(_nested_graph(limit + 1))
    assert str(err.value) == message
    pattern = "?x"
    for _ in range(limit + 1):
        pattern = f"<< {pattern} <p> <y> >>"
    with pytest.raises(ParseError) as err:
        parse_query("SELECT * WHERE { " + pattern + " <says> ?z }")
    assert str(err.value) == f"1:{column + 17}: quoting nested deeper than {limit} levels"
    # far past the limit it is still a ParseError, not a RecursionError
    with pytest.raises(ParseError):
        parse_graph(_nested_graph(600))
    with pytest.raises(ParseError) as err:
        parse_graph(_nested_graph(1000))
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        parse_query("SELECT * WHERE { " + "<< " * 1000 + "?x" + " <p> <y> >>" * 1000 + " <says> ?z }")
    assert str(err.value) == f"1:{column + 17}: quoting nested deeper than {limit} levels"


def _graph_outcome(text: str):
    try:
        return parse_graph(text)
    except (ParseError, DuplicateTriple) as e:
        return type(e), str(e)


def test_the_statement_pattern_reads_as_the_token_reader(monkeypatch):
    # with a pattern that never matches, every statement goes through the
    # token reader, the reference; each text is compared as soon as it is
    # read, so a skip that backtracks fails on the comment cases first
    rng = random.Random(2424)
    texts = [
        # a comment after a quoted part's predicate runs to the next line
        "<< <Jesus> <a># <FullDeity> >> <says> <it> .\n<x> <y> <z> .\n",
        "<s> <p> << <Jesus> <a># <FullDeity> >> .\n<x> >> .\n",
        "<s> <p> << <Jesus> <a> <FullDeity> >> # note >> .\n.\n",
        "<a> <b> <c> @true_x .\n",
        "<a> <b> <c> @true.\n<a> <b> <d>@false.",
        "<<<a> <b> <c>>> <p> <o> .\n<<<a>",
        "<a> <b> <c> .\n@default false .\n",
        "# note\n@default false . # x\n<a> <b> <c> @false .\n<a> <b> <d> .",
        _nested_graph(2),
        _nested_graph(DEPTH_LIMIT),
        _nested_graph(DEPTH_LIMIT + 1),
        "<a> <b> <c> .\n" + " " * 5000 + "$",
        "<a> <b>" + " " * 5000 + "$",
    ]
    graphs = [render_graph(random_graph(rng)) for _ in range(40)]
    sources = [fixture_text(name) for name in FUZZ_SOURCES] + graphs[:10] + texts[:8]
    texts += graphs + [mutant(rng, source) for source in sources for _ in range(120)]
    never = re.compile(r"(?!)")
    for text in texts:
        fast = _graph_outcome(text)
        with monkeypatch.context() as m:
            m.setattr(esparql.parser, "_STATEMENT", never)
            assert _graph_outcome(text) == fast, text


def test_a_parse_holds_no_list_of_its_tokens():
    # 6,000 statements shaped as in the ingest benchmark; the graph is most
    # of what a parse allocates, not one tuple per token
    rng = random.Random(6000)
    lines = []
    for i in range(6000):
        s, p, o = f"<mem-s{rng.randrange(900)}>", f"<mem-p{rng.randrange(12)}>", f"<mem-o{i}>"
        if i % 10 == 1:
            s = f"<< {s} {p} <mem-o{rng.randrange(900)}> >>"
        elif i % 10 == 2:
            o = f"<< {s} <mem-q> {o} >>"
        lines.append(f"{s} {p} {o}{rng.choice(['', ' @false', ' @conflicted'])} .")
    text = "\n".join(lines)
    tracemalloc.start()
    try:
        g = parse_graph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.exceptions) == 6000
    assert peak <= 2.5 * kept


_FILTER_HEAD = "SELECT * WHERE { ?s <p> ?o . FILTER ("


def _filter_query(cond: str) -> str:
    return _FILTER_HEAD + cond + ") }"


def test_conditions_may_nest_up_to_the_limit():
    g = parse_graph("<a> <p> <b> .\n<b> <p> <b> @false .\n<c> <p> <c> @conflicted .\n")
    plain = evaluate(parse_and_desugar(_filter_query("?s = ?o")), g)
    limit = DEPTH_LIMIT
    for cond in ("!" * limit + "?s = ?o",
                 "(" * limit + "?s = ?o" + ")" * limit,
                 "!(" * (limit // 2) + "?s = ?o" + ")" * (limit // 2)):
        # an even number of negations: the condition means ?s = ?o
        assert evaluate(parse_and_desugar(_filter_query(cond)), g) == plain


def test_conditions_past_the_limit_are_a_syntax_error():
    limit = DEPTH_LIMIT
    column = len(_FILTER_HEAD) + limit + 1  # the first '!' or '(' past the limit
    message = f"1:{column}: condition nested deeper than {limit} levels"
    # far past the limit it is still a ParseError, not a RecursionError
    for depth in (limit + 1, 1000):
        for cond in ("!" * depth + "?s = ?o", "(" * depth + "?s = ?o" + ")" * depth):
            with pytest.raises(ParseError) as err:
                parse_query(_filter_query(cond))
            assert str(err.value) == message


def _union_chain(branches: int) -> str:
    """A left-deep chain of ``branches`` groups over three predicates."""
    return "SELECT * WHERE { " + " UNION ".join(
        f"{{ ?s <p{i % 3}> ?o }}" for i in range(branches)) + " }"


def test_union_chains_of_any_length_answer():
    g = parse_graph("<a> <p0> <b> .\n<b> <p1> <c> @false .\n<c> <p2> <a> @conflicted .\n")
    three = parse_and_desugar(_union_chain(3))
    # the truth join is idempotent, so repeating a branch changes nothing
    for branches in (DEPTH_LIMIT + 1, 1500, 5000):
        longest = parse_and_desugar(_union_chain(branches))
        for mode in EvalMode:
            assert evaluate(longest, g, mode=mode) == evaluate(three, g, mode=mode)


def _nested_selects(levels: int) -> str:
    """``levels`` SELECTs, each the whole body of the one around it."""
    return "SELECT * WHERE { " * levels + "?s <p> ?o" + " }" * levels


def test_selects_may_nest_up_to_the_limit():
    g = parse_graph("<a> <p> <b> .\n<b> <p> <c> @false .\n")
    deepest = parse_and_desugar(_nested_selects(DEPTH_LIMIT))
    one = parse_and_desugar(_nested_selects(1))
    for mode in EvalMode:
        assert evaluate(deepest, g, mode=mode) == evaluate(one, g, mode=mode)


def test_selects_nested_past_the_limit_are_a_syntax_error():
    limit = DEPTH_LIMIT
    # the SELECT of level 129 follows 128 openings of 17 characters
    message = f"1:{17 * limit + 1}: SELECT nested deeper than {limit} levels"
    for levels in (limit + 1, 1000):
        with pytest.raises(ParseError) as err:
            parse_query(_nested_selects(levels))
        assert str(err.value) == message


def _nested_groups(levels: int) -> str:
    """``levels`` groups, the WHERE group counted, each inner one the left
    branch of a UNION in the group around it."""
    n = levels - 1
    return "SELECT * WHERE { " + "{ " * n + "?s <p> ?o" + " } UNION { ?s <p> ?o }" * n + " }"


def test_groups_may_nest_up_to_the_limit():
    g = parse_graph("<a> <p> <b> .\n<b> <p> <c> @false .\n")
    deepest = parse_and_desugar(_nested_groups(DEPTH_LIMIT))
    one = parse_and_desugar(_nested_groups(1))
    for mode in EvalMode:
        assert evaluate(deepest, g, mode=mode) == evaluate(one, g, mode=mode)


def test_groups_nested_past_the_limit_are_a_syntax_error():
    limit = DEPTH_LIMIT
    # the '{' of level 129 follows the head and 127 openings of 2 characters
    message = f"1:{17 + 2 * (limit - 1) + 1}: groups nested deeper than {limit} levels"
    for levels in (limit + 1, 1000):
        with pytest.raises(ParseError) as err:
            parse_query(_nested_groups(levels))
        assert str(err.value) == message


# --------------------------------------------------------------- graph writer


def test_render_graph_emits_the_canonical_text():
    g = FourGraph(
        U,
        {
            StarTriple(ARIUS, data("a"), CHRISTIAN): T,
            StarTriple(POPE, data("a"), CHRISTIAN): F,
        },
    )
    assert render_graph(g) == (
        "@default unknown .\n"
        "<https://esparql.dev/data#Arius> <https://esparql.dev/data#a> "
        "<https://esparql.dev/data#Christian> .\n"
        "<https://esparql.dev/data#PopeDI> <https://esparql.dev/data#a> "
        "<https://esparql.dev/data#Christian> @false .\n"
    )


def test_render_parse_round_trip_on_the_running_example():
    g = example_graph()
    assert parse_graph(render_graph(g)) == g


def test_render_parse_round_trip_on_random_graphs():
    rng = random.Random(90125)
    for _ in range(50):
        g = random_graph(rng)
        text = render_graph(g)
        assert parse_graph(text) == g
        # the writer is a canonical form: re-rendering changes nothing
        assert render_graph(parse_graph(text)) == text


def _quote_depth(term) -> int:
    if isinstance(term, Iri):
        return 0
    return 1 + max(_quote_depth(term.subject), _quote_depth(term.object))


def test_render_graph_orders_lines_as_the_triples_term_text():
    # IRIs that are prefixes of one another, nested quoting and all states
    pool = [Iri(f"urn:x:n{i}") for i in (1, 10, 100, 2, 20)]
    rng = random.Random(5150)
    states, depth = set(), 0
    for _ in range(60):
        g = random_graph(rng, pool, max_exceptions=30)
        lines = [f"@default {g.default.label} ."]
        for t in sorted(g.exceptions, key=term_text):
            v = g.exceptions[t]
            suffix = "" if v == T else f" @{v.label}"
            lines.append(f"{term_text(t.subject)} {term_text(t.predicate)} "
                         f"{term_text(t.object)}{suffix} .")
        text = render_graph(g)
        assert text == "\n".join(lines) + "\n"
        assert parse_graph(text) == g
        states.update(g.exceptions.values())
        depth = max([depth] + [_quote_depth(t) for t in g.exceptions])
    assert states == {T, F, U, C}
    assert depth == 3


# ------------------------------------------------------------------ fuzzing

def test_fuzzed_inputs_fail_only_with_typed_errors():
    rng = random.Random(20240)
    for name in FUZZ_SOURCES:
        source = fixture_text(name)
        for _ in range(400):
            text = mutant(rng, source)
            lines = text.count("\n") + 1
            try:
                g = parse_graph(text)
            except (ParseError, DuplicateTriple) as e:
                assert 1 <= e.line <= lines and e.column >= 1
            else:
                assert parse_graph(render_graph(g)) == g
            try:
                desugar(parse_query(text))
            except ParseError as e:
                assert 1 <= e.line <= lines and e.column >= 1
            except EsparqlError:
                pass


# --------------------------------------------------------------- query parser


def test_first_listing_desugars_to_the_expected_tree():
    got = parse_and_desugar(fixture_text("u1.esq"))
    want = Project(
        FourOperator.INFO_JOIN,
        frozenset({Variable("deity")}),
        Belief(
            all_states_shorthand(POPE, FourOperator.INFO_JOIN),
            Pattern(TriplePattern(Variable("deity"), data("a"), data("FullDeity"))),
        ),
    )
    assert got == want


def test_select_star_projects_the_whole_scope():
    q = parse_and_desugar("SELECT * WHERE { ?x <p> ?y }")
    assert q.vars == frozenset({Variable("x"), Variable("y")})


def test_truth_is_the_default_operator_family():
    q = parse_and_desugar("SELECT ?x WHERE { ?x <p> ?y . ?x <q> ?y }")
    assert q.op == FourOperator.TRUTH_JOIN
    assert isinstance(q.query, Join) and q.query.op == FourOperator.TRUTH_MEET


def test_info_switches_every_operator():
    q = parse_and_desugar("SELECT INFO ?x WHERE { ?x <p> ?y . ?x <q> ?y }")
    assert q.op == FourOperator.INFO_JOIN
    assert q.query.op == FourOperator.INFO_MEET


def test_from_belief_folds_holders_with_the_information_join():
    q = parse_and_desugar("SELECT ?x FROM BELIEF <h1> <h2> WHERE { ?x <p> ?y }")
    body = q.query
    assert isinstance(body, Belief)
    want = CompoundBelief(
        all_states_shorthand(Iri(DEFAULT_BASE_IRI + "h1"), FourOperator.INFO_JOIN),
        FourOperator.INFO_JOIN,
        all_states_shorthand(Iri(DEFAULT_BASE_IRI + "h2"), FourOperator.INFO_JOIN),
    )
    assert body.expr == want


def test_many_holders_fold_into_a_balanced_tree_in_their_order(g1):
    # five holders: ((h1 h2) (h3 h4)) h5, not the left-deep (((h1 h2) h3) h4) h5,
    # with the same atoms left to right and the same answers
    names = ["PopeDI", "Arius", "Christianity", "Russell", "Zeus"]
    q = parse_and_desugar(
        f"SELECT ?x FROM BELIEF {' '.join(f'<{n}>' for n in names)} WHERE {{ ?x a ?kind }}")
    parts = [all_states_shorthand(data(n), FourOperator.INFO_JOIN) for n in names]
    info = FourOperator.INFO_JOIN
    pairs = [CompoundBelief(parts[0], info, parts[1]), CompoundBelief(parts[2], info, parts[3])]
    assert q.query.expr == CompoundBelief(CompoundBelief(pairs[0], info, pairs[1]), info, parts[4])
    assert [a.holder for a in atoms(q.query.expr)] == [data(n) for n in names for _ in range(4)]
    left_deep = parts[0]
    for part in parts[1:]:
        left_deep = CompoundBelief(left_deep, info, part)
    for mode in EvalMode:
        assert evaluate(q, g1, mode=mode) == evaluate(
            Project(q.op, q.vars, Belief(left_deep, q.query.query)), g1, mode=mode)


def test_holder_fold_uses_info_join_even_in_truth_mode():
    # the holder merge is about combining evidence, not about the result family
    q = parse_and_desugar("SELECT ?x FROM BELIEF <h1> <h2> WHERE { ?x <p> ?y }")
    assert q.op == FourOperator.TRUTH_JOIN
    assert q.query.expr.op == FourOperator.INFO_JOIN


def test_map_item_desugars_to_a_state_rewrite():
    q = parse_and_desugar(
        "SELECT ?x WHERE { ?x <p> ?y . MAP IF (STATE IS UNKNOWN) TO TRUE ELSE FALSE }"
    )
    node = q.query
    assert node == MapState(
        Pattern(TriplePattern(Variable("x"), data("p"), Variable("y"))),
        StateIs(U),
        T,
        F,
    )


def test_filter_item_desugars_with_the_selected_meet():
    q = parse_and_desugar(
        "SELECT INFO ?x WHERE { ?x <p> ?y . FILTER (BOUND(?x) && !(?x = ?y)) }"
    )
    node = q.query
    assert isinstance(node, Filter)
    assert node.op == FourOperator.INFO_MEET
    assert node.formula == And(Bound(Variable("x")), Not(Eq(Variable("x"), Variable("y"))))


def test_union_chains_associate_to_the_left():
    q = parse_and_desugar(
        "SELECT ?x WHERE { { ?x <p> <o> } UNION { ?x <q> <o> } UNION { ?x <r> <o> } }"
    )
    outer = q.query
    assert isinstance(outer, Union) and outer.op == FourOperator.TRUTH_JOIN
    assert isinstance(outer.left, Union)
    assert isinstance(outer.right, Pattern)
    assert outer.right.pattern.predicate == data("r")
    s, o = Variable("s"), Variable("o")
    p = [Pattern(TriplePattern(s, data(f"p{i % 3}"), o)) for i in range(4)]
    join = FourOperator.TRUTH_JOIN
    tree = Union(join, Union(join, Union(join, p[0], p[1]), p[2]), p[3])
    assert parse_and_desugar(_union_chain(4)) == Project(join, frozenset({s, o}), tree)


def test_a_bare_subselect_group_parses():
    q = parse_and_desugar("SELECT ?x WHERE { SELECT ?x WHERE { ?x <p> ?y } }")
    assert isinstance(q.query, Project)
    assert q.query.vars == frozenset({Variable("x")})


def test_dots_are_optional_after_braced_items():
    parse_query("SELECT ?x WHERE { { SELECT ?x WHERE { ?x <p> ?y } } ?x <q> <o> }")
    parse_query("SELECT ?x WHERE { { ?x <p> <o> } UNION { ?x <q> <o> } . ?x <r> <o> }")


def test_dots_are_required_between_triple_patterns():
    with pytest.raises(ParseError) as err:
        parse_query("SELECT ?x WHERE { ?x <p> ?y ?z <p> ?w }")
    assert str(err.value) == "1:29: expected '.' or '}', found 'z'"


def test_the_a_keyword_is_a_predicate_shorthand():
    q = parse_and_desugar("SELECT ?x WHERE { ?x a <Christian> }")
    assert q.query.pattern.predicate == data("a")


def test_the_a_keyword_is_rejected_outside_predicate_position():
    with pytest.raises(ParseError) as err:
        parse_query("SELECT ?x WHERE { a <p> ?y . }")
    assert str(err.value) == "1:19: expected an IRI, a variable or a quoted pattern, found 'a'"


def test_or_binds_looser_than_and_which_binds_looser_than_not():
    q = parse_and_desugar(
        "SELECT ?x WHERE { ?x <p> ?y . FILTER (?x = <a> || ?x = <b> && !BOUND(?y)) }"
    )
    f = q.query.formula
    assert f == Or(
        Eq(Variable("x"), data("a")),
        And(Eq(Variable("x"), data("b")), Not(Bound(Variable("y")))),
    )


@pytest.mark.parametrize(
    "keyword,state",
    [("TRUE", T), ("FALSE", F), ("UNKNOWN", U), ("CONFLICTED", C)],
)
def test_state_is_accepts_every_state_keyword(keyword, state):
    q = parse_and_desugar(
        f"SELECT ?x WHERE {{ ?x <p> ?y . FILTER (STATE IS {keyword}) }}"
    )
    assert q.query.formula == StateIs(state)


def test_quoted_patterns_may_hold_variables():
    q = parse_and_desugar("SELECT ?x ?y WHERE { ?x <denies> << ?y a <FullDeity> >> }")
    inner = q.query.pattern.object
    assert inner == TriplePattern(Variable("y"), data("a"), data("FullDeity"))


@pytest.mark.parametrize(
    "text,message",
    [
        ("SELECT ?x WHERE { }", "1:19: expected an IRI, a variable or a quoted pattern, found '}'"),
        ("SELECT ?x WHERE { ?x <p> ?y } extra", "1:31: expected end of input, found 'extra'"),
    ],
)
def test_query_parse_errors_carry_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_query(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "SELECT ?x WHERE { MAP IF (?x = ?x) TO TRUE ELSE FALSE }",
            "1:19: MAP needs a preceding pattern in its group",
        ),
        (
            "SELECT ?x WHERE { FILTER (BOUND(?x)) }",
            "1:19: FILTER needs a preceding pattern in its group",
        ),
    ],
)
def test_map_and_filter_need_something_to_act_on(text, message):
    with pytest.raises(IllFormedQuery) as err:
        parse_and_desugar(text)
    assert str(err.value) == message


def test_truncated_query_fixture_reports_the_final_position():
    with pytest.raises(ParseError) as err:
        parse_query(fixture_text("bad.esq"))
    assert str(err.value) == "4:1: expected '.' or '}', found 'end of input'"


def test_unused_projection_fixture_names_the_variable():
    with pytest.raises(IllFormedQuery) as err:
        parse_and_desugar(fixture_text("proj_unused.esq"))
    assert str(err.value) == "2:1: projected variable ?nope is not in scope"


@pytest.mark.parametrize(
    "name", ["u1.esq", "u2.esq", "u3.esq", "u4.esq", "u4_corrected.esq", "meet-disjoint.esq"]
)
def test_query_fixtures_desugar_and_pass_the_scope_check(name):
    q = parse_and_desugar(fixture_text(name))
    in_scope(q)


def test_desugar_scope_checks_each_nested_select_once(monkeypatch):
    # one scope table serves every level: no subquery is walked again by
    # the selects around it
    visits = []
    original = esparql.algebra._scope

    def counting(q, *args, **kwargs):
        visits.append(q)
        return original(q, *args, **kwargs)

    monkeypatch.setattr(esparql.algebra, "_scope", counting)
    monkeypatch.setattr(esparql.parser, "_scope", counting, raising=False)
    text = "SELECT * WHERE { " * 101 + "?s <p> ?o" + " }" * 101
    q = parse_and_desugar(text)
    nodes, stack = 0, [q]
    while stack:
        node = stack.pop()
        nodes += 1
        if isinstance(node, Project):
            stack.append(node.query)
    assert nodes == 102
    assert len(visits) <= 3 * nodes


# ------------------------------------------------------------- result writing


@pytest.fixture
def deity_result(g1):
    return evaluate(parse_and_desugar(fixture_text("u1.esq")), g1)


def test_table_format_hides_the_default_row_unless_asked(deity_result):
    assert serialize_relation(deity_result, "table") == "deity | state\nJesus | true\n"
    assert serialize_relation(deity_result, "table", show_default=True) == (
        "deity | state\nJesus | true\n* | unknown\n"
    )


def test_json_lines_format_uses_full_iris(deity_result):
    assert serialize_relation(deity_result, "json-lines", show_default=True) == (
        '{"deity": "<https://esparql.dev/data#Jesus>", "state": "true"}\n'
        '{"deity": "*", "state": "unknown"}\n'
    )


def test_csv_format_uses_full_iris(deity_result):
    assert serialize_relation(deity_result, "csv") == (
        "deity,state\n<https://esparql.dev/data#Jesus>,true\n"
    )


def test_table_cells_render_quoted_triples(g1):
    q = parse_and_desugar("SELECT * WHERE { ?x <https://esparql.dev/vocab#believesToBeConflicted> ?t }")
    r = evaluate(q, g1)
    assert serialize_relation(r, "table") == (
        "t | x | state\n<< <Jesus> <a> <FullDeity> >> | Christianity | true\n"
    )


def test_zero_column_relations_still_print_their_value(g1):
    q = parse_and_desugar(
        "SELECT INFO ?x WHERE { ?x <https://esparql.dev/vocab#believesToBeConflicted> << <Jesus> a <FullDeity> >> }"
    )
    r = evaluate(Project(FourOperator.INFO_JOIN, frozenset(), q), g1)
    assert serialize_relation(r, "table", show_default=True) == "state\ntrue\nunknown\n"


def test_unknown_serialization_format_is_rejected(deity_result):
    with pytest.raises(ValueError):
        serialize_relation(deity_result, "xml")
