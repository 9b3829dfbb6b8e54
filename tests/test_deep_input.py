"""Deep and wide queries run under the default recursion limit.

Long join chains, many belief holders and shared subquery nodes either
answer or fail with a typed error, never a raw ``RecursionError``; and no
module raises the recursion limit to get there.
"""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from esparql import (
    EvalMode,
    FourGraph,
    FourOperator,
    IllFormedQuery,
    FourValue,
    Iri,
    Mapping,
    StarTriple,
    TriplePattern,
    Variable,
    evaluate,
    in_scope,
    parse_and_desugar,
    parse_graph,
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
    Pattern,
    Project,
    Union,
    _scope,
    query_constants,
)
from esparql.belief import CompoundBelief, all_states_shorthand
from esparql.cli import main
from esparql.model import DEPTH_LIMIT
from esparql.oracle import diff, oracle_eval

from conftest import A, ARIUS, FULL_DEITY, JESUS, POPE, VOCAB, data

SOURCE = Path(__file__).resolve().parents[1] / "src" / "esparql"
MEET, JOIN = FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before


def _chain_text(n: int) -> str:
    """SELECT ?x0 over the chain ?x0 <p> ?x1 . ... . ?x(n-1) <p> ?xn."""
    return "SELECT ?x0 WHERE { " + " . ".join(f"?x{i} <p> ?x{i + 1}" for i in range(n)) + " }"


def test_no_module_raises_the_recursion_limit():
    offenders = [p for p in sorted(SOURCE.rglob("*.py")) if "setrecursionlimit" in p.read_text()]
    assert offenders == []


def _api_chain(n: int, p: Iri = Iri("urn:p")):
    """The left-deep join of ?x0 p ?x1 . ... . ?x(n-1) p ?xn."""
    q = Pattern(TriplePattern(Variable("x0"), p, Variable("x1")))
    for i in range(1, n):
        q = Join(MEET, q, Pattern(TriplePattern(Variable(f"x{i}"), p, Variable(f"x{i + 1}"))))
    return q


def test_a_1200_pattern_join_chain_scopes_and_collects_constants():
    q = _api_chain(1200)
    assert in_scope(q) == {Variable(f"x{i}") for i in range(1201)}
    assert query_constants(q) == {Iri("urn:p")}


def test_the_scope_table_keeps_only_the_scopes_read_after_the_walk():
    # a chain's table is its root's scope alone, not one set per node, and
    # the widest node is the root
    chain, table = _api_chain(1200), {}
    scope, widest = _scope(chain, table)
    assert table == {id(chain): scope} and widest == 1201
    # neither a belief nor its body stays; the widest node, the join under
    # the projection, is reported by size; a pattern read by two parents
    # is read by both
    x0, x1, x2, h = (Variable(n) for n in ("x0", "x1", "x2", "h"))
    shared = _api_chain(1)
    both = Union(JOIN, Filter(MEET, shared, Bound(x0)),
                 MapState(shared, Bound(x1), FourValue.TRUE, FourValue.FALSE))
    join = Join(MEET, both, Pattern(TriplePattern(x1, Iri("urn:p"), x2)))
    body = Project(JOIN, frozenset({x0}), join)
    q, table = Belief(all_states_shorthand(h, FourOperator.INFO_JOIN), body), {}
    scope, widest = _scope(q, table)
    assert table == {id(q): scope} and scope == {x0, h} and widest == 3


def test_the_oracle_answers_a_1200_pattern_join_and_a_1500_branch_union():
    g = parse_graph("<a> <p> <b> .\n")
    x, y, p = Variable("x"), Variable("y"), data("p")
    chain = Pattern(TriplePattern(x, p, y))
    for _ in range(1199):
        chain = Join(MEET, chain, Pattern(TriplePattern(x, p, y)))
    union = parse_and_desugar("SELECT * WHERE { " + " UNION ".join(["{ ?x <p> ?y }"] * 1500) + " }")
    for q in (chain, union):
        assert diff(evaluate(q, g), oracle_eval(q, g)) == []


def test_an_800_pattern_open_chain_over_a_self_loop_answers_one_row():
    g = parse_graph("<a> <p> <a> .\n")
    r = evaluate(parse_and_desugar(_chain_text(800)), g, mode=EvalMode.OPEN)
    assert r.exceptions == {Mapping.of({Variable("x0"): data("a")}): FourValue.TRUE}


def test_a_5000_pattern_chain_checks_and_refuses_the_active_domain(tmp_path):
    runner = CliRunner()
    query, graph = tmp_path / "chain.esq", tmp_path / "loop.f4s"
    query.write_text(_chain_text(5000) + "\n")
    graph.write_text("<a> <p> <a> .\n")
    checked = runner.invoke(main, ["check", "--query", str(query)])
    assert checked.exit_code == 0, checked.stderr
    assert checked.output.endswith("ok (in scope: ?x0)\n")
    refused = runner.invoke(main, ["query", "--graph", str(graph), "--query", str(query)])
    assert refused.exit_code == 5
    assert isinstance(refused.exception, SystemExit)
    assert refused.stderr.startswith("error: |universe| ** |vars| = 2**5001 exceeds cap")


def test_from_belief_with_1000_holders_answers(tmp_path):
    # every seventh holder believes <b> <p> <o>; the info join of their
    # pictures makes it true, and nobody believes anything of <a>
    holders = [Iri(f"urn:h{i}") for i in range(1000)]
    text = "SELECT ?x FROM BELIEF " + " ".join(f"<{h.text}>" for h in holders)
    text += " WHERE { ?x <p> <o> }"
    claim = StarTriple(data("b"), data("p"), data("o"))
    lines = ["<a> <p> <o> .", "<b> <p> <o> @false ."]
    lines += [f"<{h.text}> <{VOCAB.to_be_true.text}> << <b> <p> <o> >> ." for h in holders[::7]]
    g = parse_graph("\n".join(lines) + "\n")
    q = parse_and_desugar(text)
    for mode in EvalMode:
        r = evaluate(q, g, mode=mode)
        assert r.exceptions == {Mapping.of({Variable("x"): claim.subject}): FourValue.TRUE}
        assert r.default == FourValue.UNKNOWN
    query, graph = tmp_path / "holders.esq", tmp_path / "holders.f4s"
    query.write_text(text + "\n")
    graph.write_text("\n".join(lines) + "\n")
    for mode in ("active-domain", "open"):
        result = CliRunner().invoke(main, ["query", "--graph", str(graph), "--query", str(query),
                                           "--mode", mode])
        assert result.exit_code == 0, result.stderr
        assert result.output == "x | state\nb | true\n"


def test_a_left_deep_belief_query_is_refused_where_it_is_built(g1):
    # the left fold of 400 holders' shorthands, as the API lets one build it
    op = FourOperator.INFO_JOIN
    holders = [POPE, ARIUS, *(Iri(f"urn:h{i}") for i in range(398))]
    e = all_states_shorthand(holders[0], op)
    folded = 1
    with pytest.raises(IllFormedQuery, match=f"deeper than {DEPTH_LIMIT} levels"):
        for h in holders[1:]:
            e = CompoundBelief(e, op, all_states_shorthand(h, op))
            folded += 1
    # a shorthand is 3 deep, and each holder folded in adds one level
    assert folded == DEPTH_LIMIT - 2
    # the deepest query allowed answers as the parser's balanced fold does
    x = Variable("x")
    body = Pattern(TriplePattern(x, A, FULL_DEITY))
    balanced = parse_and_desugar(
        "SELECT ?x FROM BELIEF " + " ".join(f"<{h.text}>" for h in holders[:folded])
        + f" WHERE {{ ?x <{A.text}> <{FULL_DEITY.text}> }}").query
    for mode in EvalMode:
        r = evaluate(Belief(e, body), g1, mode=mode)
        assert r == evaluate(balanced, g1, mode=mode)
        assert r.exceptions == {Mapping.of({x: JESUS}): FourValue.CONFLICTED}


def test_a_condition_nested_past_the_limit_is_refused_where_it_is_built(g1):
    x, y = Variable("x"), Variable("y")
    body = Pattern(TriplePattern(x, A, y))
    limit = DEPTH_LIMIT
    for wrap in (Not, lambda f: And(f, Eq(x, y))):
        f, levels = Eq(x, y), 0
        with pytest.raises(IllFormedQuery, match=f"condition nested deeper than {limit} levels"):
            for _ in range(3000):
                f = wrap(f)
                levels += 1
        # the deepest formula allowed, an even number of negations or a
        # conjunction of one atom, means ?x = ?y
        assert levels == limit
        assert evaluate(Filter(MEET, body, f), g1) == evaluate(Filter(MEET, body, Eq(x, y)), g1)


def test_a_3000_operand_condition_chain_answers(g1):
    # the parser folds a chain of && or || into a balanced tree
    def query(cond):
        return parse_and_desugar(f"SELECT * WHERE {{ ?x <a> ?y . FILTER ({cond}) }}")

    one = evaluate(query("?x = ?y"), g1)
    for op in ("&&", "||"):
        assert evaluate(query(f" {op} ".join(["?x = ?y"] * 3000)), g1) == one


def test_a_pattern_quoted_past_the_limit_is_refused_where_it_is_built(g1):
    x, levels = Variable("x"), 0
    p, t = TriplePattern(x, A, FULL_DEITY), StarTriple(JESUS, A, FULL_DEITY)
    with pytest.raises(IllFormedQuery, match=f"quoting nested deeper than {DEPTH_LIMIT} "):
        for _ in range(3000):
            p = TriplePattern(p, A, FULL_DEITY)
            t = StarTriple(t, A, FULL_DEITY)
            levels += 1
    assert levels == DEPTH_LIMIT
    # the deepest pattern allowed finds its triple, quoted as deep
    g = FourGraph(FourValue.UNKNOWN, {t: FourValue.TRUE})
    for mode in EvalMode:
        r = evaluate(Pattern(p), g, mode=mode)
        assert r.exceptions == {Mapping.of({x: JESUS}): FourValue.TRUE}


def _sharing(shared: bool):
    """A query using one subquery under three parents, one of them a belief
    context; with ``shared`` the parents hold one node, else equal copies."""
    x, kind = Variable("x"), Variable("kind")

    def sub():
        return Project(JOIN, frozenset({x}), Pattern(TriplePattern(x, A, kind)))

    one = sub()
    a, b, c = (one, one, one) if shared else (sub(), sub(), sub())
    believed = Belief(all_states_shorthand(POPE, FourOperator.INFO_JOIN), a)
    return Union(JOIN, believed, Union(JOIN, Filter(MEET, b, Bound(x)),
                                       MapState(c, Eq(x, POPE), FourValue.TRUE, FourValue.FALSE)))


def test_a_shared_subquery_node_evaluates_like_its_tree_copy(g1):
    dag, tree = _sharing(True), _sharing(False)
    assert in_scope(dag) == in_scope(tree) == {Variable("x")}
    assert query_constants(dag) == query_constants(tree) == {A, POPE}
    for mode in EvalMode:
        r = evaluate(dag, g1, mode=mode)
        assert r == evaluate(tree, g1, mode=mode)
        # the Pope's Jesus, and the two Christians of the graph itself
        assert r.exceptions == {Mapping.of({x: t}): FourValue.TRUE
                                for x in in_scope(dag) for t in (JESUS, POPE, ARIUS)}


def test_from_belief_nested_to_the_depth_limit_answers(tmp_path):
    # each level quantifies its own holder; <h>'s one stance makes the
    # innermost body true on <a> <p> <b>, but no level's extraction holds
    # a belief statement for the level inside it, so the answer is empty
    text = "?s <p> ?o"
    for i in reversed(range(DEPTH_LIMIT)):
        text = f"SELECT INFO * FROM BELIEF ?h{i} WHERE {{ {text} }}"
    lines = f"<h> <{VOCAB.to_be_true.text}> << <a> <p> <b> >> .\n"
    q, g = parse_and_desugar(text), parse_graph(lines)
    for mode in EvalMode:
        # the active-domain guard counts every holder variable
        r = evaluate(q, g, mode=mode, cap=6 ** (DEPTH_LIMIT + 2))
        assert r.exceptions == {} and r.default == FourValue.UNKNOWN
        assert len(r.vars) == DEPTH_LIMIT + 2
    query, graph = tmp_path / "nested.esq", tmp_path / "stance.f4s"
    query.write_text(text + "\n")
    graph.write_text(lines)
    result = CliRunner().invoke(main, ["query", "--graph", str(graph), "--query", str(query),
                                       "--mode", "open"])
    assert result.exit_code == 0, result.stderr
