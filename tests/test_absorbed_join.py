"""A Join that only a Project reads leaves out the one-sided rows that the
projection's default absorbs (``algebra._absorbed``), and joins in full
wherever that could change an answer: when a projection group could list
all its extensions and when another parent reads the Join.  A FROM BELIEF
change step of the pair decides this on the rows it reads."""

import copy
import importlib.util
import random
from pathlib import Path

import esparql.algebra as algebra
from esparql import (
    COUNTING,
    FOUR_INFO,
    FOUR_TRUTH,
    JOIN_OPERATORS,
    MEET_OPERATORS,
    Eq,
    Filter,
    FourGraph,
    FourOperator,
    FourValue,
    Iri,
    Join,
    Not,
    Pattern,
    Project,
    StarTriple,
    TriplePattern,
    Union,
    Variable,
    evaluate,
    evaluate_k,
    parse_and_desugar,
    parse_graph,
)
from esparql.oracle import diff, oracle_eval

from helpers import same_function

T, F, C, U = FourValue.TRUE, FourValue.FALSE, FourValue.CONFLICTED, FourValue.UNKNOWN
W, X, Y, Z = (Variable(n) for n in "wxyz")
BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def _graph(rng, pool, default, values):
    """Exceptions over ``pool`` valued from ``values``, every term a
    subject, its first three terms the predicates."""
    exceptions = {}
    for i in range(rng.randint(len(pool), 3 * len(pool))):
        t = StarTriple(pool[i % len(pool)], rng.choice(pool[:3]), rng.choice(pool))
        exceptions[t] = rng.choice(values)
    return FourGraph(default, exceptions)


def _pattern(rng, pool, scope):
    """A pattern binding exactly ``scope`` (one or two variables) in its
    subject and object, over one of the graph's predicates."""
    vs = sorted(scope, key=lambda v: v.name)
    rng.shuffle(vs)
    ends = vs + [rng.choice(pool)] * (2 - len(vs))
    if rng.random() < 0.5:
        ends.reverse()
    return Pattern(TriplePattern(ends[0], rng.choice(pool[:3]), ends[1]))


def _formula(rng, pool, scope):
    vs = sorted(scope, key=lambda v: v.name)
    left = rng.choice(vs)
    right = rng.choice([v for v in vs if v != left] or [rng.choice(pool)])
    eq = Eq(left, right if rng.random() < 0.7 else rng.choice(pool))
    return Not(eq) if rng.random() < 0.3 else eq


def _side(rng, pool, scope, meet, join):
    """A pattern, a filtered pattern or a union of two patterns over
    ``scope``; ``meet`` and ``join`` pick the operators."""
    kind = rng.choice(("pattern", "pattern", "filter", "union"))
    if kind == "pattern":
        return _pattern(rng, pool, scope)
    if kind == "filter":
        return Filter(meet(), _pattern(rng, pool, scope), _formula(rng, pool, scope))
    return Union(join(), _pattern(rng, pool, scope), _pattern(rng, pool, scope))


def _case(rng, *, ops=None, values=(T, F, F, C, C)):
    """A graph over a universe of 3-8 terms and a Project over a Join of
    two sides, with the operators of ``ops`` (meet, join) or, if None, any
    truth, info or mixed pair."""
    pool = [Iri(f"urn:t{i}") for i in range(rng.randint(3, 8))]
    g = _graph(rng, pool, rng.choice((U, U, F, T)), values)
    if ops is None:
        meet, join = (lambda: rng.choice(MEET_OPERATORS)), (lambda: rng.choice(JOIN_OPERATORS))
    else:
        meet, join = (lambda: ops[0]), (lambda: ops[1])
    left = frozenset(rng.sample((W, X, Y), rng.randint(1, 2)))
    right = frozenset(rng.sample((X, Y, Z), rng.randint(1, 2)))
    both = sorted(left | right, key=lambda v: v.name)
    keep = frozenset(rng.sample(both, rng.randint(0, len(both) - (rng.random() < 0.9))))
    q = Project(join(), keep, Join(meet(), _side(rng, pool, left, meet, join),
                                   _side(rng, pool, right, meet, join)))
    return g, q


def _spying(monkeypatch):
    """Count the joins that leave rows out, and the ones whose bound keeps
    every row although some value is absorbable, from the last ``reset``."""
    seen = {"skipped": 0, "bound": 0, "absorbable": []}
    real_join, real_below = algebra._combine_join, algebra._below_full

    def combine_join(r1, r2, plan, absorbed=frozenset()):
        out = real_join(r1, r2, plan, absorbed)
        seen["absorbable"].append(absorbed)
        if len(out.table) < len(real_join(r1, r2, plan).table):
            seen["skipped"] += 1
        return out

    def below_full(*args):
        below = real_below(*args)
        seen["bound"] += not below
        return below

    monkeypatch.setattr(algebra, "_combine_join", combine_join)
    monkeypatch.setattr(algebra, "_below_full", below_full)
    return seen, lambda: seen.update(skipped=0, bound=0, absorbable=[])


def test_a_projected_join_answers_as_the_oracle_does(monkeypatch):
    # seeded Project-over-Join cases in active-domain mode: false and
    # conflicted exceptions, truth, info and mixed operator pairs, sides
    # that are patterns, filters or unions.  Both branches run: joins that
    # leave rows out, and joins whose bound keeps every row although a
    # value is absorbable
    seen, reset = _spying(monkeypatch)
    rng = random.Random(2718)
    skipped = bound = 0
    for _ in range(400):
        g, q = _case(rng)
        reset()
        assert diff(evaluate(q, g), oracle_eval(q, g)) == [], q
        skipped += seen["skipped"] > 0
        bound += seen["bound"] > 0
    assert skipped >= 40 and bound >= 20, (skipped, bound)


def test_counting_never_leaves_a_row_out(monkeypatch):
    # a counting default is zero, which adds as the identity, or adds up
    # to more than itself; either way no row is absorbed
    seen, reset = _spying(monkeypatch)
    rng = random.Random(2719)
    for _ in range(150):
        g, q = _case(rng, ops=(FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN), values=(1, 2, 3))
        for default in (0, 1, 2):
            reset()
            evaluate_k(q, FourGraph(default, g.exceptions), COUNTING)
            assert seen["skipped"] == 0 and not any(seen["absorbable"])


def test_four_valued_semirings_still_match_the_engine(monkeypatch):
    # FOUR_TRUTH and FOUR_INFO read as the matching four-valued operators,
    # which leave rows out on an unknown or false default
    seen, reset = _spying(monkeypatch)
    rng = random.Random(2720)
    skipped = 0
    for s, ops in ((FOUR_TRUTH, (FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN)),
                   (FOUR_INFO, (FourOperator.INFO_MEET, FourOperator.INFO_JOIN))):
        for _ in range(100):
            g, q = _case(rng, ops=ops)
            reset()
            got = evaluate_k(q, g, s)
            skipped += seen["skipped"] > 0
            assert same_function(got, evaluate(q, g)), q
            assert diff(got, oracle_eval(q, g)) == [], q
    assert skipped >= 20, skipped


def test_a_join_that_another_parent_reads_is_joined_in_full(monkeypatch):
    # J is read by the projection and by the outer join, so both read J's
    # whole relation, and no join leaves a row out
    g = parse_graph("""@default unknown .
<a> <p> <b> @false .
<b> <p> <c> @conflicted .
<c> <q> <a> @false .
<b> <q> <b> .
<a> <q> <c> @conflicted .
""")
    j = parse_and_desugar("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }").query
    q = Join(FourOperator.TRUTH_MEET, j, Project(FourOperator.TRUTH_JOIN, frozenset({X}), j))
    seen, _ = _spying(monkeypatch)
    r = evaluate(q, g)
    assert seen["skipped"] == 0
    assert diff(r, oracle_eval(q, g)) == []
    assert len(r.table) > 10


def test_a_projected_join_in_a_belief_body_answers_as_a_fresh_graph_does(monkeypatch):
    # false stances in the body make false one-sided join rows, which the
    # projection's unknown default absorbs.  With the ground holder <h0>,
    # the body's run over <h0>'s stances leaves them out; the change step
    # of each ?h key runs the same plans and decides on the rows it reads,
    # without a join of its own for the tracked count.  The answer agrees
    # with the oracle, and after a chain of set_value steps equals the one
    # over a graph built afresh
    vocab = "https://esparql.dev/vocab#believesTo"
    lines = ["@default unknown ."]
    rng = random.Random(2721)
    nodes = [f"<n{i}>" for i in range(4)]
    for h in range(3):
        for _ in range(5):
            p, s, o = rng.choice("pq"), rng.choice(nodes), rng.choice(nodes)
            state = rng.choice(("BeFalse", "BeFalse", "BeTrue", "BeConflicted"))
            lines.append(f"<h{h}> <{vocab}{state}> << {s} <{p}> {o} >> .")
    seen, reset = _spying(monkeypatch)
    for holders in ("?h", "<h0> ?h"):
        g = parse_graph("\n".join(dict.fromkeys(lines)) + "\n")
        q = parse_and_desugar(f"SELECT INFO * FROM BELIEF {holders} WHERE "
                              "{ SELECT ?x ?z WHERE { ?x <p> ?y . ?y <q> ?z } }")
        twin = copy.deepcopy(q)
        reset()
        assert diff(evaluate(q, g), oracle_eval(q, g)) == []
        assert seen["skipped"] == (holders != "?h")  # ?h's run is over no stances
        for step in range(8):
            h, s, o = rng.randrange(3), rng.choice(nodes), rng.choice(nodes)
            state = rng.choice(("BeFalse", "BeTrue"))
            (t,) = parse_graph(f"<h{h}> <{vocab}{state}> << {s} <{rng.choice('pq')}> {o} >> .\n"
                               ).exceptions
            g = g.set_value(t, rng.choice((T, T, U)))
            fresh = FourGraph(g.default, dict(g.exceptions))
            got = evaluate(twin if step % 2 else q, g)
            assert got == evaluate(q, fresh), (holders, step)
        assert diff(got, oracle_eval(q, fresh)) == []


def test_the_seed_91_shared_join_builds_a_fifth_of_its_rows(monkeypatch):
    # the join_filter benchmark's shared_join: 50 rows on each side over a
    # 46-term universe, whose false one-sided rows the projection's
    # unknown default absorbs; joined in full, it lists 3,024 rows
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(91)
    graph = gen.join_graph(rng)
    texts, _ = gen.join_queries(rng, graph)
    g, q = parse_graph(gen.graph_f4s(graph)), parse_and_desugar(texts["shared_join"])
    built = []
    real = algebra._combine_join

    def combine_join(*args):
        out = real(*args)
        built.append(len(out.table))
        return out

    monkeypatch.setattr(algebra, "_combine_join", combine_join)
    r = evaluate(q, g)
    assert len(built) == 1 and built[0] * 5 <= 3024, built
    sides = [evaluate(p, g) for p in (q.query.left, q.query.right)]
    meet = algebra._plan_join(*sides, lambda a, b: algebra.apply(FourOperator.TRUTH_MEET, a, b))
    assert len(real(*sides, meet).table) == 3024
    monkeypatch.undo()
    assert diff(r, oracle_eval(q, g)) == []


def test_a_projected_join_change_step_builds_a_fifth_of_the_rows_it_built_unfused(monkeypatch):
    # 5 holders, each with 8 true or false stances on 18 <p> and <q> edges
    # between 12 nodes: each ?h key's change step of the fused Project
    # over Join leaves out the false one-sided rows that the projection's
    # unknown default absorbs.  When the step planned the Join anew and
    # joined it in full, per ?y key, the same count read 705 rows for ?h
    # and 596 for <h0> ?h
    vocab = "https://esparql.dev/vocab#believesTo"
    rng = random.Random(85)
    claims = set()
    while len(claims) < 18:
        claims.add(f"<n{rng.randrange(12)}> <{rng.choice('pq')}> <n{rng.randrange(12)}>")
    lines = ["@default unknown ."]
    for h in range(5):
        for claim in rng.sample(sorted(claims), 8):
            lines.append(f"<h{h}> <{vocab}{rng.choice(('BeTrue', 'BeFalse'))}> << {claim} >> .")
    real_plan, real_slice = algebra._plan_join, algebra._FourEngine._slice_changes
    built, slicing = [0], [0]

    def plan_join(*args):
        schema, d, run, key = real_plan(*args)

        def counted(*tables):
            rows = run(*tables)
            built[0] += len(rows) if slicing[0] else 0
            return rows

        return schema, d, counted, key

    def slice_changes(steps, triples):
        slicing[0] += 1
        try:
            return real_slice(steps, triples)
        finally:
            slicing[0] -= 1

    monkeypatch.setattr(algebra, "_plan_join", plan_join)
    monkeypatch.setattr(algebra._FourEngine, "_slice_changes", staticmethod(slice_changes))
    for holders, unfused in (("?h", 705), ("<h0> ?h", 596)):
        g = parse_graph("\n".join(lines) + "\n")
        q = parse_and_desugar(f"SELECT INFO * FROM BELIEF {holders} WHERE "
                              "{ SELECT ?x ?z WHERE { ?x <p> ?y . ?y <q> ?z } }")
        built[0] = 0
        r = evaluate(q, g)
        assert 0 < built[0] * 5 <= unfused, (holders, built)
        assert r.table and diff(r, oracle_eval(q, g)) == []
