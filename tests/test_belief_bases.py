"""Belief bases kept on graphs: a FROM BELIEF node's evaluation is kept on
the graph under the node's value, reused by an equal node of a fresh
parse, caught up after a stance update to the keys of the changed holder
only, and freed with the graph."""

import importlib.util
import random
import weakref
from pathlib import Path

import esparql.algebra
from esparql import belief as belief_mod
from esparql import (
    EvalMode,
    FourGraph,
    FourValue,
    Mapping,
    StarTriple,
    Variable,
    evaluate,
    parse_and_desugar,
    parse_graph,
)
from esparql.oracle import diff, oracle_eval

from conftest import A, CHRISTIAN, FULL_DEITY, VOCAB, ZEUS_DEITY, data
from helpers import no_cyclic_garbage

T, F, C = FourValue.TRUE, FourValue.FALSE, FourValue.CONFLICTED
BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
ZEUS_PAIRS = "SELECT INFO ?x ?y FROM BELIEF ?x ?y WHERE { <Zeus> a <FullDeity> }"


def _bench_inputs():
    """The seed-12 belief_holders graph's text and query texts."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.graph_f4s(gen.belief_graph(random.Random(12))), \
        gen.belief_queries(random.Random(12))[0]


def _counting(monkeypatch):
    """Count the slices the engine computes, the holder keys it reads and
    the graphs built, from the last ``reset``."""
    engine = esparql.algebra._FourEngine
    real_slice, real_extract, real_init = engine._slice_changes, engine._extract, \
        FourGraph.__init__
    seen = {"slices": 0, "keys": [], "graphs": 0}

    def slice_changes(steps, triples):
        seen["slices"] += 1
        return real_slice(steps, triples)

    def extract(self, ext, key):
        seen["keys"].append(key)
        return real_extract(self, ext, key)

    def init(self, *args, **kwargs):
        seen["graphs"] += 1
        real_init(self, *args, **kwargs)

    def reset():
        seen.update(slices=0, keys=[], graphs=0)

    monkeypatch.setattr(engine, "_slice_changes", staticmethod(slice_changes))
    monkeypatch.setattr(engine, "_extract", extract)
    monkeypatch.setattr(FourGraph, "__init__", init)
    return seen, reset


def _rebuilt(g):
    return FourGraph(g.default, dict(g.exceptions))


def _bases(g, kind="belief"):
    """The FROM BELIEF bases kept on g, or its query bases for "query"."""
    return [b for key, b in g._derived.items() if isinstance(key, tuple) and key[0] == kind]


def test_a_repeat_run_and_updates_redo_only_what_changed(monkeypatch):
    text, queries = _bench_inputs()
    g = parse_graph(text)
    seen, reset = _counting(monkeypatch)
    # the first run over a freshly parsed graph does the work it did when
    # nothing was kept: the fresh extraction's graph, and one slice per
    # relevant holder key
    first = {}
    for name, query in (("u1_var", queries["u1_var"]), ("pairs", ZEUS_PAIRS)):
        reset()
        first[name] = evaluate(parse_and_desugar(query), g)
        assert (seen["slices"], seen["graphs"]) == {"u1_var": (96, 1), "pairs": (80, 1)}[name]
    # a fresh parse of the same text finds the node's base kept with g
    for name, query in (("u1_var", queries["u1_var"]), ("pairs", ZEUS_PAIRS)):
        reset()
        assert evaluate(parse_and_desugar(query), g) is first[name]
        assert seen == {"slices": 0, "keys": [], "graphs": 0}
    # h believes Zeus a full deity and something else, which it stops
    # believing: h stays relevant to both bodies, and only the keys holding
    # h are sliced again, (h,) and the 2 * 9 - 1 pairs of h and the other
    # seven holders on Zeus's divinity or an IRI without stances
    believes = [t for t, v in g.exceptions.items() if v == T and t.predicate in VOCAB.predicates()]
    zeus = {t.subject for t in believes if t.object == ZEUS_DEITY}
    stance = min((t for t in believes if t.subject in zeus and t.object != ZEUS_DEITY), key=repr)
    h = stance.subject
    updated = g.set_value(stance, F)
    for name, query, keys in (("u1_var", queries["u1_var"], 1), ("pairs", ZEUS_PAIRS, 17)):
        reset()
        r = evaluate(parse_and_desugar(query), updated)
        assert seen["slices"] == len(seen["keys"]) == keys and seen["graphs"] == 0, name
        assert all(h in key for key in seen["keys"]), name
        assert r == evaluate(parse_and_desugar(query), _rebuilt(updated))
    # flipping a plain triple changes no stance: nothing is sliced, though
    # u2's join with the facts runs again
    fact = min((t for t in g.exceptions if t.object is CHRISTIAN), key=repr)
    flipped = updated.set_value(fact, T if updated.lookup(fact) == F else F)
    for query in (queries["u1_var"], ZEUS_PAIRS, queries["u2"]):
        reset()
        r = evaluate(parse_and_desugar(query), flipped)
        assert seen == {"slices": 0, "keys": [], "graphs": 0}
        assert r == evaluate(parse_and_desugar(query), _rebuilt(flipped))


def test_a_deep_body_is_found_by_value_without_recursion(monkeypatch):
    # an 800-pattern chain under FROM BELIEF: the node's value key is flat,
    # so two parses of the text meet at one base, which the second reuses
    g = parse_graph("<h> <https://esparql.dev/vocab#believesToBeTrue> << <a> <p> <a> >> .\n"
                    "<a> <p> <a> @false .\n")
    text = "SELECT INFO * FROM BELIEF ?x WHERE { " + " . ".join(
        f"?x{i} <p> ?x{i + 1}" for i in range(800)) + " }"
    seen, reset = _counting(monkeypatch)
    want = {Mapping.of({Variable("x"): data("h"), **{Variable(f"x{i}"): data("a")
                                                    for i in range(801)}}): T}
    runs = []
    for _ in range(2):
        reset()
        r = evaluate(parse_and_desugar(text), g, mode=EvalMode.OPEN)
        assert r.default == FourValue.UNKNOWN and r.exceptions == want
        runs.append((seen["slices"], seen["graphs"]))
    assert runs == [(1, 1), (0, 0)]


def test_a_body_is_planned_once_per_node(monkeypatch):
    # the 800-pattern chain's base plans each of its 799 joins once, in the
    # body's run, and its change step under the one holder key runs those
    # plans (planning them again made 1,598 calls); a fresh parse of the
    # text finds the base and plans nothing
    g = parse_graph("<h> <https://esparql.dev/vocab#believesToBeTrue> << <a> <p> <a> >> .\n"
                    "<a> <p> <a> @false .\n")
    text = "SELECT INFO * FROM BELIEF ?x WHERE { " + " . ".join(
        f"?x{i} <p> ?x{i + 1}" for i in range(800)) + " }"
    algebra, calls = esparql.algebra, []
    for name in ("_plan_join", "_plan_union", "_plan_project"):
        def planner(*args, real=getattr(algebra, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(algebra, name, planner)
    seen, reset = _counting(monkeypatch)
    runs = []
    for _ in range(2):
        calls.clear()
        reset()
        evaluate(parse_and_desugar(text), g, mode=EvalMode.OPEN)
        runs.append((len(calls), calls.count("_plan_join"), seen["slices"]))
    assert runs == [(799, 799, 1), (0, 0, 0)]


def test_two_queries_meet_at_the_base_of_their_one_belief_node(monkeypatch):
    # two different queries over one FROM BELIEF node, the second mapping the
    # first's answer: each keeps its own query base, and the second's Belief
    # node finds the first's base by value, so it slices no key, builds no
    # graph and plans nothing (the body's join was planned once, by the first)
    text, _ = _bench_inputs()
    g = parse_graph(text)
    inner = "SELECT INFO * FROM BELIEF ?x WHERE { ?d a <FullDeity> . ?d <rules> ?r }"
    outer = f"SELECT INFO * WHERE {{ {{ {inner} }} MAP IF (STATE IS TRUE) TO CONFLICTED ELSE UNKNOWN }}"
    algebra, calls = esparql.algebra, []
    for name in ("_plan_join", "_plan_union", "_plan_project"):
        def planner(*args, real=getattr(algebra, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(algebra, name, planner)
    seen, reset = _counting(monkeypatch)
    runs = []
    for query in (inner, outer):
        calls.clear()
        reset()
        evaluate(parse_and_desugar(query), g, mode=EvalMode.OPEN)
        runs.append((calls[:], seen["slices"], seen["graphs"]))
    assert runs[0][0] == ["_plan_join"] and runs[0][1] > 0 and runs[0][2] == 1
    assert runs[1] == ([], 0, 0)
    assert len(_bases(g)) == 1 and len(_bases(g, "query")) == 2
    monkeypatch.undo()
    for query in (inner, outer):
        assert evaluate(parse_and_desugar(query), g, mode=EvalMode.OPEN) \
            == evaluate(parse_and_desugar(query), _rebuilt(g), mode=EvalMode.OPEN)


def test_a_kept_run_moves_forward_at_each_catch_up(monkeypatch):
    # u2 over a stream of 30 distinct stance and fact flips, none reverted,
    # each followed by an evaluation: the first update runs the query again
    # and keeps its run; each later one leaves one changed triple on the
    # carried base, and its catch-up runs the change plan over that triple
    # alone, not over every triple changed since the run was made
    text, queries = _bench_inputs()
    g = parse_graph(text)
    predicates = VOCAB.predicates()
    stances = sorted((t for t, v in g.exceptions.items()
                      if v == T and t.predicate in predicates), key=repr)[:20]
    facts = sorted((t for t in g.exceptions if t.object is CHRISTIAN), key=repr)[:10]
    engine, sizes = esparql.algebra._FourEngine, []
    real = engine._forward

    def forward(self, b, g):
        sizes.append(len(b.changed))
        return real(self, b, g)

    monkeypatch.setattr(engine, "_forward", forward)
    q = parse_and_desugar(queries["u2"])
    evaluate(q, g)
    for i, t in enumerate(stances + facts):
        g = g.set_value(t, F if g.lookup(t) == T else T)
        (base,) = _bases(g, "query")
        assert len(base.changed) == 1, i
        assert evaluate(q, g) == evaluate(parse_and_desugar(queries["u2"]), _rebuilt(g)), i
        assert base.changed == {} and base.done is not None, i
    assert sizes == [1] * 29


class _Probe:
    """Something to keep on a graph and watch die with it."""


def test_an_update_chain_frees_each_graph_it_drops_by_reference_counting():
    # bases carried through set_value hold no graph they are kept on, nor
    # the graph they were carried from: each dropped graph dies at once, and
    # no collection, during the chain or after it, finds anything
    text, queries = _bench_inputs()
    g = parse_graph(text)
    texts = [(queries[name], EvalMode.ACTIVE_DOMAIN) for name in ("u1", "u1_var", "u2", "u3")]
    texts.append((queries["u4"], EvalMode.OPEN))
    stances = sorted((t for t, v in g.exceptions.items()
                      if v == T and t.predicate in VOCAB.predicates()), key=repr)[:4]
    facts = sorted((t for t in g.exceptions if t.object is CHRISTIAN), key=repr)[:2]
    with no_cyclic_garbage():
        for t in stances[:2] + facts + stances[2:]:
            for query, mode in texts:
                evaluate(parse_and_desugar(query), g, mode=mode, cap=10**15)
            probe = weakref.ref(g.derived("probe", _Probe, lambda *a: None))
            g = g.set_value(t, F if g.lookup(t) == T else T)
            assert probe() is None, t


def test_two_bases_share_one_extraction_and_extract_only_changed_keys(monkeypatch):
    # two FROM BELIEF ?x nodes, one expression, different bodies, over the
    # seed-12 belief_holders graph's holders h000-h011 with their stances
    # and facts (beliefs about beliefs and noise dropped, so the dense
    # oracle's tables stay small): in both modes all four bases read their
    # keys from one extraction.  After each update, a stance flip that
    # leaves its holder relevant, a stance that makes a holder relevant to
    # the rules body and a flip of a plain fact, each key extracted holds
    # the changed holder, and the answers equal a rebuilt graph's and the
    # oracle's
    text, _ = _bench_inputs()
    full, predicates = parse_graph(text), VOCAB.predicates()
    kept = {data(f"h{i:03d}") for i in range(12)}
    g = FourGraph(full.default, {
        t: v for t, v in full.exceptions.items() if t.subject in kept
        and not (isinstance(t.object, StarTriple) and t.object.predicate in predicates)})
    queries = [parse_and_desugar(q) for q in (
        "SELECT INFO ?x ?deity FROM BELIEF ?x WHERE { ?deity a <FullDeity> }",
        "SELECT INFO ?x ?deity ?r FROM BELIEF ?x WHERE { ?deity <rules> ?r }")]
    bodies = (lambda c: c.predicate == A and c.object == FULL_DEITY,
              lambda c: c.predicate == data("rules"))

    def relevant(g, h):
        claims = [t.object for t, v in g.exceptions.items()
                  if t.subject == h and t.predicate in predicates and v in (T, C)]
        return [any(map(reads, claims)) for reads in bodies]

    def keeps_relevance(t):
        before, after = relevant(g, t.subject), relevant(g.set_value(t, F), t.subject)
        return any(before) and all(b or not a for a, b in zip(before, after))

    for mode in EvalMode:
        for q in queries:
            evaluate(q, g, mode=mode)
    flip = min((t for t, v in g.exceptions.items() if v == T and t.predicate in predicates
                and keeps_relevance(t)), key=repr)
    claim = min((t.object for t in g.exceptions
                 if t.predicate in predicates and bodies[1](t.object)), key=repr)
    fact = min((t for t in g.exceptions if t.object == CHRISTIAN), key=repr)
    real_delta, calls = belief_mod.Extraction.delta, []

    def delta(self, key):
        calls.append(key)
        return real_delta(self, key)

    for step in ("flip", "new holder", "fact"):
        if step == "flip":
            t, v = flip, F
        elif step == "new holder":
            h = min((h for h in kept if not relevant(g, h)[1]), key=repr)
            t, v = StarTriple(h, VOCAB.to_be_true, claim), T
        else:
            t, v = fact, F if g.lookup(fact) == T else T
        g = g.set_value(t, v)
        calls.clear()
        monkeypatch.setattr(belief_mod.Extraction, "delta", delta)
        got = {(q, mode): evaluate(q, g, mode=mode) for q in queries for mode in EvalMode}
        monkeypatch.undo()
        bases = _bases(g)
        assert len(bases) == 4 and all(b.ext is bases[0].ext for b in bases), step
        if step == "fact":
            assert calls == []
        else:
            assert calls and all(t.subject in key for key in calls), (step, calls)
        fresh = _rebuilt(g)
        for q in queries:
            # no holder key lists a row off the support, so both modes
            # list the same rows, and the oracle checks both
            active, open_ = got[q, EvalMode.ACTIVE_DOMAIN], got[q, EvalMode.OPEN]
            assert (open_.default, open_.table) == (active.default, active.table)
            assert diff(active, oracle_eval(q, fresh)) == [], step
            for mode in EvalMode:
                assert got[q, mode] == evaluate(q, fresh, mode=mode), (step, mode)


def test_a_removal_that_shrinks_the_universe_drops_the_active_domain_base():
    # <n1> is mentioned by one plain triple only: resetting it to the
    # default takes <n1> out of the active domain, so the base kept under
    # the old universe is not carried to the child, and the child's first
    # evaluation builds the one base it keeps
    g = parse_graph(f"<h> <{VOCAB.to_be_true.text}> << <Zeus> <a> <FullDeity> >> .\n"
                    "<Zeus> <a> <FullDeity> @false .\n<n1> <rel> <n2> .\n<n2> <rel> <Zeus> .\n")
    q = parse_and_desugar("SELECT INFO ?deity ?x FROM BELIEF ?x WHERE { ?deity a <FullDeity> }")
    evaluate(q, g)
    assert len(_bases(g)) == 1
    child = g.set_value(StarTriple(data("n1"), data("rel"), data("n2")), FourValue.UNKNOWN)
    assert _bases(child) == []
    r = evaluate(q, child)
    assert len(_bases(child)) == 1
    assert r == evaluate(q, _rebuilt(child))
    assert r.exceptions == {Mapping.of({Variable("deity"): data("Zeus"),
                                        Variable("x"): data("h")}): T}



def test_a_kept_query_catches_up_only_the_flipped_holders_groups(monkeypatch):
    # u3 groups its Belief node's rows by holder.  A first run keeps only
    # its answer; the first update that reaches it runs it again, keeping
    # the run.  After one variable holder's stance is then flipped, the
    # next u3 catches up the projection group of that holder only, and
    # equals a fresh graph's; a repeat runs no operator, no scope walk and
    # no planner
    text, queries = _bench_inputs()
    g = parse_graph(text)
    algebra, calls, groups = esparql.algebra, [], []
    real_project = algebra._plan_project

    def plan_project(r, keep, add, zero):
        schema, d, run, key = real_project(r, keep, add, zero)
        restrict = algebra._plan(schema, r.schema)

        def spied(t):
            groups.append({restrict(k) for k in t})
            return run(t)

        return schema, d, spied, key

    def u3(graph):
        calls.clear(), groups.clear()
        return evaluate(parse_and_desugar(queries["u3"]), graph, cap=10**15)

    monkeypatch.setattr(algebra, "_plan_project", plan_project)
    for name in ("_scope", "_universe", "_plan_join", "_plan_union", "_eval_pattern",
                 "_combine_join", "_combine_union", "_transform_by_formula", "_by_row",
                 "_project_four"):
        def spy(*args, real=getattr(algebra, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(algebra, name, spy)
    stances = sorted((t for t, v in g.exceptions.items()
                      if v == T and t.predicate in VOCAB.predicates()
                      and t.subject.text not in queries["u3"]), key=repr)
    u3(g)
    assert {"_scope", "_project_four"} <= set(calls) and len(groups) == 1 and len(groups[0]) > 1
    assert [b.done for b in _bases(g, "query")] == [None]
    g = g.set_value(stances[0], F)
    u3(g)
    assert "_scope" not in calls and "_project_four" in calls and len(groups[0]) > 1
    flip = next(t for t in stances if t.subject is not stances[0].subject)
    updated = g.set_value(flip, F)
    r = u3(updated)
    # the catch-up: one projection group, the flipped holder's, and the
    # rows the map reads from it; no scan, join, scope walk or planner
    assert groups == [{(flip.subject,)}] and set(calls) <= {"_by_row"}, calls
    assert u3(updated) is r and calls == [] and groups == []
    assert r == evaluate(parse_and_desugar(queries["u3"]), _rebuilt(updated), cap=10**15)
