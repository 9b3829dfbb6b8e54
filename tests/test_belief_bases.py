"""Belief bases kept on graphs: a FROM BELIEF node's evaluation is kept on
the graph under the node's value, reused by an equal node of a fresh
parse, caught up after a stance update to the keys of the changed holder
only, and freed with the graph."""

import gc
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


def _bases(g):
    """The FROM BELIEF bases kept on g."""
    return [b for key, b in g._derived.items() if isinstance(key, tuple) and key[0] == "belief"]


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


class _Probe:
    """Something to keep on a graph and watch die with it."""


def test_an_update_chain_frees_each_graph_it_drops_by_reference_counting():
    # bases carried through set_value hold no graph they are kept on, nor
    # the graph they were carried from: each dropped graph dies at once,
    # with the collector off, and nothing is left for it afterwards
    text, queries = _bench_inputs()
    g = parse_graph(text)
    texts = [(queries[name], EvalMode.ACTIVE_DOMAIN) for name in ("u1", "u1_var", "u2", "u3")]
    texts.append((queries["u4"], EvalMode.OPEN))
    stances = sorted((t for t, v in g.exceptions.items()
                      if v == T and t.predicate in VOCAB.predicates()), key=repr)[:4]
    facts = sorted((t for t in g.exceptions if t.object is CHRISTIAN), key=repr)[:2]
    gc.collect()
    gc.disable()
    try:
        for t in stances[:2] + facts + stances[2:]:
            for query, mode in texts:
                evaluate(parse_and_desugar(query), g, mode=mode, cap=10**15)
            probe = weakref.ref(g.derived("probe", _Probe, lambda *a: None))
            g = g.set_value(t, F if g.lookup(t) == T else T)
            assert probe() is None, t
        assert gc.collect() == 0
    finally:
        gc.enable()


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
