"""Seeded input generators for the benchmark workloads.

Standard library only.  Every generator takes a ``random.Random`` and draws
from sorted lists, so a seed fixes the output byte for byte.  Graphs are
plain dicts ``{(s, p, o): state}`` where a term is an absolute IRI string or
a nested ``(s, p, o)`` tuple for a quoted triple; the graph default is
always ``unknown`` and no entry carries it.  The engine never sees these
dicts: it reads the ``.f4s``/``.esq`` text written from them.
"""

from __future__ import annotations

import random

BASE = "https://esparql.dev/data#"
VOCAB = "https://esparql.dev/vocab#"
STATES = ("false", "true", "unknown", "conflicted")
BELIEF_PRED = {s: VOCAB + "believesToBe" + s.capitalize() for s in STATES}
A = BASE + "a"


def iri(name: str) -> str:
    return BASE + name


def _sample(rng: random.Random, pool, k: int) -> list:
    return rng.sample(sorted(pool), k)


def _pick_state(rng: random.Random, weights: tuple[int, int, int]) -> str:
    # exceptions only: the default (unknown) is never written out
    return rng.choices(("true", "false", "conflicted"), weights=weights)[0]


# ---------------------------------------------------------------------------
# Text writers
# ---------------------------------------------------------------------------


def term_f4s(t) -> str:
    if isinstance(t, str):
        return f"<{t[len(BASE):]}>" if t.startswith(BASE) else f"<{t}>"
    return f"<< {term_f4s(t[0])} {term_f4s(t[1])} {term_f4s(t[2])} >>"


def graph_f4s(graph: dict) -> str:
    lines = ["@default unknown ."]
    for (s, p, o), v in graph.items():
        suffix = "" if v == "true" else f" @{v}"
        lines.append(f"{term_f4s(s)} {term_f4s(p)} {term_f4s(o)}{suffix} .")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# belief_holders: holders, quoted claims, stances, nested beliefs, noise
# ---------------------------------------------------------------------------

ZEUS_CLAIM = (iri("Zeus"), A, iri("FullDeity"))


def belief_graph(rng: random.Random) -> dict:
    """About 600 triples: 100 holders with 3 stances each on 30 quoted
    claims, 50 ``a <Christian>`` facts, 50 beliefs about beliefs and
    200 noise triples."""
    deities = ["Zeus"] + [f"deity{i:02d}" for i in range(1, 20)]
    claims = [(iri(d), A, iri("FullDeity")) for d in deities]
    claims += [(iri(f"deity{i:02d}"), iri("rules"), iri(f"realm{i:02d}")) for i in range(10)]
    holders = [iri(f"h{i:03d}") for i in range(100)]
    g: dict = {}
    combos = [(s, c) for s in STATES for c in claims]
    for h in holders:
        for s, c in rng.sample(combos, 3):
            g[(h, BELIEF_PRED[s], c)] = _pick_state(rng, (7, 1, 1))
    for h in _sample(rng, holders, 50):
        g[(h, A, iri("Christian"))] = _pick_state(rng, (6, 3, 1))
    nested = 0
    while nested < 50:
        y, x = rng.sample(holders, 2)
        claim = ZEUS_CLAIM if rng.random() < 0.5 else rng.choice(claims)
        inner = (x, BELIEF_PRED[rng.choice(STATES)], claim)
        key = (y, BELIEF_PRED[rng.choice(STATES)], inner)
        if key not in g:
            g[key] = _pick_state(rng, (6, 2, 2))
            nested += 1
    noise_terms = [iri(f"n{i:02d}") for i in range(60)]
    noise_preds = [iri(f"rel{i}") for i in range(5)]
    noise = 0
    while noise < 200:
        key = (rng.choice(noise_terms), rng.choice(noise_preds), rng.choice(noise_terms))
        if key not in g:
            g[key] = _pick_state(rng, (1, 1, 1))
            noise += 1
    return g


def belief_updates(rng: random.Random, g: dict) -> list[tuple[tuple, str]]:
    """Two stance changes: one belief statement and one Christian fact,
    each flipped between true and false."""
    stances = sorted(
        (k for k, v in g.items()
         if k[1] in BELIEF_PRED.values() and k[2][1] == A and not isinstance(k[2][0], tuple)
         and v == "true"),
        key=repr,
    )
    facts = sorted((k for k, v in g.items() if k[2] == iri("Christian") and v == "true"), key=repr)
    out = []
    for key in (rng.choice(stances), rng.choice(facts)):
        out.append((key, "false" if g[key] == "true" else "true"))
    return out


def belief_queries(rng: random.Random) -> tuple[dict[str, str], dict]:
    """Query texts by name, and the holders they name."""
    h1, h2, h3 = (f"h{i:03d}" for i in _sample(rng, range(100), 3))
    return {
        "u1": f"SELECT INFO ?deity FROM BELIEF <{h1}> WHERE {{ ?deity a <FullDeity> }}\n",
        "u1_two": f"SELECT INFO ?deity FROM BELIEF <{h1}> <{h2}> WHERE {{ ?deity a <FullDeity> }}\n",
        "u1_var": "SELECT INFO ?deity ?x FROM BELIEF ?x WHERE { ?deity a <FullDeity> }\n",
        "u2": (
            "SELECT INFO ?deity\nWHERE {\n  ?x a <Christian> .\n"
            "  MAP IF (STATE IS TRUE) TO CONFLICTED ELSE UNKNOWN .\n"
            "  { SELECT INFO ?deity FROM BELIEF ?x WHERE { ?deity a <FullDeity> } }\n}\n"
        ),
        "u3": (
            f"SELECT ?x\nWHERE {{\n  {{ SELECT INFO ?x FROM BELIEF <{h3}> ?x WHERE {{ ?s ?p ?o }} }}\n"
            "  MAP IF (STATE IS CONFLICTED) TO TRUE ELSE FALSE\n}\n"
        ),
        "u4": (
            "SELECT INFO ?x\nWHERE {\n  { SELECT INFO * FROM BELIEF ?y WHERE {\n"
            "      SELECT INFO * FROM BELIEF ?x WHERE { <Zeus> a <FullDeity> } } }\n}\n"
        ),
    }, {"h1": iri(h1), "h2": iri(h2), "h3": iri(h3)}


# ---------------------------------------------------------------------------
# join_filter: a small universe, values in every state, long chains
# ---------------------------------------------------------------------------

JF_NODES = [iri(f"v{i:02d}") for i in range(40)]
JF_PREDS = [iri(f"p{i}") for i in range(6)]


def join_graph(rng: random.Random) -> dict:
    """300 triples over 40 nodes and 6 predicates (|U| = 46): exactly 50 per
    predicate, split evenly over true, false and conflicted, every node a
    subject, and 20 self-loops so the equality filters have a diagonal."""
    g: dict = {}
    subjects = _sample(rng, JF_NODES, len(JF_NODES))
    loops = set(_sample(rng, range(300), 20))
    for p in JF_PREDS:
        states = ["true"] * 17 + ["false"] * 17 + ["conflicted"] * 16
        rng.shuffle(states)
        for state in states:
            s = subjects[len(g) % len(subjects)]
            o = s if len(g) in loops else rng.choice(JF_NODES)
            while (s, p, o) in g:
                o = rng.choice(JF_NODES)
            g[(s, p, o)] = state
    return g


def _short(t: str) -> str:
    return t[len(BASE):]


def chain_patterns(rng: random.Random, graph: dict, length: int) -> list[tuple[str, str, str]]:
    """``length`` patterns over ?x and ?y, cycled from the triples around one
    edge (x0, p, y0) of the graph whose states have a common lower bound
    above unknown in the information order, so the chain keeps that row."""
    x0, p0, y0 = rng.choice(sorted(k for k in graph if k[0] != k[2]))
    state = graph[(x0, p0, y0)]
    fits = {state, "conflicted"} if state != "conflicted" else {"conflicted", "true"}
    shapes = [("x", p0, "y")]
    for (s, p, o), v in sorted(graph.items()):
        if v not in fits:
            continue
        if s == x0 and o != y0:
            shapes.append(("x", p, o))
        elif s == y0 and o != x0:
            shapes.append(("y", p, o))
    rng.shuffle(shapes)
    return [shapes[i % len(shapes)] for i in range(length)]


def chain_text(patterns: list[tuple[str, str, str]]) -> str:
    """A SELECT INFO chain; info meet absorbs the unknown default, so every
    join stays sparse."""
    items = [f"?{s} <{_short(p)}> " + ("?y" if o == "y" else f"<{_short(o)}>")
             for s, p, o in patterns]
    return "SELECT INFO ?x ?y WHERE {\n  " + " .\n  ".join(items) + "\n}\n"


def join_queries(rng: random.Random, graph: dict) -> tuple[dict[str, str], dict]:
    """Query texts by name, and the predicates, constants or chain
    patterns each one uses."""
    p = rng.sample(JF_PREDS, 6)
    # the disjoint meet's left pattern matches a false row, so its open-mode
    # answer has infinitely many non-default rows
    _, dp, dc = rng.choice(sorted(k for k, v in graph.items() if v == "false"))
    c = rng.choice(JF_NODES)
    chains = {f"chain{n}": chain_patterns(rng, graph, n) for n in (50, 100, 150)}
    s = [_short(x) for x in p]
    texts = {
        "shared_join": f"SELECT ?x ?z WHERE {{ ?x <{s[0]}> ?y . ?y <{s[1]}> ?z }}\n",
        "shared_join_info": f"SELECT INFO ?x ?z WHERE {{ ?x <{s[0]}> ?y . ?y <{s[1]}> ?z }}\n",
        "disjoint_meet": (
            f"SELECT ?x ?y WHERE {{ ?x <{_short(dp)}> <{_short(dc)}> . ?y <{s[3]}> <{_short(c)}> }}\n"
        ),
        "filter_eq": f"SELECT ?a ?b WHERE {{ ?a <{s[4]}> ?b . FILTER (?a = ?b) }}\n",
        "filter_eq_info": f"SELECT INFO ?a ?b WHERE {{ ?a <{s[4]}> ?b . FILTER (?a = ?b) }}\n",
        "triangle_filter": (
            f"SELECT ?a ?b WHERE {{ ?a <{s[0]}> ?b . ?b <{s[1]}> ?c . FILTER (?a = ?c) }}\n"
        ),
        "map_eq": f"SELECT ?a ?b WHERE {{ ?a <{s[5]}> ?b . MAP IF (?a = ?b) TO TRUE ELSE FALSE }}\n",
        "union_project": f"SELECT ?x WHERE {{ {{ ?x <{s[0]}> ?y }} UNION {{ ?x <{s[2]}> ?y }} }}\n",
        "union_info": (
            f"SELECT INFO ?x ?y WHERE {{ {{ ?x <{s[3]}> ?y }} UNION {{ ?y <{s[4]}> ?x }} }}\n"
        ),
        **{name: chain_text(pats) for name, pats in chains.items()},
    }
    named = {
        "shared_join": (p[0], p[1]), "shared_join_info": (p[0], p[1]),
        "disjoint_meet": (dp, dc, p[3], c), "filter_eq": (p[4],), "filter_eq_info": (p[4],),
        "triangle_filter": (p[0], p[1]), "map_eq": (p[5],), "union_project": (p[0], p[2]),
        "union_info": (p[3], p[4]), **chains,
    }
    return texts, named


# ---------------------------------------------------------------------------
# ingest: one large file with quoted triples and belief statements
# ---------------------------------------------------------------------------

ING_TRIPLES = 50_000
ING_ENTITIES = 5000
ING_PREDS = 20
ING_HOLDERS = 200


def ingest_graph(rng: random.Random) -> dict:
    """50,000 triples: 80% plain, 10% with a quoted subject, 10% belief
    statements by 200 holders about quoted triples."""
    ents = [iri(f"e{i:04d}") for i in range(ING_ENTITIES)]
    preds = [iri(f"r{i:02d}") for i in range(ING_PREDS)]
    holders = [iri(f"h{i:03d}") for i in range(ING_HOLDERS)]
    beliefs = sorted(BELIEF_PRED.values())
    g: dict = {}
    plain, quoted = ING_TRIPLES * 8 // 10, ING_TRIPLES // 10
    while len(g) < plain:
        key = (rng.choice(ents), rng.choice(preds), rng.choice(ents))
        if key not in g:
            g[key] = _pick_state(rng, (6, 2, 2))
    while len(g) < plain + quoted:
        inner = (rng.choice(ents), rng.choice(preds), rng.choice(ents))
        key = (inner, rng.choice(preds), rng.choice(ents))
        if key not in g:
            g[key] = _pick_state(rng, (6, 2, 2))
    while len(g) < ING_TRIPLES:
        inner = (rng.choice(ents), rng.choice(preds), rng.choice(ents))
        key = (rng.choice(holders), rng.choice(beliefs), inner)
        if key not in g:
            g[key] = _pick_state(rng, (7, 2, 1))
    return g


def ingest_queries(rng: random.Random) -> tuple[dict[str, str], dict]:
    """Query texts by name, and the IRIs each one names."""
    r = [f"r{i:02d}" for i in _sample(rng, range(ING_PREDS), 7)]
    e = f"e{rng.randrange(ING_ENTITIES):04d}"
    return {
        "scan": f"SELECT ?s ?o WHERE {{ ?s <{r[0]}> ?o }}\n",
        "scan_subject": f"SELECT ?p ?o WHERE {{ <{e}> ?p ?o }}\n",
        "union": f"SELECT ?s ?o WHERE {{ {{ ?s <{r[1]}> ?o }} UNION {{ ?s <{r[2]}> ?o }} }}\n",
        "project": f"SELECT ?s WHERE {{ ?s <{r[3]}> ?o }}\n",
        "quoted_scan": f"SELECT ?a ?o WHERE {{ << ?a <{r[4]}> ?b >> <{r[5]}> ?o }}\n",
        "belief_scan": f"SELECT ?h ?c WHERE {{ ?h <{BELIEF_PRED['true']}> ?c }}\n",
        "project_info": f"SELECT INFO ?o WHERE {{ ?s <{r[6]}> ?o }}\n",
    }, {
        "scan": [iri(r[0])], "scan_subject": [iri(e)], "union": [iri(r[1]), iri(r[2])],
        "project": [iri(r[3])], "quoted_scan": [iri(r[4]), iri(r[5])],
        "belief_scan": [BELIEF_PRED["true"]], "project_info": [iri(r[6])],
    }
