"""Reference answers that the engine did not produce, and the answer check.

Every reference here is computed from the generated graph dicts (see
``gen``) by code that shares nothing with ``src/esparql``: its own Belnap
lattice, its own extraction of a holder's stance, its own active domain and
its own term printing.  Each reference function states the semantics it
relies on, derived from the paper's definitions for the fixed query shapes
``gen`` writes.  (The ``differential`` workload needs none of this: the
oracle inside each of its ops is its reference.)
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from dataclasses import dataclass

from gen import A, BASE, BELIEF_PRED, ZEUS_CLAIM, iri

# Belnap's four values as (told true, told false) bit pairs: the information
# order is bitwise inclusion, the truth order ranks told-true up and
# told-false down.
_BITS = {"unknown": (0, 0), "true": (1, 0), "false": (0, 1), "conflicted": (1, 1)}
_LABEL = {bits: label for label, bits in _BITS.items()}


def info_join(a: str, b: str) -> str:
    (at, af), (bt, bf) = _BITS[a], _BITS[b]
    return _LABEL[(at | bt, af | bf)]


def info_meet(a: str, b: str) -> str:
    (at, af), (bt, bf) = _BITS[a], _BITS[b]
    return _LABEL[(at & bt, af & bf)]


def truth_meet(a: str, b: str) -> str:
    (at, af), (bt, bf) = _BITS[a], _BITS[b]
    return _LABEL[(at & bt, af | bf)]


def truth_join(a: str, b: str) -> str:
    (at, af), (bt, bf) = _BITS[a], _BITS[b]
    return _LABEL[(at | bt, af & bf)]


def fold(op, values, start: str) -> str:
    acc = start
    for v in values:
        acc = op(acc, v)
    return acc


# ---------------------------------------------------------------------------
# Expected answers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """A canonical relation: sorted variable names, default, non-default rows
    keyed by the terms bound in name order."""

    names: tuple[str, ...]
    default: str
    rows: dict


@dataclass(frozen=True)
class Dense:
    """A total relation over a finite universe: one row per mapping."""

    names: tuple[str, ...]
    rows: dict


@dataclass(frozen=True)
class Refusal:
    """The query has no answer of the requested kind; the engine must raise
    this typed error."""

    error: str


@dataclass(frozen=True)
class Text:
    """An exact expected output text."""

    text: str


def term_text(t) -> str:
    if isinstance(t, str):
        return f"<{t}>"
    return f"<< {term_text(t[0])} {term_text(t[1])} {term_text(t[2])} >>"


def _short(text: str) -> str:
    return text[len(BASE):] if text.startswith(BASE) and len(text) > len(BASE) else text


def table_cell(t, top: bool = True) -> str:
    if isinstance(t, str):
        return _short(t) if top else f"<{_short(t)}>"
    return f"<< {table_cell(t[0], False)} <{_short(t[1])}> {table_cell(t[2], False)} >>"


def _parse_output(text: str, fmt: str):
    """(names, default, {cells: state}) from serialized output that was
    written with the wildcard (default) row."""
    if fmt == "json-lines":
        records = [json.loads(line) for line in text.splitlines()]
        names = tuple(sorted(k for k in records[-1] if k != "state"))
        rows = {tuple(r[n] for n in names): r["state"] for r in records[:-1]}
        return names, records[-1]["state"], rows
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
    else:
        lines = [line.split(" | ") for line in text.splitlines()]
    header, body, wildcard = lines[0], lines[1:-1], lines[-1]
    names = tuple(header[:-1])
    rows = {tuple(r[:-1]): r[-1] for r in body}
    if len(rows) != len(body):
        raise ValueError("duplicate output row")
    return names, wildcard[-1], rows


def check(output: str, fmt: str, expected) -> str | None:
    """None when ``output`` is the expected answer, else why not."""
    if isinstance(expected, Refusal) or output.startswith("REFUSED "):
        want = f"REFUSED {expected.error}" if isinstance(expected, Refusal) else "an answer"
        return None if output == want else f"expected {want}, got {output[:80]!r}"
    if isinstance(expected, Text):
        return None if output == expected.text else "output text differs"
    try:
        names, default, rows = _parse_output(output, fmt)
    except (ValueError, IndexError, KeyError) as e:
        return f"unparseable output: {e}"
    cell = table_cell if fmt == "table" else term_text
    if names != expected.names:
        return f"variables {names} != {expected.names}"
    if isinstance(expected, Dense):
        want = {tuple(cell(t) for t in key): v for key, v in expected.rows.items()}
        stray = rows.keys() - want.keys()
        if stray:
            return f"{len(stray)} rows outside the universe"
        wrong = sum(1 for k, v in want.items() if rows.get(k, default) != v)
        return f"{wrong} rows differ from the dense reference" if wrong else None
    want = {tuple(cell(t) for t in key): v for key, v in expected.rows.items()}
    if default != expected.default:
        return f"default {default} != {expected.default}"
    if rows != want:
        return f"{len(rows.keys() ^ want.keys())} rows differ in key, " \
               f"{sum(1 for k in rows.keys() & want.keys() if rows[k] != want[k])} in state"
    return None


def open_rows(d: Dense) -> Expected:
    """Open-mode answer of an information-family query over a graph whose
    default is unknown.  Unknown absorbs the info meet and is the identity of
    the info join, and no pattern matches a term outside the active domain,
    so every mapping off the universe is unknown and the open answer is the
    dense one's non-unknown rows."""
    return Expected(d.names, "unknown", {k: v for k, v in d.rows.items() if v != "unknown"})


# ---------------------------------------------------------------------------
# Graph-derived references
# ---------------------------------------------------------------------------


def active_domain(graph: dict, extra=()) -> set:
    """Every term in a position of a graph triple, recursively through
    quoting, plus ``extra``; the graph's own triples only where quoted."""
    acc: set = set()

    def add(t):
        if t in acc:
            return
        acc.add(t)
        if isinstance(t, tuple):
            for part in t:
                add(part)

    for s, p, o in graph:
        add(s)
        add(p)
        add(o)
    for t in extra:
        add(t)
    return acc


_STATE_OF = {pred: state for state, pred in BELIEF_PRED.items()}


def stances(graph: dict) -> dict:
    """holder -> {quoted triple: stance}.  A holder's stance on a triple is
    the information join of every state it is recorded as believing the
    triple to be in, where a record counts when it is true or conflicted."""
    out: dict = {}
    for (s, p, o), v in graph.items():
        state = _STATE_OF.get(p)
        if state is None or not isinstance(o, tuple) or v not in ("true", "conflicted"):
            continue
        per = out.setdefault(s, {})
        per[o] = info_join(per.get(o, "unknown"), state)
    return {h: {t: v for t, v in per.items() if v != "unknown"} for h, per in out.items()}


def _is_deity_claim(t) -> bool:
    return isinstance(t, tuple) and t[1] == A and t[2] == iri("FullDeity")


def ref_u1(graph: dict, holders: list[str]) -> Expected:
    """Several fixed holders: their extractions combine by information join."""
    st = stances(graph)
    rows: dict = {}
    for h in holders:
        for t, v in st.get(h, {}).items():
            if _is_deity_claim(t):
                rows[(t[0],)] = info_join(rows.get((t[0],), "unknown"), v)
    return Expected(("deity",), "unknown", {k: v for k, v in rows.items() if v != "unknown"})


def ref_u1_var(graph: dict) -> Expected:
    """Variable holder, both variables kept: one row per (claim, holder)."""
    rows = {}
    for h, per in stances(graph).items():
        for t, v in per.items():
            if _is_deity_claim(t):
                rows[(t[0], h)] = v
    return Expected(("deity", "x"), "unknown", rows)


def ref_u2(graph: dict) -> Expected:
    """The fixture u2: the sub-select projects its holder away, so each deity
    gets the information join of every holder's stance; the join with the
    mapped Christian facts keeps those rows iff some Christian fact is true."""
    if not any(p == A and o == iri("Christian") and v == "true"
               for (s, p, o), v in graph.items()):
        return Expected(("deity",), "unknown", {})
    rows: dict = {}
    for per in stances(graph).values():
        for t, v in per.items():
            if _is_deity_claim(t):
                rows[(t[0],)] = info_join(rows.get((t[0],), "unknown"), v)
    return Expected(("deity",), "unknown", {k: v for k, v in rows.items() if v != "unknown"})


def ref_u3(graph: dict, fixed: str) -> Expected:
    """Who is conflicted together with ``fixed``: for every IRI x of the
    active domain, the information join over all triples of the combined
    extraction (fixed's stances joined with x's) is conflicted.  Quoted-triple
    holders extract nothing and map to the default, false."""
    st = stances(graph)
    base = fold(info_join, st.get(fixed, {}).values(), "unknown")
    rows = {}
    for x in active_domain(graph, [fixed]):
        if not isinstance(x, str):
            continue
        if fold(info_join, st.get(x, {}).values(), base) == "conflicted":
            rows[(x,)] = "true"
    return Expected(("x",), "false", rows)


def ref_u4_open(graph: dict) -> Expected:
    """Open-mode u4: for x, the information join over believers y of the
    states s such that y's stance on ``x believesToBe<s> Zeus-claim`` is
    true or conflicted."""
    rows: dict = {}
    for per in stances(graph).values():
        for t, v in per.items():
            if v not in ("true", "conflicted") or not isinstance(t[0], str) or t[2] != ZEUS_CLAIM:
                continue
            state = _STATE_OF.get(t[1])
            if state is not None:
                rows[(t[0],)] = info_join(rows.get((t[0],), "unknown"), state)
    return Expected(("x",), "unknown", {k: v for k, v in rows.items() if v != "unknown"})


def ref_pattern(graph: dict, names: tuple[str, ...], match, op=None) -> Expected:
    """Single-pattern scans and projections.  ``match`` gives a triple's
    binding (a dict over at least ``names``) or a false value.  Without
    ``op`` the rows are the matches.  With ``op`` the rows matching on
    ``names`` fold together with the unknown default, because a projection
    always has unmatched extensions (the universe dwarfs every group, and
    open mode has infinitely many)."""
    rows: dict = {}
    for t, v in graph.items():
        binding = match(t)
        if not binding:
            continue
        key = tuple(binding[n] for n in names)
        rows[key] = v if op is None else op(rows.get(key, "unknown"), v)
    return Expected(names, "unknown", {k: v for k, v in rows.items() if v != "unknown"})


def ref_render(graph: dict) -> Text:
    """The canonical graph writer: sorted absolute statements, @true implicit."""
    lines = ["@default unknown ."]
    for t in sorted(graph, key=term_text):
        v = graph[t]
        suffix = "" if v == "true" else f" @{v}"
        lines.append(f"{term_text(t[0])} {term_text(t[1])} {term_text(t[2])}{suffix} .")
    return Text("\n".join(lines) + "\n")


def ingest_reference(graph: dict, name: str, p: str, q: str | None = None) -> Expected:
    """Reference answer of the ingest query ``name``; ``p`` and ``q`` are
    the IRIs ``gen.ingest_queries`` put into it, in order."""
    if name == "scan":
        return ref_pattern(graph, ("o", "s"), lambda t: t[1] == p and {"s": t[0], "o": t[2]})
    if name == "scan_subject":
        return ref_pattern(graph, ("o", "p"), lambda t: t[0] == p and {"p": t[1], "o": t[2]})
    if name == "union":
        # each branch holds at most one triple per mapping and is unknown, its
        # default, where it holds none; unknown is not truth join's identity,
        # so a mapping both branches hold must not fold in a third value
        branch: dict = {p: {}, q: {}}
        for t, v in graph.items():
            if t[1] in branch:
                branch[t[1]][(t[2], t[0])] = v
        rows = {k: truth_join(branch[p].get(k, "unknown"), branch[q].get(k, "unknown"))
                for k in branch[p].keys() | branch[q].keys()}
        return Expected(("o", "s"), "unknown", {k: v for k, v in rows.items() if v != "unknown"})
    if name == "project":
        return ref_pattern(graph, ("s",), lambda t: t[1] == p and {"s": t[0]}, truth_join)
    if name == "quoted_scan":
        return ref_pattern(
            graph, ("a", "o"),
            lambda t: isinstance(t[0], tuple) and t[0][1] == p and t[1] == q
            and {"a": t[0][0], "o": t[2]},
            truth_join)
    if name == "belief_scan":
        return ref_pattern(graph, ("c", "h"), lambda t: t[1] == p and {"h": t[0], "c": t[2]})
    if name == "project_info":
        return ref_pattern(graph, ("o",), lambda t: t[1] == p and {"o": t[2]}, info_join)
    raise ValueError(f"no reference for ingest query {name!r}")


# ---------------------------------------------------------------------------
# join_filter: dense answers over the small active domain
# ---------------------------------------------------------------------------


def query_constants(text: str) -> list[str]:
    """The IRIs a generated query names (all bare names)."""
    return [iri(name) for name in re.findall(r"<([^<>]+)>", text)]


def dense(universe, names: tuple[str, ...], value) -> Dense:
    """Every mapping of ``names`` over ``universe`` with ``value(*terms)``."""
    terms = sorted(universe, key=term_text)
    return Dense(names, {combo: value(*combo)
                         for combo in itertools.product(terms, repeat=len(names))})


def join_filter_reference(graph: dict, name: str, open_mode: bool, named, text: str):
    """Answers of the ``gen.join_queries`` shapes, from their definitions:
    joins meet, unions and projections join (a projection over every
    extension in the universe), FILTER meets with the operator's identity
    or absorbing element and MAP replaces the state."""
    g = lambda s, p, o: graph.get((s, p, o), "unknown")  # noqa: E731
    U = sorted(active_domain(graph, query_constants(text)), key=term_text)
    if name.startswith("chain"):
        distinct = set(named)

        def chain(x, y):
            env = {"x": x, "y": y}
            return fold(info_meet, (g(env[s], p, env.get(o, o)) for s, p, o in distinct),
                        "conflicted")

        answer = dense(U, ("x", "y"), chain)
        return open_rows(answer) if open_mode else answer
    if open_mode and name in ("disjoint_meet", "map_eq"):
        # A disjoint meet pairs a false row (planted) with infinitely many
        # unknown partners, giving false; MAP sends the infinitely many
        # diagonal and off-diagonal mappings to different states.  Neither
        # has a finite default+exception table.
        return Refusal("NonFinitelySupported")
    p = named
    if name in ("shared_join", "shared_join_info"):
        info = name.endswith("_info")
        meet, join, start = ((info_meet, info_join, "unknown") if info
                             else (truth_meet, truth_join, "false"))
        answer = dense(U, ("x", "z"), lambda x, z: fold(
            join, (meet(g(x, p[0], y), g(y, p[1], z)) for y in U), start))
    elif name == "disjoint_meet":
        answer = dense(U, ("x", "y"), lambda x, y: truth_meet(g(x, p[0], p[1]), g(y, p[2], p[3])))
    elif name == "filter_eq":
        answer = dense(U, ("a", "b"), lambda a, b: g(a, p[0], b) if a == b else "false")
    elif name == "filter_eq_info":
        answer = dense(U, ("a", "b"), lambda a, b: g(a, p[0], b) if a == b else "unknown")
    elif name == "triangle_filter":
        answer = dense(U, ("a", "b"), lambda a, b: truth_meet(g(a, p[0], b), g(b, p[1], a)))
    elif name == "map_eq":
        answer = dense(U, ("a", "b"), lambda a, b: "true" if a == b else "false")
    elif name == "union_project":
        answer = dense(U, ("x",), lambda x: fold(
            truth_join, (truth_join(g(x, p[0], y), g(x, p[1], y)) for y in U), "false"))
    elif name == "union_info":
        answer = dense(U, ("x", "y"), lambda x, y: info_join(g(x, p[0], y), g(y, p[1], x)))
    else:
        raise ValueError(f"no reference for join_filter query {name!r}")
    return open_rows(answer) if open_mode else answer
