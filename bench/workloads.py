"""The four benchmark workloads: inputs, op streams and references.

Each ``build_*`` function writes its workload's inputs as ``.f4s``/``.esq``
files into a work directory (untimed harness work) and returns a
``Workload``: the timed set-up, the op stream of one pass, and a way to
compute the reference answer of every op in that pass.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import gen
import reference as ref

# Pass this where |universe| ** |vars| exceeds the engine's default cap of
# 10**6; the guard still runs, it just allows the larger enumeration.
BIG_CAP = 10**15


@dataclass
class Op:
    """One step of the op stream.

    kind "query": ``parse_query``, ``desugar``, ``evaluate`` and
    ``serialize_relation`` on the current graph, as ``esparql query`` does.
    kind "update": ``FourGraph.set_value`` with ``arg`` = (triple, value).
    kind "render": ``render_graph`` on the current graph.
    kind "case": one differential case ``arg`` through ``evaluate``,
    ``oracle_eval`` and ``diff``, as ``esparql diff`` does.
    """

    name: str
    kind: str
    text: str = ""
    path: str = ""
    mode: str = "active-domain"
    cap: int | None = None
    fmt: str = "table"
    arg: object = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    setup: Callable[[], object]
    references: Callable[[], list]
    min_passes: int
    graph_path: str | None = None
    files: dict[str, str] = field(default_factory=dict)

    @property
    def min_ops(self) -> int:
        return self.min_passes * len(self.ops)


def _write(workdir: str, name: str, text: str, files: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    files[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return path


def _graph_setup(api, path: str) -> Callable[[], object]:
    def setup():
        with open(path, "r", encoding="utf-8") as handle:
            return api.parser.parse_graph(handle.read())

    return setup


def _query_ops(workdir: str, files: dict, queries: dict[str, str], plan) -> list[Op]:
    paths = {name: _write(workdir, f"{name}.esq", text, files) for name, text in queries.items()}
    return [Op(name, "query", queries[name], paths[name], mode, cap, fmt)
            for name, mode, cap, fmt in plan]


# ---------------------------------------------------------------------------
# belief_holders
# ---------------------------------------------------------------------------


def _belief_inputs(seed: int):
    rng = random.Random(seed)
    graph = gen.belief_graph(rng)
    queries, named = gen.belief_queries(rng)
    return graph, queries, named, gen.belief_updates(rng, graph)


def build_belief_holders(api, seed: int, workdir: str) -> Workload:
    graph, queries, named, updates = _belief_inputs(seed)
    files: dict = {}
    path = _write(workdir, "graph.f4s", gen.graph_f4s(graph), files)
    AD, OPEN = "active-domain", "open"
    u1, u1_two, u1_var, u2, u3, u4 = _query_ops(workdir, files, queries, [
        ("u1", AD, None, "table"), ("u1_two", AD, None, "table"),
        ("u1_var", AD, None, "table"), ("u2", AD, None, "table"),
        ("u3", AD, BIG_CAP, "table"), ("u4", OPEN, None, "table"),
    ])
    changes: dict[str, tuple] = {}

    def update(i: int, undo: bool) -> Op:
        key, value = updates[i]
        value = graph[key] if undo else value
        op = Op(f"{'revert' if undo else 'update'}{i}", "update",
                arg=(api.to_triple(key), api.state(value)))
        changes[op.name] = (key, value)
        return op

    # 7 cheap ops, 8 u1_var/u2 and 6 u3 per pass: the median op falls in the
    # middle of the u1_var/u2 group and the tail percentile (84) in the
    # middle of the u3 group on every seed, not on the border of a group
    ops = [
        u1, u1_two, u1_var, u2, u3, u4, update(0, False),
        u2, u1_var, u3, u3, u2, update(1, False),
        u2, u3, u1_var, u3, u1_var, u3, update(1, True), update(0, True),
    ]
    answers = {
        "u1": lambda g: ref.ref_u1(g, [named["h1"]]),
        "u1_two": lambda g: ref.ref_u1(g, [named["h1"], named["h2"]]),
        "u1_var": ref.ref_u1_var,
        "u2": ref.ref_u2,
        "u3": lambda g: ref.ref_u3(g, named["h3"]),
        "u4": ref.ref_u4_open,
    }

    def references() -> list:
        current = _belief_inputs(seed)[0]
        out = []
        for op in ops:
            if op.kind == "update":
                key, value = changes[op.name]
                current[key] = value
                out.append(ref.Text(f"{len(current)} {value}"))
            else:
                out.append(answers[op.name](current))
        return out

    return Workload("belief_holders", ops, _graph_setup(api, path), references,
                    min_passes=3, graph_path=path, files=files)


# ---------------------------------------------------------------------------
# join_filter
# ---------------------------------------------------------------------------


def _join_inputs(seed: int):
    rng = random.Random(seed)
    graph = gen.join_graph(rng)
    return (graph, *gen.join_queries(rng, graph))


def build_join_filter(api, seed: int, workdir: str) -> Workload:
    graph, queries, named = _join_inputs(seed)
    files: dict = {}
    path = _write(workdir, "graph.f4s", gen.graph_f4s(graph), files)
    AD, OPEN = "active-domain", "open"
    # ten shared_join and chain50 ops of similar cost hold the median op,
    # and chain100 the tail percentile (86), on every seed; ops of a few
    # milliseconds move most with the host's speed, so neither is one of them
    plan = [
        ("shared_join", AD, None, "table"),
        ("shared_join", AD, None, "csv"),
        ("shared_join", AD, None, "json-lines"),
        ("shared_join", AD, None, "table"),
        ("shared_join", AD, None, "csv"),
        ("shared_join_info", AD, None, "table"),
        ("shared_join_info", OPEN, None, "json-lines"),
        ("disjoint_meet", AD, None, "table"),
        ("disjoint_meet", OPEN, None, "table"),
        ("filter_eq", AD, None, "table"),
        ("filter_eq_info", OPEN, None, "csv"),
        ("triangle_filter", AD, None, "table"),
        ("map_eq", AD, None, "table"),
        ("map_eq", OPEN, None, "table"),
        ("union_project", AD, None, "csv"),
        ("union_info", AD, None, "table"),
        ("union_info", OPEN, None, "table"),
        ("chain50", AD, None, "table"),
        ("chain50", AD, None, "csv"),
        ("chain50", AD, None, "json-lines"),
        ("chain50", AD, None, "table"),
        ("chain50", AD, None, "csv"),
        ("chain100", AD, None, "json-lines"),
        ("chain150", AD, None, "table"),
        ("chain150", OPEN, None, "table"),
    ]
    ops = _query_ops(workdir, files, queries, plan)

    def references() -> list:
        graph = _join_inputs(seed)[0]
        return [ref.join_filter_reference(graph, op.name, op.mode == OPEN, named[op.name], op.text)
                for op in ops]

    return Workload("join_filter", ops, _graph_setup(api, path), references,
                    min_passes=3, graph_path=path, files=files)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _ingest_inputs(seed: int):
    rng = random.Random(seed)
    return (gen.ingest_graph(rng), *gen.ingest_queries(rng))


def build_ingest(api, seed: int, workdir: str) -> Workload:
    graph, queries, named = _ingest_inputs(seed)
    files: dict = {}
    path = _write(workdir, "graph.f4s", gen.graph_f4s(graph), files)
    AD, OPEN = "active-domain", "open"
    # three project_info ops hold the median op on every seed
    plan = [
        ("scan", AD, BIG_CAP, "table"),
        ("scan_subject", OPEN, None, "csv"),
        ("union", OPEN, None, "json-lines"),
        ("project", AD, BIG_CAP, "csv"),
        ("quoted_scan", AD, BIG_CAP, "json-lines"),
        ("belief_scan", OPEN, None, "table"),
        ("project_info", OPEN, None, "csv"),
        ("scan", OPEN, None, "json-lines"),
        ("project_info", OPEN, None, "json-lines"),
        ("project_info", OPEN, None, "table"),
    ]
    ops = _query_ops(workdir, files, queries, plan)
    ops.append(Op("render", "render"))

    def references() -> list:
        graph = _ingest_inputs(seed)[0]
        return [ref.ref_render(graph) if op.kind == "render"
                else ref.ingest_reference(graph, op.name, *named[op.name]) for op in ops]

    return Workload("ingest", ops, _graph_setup(api, path), references,
                    min_passes=4, graph_path=path, files=files)


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------

# A case's cost stratum is the quarter-decade of the rows its dense tables
# hold in total: |U| ** |scope| per node, times the belief contexts around
# the node.  It predicts the oracle's time within a factor of about two.
# STRATUM_COUNTS is how the raw ``esparql diff --seed`` stream spreads over
# the strata (80,000 cases, seeds 1000-1039).  A pass keeps DIFF_CASES cases
# in the same proportions, so every seed gets the same mix.  Strata above 17
# (10 ** 4.5 rows and more; 3,302 of the 80,000 cases, 4.1%) are left out:
# such a case takes half a second to two seconds, and which few of them a
# seed draws moved the tail latency by a fifth between seeds.
STRATUM_COUNTS = {0: 1089, 1: 691, 2: 707, 3: 1995, 4: 4447, 5: 3894, 6: 4374, 7: 4655,
                  8: 5853, 9: 5600, 10: 6253, 11: 5671, 12: 6613, 13: 5688, 14: 5628,
                  15: 5308, 16: 4969, 17: 3263}
DIFF_CASES = 400

# Raw cases drawn per set-up, a fixed number so set-up does the same work on
# every seed; some stratum's quota then goes unmet with odds near 1e-5.
DIFF_RAW_CASES = 2500


def quotas() -> dict[int, int]:
    """``DIFF_CASES`` shared out over the strata in proportion to
    ``STRATUM_COUNTS``, by largest remainder."""
    raw = sum(STRATUM_COUNTS.values())
    exact = {s: DIFF_CASES * n / raw for s, n in STRATUM_COUNTS.items()}
    out = {s: math.floor(x) for s, x in exact.items()}
    by_remainder = sorted(exact, key=lambda s: (out[s] - exact[s], s))
    for s in by_remainder[: DIFF_CASES - sum(out.values())]:
        out[s] += 1
    return out


def dense_rows(q, size: int, alg, belief) -> int:
    total = 0
    stack = [(q, 1)]
    while stack:
        node, contexts = stack.pop()
        total += contexts * size ** len(alg.in_scope(node))
        if isinstance(node, (alg.Join, alg.Union)):
            stack += [(node.left, contexts), (node.right, contexts)]
        elif isinstance(node, alg.Belief):
            k = len(belief.belief_variables(node.expr))
            stack.append((node.query, contexts * size ** k))
        elif not isinstance(node, alg.Pattern):
            stack.append((node.query, contexts))
    return total


def stratum(api, g, q) -> int:
    alg = api.algebra
    size = len(api.model.active_domain(g, alg.query_constants(q)))
    return int(4 * math.log10(max(dense_rows(q, size, alg, api.belief), 1)))


def raw_cases(api, seed: int):
    """The first ``DIFF_RAW_CASES`` cases of the ``esparql diff --seed``
    stream."""
    rng = random.Random(seed)
    for _ in range(DIFF_RAW_CASES):
        g = api.randgen.random_graph(rng)
        yield g, api.randgen.random_query(rng)


def pick_cases(api, seed: int) -> list[int]:
    """Indices into ``raw_cases``: the first of each stratum, up to its
    quota."""
    want = quotas()
    picked = []
    for i, (g, q) in enumerate(raw_cases(api, seed)):
        s = stratum(api, g, q)
        if want.get(s):
            want[s] -= 1
            picked.append(i)
            if not any(want.values()):
                return picked
    raise RuntimeError(f"seed {seed}: strata quotas {want} unmet")


def build_differential(api, seed: int, workdir: str) -> Workload:
    # choosing the cases is harness work; set-up is only randgen's generation
    picked = pick_cases(api, seed)
    ops = [Op(f"case{i}", "case", arg=i) for i in range(len(picked))]

    def setup():
        cases = list(raw_cases(api, seed))
        return [cases[i] for i in picked]

    def references() -> list:
        # the oracle inside each op is the reference
        return [None] * len(picked)

    return Workload("differential", ops, setup, references, min_passes=1)


BY_NAME = {
    "belief_holders": build_belief_holders,
    "join_filter": build_join_filter,
    "ingest": build_ingest,
    "differential": build_differential,
}
