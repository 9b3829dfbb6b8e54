#!/usr/bin/env python3
"""eSPARQL benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the engine from ``src/``; it
exits non-zero without a result when that source is missing.  Inputs are
generated from ``--seed`` into ``bench/work/`` (removed afterwards), set-up
is timed several times, then a closed loop with one client runs whole
passes of the workload's op stream until ``--seconds`` have passed and the
workload's minimum op count is reached.  Every op's answer is checked
against a reference the engine did not produce.  Set-up and op times are
scaled to a reference host speed (``HostSpeed``); the raw times go to the
report.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and then twice traced (spans and counters from ``tracer.py``),
reports the per-layer metrics of the first traced pass and fails when the
two traced passes disagree on any count or answer digest.

The last line of standard output is the JSON result; a fuller report,
with input hashes, the tail percentile used and the calibration loop time,
goes to ``bench/results/`` and a summary to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ORACLE_CAP = 10**6  # esparql diff's default cap, for both sides of a case
DIFF_PARITY_CASES = 10
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 200, 2.0

# host speed (HostSpeed): the loop that host.calib_loop_ms times, a shorter
# chunk of it timed between ops, and the chunk's time on the reference host
CALIB_ITERS = 300_000
CHUNK_ITERS = 60_000
CHUNK_EVERY_S = 0.2
REF_CHUNK_S = 0.005

# counts that must repeat exactly between two traced passes
_EXACT = (".calls", ".rows", ".rows_in", ".rows_out", ".pairs_examined", ".densified_rows",
          ".triples_examined", ".entries", ".terms", ".triples", ".holder_assignments",
          ".hit_ratio")


def metric_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics a run reports, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_api() -> types.SimpleNamespace:
    if not os.path.isfile(os.path.join(SRC, "esparql", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import esparql
    from esparql import algebra, belief, errors, model, oracle, parser, randgen

    if not os.path.abspath(esparql.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported esparql from {esparql.__file__}, not {SRC}")

    def to_term(t):
        if isinstance(t, str):
            return model.Iri(t)
        return model.StarTriple(to_term(t[0]), to_term(t[1]), to_term(t[2]))

    return types.SimpleNamespace(
        parser=parser, model=model, algebra=algebra, oracle=oracle, randgen=randgen,
        belief=belief, errors=errors, to_triple=to_term, state=esparql.FourValue,
    )


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def diff_case(api, g, q) -> str:
    """One ``esparql diff`` case; a refusal must come from both sides."""
    refused = []
    engine = dense = None
    try:
        engine = api.algebra.evaluate(q, g, cap=ORACLE_CAP)
    except api.errors.UniverseTooLarge:
        refused.append("engine")
    try:
        dense = api.oracle.oracle_eval(q, g, cap=ORACLE_CAP)
    except api.errors.UniverseTooLarge:
        refused.append("oracle")
    if len(refused) == 2:
        return "REFUSED UniverseTooLarge"
    if refused:
        return f"ERROR only the {refused[0]} refused"
    bad = api.oracle.diff(engine, dense)
    return f"disagree at {len(bad)} rows" if bad else "agree"


def run_op(api, op, state) -> str:
    try:
        if op.kind == "query":
            q = api.parser.desugar(api.parser.parse_query(op.text))
            kwargs = {"mode": api.algebra.EvalMode(op.mode)}
            if op.cap is not None:
                kwargs["cap"] = op.cap
            r = api.algebra.evaluate(q, state.graph, **kwargs)
            return api.parser.serialize_relation(r, op.fmt, show_default=True)
        if op.kind == "update":
            state.graph = state.graph.set_value(*op.arg)
            return f"{len(state.graph.exceptions)} {state.graph.lookup(op.arg[0]).label}"
        if op.kind == "render":
            return api.parser.render_graph(state.graph)
        g, q = state.cases[op.arg]
        return diff_case(api, g, q)
    except (api.errors.NonFinitelySupported, api.errors.UniverseTooLarge) as e:
        return f"REFUSED {type(e).__name__}"
    except Exception as e:  # the op failed; the stream goes on and counts it
        return f"ERROR {type(e).__name__}: {e}"


def verdict(op, output: str, expected) -> str | None:
    if op.kind == "case":
        return None if output in ("agree", "REFUSED UniverseTooLarge") else output
    if output.startswith("ERROR "):
        return output
    return ref.check(output, op.fmt, expected)


class State:
    def __init__(self, built):
        self.graph = built if not isinstance(built, list) else None
        self.cases = built if isinstance(built, list) else None


def timed_setup(wl, host: HostSpeed):
    """Set up repeatedly; return the last result and every duration, raw."""
    times: list[float] = []
    built = None
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        built = None  # drop the previous copy before building the next
        built, took = host.timed(wl.setup)
        times.append(took)
    return built, times


def one_pass(api, wl, state, latencies: list, outputs: list, tracer=None,
             host: HostSpeed | None = None) -> None:
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        if host is None:
            start = perf_counter()
            out = run_op(api, op, state)
            took = perf_counter() - start
        else:
            out, took = host.timed(run_op, api, op, state)
        latencies.append(took)
        outputs.append(out)


def note_drift(first: list[str], outputs: list[str], drift: list[int]) -> None:
    """Count, per op, the later passes that answered differently."""
    for i, (a, b) in enumerate(zip(first, outputs)):
        if a != b:
            drift[i] += 1


def stream(api, wl, state, seconds: float, host: HostSpeed):
    """Whole passes until ``seconds`` have passed and ``wl.min_ops`` ops ran.

    Only the first pass's outputs are kept, so memory does not grow with
    the number of passes; later passes are compared with them as they go.
    """
    latencies: list[float] = []
    first: list[str] = []
    drift = [0] * len(wl.ops)
    start = perf_counter()
    while True:
        outputs: list[str] = []
        one_pass(api, wl, state, latencies, outputs, host=host)
        if first:
            note_drift(first, outputs, drift)
        else:
            first = outputs
        wall = perf_counter() - start
        if wall >= seconds and len(latencies) >= wl.min_ops:
            return latencies, first, drift, wall


def count_failures(wl, first: list[str], drift: list[int], passes: int,
                   refs: list) -> tuple[int, dict]:
    """Failed ops over ``passes`` passes: every run of an op whose first
    answer is wrong, plus every later run that answered differently."""
    reasons = {}
    failed = 0
    for i, op in enumerate(wl.ops):
        why = verdict(op, first[i], refs[i])
        if why:
            reasons[f"{i}:{op.name}"] = why
        failed += passes if why else drift[i]
    return failed, reasons


def digest(outputs: list[str]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def tail_percentile(min_ops: int) -> int:
    """The highest whole percentile with at least 10 of ``min_ops`` samples
    beyond it.  Fixed per workload, so the same rank is read every run."""
    return math.floor(100 * (1 - 10 / min_ops))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def calib_loop(iterations: int) -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    start = perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return perf_counter() - start


def calib_loop_ms() -> list[float]:
    """Three timings of the full loop, for ``host.calib_loop_ms``."""
    return [calib_loop(CALIB_ITERS) * 1000 for _ in range(3)]


class HostSpeed:
    """Scales timings to a host of fixed speed.

    On a shared host the same code runs up to twice as fast or as slow from
    one second to the next, and for minutes at a time.  A short fixed loop,
    timed at least every ``CHUNK_EVERY_S`` between timed sections, tracks
    that speed.  Each section's time is multiplied by ``REF_CHUNK_S`` over
    the mean of the loop times just before and just after it: what the
    section would take on a host where the loop takes ``REF_CHUNK_S``.
    The loop does not touch the engine, so a slower engine still reads
    slower.  Engine code slows somewhat more than the loop when the host
    is busy, so this narrows the spread between runs but does not remove
    it.
    """

    def __init__(self):
        self.chunks = [calib_loop(CHUNK_ITERS)]
        self.last = perf_counter()
        self.sections: list[int] = []  # per timed section, the chunk before it

    def timed(self, fn, *args):
        """``fn(*args)`` and its raw duration; the scaled one comes later."""
        if perf_counter() - self.last >= CHUNK_EVERY_S:
            self.chunks.append(calib_loop(CHUNK_ITERS))
            self.last = perf_counter()
        start = perf_counter()
        out = fn(*args)
        took = perf_counter() - start
        self.sections.append(len(self.chunks) - 1)
        return out, took

    def scale(self, raw: list[float]) -> list[float]:
        """``raw``, the durations ``timed`` returned, scaled to the
        reference host."""
        self.chunks.append(calib_loop(CHUNK_ITERS))
        return [t * REF_CHUNK_S * 2 / (self.chunks[k] + self.chunks[k + 1])
                for t, k in zip(raw, self.sections, strict=True)]


# ---------------------------------------------------------------------------
# CLI parity
# ---------------------------------------------------------------------------


def cli_parity(api, wl, outputs: list[str], seed: int) -> str | None:
    """Run the real ``esparql`` CLI once; None when its output matches."""
    cli = [sys.executable, "-c", "from esparql.cli import main; main()"]
    if wl.name == "differential":
        args = ["diff", "--seed", str(seed), "--cases", str(DIFF_PARITY_CASES)]
        expected = _diff_cli_text(api, seed)
    else:
        op = wl.ops[0]
        args = ["query", "--graph", wl.graph_path, "--query", op.path, "--mode", op.mode,
                "--format", op.fmt, "--show-default"]
        if op.cap is not None:
            args += ["--cap", str(op.cap)]
        expected = outputs[0]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(cli + args, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=150)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return None if proc.stdout == expected else "output differs from the benchmark op"


def _diff_cli_text(api, seed: int) -> str:
    rng = random.Random(seed)
    lines, checked, skipped = [], 0, 0
    for index in range(DIFF_PARITY_CASES):
        g = api.randgen.random_graph(rng)
        q = api.randgen.random_query(rng)
        out = diff_case(api, g, q)
        if out == "REFUSED UniverseTooLarge":
            skipped += 1
            lines.append(f"case {index}: skipped (universe too large)")
        else:
            checked += 1
    lines.append(f"{checked} cases agree, {skipped} skipped")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_untraced(api, wl, seconds: float, report: dict) -> dict:
    setup_host = HostSpeed()
    built, setup_raw = timed_setup(wl, setup_host)
    state = State(built)
    host = HostSpeed()
    raw, first, drift, wall = stream(api, wl, state, seconds, host)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = len(raw) // len(wl.ops)
    failed, reasons = count_failures(wl, first, drift, passes, wl.references())
    p_tail = tail_percentile(wl.min_ops)
    setup_times, latencies = setup_host.scale(setup_raw), host.scale(raw)
    report.update(
        setup_times_s=setup_times, ops=len(raw), passes=passes,
        stream_wall_s=wall, tail_percentile=p_tail,
        tail_samples_beyond=len(raw) - math.ceil(p_tail / 100 * len(raw)),
        failures=reasons, answer_digest=digest(first),
        chunk_ms_median=statistics.median(host.chunks) * 1000,
        raw_ops_per_s=len(raw) / sum(raw),
        raw_op_ms_p50=statistics.median(raw) * 1000,
        raw_op_ms_tail=percentile(raw, p_tail) * 1000,
        # everything the scaled figures are computed from, in run order
        timings=dict(setup_raw_s=setup_raw, setup_chunk_before=setup_host.sections,
                     setup_chunks_s=setup_host.chunks, op_raw_s=raw,
                     op_chunk_before=host.sections, chunks_s=host.chunks),
    )
    report["cli_parity"] = cli_parity(api, wl, first, report["seed"])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1000,
        "op_ms_tail": percentile(latencies, p_tail) * 1000,
        "peak_rss_mb": peak_mb,
    }
    return dict(attempted=len(latencies), failed=failed, metrics=metrics)


def traced_pass(api, wl) -> tuple[Tracer, list[str], float]:
    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        state = State(wl.setup())
        outputs: list[str] = []
        one_pass(api, wl, state, [], outputs, tracer)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, outputs, wall


def layer_metrics(t: Tracer, units: dict[str, str]) -> dict[str, float]:
    """Every per-layer metric that a traced pass yields (all but the host,
    overhead and failure figures, which the caller adds)."""
    self_s, total_s, counts = t.self_times(), t.total_times(), t.counts
    out: dict[str, float] = {}
    for name, unit in units.items():
        if name.endswith(".total_s"):
            out[name] = total_s.get(name[: -len(".total_s")], 0.0)
        elif unit == "s":
            out[name] = self_s.get(name[: -len(".s")], 0.0)
        elif unit == "count":
            out[name] = counts.get(name, 0)
    parse_s = total_s.get("parser.parse_graph", 0.0)
    out["parser.parse_graph.triples_per_s"] = (
        counts.get("parser.parse_graph.triples", 0) / parse_s if parse_s else 0.0
    )
    # the engine's memo and belief spans give the two ratios and the holder count
    evals, misses = t.children_named("algebra.engine.eval", "algebra.engine._eval")
    out["algebra.eval_cache.hit_ratio"] = (evals - misses) / evals if evals else 0.0
    extracts, misses = t.children_named("algebra.engine._extract", "belief.extract")
    out["belief.extract_cache.hit_ratio"] = (extracts - misses) / extracts if extracts else 0.0
    out["algebra.belief.holder_assignments"] = t.direct_children("algebra.belief",
                                                                 "algebra.engine._extract")
    return out


def run_traced(api, wl, units: dict[str, str], report: dict) -> dict:
    start = perf_counter()
    state = State(wl.setup())
    plain_outputs: list[str] = []
    one_pass(api, wl, state, [], plain_outputs)
    plain_wall = perf_counter() - start
    first, out1, wall1 = traced_pass(api, wl)
    second, out2, _ = traced_pass(api, wl)
    m1, m2 = layer_metrics(first, units), layer_metrics(second, units)
    unstable = sorted(k for k in m1 if k.endswith(_EXACT) and m1[k] != m2[k])
    if digest(out1) != digest(out2) or digest(out1) != digest(plain_outputs):
        unstable.append("answer_digest")
    drift = [0] * len(wl.ops)
    note_drift(plain_outputs, out1, drift)
    note_drift(plain_outputs, out2, drift)
    failed, reasons = count_failures(wl, plain_outputs, drift, 3, wl.references())
    attempted = 3 * len(wl.ops)
    m1["trace.overhead_ratio"] = wall1 / plain_wall
    m1["failed_op_ratio"] = failed / attempted
    report.update(
        untraced_wall_s=plain_wall, traced_wall_s=wall1, spans=len(first.spans),
        missing=first.missing, counter_mismatches=unstable, failures=reasons,
        answer_digest=digest(out1),
    )
    if unstable:
        print(f"COUNTER SELF-CHECK FAILED: {unstable}", file=sys.stderr)
    report["cli_parity"] = cli_parity(api, wl, plain_outputs, report["seed"])
    return dict(attempted=attempted, failed=failed, metrics=m1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    units = metric_units(args.trace)
    api = load_api()

    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        calib = calib_loop_ms()
        wl = workloads.BY_NAME[args.workload](api, args.seed, workdir)
        report["input_sha256"] = wl.files
        if args.trace:
            result = run_traced(api, wl, units, report)
        else:
            result = run_untraced(api, wl, args.seconds, report)
        # timed before and after the work, so it brackets the run
        report["host.calib_loop_ms"] = statistics.median(calib + calib_loop_ms())
        if args.trace:
            result["metrics"]["host.calib_loop_ms"] = report["host.calib_loop_ms"]
        report["failed_op_ratio"] = result["failed"] / result["attempted"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = (result["failed"] == 0 and report["cli_parity"] is None
               and not report.get("counter_mismatches"))
    report.update(result, correct=correct)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(HERE, "results", name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    print(json.dumps({k: report[k] for k in ("failures", "cli_parity", "failed_op_ratio",
                                              "host.calib_loop_ms", "input_sha256")},
                     default=str), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
