"""In-memory spans and counters around the engine's layer entry points.

The tracer replaces functions and methods by module attribute, from the
benchmark's side, and puts the originals back on ``uninstall``.  A module
function is replaced in every ``esparql`` module that binds the same
object, so calls through ``from .x import f`` are seen too.  A name that
no longer exists is recorded in ``missing`` and its metrics read zero.

Each span is ``[name, start, end, parent index, op index]``.  A layer's self
time is its span's duration minus the time its child spans cover.  Counters
are read from arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _len_exc(r) -> int:
    return len(r.exceptions)


def _count_parse(c, args, result):
    c["parser.parse_graph.triples"] += _len_exc(result)


def _count_serialize(c, args, result):
    c["parser.serialize_relation.rows"] += _len_exc(args[0])


def _count_key(c, args, result):
    c["model.FourGraph.key.entries"] += _len_exc(args[0])


def _count_domain(c, args, result):
    c["model.active_domain.terms"] += len(result)


def _count_pattern(c, args, result):
    c["algebra.pattern.triples_examined"] += _len_exc(args[1])
    c["algebra.pattern.rows_out"] += _len_exc(result)


def _count_join(c, args, result):
    r1, r2 = args[0], args[1]
    c["algebra.join.pairs_examined"] += _len_exc(r1) * _len_exc(r2)
    c["algebra.join.rows_out"] += _len_exc(result)
    # a densified row pairs one side's exception with the other side at its
    # default, over variables only the other side binds: such rows exist
    # only because those variables were enumerated over the universe
    for side, other in ((r1, r2), (r2, r1)):
        if other.vars - side.vars:
            c["algebra.join.densified_rows"] += sum(
                1 for m in result.exceptions if m.restrict(other.vars) not in other.exceptions
            )


def _count_union(c, args, result):
    c["algebra.union.rows_out"] += _len_exc(result)


def _count_filter(c, args, result):
    c["algebra.filter_map.rows_out"] += _len_exc(result)


def _count_project(c, args, result):
    c["algebra.project.rows_in"] += _len_exc(args[0])
    c["algebra.project.rows_out"] += _len_exc(result)


def _count_extract(c, args, result):
    if type(args[1]).__name__ == "AtomicBelief":
        c["belief.extract.triples_examined"] += _len_exc(args[0])


# (module, attribute, span name, counter); "Class.method" attributes are
# replaced on the class
TARGETS = (
    ("parser", "parse_graph", "parser.parse_graph", _count_parse),
    ("parser", "parse_query", "parser.parse_query", None),
    ("parser", "desugar", "parser.desugar", None),
    ("parser", "serialize_relation", "parser.serialize_relation", _count_serialize),
    ("parser", "render_graph", "parser.render_graph", None),
    ("model", "active_domain", "model.active_domain", _count_domain),
    ("model", "FourGraph.key", "model.FourGraph.key", _count_key),
    ("model", "FourGraph.set_value", "model.FourGraph.set_value", None),
    ("algebra", "in_scope", "algebra.in_scope", None),
    ("algebra", "evaluate", "algebra.evaluate", None),
    ("algebra", "_eval_pattern", "algebra.pattern", _count_pattern),
    ("algebra", "_combine_join", "algebra.join", _count_join),
    ("algebra", "_combine_union", "algebra.union", _count_union),
    ("algebra", "_transform_by_formula", "algebra.filter_map", _count_filter),
    ("algebra", "_project_four", "algebra.project", _count_project),
    ("algebra", "_FourEngine.eval", "algebra.engine.eval", None),
    ("algebra", "_FourEngine._eval", "algebra.engine._eval", None),
    ("algebra", "_FourEngine._extract", "algebra.engine._extract", None),
    ("algebra", "_FourEngine._eval_belief", "algebra.belief", None),
    ("belief", "extract", "belief.extract", _count_extract),
    ("oracle", "oracle_eval", "oracle.oracle_eval", None),
    ("oracle", "diff", "oracle.diff", None),
    ("randgen", "random_graph", "randgen.generate", None),
    ("randgen", "random_query", "randgen.generate", None),
)

PACKAGE = "esparql"

# row generator: counted per row yielded, no span (its consumer interleaves)
ROW_GENERATORS = (("algebra", "mappings_over", "algebra.mappings_over.rows"),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, original, attr: str, replacement) -> None:
        for module in self._modules():
            if getattr(module, attr, None) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, attr, name, count in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span_wrapper(original, name, count)
            if owner_name:
                self._restore.append((owner, method, original))
                setattr(owner, method, wrapper)
            else:
                self._replace_everywhere(original, method, wrapper)
        for module_name, attr, counter in ROW_GENERATORS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._replace_everywhere(original, attr, self._row_wrapper(original, counter))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _row_wrapper(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for row in fn(*args, **kwargs):
                counts[counter] += 1
                yield row

        return wrapper

    # -- summaries ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out

    def total_times(self) -> dict[str, float]:
        """Seconds per span name, counting only the outermost span of a
        recursion."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                out[name] += end - start
        return out

    def children_named(self, parent_name: str, child_name: str) -> tuple[int, int]:
        """(spans named ``parent_name``, those with a direct child named
        ``child_name``)."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        with_child = {s[3] for s in self.spans if s[0] == child_name and s[3] in parents}
        return len(parents), len(with_child)

    def direct_children(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` whose parent is named ``parent_name``."""
        return sum(1 for s in self.spans
                   if s[0] == child_name and s[3] >= 0 and self.spans[s[3]][0] == parent_name)
