"""Views of engine values that only tests need: whole-function comparison
of relations, formula evaluation at one mapping, the inverse of a belief
vocabulary, the bundled fixtures, a plain reference writer for results and
graphs, seeded mutants of the fixtures for fuzzing, and seeded generators
of semiring graphs and of plain and join-free queries."""

import csv
import io
import json
import random
import re
from importlib import resources
from typing import Optional

from esparql import (
    BOOLEAN,
    COUNTING,
    DEFAULT_BASE_IRI,
    JOIN_OPERATORS,
    MEET_OPERATORS,
    STATES,
    BeliefVocabulary,
    FourGraph,
    FourValue,
    Iri,
    Mapping,
    Pattern,
    Query,
    Relation,
    Semiring,
    Union,
    mappings_over,
    term_text,
)
from esparql.algebra import ThreeValued, _formula_value
from esparql.randgen import (
    VARS,
    _PLAIN_KINDS,
    _plain_node,
    _random_ground_triple,
    iri_pool,
    random_pattern,
)


def all_rows(r: Relation):
    """Every mapping over r's universe with its value; active-domain only."""
    if r.universe is None:
        raise ValueError("open relation has no finite row set")
    for m in mappings_over(r.vars, r.universe):
        yield m, r.value_at(m)


def same_function(r: Relation, other: Relation) -> bool:
    """Equality as total functions, tolerant of default choice when every
    mapping happens to be listed as an exception."""
    if r.vars != other.vars or r.universe != other.universe:
        return False
    for m in r.exceptions.keys() | other.exceptions.keys():
        if r.value_at(m) != other.value_at(m):
            return False
    if r.default == other.default:
        return True
    if r.universe is None:
        return False
    total = len(r.universe) ** len(r.vars)
    covered = len(r.exceptions.keys() | other.exceptions.keys())
    return covered >= total


def eval_formula(f, m: Mapping, r: Relation) -> ThreeValued:
    return _formula_value(f, m.get, r.value_at(m))


def fixture_path(name: str):
    """Traversable path of a fixture file bundled in ``esparql.fixtures``."""
    return resources.files("esparql.fixtures").joinpath(name)


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def state_for(vocab: BeliefVocabulary, predicate: Iri):
    for state in STATES:
        if vocab.predicate_for(state) == predicate:
            return state
    return None


# ---------------------------------------------------------------------------
# Reference output: serialize_relation and render_graph written plainly, one
# cell and one line at a time, for byte-for-byte comparison.
# ---------------------------------------------------------------------------


def _label(v) -> str:
    if isinstance(v, FourValue):
        return v.label
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# an IRI inside a term's text; '<<' and '>>' never match
_IRI_IN_TEXT = re.compile(r"<([^\s<>]+)>")


def shorten_iri(text: str, base: str) -> str:
    if base and text.startswith(base) and len(text) > len(base):
        return text[len(base):]
    return text


def _table_cell(text: str, base: str) -> str:
    """A term's text with every IRI shortened; a lone IRI loses its brackets."""
    if not text.startswith("<<"):
        return shorten_iri(text[1:-1], base)
    return _IRI_IN_TEXT.sub(lambda m: f"<{shorten_iri(m[1], base)}>", text)


def reference_serialization(r: Relation, format: str, *, show_default: bool = False,
                            base_iri: str = DEFAULT_BASE_IRI) -> str:
    names = sorted(v.name for v in r.vars)
    header = names + ["state"]
    rows = sorted([*map(term_text, row), _label(v)] for row, v in r.table.items())
    wildcard = [["*"] * len(names) + [_label(r.default)]] if show_default else []
    if format == "table":
        rows = [[*(_table_cell(c, base_iri) for c in row[:-1]), row[-1]] for row in rows]
        return "".join(" | ".join(row) + "\n" for row in [header, *rows, *wildcard])
    if format == "json-lines":
        return "".join(json.dumps(dict(zip(header, row))) + "\n" for row in rows + wildcard)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows, *wildcard])
    return out.getvalue()


def reference_render(g: FourGraph) -> str:
    lines = sorted(
        f"{term_text(t.subject)} <{t.predicate.text}> {term_text(t.object)}"
        f"{'' if v == FourValue.TRUE else ' @' + v.label} ."
        for t, v in g.exceptions.items()
    )
    return "\n".join([f"@default {g.default.label} .", *lines]) + "\n"


FUZZ_PIECES = ["<<", ">>", "#", "@", "?", "\x0b", "\xa0", " ", "<", ">", ".",
               "\n", "{", "}", "(", ")", "&", "|", "!", "=", "a", "@true", "?x"]
FUZZ_SOURCES = ["table1.f4s", "dup.f4s", "u1.esq", "u2.esq", "u3.esq", "u4.esq",
                "bad.esq", "proj_unused.esq", "meet-disjoint.esq"]


def mutant(rng: random.Random, text: str) -> str:
    """Up to four seeded character insertions, deletions and swaps."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + rng.choice(FUZZ_PIECES) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


# ---------------------------------------------------------------------------
# Seeded generators for the semiring-generic fragment; they draw through
# randgen's own helpers, in the same order as randgen's query generator
# ---------------------------------------------------------------------------


def random_k_graph(
    rng: random.Random, semiring: Semiring, pool: Optional[list[Iri]] = None
) -> FourGraph:
    """Zero-default graph annotated with values from the given semiring."""
    pool = pool or iri_pool()
    if semiring is COUNTING:
        candidates = [1, 2, 3, 5]
    elif semiring is BOOLEAN:
        candidates = [True]
    else:
        candidates = [v for v in STATES if v != semiring.zero]
    exceptions = {}
    for _ in range(rng.randint(0, 10)):
        exceptions[_random_ground_triple(rng, pool, 1)] = rng.choice(candidates)
    return FourGraph(semiring.zero, exceptions)


def random_join_free_query(
    rng: random.Random,
    pool: Optional[list[Iri]] = None,
    *,
    depth: int = 3,
    scope=None,
) -> Query:
    """Patterns combined with the two lattice joins only; always finite."""
    pool = pool or iri_pool()
    if scope is None:
        scope = frozenset(rng.sample(VARS, rng.randint(1, 2)))
    scope = frozenset(scope)
    if depth <= 0 or rng.random() < 0.35:
        return Pattern(random_pattern(rng, pool, scope))
    return Union(
        rng.choice(JOIN_OPERATORS),
        random_join_free_query(rng, pool, depth=depth - 1, scope=scope),
        random_join_free_query(rng, pool, depth=depth - 1, scope=scope),
    )


def _plain_query_node(rng: random.Random, pool: list[Iri], target, budget: int) -> Query:
    """One node of ``random_plain_query``; module-level, so that a query
    leaves nothing for the cyclic collector."""
    if budget <= 0 or rng.random() < 0.3:
        return Pattern(random_pattern(rng, pool, target))
    kind = rng.choice(_PLAIN_KINDS)
    return _plain_node(rng, pool, kind, target,
                       lambda t: _plain_query_node(rng, pool, t, budget - 1),
                       MEET_OPERATORS, False)


def random_plain_query(
    rng: random.Random,
    pool: Optional[list[Iri]] = None,
    *,
    depth: int = 4,
    scope=None,
) -> Query:
    """Query in the semiring-generic fragment: no state tests, maps or beliefs."""
    pool = pool or iri_pool()
    if scope is None:
        scope = frozenset(rng.sample(VARS, rng.randint(1, 3)))
    return _plain_query_node(rng, pool, frozenset(scope), depth)
