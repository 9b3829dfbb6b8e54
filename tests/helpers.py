"""Views of engine values that only tests need: whole-function comparison
of relations, formula evaluation at one mapping, the inverse of a belief
vocabulary, a plain reference writer for results and graphs, and seeded
mutants of the fixtures for fuzzing."""

import csv
import io
import json
import random
import re

from esparql import (
    DEFAULT_BASE_IRI,
    STATES,
    BeliefVocabulary,
    FourGraph,
    FourValue,
    Iri,
    Mapping,
    Relation,
    mappings_over,
    term_text,
)
from esparql.algebra import ThreeValued, _formula_value


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
