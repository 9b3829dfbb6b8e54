"""Result and graph writers match a plain reference writer byte for byte.

``serialize_relation`` and ``render_graph`` build their text with few
Python steps per row; ``helpers.reference_serialization`` and
``helpers.reference_render`` spell the same output out one cell and one
line at a time.  Seeded relations and graphs hold IRIs that JSON and CSV
must escape, IRIs under, equal to and outside the base, nested quoting,
bases that cannot prefix any IRI, and integer and boolean values.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esparql import (
    DEFAULT_BASE_IRI,
    FourGraph,
    FourValue,
    Iri,
    Mapping,
    Relation,
    StarTriple,
    Variable,
    render_graph,
    serialize_relation,
)
from esparql.parser import FORMATS

from helpers import reference_render, reference_serialization

# bases that can prefix an IRI, and ones that cannot: empty, or holding a
# character no IRI text holds
BASES = (DEFAULT_BASE_IRI, "urn:b/", "u", "", "<", "a b", "x>")

# IRI text tails: escapes for JSON (quote, backslash, control characters,
# non-ASCII), quoting for CSV (comma, quote), braces, the table separator
TAILS = ("n0", "n1", 'q"t', "back\\slash", "tab\x01ctl\x7f", "café", "☃",
         "a,b", "{x}", "p|q", "u", "b/")

NAMES = ("x", "y1", "_z", "a{b}", 'q"', "été", "c,d")

VALUES = (FourValue.TRUE, FourValue.FALSE, FourValue.CONFLICTED, FourValue.UNKNOWN,
          1, True, 0, False, 2)


def _iri(rng: random.Random, base: str) -> Iri:
    """An IRI under ``base``, equal to it, or outside it."""
    roll = rng.random()
    plausible = base and not any(c.isspace() or c in "<>" for c in base)
    if plausible and roll < 0.5:
        return Iri(base + rng.choice(TAILS))
    if plausible and roll < 0.6:
        return Iri(base)
    return Iri("urn:o:" + rng.choice(TAILS))


def _term(rng: random.Random, base: str, depth: int = 2):
    if depth and rng.random() < 0.3:
        return _triple(rng, base, depth - 1)
    return _iri(rng, base)


def _triple(rng: random.Random, base: str, depth: int = 2) -> StarTriple:
    return StarTriple(_term(rng, base, depth), _iri(rng, base), _term(rng, base, depth))


def _relation(rng: random.Random, base: str) -> Relation:
    names = rng.sample(NAMES, rng.randint(0, 3))
    vars = frozenset(Variable(n) for n in names)
    default = rng.choice(VALUES)
    exceptions = {}
    for _ in range(rng.randint(0, 12)):
        m = Mapping.of({v: _term(rng, base) for v in vars})
        exceptions[m] = rng.choice(VALUES)
    return Relation(vars, default, exceptions, None)


def _assert_same_output(r: Relation, base: str) -> None:
    for fmt in FORMATS:
        for show_default in (False, True):
            got = serialize_relation(r, fmt, show_default=show_default, base_iri=base)
            assert got == reference_serialization(r, fmt, show_default=show_default,
                                                  base_iri=base), (fmt, show_default, base)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_serialized_relations_match_the_reference(seed):
    rng = random.Random(seed)
    base = rng.choice(BASES)
    _assert_same_output(_relation(rng, base), base)


@pytest.mark.parametrize("base", BASES)
def test_one_and_true_keep_their_own_labels_in_one_table(base):
    x = Variable("x")
    under = _iri(random.Random(1), base)
    r = Relation(frozenset({x}), FourValue.UNKNOWN, {
        Mapping.of({x: Iri("urn:o:1")}): 1,
        Mapping.of({x: Iri("urn:o:2")}): True,
        Mapping.of({x: StarTriple(under, Iri("urn:o:p"), StarTriple(under, under, under))}): 0,
        Mapping.of({x: Iri("urn:o:4")}): FourValue.FALSE,
    }, None)
    _assert_same_output(r, base)
    table = serialize_relation(r, "table", base_iri=base)
    assert "| 1\n" in table and "| true\n" in table


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_rendered_graphs_match_the_reference(seed):
    rng = random.Random(seed)
    default = rng.choice((FourValue.UNKNOWN, FourValue.FALSE, FourValue.TRUE))
    entries = {_triple(rng, rng.choice(BASES), 3): rng.choice(VALUES[:4])
               for _ in range(rng.randint(0, 30))}
    g = FourGraph(default, {t: v for t, v in entries.items() if v is not default})
    assert render_graph(g) == reference_render(g)
