"""Operator tables, orders and semirings, checked exhaustively.

The expected tables are re-derived here from the two orders by hand-written
rules, so a typo in the package tables cannot hide behind its own closure
computation.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esparql import (
    BOOLEAN,
    COUNTING,
    FOUR_INFO,
    FOUR_TRUTH,
    JOIN_OPERATORS,
    MEET_OPERATORS,
    SEMIRINGS,
    STATES,
    FourOperator,
    FourValue,
    absorbing_of,
    apply,
    identity_of,
    leq_info,
    leq_truth,
)
from esparql.four import table_of

F, T, U, C = STATES
OPS = tuple(FourOperator)
PAIRS = list(itertools.product(STATES, repeat=2))
TRIPLES = list(itertools.product(STATES, repeat=3))


# ---------------------------------------------------------------------------
# Values and orders
# ---------------------------------------------------------------------------


def test_states_order_and_labels():
    assert STATES == (FourValue.FALSE, FourValue.TRUE,
                      FourValue.UNKNOWN, FourValue.CONFLICTED)
    assert [v.label for v in STATES] == ["false", "true", "unknown", "conflicted"]


def _expected_leq_truth(a, b):
    # false < unknown, conflicted < true; the middle two incomparable
    rank = {F: 0, U: 1, C: 1, T: 2}
    if a == b:
        return True
    if rank[a] == rank[b]:
        return False
    return rank[a] < rank[b]


def _expected_leq_info(a, b):
    rank = {U: 0, T: 1, F: 1, C: 2}
    if a == b:
        return True
    if rank[a] == rank[b]:
        return False
    return rank[a] < rank[b]


def test_orders_match_hand_derivation():
    for a, b in PAIRS:
        assert leq_truth(a, b) == _expected_leq_truth(a, b)
        assert leq_info(a, b) == _expected_leq_info(a, b)


def test_orders_are_partial_orders():
    for leq in (leq_truth, leq_info):
        for a in STATES:
            assert leq(a, a)
        for a, b in PAIRS:
            if leq(a, b) and leq(b, a):
                assert a == b
        for a, b, c in TRIPLES:
            if leq(a, b) and leq(b, c):
                assert leq(a, c)


# ---------------------------------------------------------------------------
# Operator tables
# ---------------------------------------------------------------------------


def _bound(leq, a, b, *, lower):
    if lower:
        candidates = [c for c in STATES if leq(c, a) and leq(c, b)]
        best = [c for c in candidates if all(leq(d, c) for d in candidates)]
    else:
        candidates = [c for c in STATES if leq(a, c) and leq(b, c)]
        best = [c for c in candidates if all(leq(c, d) for d in candidates)]
    assert len(best) == 1, (a, b)
    return best[0]


EXPECTED_TABLE = {
    FourOperator.TRUTH_MEET: lambda a, b: _bound(leq_truth, a, b, lower=True),
    FourOperator.TRUTH_JOIN: lambda a, b: _bound(leq_truth, a, b, lower=False),
    FourOperator.INFO_MEET: lambda a, b: _bound(leq_info, a, b, lower=True),
    FourOperator.INFO_JOIN: lambda a, b: _bound(leq_info, a, b, lower=False),
}


def test_tables_are_the_lattice_bounds():
    for op in OPS:
        for a, b in PAIRS:
            assert apply(op, a, b) == EXPECTED_TABLE[op](a, b), (op, a, b)


def test_spot_values():
    assert apply(FourOperator.INFO_JOIN, T, F) == C
    assert apply(FourOperator.INFO_MEET, T, F) == U
    assert apply(FourOperator.TRUTH_JOIN, U, C) == T
    assert apply(FourOperator.TRUTH_MEET, U, C) == F


def test_operator_families():
    assert set(MEET_OPERATORS) == {FourOperator.TRUTH_MEET, FourOperator.INFO_MEET}
    assert set(JOIN_OPERATORS) == {FourOperator.TRUTH_JOIN, FourOperator.INFO_JOIN}


@pytest.mark.parametrize("op", OPS)
def test_commutative_idempotent(op):
    for a, b in PAIRS:
        assert apply(op, a, b) == apply(op, b, a)
    for a in STATES:
        assert apply(op, a, a) == a


@pytest.mark.parametrize("op", OPS)
def test_associative(op):
    for a, b, c in TRIPLES:
        assert apply(op, apply(op, a, b), c) == apply(op, a, apply(op, b, c))


def test_identity_and_absorbing_elements():
    expected = {
        FourOperator.TRUTH_MEET: (T, F),
        FourOperator.TRUTH_JOIN: (F, T),
        FourOperator.INFO_MEET: (C, U),
        FourOperator.INFO_JOIN: (U, C),
    }
    for op, (ident, absorb) in expected.items():
        assert identity_of(op) == ident
        assert absorbing_of(op) == absorb
        for a in STATES:
            assert apply(op, ident, a) == a
            assert apply(op, absorb, a) == absorb


@pytest.mark.parametrize("op,leq", [
    (FourOperator.TRUTH_MEET, leq_truth),
    (FourOperator.TRUTH_JOIN, leq_truth),
    (FourOperator.INFO_MEET, leq_info),
    (FourOperator.INFO_JOIN, leq_info),
])
def test_monotone_in_own_order(op, leq):
    for a, a2, b in TRIPLES:
        if leq(a, a2):
            assert leq(apply(op, a, b), apply(op, a2, b))


def test_absorption_laws_within_each_lattice():
    for meet, join in ((FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN),
                       (FourOperator.INFO_MEET, FourOperator.INFO_JOIN)):
        for a, b in PAIRS:
            assert apply(meet, a, apply(join, a, b)) == a
            assert apply(join, a, apply(meet, a, b)) == a


def test_table_of_matches_apply():
    for op in OPS:
        tbl = table_of(op)
        assert len(tbl) == 16
        for a, b in PAIRS:
            assert tbl[(a, b)] == apply(op, a, b)


# ---------------------------------------------------------------------------
# Semirings
# ---------------------------------------------------------------------------


def _check_semiring_laws(s, a, b, c):
    assert s.add(a, b) == s.add(b, a)
    assert s.add(s.add(a, b), c) == s.add(a, s.add(b, c))
    assert s.add(s.zero, a) == a
    assert s.multiply(a, b) == s.multiply(b, a)
    assert s.multiply(s.multiply(a, b), c) == s.multiply(a, s.multiply(b, c))
    assert s.multiply(s.one, a) == a
    assert s.multiply(s.zero, a) == s.zero
    assert s.multiply(a, s.add(b, c)) == s.add(s.multiply(a, b), s.multiply(a, c))


@pytest.mark.parametrize("s", [FOUR_TRUTH, FOUR_INFO])
def test_four_semiring_laws_exhaustive(s):
    for a, b, c in TRIPLES:
        _check_semiring_laws(s, a, b, c)


def test_four_semiring_constants():
    assert (FOUR_TRUTH.zero, FOUR_TRUTH.one) == (F, T)
    assert (FOUR_INFO.zero, FOUR_INFO.one) == (U, C)


def test_boolean_semiring_laws_exhaustive():
    for a, b, c in itertools.product((False, True), repeat=3):
        _check_semiring_laws(BOOLEAN, a, b, c)


@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
def test_counting_semiring_laws_sampled(a, b, c):
    _check_semiring_laws(COUNTING, a, b, c)


def test_semiring_registry():
    assert set(SEMIRINGS) == {"four-truth", "four-info", "boolean", "counting"}
    for name, s in SEMIRINGS.items():
        assert s.name == name

