"""Belnap's four-valued logic as a bilattice, plus the semirings built on it.

The carrier has four epistemic states -- ``false``, ``true``, ``unknown``
and ``conflicted`` -- ordered two ways at once:

* the *truth order* ranks states from falsehood towards truth: ``false``
  below both ``unknown`` and ``conflicted``, which sit incomparably below
  ``true``;
* the *information order* ranks them from ignorance towards
  over-determination: ``unknown`` below both ``false`` and ``true``,
  which sit incomparably below ``conflicted``.

Each order is a lattice, so each carries a meet and a join: four binary
operators in total (truth meet/join, information meet/join).  All four are
commutative, associative and idempotent; each has an identity and an
absorbing element; and the two (join, meet) pairs form commutative
semirings, exposed below next to the Boolean and counting semirings used
to cross-check generic annotated evaluation.

The 4x4 operator tables are not written out by hand.  They are derived
once, at import time, from the generating inequalities of the two orders
(reflexive-transitive closure, then least-upper/greatest-lower bound
computation) and frozen; the law tests can therefore check them against
independently stated expectations without circularity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable


class FourValue(enum.Enum):
    """One of the four epistemic states.

    The enum value doubles as the canonical lowercase spelling used in
    graph files, query text and serialized output.
    """

    FALSE = "false"
    TRUE = "true"
    UNKNOWN = "unknown"
    CONFLICTED = "conflicted"

    @property
    def label(self) -> str:
        return self.value

    def __repr__(self) -> str:  # keeps test diffs readable
        return self.value

    # members are singletons compared by identity; Enum's own __hash__
    # hashes the name in Python on every table lookup
    __hash__ = object.__hash__


FALSE = FourValue.FALSE
TRUE = FourValue.TRUE
UNKNOWN = FourValue.UNKNOWN
CONFLICTED = FourValue.CONFLICTED

STATES: tuple[FourValue, ...] = (FALSE, TRUE, UNKNOWN, CONFLICTED)


class FourOperator(enum.Enum):
    TRUTH_MEET = "truth-meet"
    TRUTH_JOIN = "truth-join"
    INFO_MEET = "info-meet"
    INFO_JOIN = "info-join"

    def __repr__(self) -> str:
        return self.value

    __hash__ = object.__hash__


TRUTH_MEET = FourOperator.TRUTH_MEET
TRUTH_JOIN = FourOperator.TRUTH_JOIN
INFO_MEET = FourOperator.INFO_MEET
INFO_JOIN = FourOperator.INFO_JOIN

MEET_OPERATORS = (TRUTH_MEET, INFO_MEET)
JOIN_OPERATORS = (TRUTH_JOIN, INFO_JOIN)


# ---------------------------------------------------------------------------
# Order and table derivation
# ---------------------------------------------------------------------------

# Generating inequalities, written (lower, upper).
_TRUTH_GENERATORS = (
    (FALSE, UNKNOWN),
    (FALSE, CONFLICTED),
    (UNKNOWN, TRUE),
    (CONFLICTED, TRUE),
)
_INFO_GENERATORS = (
    (UNKNOWN, FALSE),
    (UNKNOWN, TRUE),
    (FALSE, CONFLICTED),
    (TRUE, CONFLICTED),
)


def _order_closure(generators) -> frozenset[tuple[FourValue, FourValue]]:
    """Reflexive-transitive closure of the generating pairs."""
    rel = {(v, v) for v in STATES} | set(generators)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


_TRUTH_LEQ = _order_closure(_TRUTH_GENERATORS)
_INFO_LEQ = _order_closure(_INFO_GENERATORS)


def leq_truth(a: FourValue, b: FourValue) -> bool:
    """a is at most b in the truth order."""
    return (a, b) in _TRUTH_LEQ


def leq_info(a: FourValue, b: FourValue) -> bool:
    """a is at most b in the information order."""
    return (a, b) in _INFO_LEQ


def _bound_table(leq, *, kind: str) -> dict[tuple[FourValue, FourValue], FourValue]:
    """Meet ('glb') or join ('lub') table for a finite order.

    Fails loudly if any pair lacks a unique bound, i.e. if the generators
    do not actually describe a lattice.
    """
    table = {}
    for a in STATES:
        for b in STATES:
            if kind == "glb":
                candidates = [c for c in STATES if leq(c, a) and leq(c, b)]
                best = [m for m in candidates if all(leq(c, m) for c in candidates)]
            else:
                candidates = [c for c in STATES if leq(a, c) and leq(b, c)]
                best = [m for m in candidates if all(leq(m, c) for c in candidates)]
            if len(best) != 1:
                raise AssertionError(f"no unique {kind} for {a}, {b}")
            table[(a, b)] = best[0]
    return table


_TABLES: dict[FourOperator, dict[tuple[FourValue, FourValue], FourValue]] = {
    TRUTH_MEET: _bound_table(leq_truth, kind="glb"),
    TRUTH_JOIN: _bound_table(leq_truth, kind="lub"),
    INFO_MEET: _bound_table(leq_info, kind="glb"),
    INFO_JOIN: _bound_table(leq_info, kind="lub"),
}


def apply(op: FourOperator, a: FourValue, b: FourValue) -> FourValue:
    """Apply one of the four lattice operators."""
    return _TABLES[op][(a, b)]


def table_of(op: FourOperator) -> dict[tuple[FourValue, FourValue], FourValue]:
    """The operator's full 4x4 table, for callers in tight loops."""
    return _TABLES[op]


def _find_identity(op: FourOperator) -> FourValue:
    table = _TABLES[op]
    hits = [e for e in STATES if all(table[(e, a)] == a for a in STATES)]
    if len(hits) != 1:
        raise AssertionError(f"identity of {op} not unique: {hits}")
    return hits[0]


def _find_absorbing(op: FourOperator) -> FourValue:
    table = _TABLES[op]
    hits = [z for z in STATES if all(table[(z, a)] == z for a in STATES)]
    if len(hits) != 1:
        raise AssertionError(f"absorbing element of {op} not unique: {hits}")
    return hits[0]


_IDENTITY = {op: _find_identity(op) for op in FourOperator}
_ABSORBING = {op: _find_absorbing(op) for op in FourOperator}


def identity_of(op: FourOperator) -> FourValue:
    return _IDENTITY[op]


def absorbing_of(op: FourOperator) -> FourValue:
    return _ABSORBING[op]


# ---------------------------------------------------------------------------
# Semirings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring (add, multiply, zero, one) over some carrier.

    zero is the identity of add and absorbs under multiply; one is the
    identity of multiply.  Nothing else is assumed; in particular add need
    not be idempotent (the counting semiring's is not).
    """

    name: str
    add: Callable[[Any, Any], Any]
    multiply: Callable[[Any, Any], Any]
    zero: Any
    one: Any

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


FOUR_TRUTH = Semiring(
    name="four-truth",
    add=lambda a, b: apply(TRUTH_JOIN, a, b),
    multiply=lambda a, b: apply(TRUTH_MEET, a, b),
    zero=identity_of(TRUTH_JOIN),
    one=identity_of(TRUTH_MEET),
)

FOUR_INFO = Semiring(
    name="four-info",
    add=lambda a, b: apply(INFO_JOIN, a, b),
    multiply=lambda a, b: apply(INFO_MEET, a, b),
    zero=identity_of(INFO_JOIN),
    one=identity_of(INFO_MEET),
)

BOOLEAN = Semiring(
    name="boolean",
    add=lambda a, b: a or b,
    multiply=lambda a, b: a and b,
    zero=False,
    one=True,
)

COUNTING = Semiring(
    name="counting",
    add=lambda a, b: a + b,
    multiply=lambda a, b: a * b,
    zero=0,
    one=1,
)

SEMIRINGS: dict[str, Semiring] = {
    s.name: s for s in (FOUR_TRUTH, FOUR_INFO, BOOLEAN, COUNTING)
}
