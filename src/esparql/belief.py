"""Belief queries: ask what a holder takes each triple's state to be.

An atomic belief query names a holder, a probed state and a fallback
state.  Extraction turns it into a whole new graph: each triple the
holder is recorded as believing-to-be-in the probed state (via the
corresponding belief predicate, asserted true or conflicted) gets the
probed state; every other triple gets the fallback.  Compound queries
combine extractions pointwise with a lattice operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import NonFiniteBeliefExtraction, NonIriHolder, UnboundBeliefVariable
from .four import CONFLICTED, FALSE, TRUE, UNKNOWN, FourOperator, FourValue, apply, identity_of
from .model import BeliefVocabulary, FourGraph, Iri, StarTriple, Term, Variable


@dataclass(frozen=True)
class AtomicBelief:
    holder: Union[Iri, Variable]
    state: FourValue
    fallback: FourValue

    def __repr__(self) -> str:
        return f"[{self.holder!r}, {self.state!r}, {self.fallback!r}]"


@dataclass(frozen=True)
class CompoundBelief:
    left: "BeliefQuery"
    op: FourOperator
    right: "BeliefQuery"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


BeliefQuery = Union[AtomicBelief, CompoundBelief]

# Probe order used by the all-states shorthand.
_SHORTHAND_STATES = (TRUE, FALSE, UNKNOWN, CONFLICTED)


def all_states_shorthand(holder: Union[Iri, Variable], op: FourOperator) -> BeliefQuery:
    """The full picture of one holder: probe all four states, fall back to
    the operator's identity, combine left-associated with the operator."""
    fallback = identity_of(op)
    query: BeliefQuery = AtomicBelief(holder, _SHORTHAND_STATES[0], fallback)
    for state in _SHORTHAND_STATES[1:]:
        query = CompoundBelief(query, op, AtomicBelief(holder, state, fallback))
    return query


def belief_variables(e: BeliefQuery) -> frozenset[Variable]:
    if isinstance(e, AtomicBelief):
        return frozenset({e.holder}) if isinstance(e.holder, Variable) else frozenset()
    return belief_variables(e.left) | belief_variables(e.right)


def is_ground(e: BeliefQuery) -> bool:
    return not belief_variables(e)


def instantiate(e: BeliefQuery, binding: dict[Variable, Term]) -> BeliefQuery:
    """Bind every holder variable to an IRI.

    Raises UnboundBeliefVariable if the binding misses a variable and
    NonIriHolder if it supplies a quoted triple; only IRIs hold beliefs.
    """
    if isinstance(e, AtomicBelief):
        if isinstance(e.holder, Variable):
            if e.holder not in binding:
                raise UnboundBeliefVariable(f"belief variable {e.holder!r} is unbound")
            bound = binding[e.holder]
            if not isinstance(bound, Iri):
                raise NonIriHolder(f"belief variable {e.holder!r} bound to {bound!r}")
            return AtomicBelief(bound, e.state, e.fallback)
        return e
    return CompoundBelief(instantiate(e.left, binding), e.op, instantiate(e.right, binding))


def holder_index(g: FourGraph,
                 vocab: BeliefVocabulary) -> dict[tuple[Iri, Iri], list[StarTriple]]:
    """(holder IRI, belief predicate) -> the quoted triples so believed, from
    the belief statements valued true or conflicted: only those count for
    extraction, so an IRI without entries extracts like any non-holder."""
    predicates = vocab.predicates()
    index: dict[tuple[Iri, Iri], list[StarTriple]] = {}
    for key, value in g.exceptions.items():
        if (
            key.predicate in predicates
            and isinstance(key.subject, Iri)
            and isinstance(key.object, StarTriple)
            and value in (TRUE, CONFLICTED)
        ):
            index.setdefault((key.subject, key.predicate), []).append(key.object)
    return index


def extract(g: FourGraph, e: BeliefQuery, vocab: BeliefVocabulary,
            index: dict[tuple[Iri, Iri], list[StarTriple]] | None = None) -> FourGraph:
    """Materialize a ground belief query against g as a graph of its own,
    looking atoms up in g's ``holder_index`` (built here when not given).

    Only the exception table is consulted: a belief triple sitting at the
    graph default would contribute exactly when the default is true or
    conflicted, and then *every* absent belief triple contributes, so no
    finite exception table can represent the extraction; that case raises
    NonFiniteBeliefExtraction.
    """
    if g.default in (TRUE, CONFLICTED):
        raise NonFiniteBeliefExtraction(
            f"graph default {g.default.label} asserts belief triples everywhere"
        )
    if isinstance(e, AtomicBelief) and isinstance(e.holder, Variable):
        raise UnboundBeliefVariable(f"cannot extract with free holder {e.holder!r}")
    if index is None:
        index = holder_index(g, vocab)
    if isinstance(e, AtomicBelief):
        believed = index.get((e.holder, vocab.predicate_for(e.state)), ())
        return FourGraph(e.fallback, dict.fromkeys(believed, e.state))
    left = extract(g, e.left, vocab, index)
    right = extract(g, e.right, vocab, index)
    default = apply(e.op, left.default, right.default)
    merged: dict[StarTriple, FourValue] = {}
    for t in left.exceptions.keys() | right.exceptions.keys():
        merged[t] = apply(e.op, left.lookup(t), right.lookup(t))
    return FourGraph(default, merged)
