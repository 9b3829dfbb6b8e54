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
from typing import Iterator, Union

from .errors import NonFiniteBeliefExtraction, NonIriHolder, UnboundBeliefVariable
from .four import CONFLICTED, FALSE, TRUE, UNKNOWN, FourOperator, FourValue, apply, identity_of
from .model import BeliefVocabulary, FourGraph, Iri, StarTriple, Term, Variable


def _cached_hash(node, fields: tuple) -> int:
    """hash(fields), stored on the node: memos key on expressions, whose
    generated hash would walk the whole tree on every lookup."""
    if "_hash" not in node.__dict__:
        object.__setattr__(node, "_hash", hash(fields))
    return node.__dict__["_hash"]


@dataclass(frozen=True)
class AtomicBelief:
    holder: Union[Iri, Variable]
    state: FourValue
    fallback: FourValue

    def __hash__(self) -> int:
        return _cached_hash(self, (self.holder, self.state, self.fallback))

    def __repr__(self) -> str:
        return f"[{self.holder!r}, {self.state!r}, {self.fallback!r}]"


@dataclass(frozen=True)
class CompoundBelief:
    left: "BeliefQuery"
    op: FourOperator
    right: "BeliefQuery"

    def __hash__(self) -> int:
        return _cached_hash(self, (self.left, self.op, self.right))

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


def atom_holders(e: BeliefQuery) -> Iterator[Union[Iri, Variable]]:
    """The holder of each atom of e, left to right."""
    if isinstance(e, AtomicBelief):
        yield e.holder
    else:
        yield from atom_holders(e.left)
        yield from atom_holders(e.right)


def belief_variables(e: BeliefQuery) -> frozenset[Variable]:
    return frozenset(h for h in atom_holders(e) if isinstance(h, Variable))


def holder_index(g: FourGraph,
                 vocab: BeliefVocabulary) -> dict[tuple[Iri, Iri], list[StarTriple]]:
    """(holder IRI, belief predicate) -> the quoted triples so believed, from
    the belief statements valued true or conflicted: only those count for
    extraction, so an IRI without entries extracts like any non-holder.
    Built once per graph and vocabulary, and cached on the graph."""
    def build() -> dict[tuple[Iri, Iri], list[StarTriple]]:
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
    return g.derived(("holders", vocab), build)


def extract(g: FourGraph, e: BeliefQuery, vocab: BeliefVocabulary,
            binding: dict[Variable, Term] | None = None) -> FourGraph:
    """Materialize a belief query against g as a graph of its own, looking
    atoms up in g's ``holder_index``; a variable holder is read from
    ``binding``.

    Raises UnboundBeliefVariable if the binding misses a holder variable
    and NonIriHolder if it binds one to a quoted triple; only IRIs hold
    beliefs.  Only the exception table is consulted: a belief triple
    sitting at the graph default would contribute exactly when the default
    is true or conflicted, and then *every* absent belief triple
    contributes, so no finite exception table can represent the
    extraction; that case raises NonFiniteBeliefExtraction.
    """
    if g.default in (TRUE, CONFLICTED):
        raise NonFiniteBeliefExtraction(
            f"graph default {g.default.label} asserts belief triples everywhere"
        )
    if isinstance(e, AtomicBelief):
        holder = e.holder
        if isinstance(holder, Variable):
            if binding is None or holder not in binding:
                raise UnboundBeliefVariable(f"belief variable {holder!r} is unbound")
            holder = binding[holder]
            if not isinstance(holder, Iri):
                raise NonIriHolder(f"belief variable {e.holder!r} bound to {holder!r}")
        believed = holder_index(g, vocab).get((holder, vocab.predicate_for(e.state)), ())
        return FourGraph(e.fallback, dict.fromkeys(believed, e.state))
    left = extract(g, e.left, vocab, binding)
    right = extract(g, e.right, vocab, binding)
    default = apply(e.op, left.default, right.default)
    merged: dict[StarTriple, FourValue] = {}
    for t in left.exceptions.keys() | right.exceptions.keys():
        merged[t] = apply(e.op, left.lookup(t), right.lookup(t))
    return FourGraph(default, merged)
