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
from typing import Callable, Iterator, Union

from .errors import NonFiniteBeliefExtraction, NonIriHolder, UnboundBeliefVariable
from .four import CONFLICTED, FALSE, TRUE, UNKNOWN, FourOperator, FourValue, apply, identity_of
from .model import BeliefVocabulary, FourGraph, Iri, StarTriple, Term, Variable, _nest


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

    def __post_init__(self):
        # the parser folds n holders log2(n) + 3 deep
        _nest(self, "belief query", (self.left, self.right))

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


def atoms(e: BeliefQuery) -> Iterator[AtomicBelief]:
    """The atoms of e, left to right."""
    if isinstance(e, AtomicBelief):
        yield e
    else:
        yield from atoms(e.left)
        yield from atoms(e.right)


def belief_variables(e: BeliefQuery) -> frozenset[Variable]:
    return frozenset(a.holder for a in atoms(e) if isinstance(a.holder, Variable))


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
    ``binding``.  Each triple some atom believes gets e's value at the set
    of atoms that believe it; every other triple gets e's value where none
    does, the default.

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
    return g.derived(("extraction", vocab, e), lambda: _extraction(g, e, vocab))(binding)


def _extraction(g: FourGraph, e: BeliefQuery,
                vocab: BeliefVocabulary) -> Callable[[dict | None], FourGraph]:
    """e's extraction from g as a function of the binding, cached on g by
    ``extract``.  The ground atoms are looked up here, once; a call looks
    up only the variable atoms, and makes one graph in one pass over the
    atoms' supports.  Atom i is bit i of a triple's set of believers."""
    index = holder_index(g, vocab)
    ground: dict[StarTriple, int] = {}
    variable: list[tuple[Variable, Iri, int]] = []
    for bit, atom in enumerate(atoms(e)):
        predicate = vocab.predicate_for(atom.state)
        if isinstance(atom.holder, Variable):
            variable.append((atom.holder, predicate, 1 << bit))
        else:
            for t in index.get((atom.holder, predicate), ()):
                ground[t] = ground.get(t, 0) | 1 << bit
    values: dict[int, FourValue] = {}

    def value(believers: int) -> FourValue:
        v = values.get(believers)
        if v is None:
            v = values[believers] = _value_at(e, believers, 0)[0]
        return v

    def at(binding: dict[Variable, Term] | None) -> FourGraph:
        believers = dict(ground)
        for var, predicate, bit in variable:
            if binding is None or var not in binding:
                raise UnboundBeliefVariable(f"belief variable {var!r} is unbound")
            holder = binding[var]
            if not isinstance(holder, Iri):
                raise NonIriHolder(f"belief variable {var!r} bound to {holder!r}")
            for t in index.get((holder, predicate), ()):
                believers[t] = believers.get(t, 0) | bit
        return FourGraph(value(0), {t: value(b) for t, b in believers.items()})

    return at


def _value_at(e: BeliefQuery, believers: int, bit: int) -> tuple[FourValue, int]:
    """e's value where exactly the atoms in ``believers`` believe, e's first
    atom being ``bit``; and the bit after e's last atom."""
    if isinstance(e, AtomicBelief):
        return (e.state if believers >> bit & 1 else e.fallback), bit + 1
    left, bit = _value_at(e.left, believers, bit)
    right, bit = _value_at(e.right, believers, bit)
    return apply(e.op, left, right), bit
