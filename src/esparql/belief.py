"""Belief queries: ask what a holder takes each triple's state to be.

An atomic belief query names a holder, a probed state and a fallback
state.  Extraction gives every triple a state: each triple the holder is
recorded as believing-to-be-in the probed state (via the corresponding
belief predicate, asserted true or conflicted) gets the probed state;
every other triple gets the fallback.  Compound queries combine
extractions pointwise with a lattice operator.  ``extract`` returns an
extraction as a graph; the engine reads the extraction under a key of
holders as its difference from the one in which no variable holder has
stances, and an extraction from a graph that differs from another on a
few triples as its difference from the other's (``Extraction``).
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Union

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


def is_statement(t: StarTriple, predicates: frozenset[Iri]) -> bool:
    """Whether t could be a belief statement: an IRI subject, a belief
    predicate and a quoted object.  Only these count for extraction, and
    only when valued true or conflicted."""
    return t.predicate in predicates and isinstance(t.subject, Iri) \
        and isinstance(t.object, StarTriple)


def _restated(index: dict, triples: dict, was, predicates: frozenset[Iri]) -> dict:
    """The lists of ``index`` (keyed by holder and belief predicate) that
    setting ``triples`` to their values from ``was(t)`` changes, with their
    new contents: a belief statement changes them when it starts or stops
    counting as a stance.  The one test of which holders an update
    touches."""
    changed: dict = {}
    for t, v in triples.items():
        if is_statement(t, predicates) and \
                (v in (TRUE, CONFLICTED)) != (was(t) in (TRUE, CONFLICTED)):
            key = t.subject, t.predicate
            if key not in changed:
                changed[key] = list(index.get(key, ()))
            if v in (TRUE, CONFLICTED):
                changed[key].append(t.object)
            else:
                changed[key].remove(t.object)
    return changed


def _carry_index(vocab: BeliefVocabulary, index: dict, child: FourGraph,
                 t: StarTriple, old, new) -> dict:
    """The ``carry`` of ``holder_index``: the same index when t's stance
    does not change, else a copy with its list patched."""
    changed = _restated(index, {t: new}, {t: old}.get, vocab.predicates())
    if not changed:
        return index
    out = {**index, **changed}
    for key, items in changed.items():
        if not items:
            del out[key]
    return out


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
            if is_statement(key, predicates) and value in (TRUE, CONFLICTED):
                index.setdefault((key.subject, key.predicate), []).append(key.object)
        return index
    return g.derived(("holders", vocab), build, partial(_carry_index, vocab))


def extract(g: FourGraph, e: BeliefQuery, vocab: BeliefVocabulary,
            binding: dict[Variable, Term] | None = None) -> FourGraph:
    """Materialize a belief query against g as a graph of its own, looking
    atoms up in g's ``holder_index``; a variable holder is read from
    ``binding``.  Each triple some atom believes gets e's value at the set
    of atoms that believe it; every other triple gets e's value where none
    does, the default.  The engine reads the same extraction through
    ``extraction``, mostly as differences from one graph.

    Raises UnboundBeliefVariable if the binding misses a holder variable
    and NonIriHolder if it binds one to a quoted triple, checking the
    variables in the order of their first atom; only IRIs hold beliefs.
    Only the exception table is consulted: a belief triple sitting at the
    graph default would contribute exactly when the default is true or
    conflicted, and then *every* absent belief triple contributes, so no
    finite exception table can represent the extraction; that case raises
    NonFiniteBeliefExtraction.
    """
    ext, binding = extraction(g, e, vocab), binding or {}
    for var in (a.holder for a in atoms(e) if isinstance(a.holder, Variable)):
        if var not in binding:
            raise UnboundBeliefVariable(f"belief variable {var!r} is unbound")
        if not isinstance(binding[var], Iri):
            raise NonIriHolder(f"belief variable {var!r} bound to {binding[var]!r}")
    key = tuple(map(binding.__getitem__, ext._variables))
    return FourGraph(ext.default, {**ext.fresh, **ext.delta(key)})


def extraction(g: FourGraph, e: BeliefQuery, vocab: BeliefVocabulary) -> "Extraction":
    """e's extraction from g as a function of the binding, built once per
    graph, vocabulary and expression and cached on g; see ``extract``."""
    if g.default in (TRUE, CONFLICTED):
        raise NonFiniteBeliefExtraction(
            f"graph default {g.default.label} asserts belief triples everywhere"
        )
    return g.derived(("extraction", vocab, e), lambda: Extraction(g, e, vocab), Extraction.carry)


def _compiled(e: BeliefQuery, vocab: BeliefVocabulary) -> tuple[list, dict, dict]:
    """e's ground atoms as (holder, belief predicate, bit); each holder
    variable's atoms as (predicate, bit), variables by name, a holder
    key's order; and the memo of e's values by set of believers that
    ``Extraction._value`` fills: made once per expression object and
    vocabulary and kept on e, as ``_cached_hash`` keeps e's hash, since
    ``after`` reads it once per outer holder key of a nested Belief."""
    made = e.__dict__.setdefault("_compiled", {})
    if vocab not in made:
        ground, variables = [], {}
        for bit, atom in enumerate(atoms(e)):
            predicate = vocab.predicate_for(atom.state)
            if isinstance(atom.holder, Variable):
                variables.setdefault(atom.holder, []).append((predicate, 1 << bit))
            else:
                ground.append((atom.holder, predicate, 1 << bit))
        made[vocab] = ground, dict(sorted(variables.items(), key=lambda kv: kv[0].name)), {}
    return made[vocab]


class Extraction:
    """e's extraction from g under any binding of its holder variables.

    It holds only what every key shares.  The ground atoms are looked up
    once, here.  ``fresh`` holds the values of the triples they believe:
    the extraction in which no variable holder has stances.  A key of
    holders, one per holder variable in name order with None for an IRI
    without stances, changes only the triples its holders have stances
    on, which ``delta`` lists.  Atom i is bit i of a triple's set of
    believers.  ``after`` gives the extraction from g
    changed on some triples, without a graph, and ``carry`` the extraction
    from a graph ``set_value`` made from g: this one, or one read again.
    """

    __slots__ = ("default", "fresh", "moved", "_index", "_predicates", "_ground",
                 "_variables", "_values", "_e", "_vocab", "_statement")

    def __init__(self, g: FourGraph, e: BeliefQuery, vocab: BeliefVocabulary):
        self._read(holder_index(g, vocab), e, vocab)
        self._statement = g.exceptions.get  # a belief statement's value, for ``after``
        self.moved: list[StarTriple] = []

    def _read(self, index, e: BeliefQuery, vocab: BeliefVocabulary) -> None:
        self._index = index
        self._predicates = vocab.predicates()
        self._ground = ground = {}
        read, self._variables, self._values = _compiled(e, vocab)
        for holder, predicate, bit in read:
            for t in index.get((holder, predicate), ()):
                ground[t] = ground.get(t, 0) | bit
        self._e, self._vocab = e, vocab
        self.default = self._value(0)
        self.fresh = {t: self._value(b) for t, b in ground.items()}

    def _value(self, believers: int) -> FourValue:
        v = self._values.get(believers)
        if v is None:
            v = self._values[believers] = _value_at(self._e, believers, 0)[0]
        return v

    def after(self, triples: dict[StarTriple, FourValue]) -> tuple["Extraction", set[Iri]]:
        """The extraction from g with ``triples`` set to their values, and
        the holders whose stances that changes.  Only the belief statements
        among the triples reach it, so no graph is built, and without one
        this extraction itself is returned.  The new extraction's ``delta``
        lists the triples whose believers differ from those in g's
        extraction where no variable holder has stances: ``moved`` holds
        the ground atoms' ones."""
        changed = _restated(self._index, triples, self._statement, self._predicates)
        if not changed:
            return self, set()
        out = Extraction.__new__(Extraction)
        out._read(ChainMap(changed, self._index), self._e, self._vocab)
        out._statement = None
        ground, now = self._ground, out._ground
        out.moved = [t for t in ground.keys() | now.keys() if ground.get(t) != now.get(t)]
        return out, {holder for holder, _ in changed}

    def carry(self, child: FourGraph, t: StarTriple, old, new) -> "Extraction":
        """The extraction from ``child``, g with t set from ``old`` to
        ``new`` (``FourGraph.derived``'s carry): this one when child's
        ``holder_index``, carried before it, is this one's, so no stance
        changed; else child's, read again."""
        if holder_index(child, self._vocab) is self._index:
            return self
        return Extraction(child, self._e, self._vocab)

    def same_ground(self, other: "Extraction") -> bool:
        """Whether the ground atoms believe the same triples here as in
        ``other``: then every key's ``delta`` differs between the two only
        on the triples its holders' stances changed."""
        return self._ground == other._ground

    def believed(self, holder: Iri) -> Iterator[StarTriple]:
        """The triples ``holder`` has a stance on, under any belief predicate."""
        for predicate in self._predicates:
            yield from self._index.get((holder, predicate), ())

    def delta(self, key: tuple[Iri | None, ...]) -> dict[StarTriple, FourValue]:
        """The triples whose set of believers under the holders of ``key``
        differs from the one in which no variable holder has stances, with
        their values (the default included).  Made on each call: a
        ``FROM BELIEF`` base keeps what it needs of each key's."""
        believers: dict[StarTriple, int] = dict.fromkeys(self.moved, 0)
        for atoms_of, holder in zip(self._variables.values(), key):
            for predicate, bit in atoms_of:
                for t in self._index.get((holder, predicate), ()):
                    believers[t] = believers.get(t, 0) | bit
        ground, value = self._ground, self._value
        return {t: value(ground.get(t, 0) | b) for t, b in believers.items()}


def _value_at(e: BeliefQuery, believers: int, bit: int) -> tuple[FourValue, int]:
    """e's value where exactly the atoms in ``believers`` believe, e's first
    atom being ``bit``; and the bit after e's last atom."""
    if isinstance(e, AtomicBelief):
        return (e.state if believers >> bit & 1 else e.fallback), bit + 1
    left, bit = _value_at(e.left, believers, bit)
    right, bit = _value_at(e.right, believers, bit)
    return apply(e.op, left, right), bit
