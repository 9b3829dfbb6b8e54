"""RDF-star style data model with four-valued annotations.

Terms are IRIs or quoted triples (no literals, no blank nodes); quoting
nests arbitrarily in subject and object position, never in predicate
position.  A graph is a *total* map from the infinite set of triples to
the four states, represented finitely as a default state plus a finite
exception table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .four import FourValue, STATES

DEFAULT_VOCAB_NAMESPACE = "https://esparql.dev/vocab#"
DEFAULT_BASE_IRI = "https://esparql.dev/data#"


# whitespace (exactly the characters str.isspace accepts) or an angle bracket
_BAD_IRI_CHAR = re.compile(r"[\s<>]").search


@dataclass(frozen=True)
class Iri:
    """An opaque IRI.  Non-empty, no whitespace, no angle brackets."""

    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("empty IRI")
        if _BAD_IRI_CHAR(self.text):
            raise ValueError(f"bad IRI text: {self.text!r}")

    def __repr__(self) -> str:
        return f"<{self.text}>"


@dataclass(frozen=True)
class Variable:
    """A query variable.  Distinct from any IRI, whatever the spelling."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("empty variable name")
        if any(c.isspace() for c in self.name) or "?" in self.name:
            raise ValueError(f"bad variable name: {self.name!r}")

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class StarTriple:
    """A ground triple; subject and object may themselves be quoted triples."""

    subject: "Term"
    predicate: Iri
    object: "Term"

    def __post_init__(self):
        for slot, val in (("subject", self.subject), ("object", self.object)):
            if not isinstance(val, (Iri, StarTriple)):
                raise TypeError(f"{slot} must be a term, got {type(val).__name__}")
        if not isinstance(self.predicate, Iri):
            raise TypeError("predicate must be an IRI")

    def __hash__(self) -> int:
        # cached: deep nesting makes the generated hash quadratic in practice
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.subject, self.predicate, self.object))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"<< {self.subject!r} {self.predicate!r} {self.object!r} >>"


Term = Union[Iri, StarTriple]


@dataclass(frozen=True)
class TriplePattern:
    """A triple with variables allowed anywhere, including inside quoting.

    The predicate may be a variable but never a quoted pattern.
    """

    subject: "TermPattern"
    predicate: Union[Iri, Variable]
    object: "TermPattern"

    def __post_init__(self):
        for slot, val in (("subject", self.subject), ("object", self.object)):
            if not isinstance(val, (Iri, Variable, TriplePattern)):
                raise TypeError(f"{slot} must be a term pattern, got {type(val).__name__}")
        if not isinstance(self.predicate, (Iri, Variable)):
            raise TypeError("predicate must be an IRI or a variable")

    def __repr__(self) -> str:
        return f"<< {self.subject!r} {self.predicate!r} {self.object!r} >>"


TermPattern = Union[Iri, Variable, TriplePattern]


def term_text(t: Term) -> str:
    """Canonical text form; doubles as the deterministic sort key for terms."""
    if isinstance(t, Iri):
        return f"<{t.text}>"
    return f"<< {term_text(t.subject)} {term_text(t.predicate)} {term_text(t.object)} >>"


def pattern_variables(p: TermPattern) -> frozenset[Variable]:
    if isinstance(p, Variable):
        return frozenset({p})
    if isinstance(p, Iri):
        return frozenset()
    return pattern_variables(p.subject) | pattern_variables(p.predicate) | pattern_variables(p.object)


def pattern_is_ground(p: TermPattern) -> bool:
    return not pattern_variables(p)


def pattern_to_term(p: TermPattern) -> Term:
    """Reinterpret a ground pattern as a term."""
    if isinstance(p, Iri):
        return p
    if isinstance(p, Variable):
        raise ValueError(f"pattern not ground: {p!r}")
    return StarTriple(pattern_to_term(p.subject), p.predicate, pattern_to_term(p.object))


def term_to_pattern(t: Term) -> TermPattern:
    if isinstance(t, Iri):
        return t
    return TriplePattern(term_to_pattern(t.subject), t.predicate, term_to_pattern(t.object))


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


class FourGraph:
    """Total annotation of all triples: a default state plus finite exceptions.

    Canonical form: no exception carries the default value.  Values are four
    states for the epistemic engine; the same container also serves generic
    semiring-annotated graphs, whose values live in the semiring's carrier.

    Invariant: ``exceptions`` is never mutated after construction (updates
    such as ``set_value`` return a new graph).  The structures derived from
    it, triples bucketed by subject and by predicate and the active domain
    with its sorted list, are built on first use and then cached on that
    invariant.
    """

    __slots__ = ("default", "exceptions", "_derived")

    def __init__(self, default, exceptions: dict[StarTriple, object] | None = None):
        self.default = default
        exc = {}
        if exceptions:
            for t, v in exceptions.items():
                if not isinstance(t, StarTriple):
                    raise TypeError(f"exception key must be a triple, got {t!r}")
                if v != default:
                    exc[t] = v
        self.exceptions = exc
        self._derived: dict = {}

    def lookup(self, t: StarTriple):
        return self.exceptions.get(t, self.default)

    def set_value(self, t: StarTriple, v) -> "FourGraph":
        """Functional update; keeps the representation canonical."""
        exc = dict(self.exceptions)
        if v == self.default:
            exc.pop(t, None)
        else:
            exc[t] = v
        return FourGraph(self.default, exc)

    def bucket(self, position: str, term: Term) -> Sequence[StarTriple]:
        """Exception triples whose ``position`` ('subject' or 'predicate')
        holds ``term``."""
        index = self._derived.get(position)
        if index is None:
            index = self._derived[position] = {}
            for t in self.exceptions:
                index.setdefault(getattr(t, position), []).append(t)
        return index.get(term, ())

    def domain(self) -> tuple[frozenset[Term], list[Term]]:
        """The active domain of the exceptions (see ``active_domain``) and
        the same terms sorted by ``term_text``."""
        hit = self._derived.get("domain")
        if hit is None:
            acc: set[Term] = set()
            for t in self.exceptions:
                _collect_term(t.subject, acc)
                _collect_term(t.predicate, acc)
                _collect_term(t.object, acc)
            hit = self._derived["domain"] = (frozenset(acc), sorted(acc, key=term_text))
        return hit

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourGraph):
            return NotImplemented
        return self.default == other.default and self.exceptions == other.exceptions

    __hash__ = None  # equal by content; memos key graphs by id

    def __repr__(self) -> str:
        rows = ", ".join(
            f"{term_text(t)}={v!r}"
            for t, v in sorted(self.exceptions.items(), key=lambda kv: term_text(kv[0]))
        )
        return f"FourGraph(default={self.default!r}, {{{rows}}})"


def _collect_term(t: Term, acc: set[Term]) -> None:
    if t in acc:
        return
    acc.add(t)
    if isinstance(t, StarTriple):
        _collect_term(t.subject, acc)
        _collect_term(t.predicate, acc)
        _collect_term(t.object, acc)


def active_domain(g: FourGraph, extra: Iterable[Term] = ()) -> frozenset[Term]:
    """Terms in play: every position of every exception triple, recursively,
    plus the given extra terms, closed under sub-triple extraction.

    The exception triples themselves enter only where they occur quoted.
    The graph's own part is cached on the graph; when every extra term is
    already in it, that cached set itself is returned.
    """
    base = g.domain()[0]
    missing = [t for t in extra if t not in base]
    if not missing:
        return base
    acc = set(base)
    for t in missing:
        _collect_term(t, acc)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# Belief vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeliefVocabulary:
    """The four belief predicates a graph uses to attribute states to holders."""

    to_be_true: Iri
    to_be_false: Iri
    to_be_unknown: Iri
    to_be_conflicted: Iri

    @classmethod
    def from_namespace(cls, namespace: str = DEFAULT_VOCAB_NAMESPACE) -> "BeliefVocabulary":
        return cls(
            to_be_true=Iri(namespace + "believesToBeTrue"),
            to_be_false=Iri(namespace + "believesToBeFalse"),
            to_be_unknown=Iri(namespace + "believesToBeUnknown"),
            to_be_conflicted=Iri(namespace + "believesToBeConflicted"),
        )

    def predicate_for(self, state: FourValue) -> Iri:
        table = self.__dict__.get("_by_state")
        if table is None:
            table = {
                FourValue.TRUE: self.to_be_true,
                FourValue.FALSE: self.to_be_false,
                FourValue.UNKNOWN: self.to_be_unknown,
                FourValue.CONFLICTED: self.to_be_conflicted,
            }
            object.__setattr__(self, "_by_state", table)
        return table[state]

    def state_for(self, predicate: Iri) -> FourValue | None:
        for state in STATES:
            if self.predicate_for(state) == predicate:
                return state
        return None

    def predicates(self) -> frozenset[Iri]:
        return frozenset(self.predicate_for(s) for s in STATES)


DEFAULT_VOCABULARY = BeliefVocabulary.from_namespace()
