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
from functools import partial
from typing import Any, Callable, Hashable, Iterable, Union

from .errors import IllFormedQuery
from .four import FourValue, STATES

DEFAULT_VOCAB_NAMESPACE = "https://esparql.dev/vocab#"
DEFAULT_BASE_IRI = "https://esparql.dev/data#"


# whitespace (exactly the characters str.isspace accepts) or an angle bracket
_BAD_IRI_CHAR = re.compile(r"[\s<>]").search


class _Term:
    """Immutable once built: constructors set the slots past ``__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, slot) for slot in self.__slots__)


# One IRI or variable per spelling, kept for the life of the process, so equality is identity
# and hashing is object's, both in C.  Triples are not interned (see README, cost model).
_IRIS: dict[str, "Iri"] = {}
_VARIABLES: dict[str, "Variable"] = {}


class Iri(_Term):
    """An opaque IRI.  Non-empty, no whitespace, no angle brackets."""

    __slots__ = ("text",)

    def __new__(cls, text: str):
        if text.__class__ is str and (hit := _IRIS.get(text)) is not None:
            return hit
        if not text:
            raise ValueError("empty IRI")
        if _BAD_IRI_CHAR(text):
            raise ValueError(f"bad IRI text: {text!r}")
        object.__setattr__(hit := object.__new__(cls), "text", text)
        return _IRIS.setdefault(text, hit)

    def __repr__(self) -> str:
        return f"<{self.text}>"


class Variable(_Term):
    """A query variable.  Distinct from any IRI, whatever the spelling."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if name.__class__ is str and (hit := _VARIABLES.get(name)) is not None:
            return hit
        if not name:
            raise ValueError("empty variable name")
        if any(c.isspace() for c in name) or "?" in name:
            raise ValueError(f"bad variable name: {name!r}")
        object.__setattr__(hit := object.__new__(cls), "name", name)
        return _VARIABLES.setdefault(name, hit)

    def __repr__(self) -> str:
        return f"?{self.name}"


class StarTriple(_Term):
    """A ground triple; subject and object may themselves be quoted triples."""

    __slots__ = ("_hash", "subject", "predicate", "object")

    def __init__(self, subject: "Term", predicate: Iri, object: "Term"):
        if subject.__class__ not in _TERMS and not isinstance(subject, _TERMS):
            raise TypeError(f"subject must be a term, got {type(subject).__name__}")
        if object.__class__ not in _TERMS and not isinstance(object, _TERMS):
            raise TypeError(f"object must be a term, got {type(object).__name__}")
        if predicate.__class__ is not Iri and not isinstance(predicate, Iri):
            raise TypeError("predicate must be an IRI")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)
        _set_hash(self, hash((subject, predicate, object)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.subject is other.subject and self.object is other.object:
            return self.predicate is other.predicate
        # IRIs are interned, so only quoted parts are looked into; they wait
        # on a stack, so deep quoting cannot overflow it
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is not b:
                if not a.__class__ is StarTriple is b.__class__ or a._hash != b._hash \
                        or a.predicate is not b.predicate:
                    return False
                todo += (a.subject, b.subject), (a.object, b.object)
        return True

    def __repr__(self) -> str:
        return term_text(self)

    def __reduce__(self):
        """A flat form, so deep quoting pickles and copies without recursion:
        the IRIs in post-order, each triple's class after its three parts."""
        flat, todo = [], [self]
        while todo:
            t = todo.pop()
            if isinstance(t, StarTriple):
                todo += (t.__class__, t.object, t.predicate, t.subject)
            else:
                flat.append(t)
        return _unflatten, (tuple(flat),)


def _unflatten(flat: tuple) -> "StarTriple":
    stack: list = []
    for x in flat:
        if isinstance(x, type):
            o, p, s = stack.pop(), stack.pop(), stack.pop()
            x = x(s, p, o)
        stack.append(x)
    return stack[0]


_TERMS = (Iri, StarTriple)
_set_hash, _set_subject, _set_predicate, _set_object = (
    getattr(StarTriple, slot).__set__ for slot in StarTriple.__slots__)

Term = Union[Iri, StarTriple]

# The one bound on nesting, each construct counted on its own: quoting, filter formulas
# and compound beliefs where they are built (``_nest``), and the parser's quoting,
# conditions, SELECTs and groups.  Walks over these recurse, so deeper input is refused.
DEPTH_LIMIT = 128


def _nest(node, what: str, parts: tuple) -> None:
    """Record on the frozen node one level more than its deepest part (a
    part without a record counts 0), refusing it past the limit."""
    depth = 1 + max(getattr(p, "_depth", 0) for p in parts)
    if depth > DEPTH_LIMIT:
        raise IllFormedQuery(f"{what} nested deeper than {DEPTH_LIMIT} levels")
    object.__setattr__(node, "_depth", depth)


def _cached_hash(node, fields: tuple) -> int:
    """hash(fields), stored on the frozen node: memos key on patterns and
    expressions, whose generated hash would walk the whole tree on every
    lookup."""
    if "_hash" not in node.__dict__:
        object.__setattr__(node, "_hash", hash(fields))
    return node.__dict__["_hash"]


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
        if isinstance(self.subject, TriplePattern) or isinstance(self.object, TriplePattern):
            _nest(self, "quoting", (self.subject, self.object))
        object.__setattr__(self, "_vars", pattern_variables(self.subject)  # see pattern_variables
                           | pattern_variables(self.predicate) | pattern_variables(self.object))

    def __hash__(self) -> int:  # one frame once the hash is kept
        h = self.__dict__.get("_hash")
        return _cached_hash(self, (self.subject, self.predicate, self.object)) if h is None else h

    def __repr__(self) -> str:
        return f"<< {self.subject!r} {self.predicate!r} {self.object!r} >>"


TermPattern = Union[Iri, Variable, TriplePattern]


def term_text(t: Term) -> str:
    """Canonical text form; doubles as the deterministic sort key for terms.
    Quoted parts wait on a stack, so deep quoting cannot overflow the
    interpreter's; an IRI, and a triple of IRIs, is formatted at once."""
    if t.__class__ is Iri:
        return f"<{t.text}>"
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if t.__class__ is str:
            out.append(t)
        elif isinstance(t, Iri):
            out.append(f"<{t.text}>")
        elif t.subject.__class__ is Iri and t.object.__class__ is Iri:
            out.append(f"<< <{t.subject.text}> <{t.predicate.text}> <{t.object.text}> >>")
        else:
            todo += (" >>", t.object, f" <{t.predicate.text}> ", t.subject, "<< ")
    return "".join(out)


def pattern_variables(p: TermPattern) -> frozenset[Variable]:
    """p's variables; a triple pattern's are recorded when it is built."""
    if isinstance(p, Variable):
        return frozenset({p})
    if isinstance(p, Iri):
        return frozenset()
    return p._vars


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
    it are built on first use and then cached on that invariant by
    ``derived``, for the life of the graph: triples bucketed by subject,
    predicate and object; the active domain; per vocabulary the belief
    holder index and each belief expression's extraction; the evaluation
    of each ``FROM BELIEF`` node run over the graph, by vocabulary,
    universe and the node's value; and the answer of each query evaluated
    over it, by vocabulary, mode and the query's value, with its run once
    an update reaches it.
    ``set_value`` hands each structure the graph has built to the child,
    patched for the one changed triple or left to catch up with it on
    first use; a structure that cannot be carried is built again on
    first use.
    """

    __slots__ = ("default", "exceptions", "_derived", "_carries")

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
        self._carries: dict = {}

    def lookup(self, t: StarTriple):
        return self.exceptions.get(t, self.default)

    def set_value(self, t: StarTriple, v) -> "FourGraph":
        """Functional update; keeps the representation canonical.  The new
        graph gets each structure this one has built through its ``carry``
        (see ``derived``), and holds no reference to this graph; an update
        that changes nothing returns this graph."""
        if not isinstance(t, StarTriple):
            raise TypeError(f"exception key must be a triple, got {t!r}")
        old = self.exceptions.get(t, self.default)
        if v == old:
            return self
        child = FourGraph.__new__(FourGraph)
        child.default, child.exceptions = self.default, dict(self.exceptions)
        if v == self.default:
            del child.exceptions[t]
        else:
            child.exceptions[t] = v
        child._derived, child._carries = {}, {}
        # in the order built, so a structure is carried after those it reads
        for key, structure in self._derived.items():
            carry = self._carries[key]
            if (made := carry(structure, child, t, old, v)) is not None:
                child._derived[key], child._carries[key] = made, carry
        return child

    def derived(self, key: Hashable, build: Callable[[], Any],
                carry: Callable[..., Any]) -> Any:
        """The structure cached under ``key``, made by ``build`` from the
        exceptions on first use.  ``carry(structure, child, t, old, new)``
        gives the structure of ``child``, this graph with triple ``t`` set
        from ``old`` to ``new``, or None to build it there on first use;
        ``set_value`` calls it at once, so it must not hold this graph."""
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = build()
            self._carries[key] = carry
        return hit

    def bucket(self, position: str, term: Term) -> dict[StarTriple, Any]:
        """The exceptions whose ``position`` ('subject', 'predicate' or
        'object') holds ``term``, as the exceptions map them: triple to
        value.  Read only."""
        def build() -> dict[Term, dict[StarTriple, Any]]:
            index: dict[Term, dict[StarTriple, Any]] = {}
            for t, v in self.exceptions.items():
                index.setdefault(getattr(t, position), {})[t] = v
            return index
        return self.derived(position, build, _BUCKET_CARRIES[position]).get(term, {})

    def domain(self) -> frozenset[Term]:
        """The active domain of the exceptions (see ``active_domain``)."""
        def build() -> frozenset[Term]:
            acc: set[Term] = set()
            for t in self.exceptions:
                _collect_term(t.subject, acc)
                _collect_term(t.predicate, acc)
                _collect_term(t.object, acc)
            return frozenset(acc)
        return self.derived("domain", build, _carry_domain)

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


REMOVED = object()  # not None, which a graph may hold as a value


def patched(index: dict, edits: dict) -> dict:
    """``index``, a dict of dicts, with ``edits`` (outer key -> {inner key:
    new value, or ``REMOVED`` to take it out}) made in a copy that shares
    every inner dict not edited and drops one left empty; ``index``
    itself without edits."""
    out = dict(index) if edits else index
    for key, changes in edits.items():
        inner = out[key] = {**out.get(key, {}), **changes}
        for k in [k for k, v in changes.items() if v is REMOVED]:
            del inner[k]
        if not inner:
            del out[key]
    return out


def _carry_bucket(position: str, index: dict, child: FourGraph, t: StarTriple, old, new) -> dict:
    """The bucket index with t set to ``new``, removed at the default."""
    return patched(index, {getattr(t, position): {t: REMOVED if new == child.default else new}})


_BUCKET_CARRIES = {position: partial(_carry_bucket, position)
                   for position in ("subject", "predicate", "object")}


def _carry_domain(domain: frozenset, child: FourGraph, t: StarTriple, old, new) -> frozenset | None:
    """The same domain while t stays an exception, widened by t's terms
    when it is added; unknown when t is removed, since its terms may occur
    elsewhere."""
    if new == child.default:
        return None
    if old != child.default:
        return domain
    acc = terms_of(t)
    return domain if acc <= domain else domain | acc


def terms_of(t: StarTriple) -> set[Term]:
    """The terms t adds to the active domain: its parts, recursively."""
    acc: set[Term] = set()
    for part in (t.subject, t.predicate, t.object):
        _collect_term(part, acc)
    return acc


def _collect_term(t: Term, acc: set[Term]) -> None:
    todo = [t]
    while todo:
        t = todo.pop()
        if t not in acc:
            acc.add(t)
            if isinstance(t, StarTriple):
                todo += (t.subject, t.predicate, t.object)


def active_domain(g: FourGraph, extra: Iterable[Term] = ()) -> frozenset[Term]:
    """Terms in play: every position of every exception triple, recursively,
    plus the given extra terms, closed under sub-triple extraction.

    The exception triples themselves enter only where they occur quoted.
    The graph's own part is cached on the graph; when every extra term is
    already in it, that cached set itself is returned.
    """
    base = g.domain()
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

    def predicates(self) -> frozenset[Iri]:
        return frozenset(self.predicate_for(s) for s in STATES)


DEFAULT_VOCABULARY = BeliefVocabulary.from_namespace()
