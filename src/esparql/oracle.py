"""Slow reference evaluator for differential testing.

Evaluates by brute force over complete mapping tables: every node's result
lists all |universe| ** |vars| rows.  It shares the four-valued operator
tables and the data model types with the engine but re-implements
substitution, belief extraction (as pointwise lookup composition, never
materialized), formula evaluation and aggregation from scratch, so a bug
in the engine's compressed default+exception bookkeeping cannot hide here.

Tables are plain lists in one fixed order: with the universe sorted by
``term_text`` and a scope's variables by name, the row binding them to the
terms at positions d1 .. dk has index d1 * n**(k-1) + ... + dk (n =
|universe|), the order of ``itertools.product``.  A parent reads a child's
rows through a restriction index map, which holds for each parent row the
sum of its digits times the child's strides (0 for a variable the child
does not bind).  Mappings are built only for the rows ``diff`` reports.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import Callable

from .algebra import (
    And,
    Belief,
    Bound,
    Eq,
    Filter,
    Join,
    MapState,
    Mapping,
    Not,
    Or,
    Pattern,
    Project,
    Query,
    Relation,
    StateIs,
    Union,
    in_scope,
    query_constants,
)
from .belief import AtomicBelief, BeliefQuery, CompoundBelief, belief_variables
from .errors import ShapeMismatch, UniverseTooLarge
from .four import CONFLICTED, TRUE, UNKNOWN, FourValue, absorbing_of, apply, identity_of, table_of
from .model import (
    BeliefVocabulary,
    DEFAULT_VOCABULARY,
    FourGraph,
    Iri,
    StarTriple,
    Term,
    Variable,
    active_domain,
    term_text,
)

DEFAULT_ORACLE_CAP = 10**6


def _by_name(vars) -> tuple[Variable, ...]:
    return tuple(sorted(vars, key=lambda v: v.name))


class DenseRelation:
    """A relation as a complete table: one value per mapping over the universe.

    Takes the table keyed by ``Mapping`` or as a list in the module's order,
    and keeps the list as ``values``; ``rows`` rebuilds the dict on first use.
    """

    __slots__ = ("vars", "universe", "values", "_names", "_terms", "_rows")

    def __init__(self, vars: frozenset[Variable], universe: frozenset[Term],
                 rows: dict[Mapping, FourValue] | list[FourValue]):
        self.vars = frozenset(vars)
        self.universe = frozenset(universe)
        self._names = _by_name(self.vars)
        self._terms = sorted(self.universe, key=term_text)
        expected = len(self._terms) ** len(self._names)
        if len(rows) != expected:
            raise ValueError(f"dense table has {len(rows)} rows, expected {expected}")
        self._rows = None
        if isinstance(rows, dict):
            # as many keys as rows: a key off the table leaves some row out
            mappings = [self._mapping(i) for i in range(expected)]
            missing = next((m for m in mappings if m not in rows), None)
            if missing is not None:
                raise ValueError(f"dense table has no row {missing!r}")
            rows = [rows[m] for m in mappings]
        self.values = rows

    def _mapping(self, i: int) -> Mapping:
        terms = []
        for _ in self._names:
            i, d = divmod(i, len(self._terms))
            terms.append(self._terms[d])
        return Mapping(tuple(zip(self._names, reversed(terms))))

    @property
    def rows(self) -> dict[Mapping, FourValue]:
        if self._rows is None:
            self._rows = {self._mapping(i): v for i, v in enumerate(self.values)}
        return self._rows

    def value_at(self, m: Mapping) -> FourValue:
        return self.rows[m]

    def __repr__(self) -> str:
        return f"DenseRelation({len(self.vars)} vars, {len(self.values)} rows)"


def _compile(p, pos: dict[Variable, int]) -> Callable[[tuple], Term | None]:
    """p's substitution by a row; None when a predicate slot receives a quoted triple."""
    if isinstance(p, Variable):
        return itemgetter(pos[p])
    if isinstance(p, Iri):
        return lambda row: p
    subj, pred, obj = (_compile(s, pos) for s in (p.subject, p.predicate, p.object))

    def subst(row: tuple) -> Term | None:
        s, pr, o = subj(row), pred(row), obj(row)
        if s is None or o is None or not isinstance(pr, Iri):
            return None
        return StarTriple(s, pr, o)

    return subst


# three-valued outcomes, deliberately not reusing the engine's enum
_T, _F, _E = "true", "false", "error"


def _formula(f, row: tuple, pos: dict[Variable, int], state: FourValue) -> str:
    if isinstance(f, Eq):
        # a variable the row does not bind stays a variable: unbound
        left, right = (row[pos[s]] if s in pos else s for s in (f.left, f.right))
        if isinstance(left, Variable) or isinstance(right, Variable):
            return _E
        return _T if left == right else _F
    if isinstance(f, Bound):
        return _T if f.var in pos else _F
    if isinstance(f, StateIs):
        return _T if state == f.state else _F
    if isinstance(f, Not):
        return {_T: _F, _F: _T}.get(_formula(f.inner, row, pos, state), _E)
    if isinstance(f, (And, Or)):
        # Kleene: the deciding outcome wins, then error, then the other one
        decides, other = (_F, _T) if isinstance(f, And) else (_T, _F)
        outcomes = (_formula(f.left, row, pos, state), _formula(f.right, row, pos, state))
        if decides in outcomes:
            return decides
        return _E if _E in outcomes else other
    raise TypeError(f"not a formula: {f!r}")


Lookup = Callable[[StarTriple], FourValue]


def _belief_value(e: BeliefQuery, t: StarTriple, base: Lookup,
                  vocab: BeliefVocabulary) -> FourValue:
    """Pointwise belief extraction: what does e say the state of t is."""
    if isinstance(e, AtomicBelief):
        probe = StarTriple(e.holder, vocab.predicate_for(e.state), t)
        return e.state if base(probe) in (TRUE, CONFLICTED) else e.fallback
    left = _belief_value(e.left, t, base, vocab)
    right = _belief_value(e.right, t, base, vocab)
    return apply(e.op, left, right)


def _bind_expr(e: BeliefQuery, binding: dict[Variable, Term]) -> BeliefQuery | None:
    """Instantiate holder variables; None when one is bound to a quoted triple."""
    if isinstance(e, AtomicBelief):
        holder = binding.get(e.holder, e.holder)
        return AtomicBelief(holder, e.state, e.fallback) if isinstance(holder, Iri) else None
    left, right = _bind_expr(e.left, binding), _bind_expr(e.right, binding)
    return None if left is None or right is None else CompoundBelief(left, e.op, right)


def oracle_eval(
    q: Query,
    g: FourGraph,
    vocab: BeliefVocabulary = DEFAULT_VOCABULARY,
    cap: int = DEFAULT_ORACLE_CAP,
) -> DenseRelation:
    """Dense active-domain evaluation of a four-valued query."""
    universe = active_domain(g, query_constants(q))
    uni = sorted(universe, key=term_text)
    size = len(uni)
    # every node's name-sorted scope, from one in_scope call per node; the
    # root's comes first and checks the whole query
    scopes: dict[int, tuple[Variable, ...]] = {}

    def guard(node: Query) -> None:
        if id(node) in scopes:
            return
        w = scopes[id(node)] = _by_name(in_scope(node))
        if size ** len(w) > cap:
            raise UniverseTooLarge(f"{size}**{len(w)} rows exceed oracle cap {cap}")
        if isinstance(node, (Join, Union)):
            guard(node.left)
            guard(node.right)
        elif isinstance(node, (Filter, Project, MapState, Belief)):
            guard(node.query)

    guard(q)

    @functools.cache
    def rows_over(k: int) -> list[tuple]:
        """The rows over k variables, as term tuples in table order."""
        return list(itertools.product(uni, repeat=k))

    @functools.cache
    def index_map(w: tuple[Variable, ...], sub: tuple[Variable, ...]) -> list[int]:
        """For each row over w, the index of its restriction to sub."""
        indices = [0]
        for v in w:
            stride = size ** (len(sub) - 1 - sub.index(v)) if v in sub else 0
            offsets = [d * stride for d in range(size)]
            indices = [i + o for i in indices for o in offsets]
        return indices

    # mappings that put a quoted triple in a predicate slot name no triple at
    # all; such rows take the context's default, probed with a fresh triple
    fresh_text = "urn:x-esparql:absent"
    taken = {t.text for t in universe if isinstance(t, Iri)}
    while fresh_text in taken:
        fresh_text += "x"
    fresh = Iri(fresh_text)
    probe = StarTriple(fresh, fresh, fresh)

    # tables are memoized per (node, belief context); contexts get fresh ids
    tables: dict[tuple[int, int], list[FourValue]] = {}
    context_ids: dict[tuple[int, BeliefQuery], tuple[Lookup, int]] = {}
    next_context = itertools.count(1)

    @functools.cache
    def triples(node: Pattern) -> list[StarTriple]:
        """node's triple for each row, the probe where it has none; shared by all contexts."""
        w = scopes[id(node)]
        subst = _compile(node.pattern, {v: i for i, v in enumerate(w)})
        return [probe if t is None else t for t in map(subst, rows_over(len(w)))]

    def build(node: Query, lookup: Lookup, ctx: int) -> list[FourValue]:
        key = (id(node), ctx)
        hit = tables.get(key)
        if hit is not None:
            return hit
        w = scopes[id(node)]
        if isinstance(node, Pattern):
            table = [lookup(t) for t in triples(node)]
        elif isinstance(node, (Join, Union)):
            # a union's branches bind its whole scope: their maps are the identity
            left = build(node.left, lookup, ctx)
            right = build(node.right, lookup, ctx)
            tbl = table_of(node.op)
            li, ri = index_map(w, scopes[id(node.left)]), index_map(w, scopes[id(node.right)])
            table = [tbl[(left[a], right[b])] for a, b in zip(li, ri)]
        elif isinstance(node, (Filter, MapState)):
            child = build(node.query, lookup, ctx)
            pos = {v: i for i, v in enumerate(w)}
            holds = [_formula(node.formula, row, pos, v) == _T
                     for row, v in zip(rows_over(len(w)), child)]
            if isinstance(node, MapState):
                table = [node.then_state if h else node.else_state for h in holds]
            else:
                tbl, ident, absorb = table_of(node.op), identity_of(node.op), absorbing_of(node.op)
                table = [tbl[(v, ident if h else absorb)] for v, h in zip(child, holds)]
        elif isinstance(node, Project):
            child = build(node.query, lookup, ctx)
            tbl = table_of(node.op)
            table = [identity_of(node.op)] * size ** len(w)
            for i, v in zip(index_map(scopes[id(node.query)], w), child):
                table[i] = tbl[(table[i], v)]
        elif isinstance(node, Belief):
            # one context per holder tuple; None where a holder is a quoted triple
            holders = _by_name(belief_variables(node.expr))
            contexts = []
            for terms in rows_over(len(holders)):
                bound = _bind_expr(node.expr, dict(zip(holders, terms)))
                if bound is None:
                    contexts.append(None)
                    continue
                inner = context_ids.get((ctx, bound))
                if inner is None:
                    inner = _compose_lookup(bound, lookup, vocab), next(next_context)
                    context_ids[(ctx, bound)] = inner
                contexts.append(build(node.query, *inner))
            table = []
            for h, c in zip(index_map(w, holders), index_map(w, scopes[id(node.query)])):
                child = contexts[h]
                table.append(UNKNOWN if child is None else child[c])
        else:
            raise TypeError(f"not a query: {node!r}")
        tables[key] = table
        return table

    values = build(q, lambda t: g.exceptions.get(t, g.default), 0)
    return DenseRelation(scopes[id(q)], universe, values)


def _compose_lookup(e: BeliefQuery, base: Lookup, vocab: BeliefVocabulary) -> Lookup:
    return functools.cache(lambda t: _belief_value(e, t, base, vocab))


def diff(engine: Relation, reference: DenseRelation
         ) -> list[tuple[Mapping, FourValue, FourValue]]:
    """All rows where the engine and the dense reference disagree.

    Raises ShapeMismatch when the two results are not even comparable.
    """
    if engine.vars != reference.vars:
        raise ShapeMismatch(
            f"variable sets differ: {sorted(v.name for v in engine.vars)} vs "
            f"{sorted(v.name for v in reference.vars)}"
        )
    if engine.universe != reference.universe:
        raise ShapeMismatch("universes differ")
    # the engine's exceptions by position (its rows list terms in name
    # order; a row off the universe has no reference value), then the
    # reference in canonical order, so the first counterexample is stable
    digit = {t: d for d, t in enumerate(reference._terms)}
    exceptions = {}
    for row, v in engine.table.items():
        digits = [digit.get(t) for t in row]
        if None not in digits:
            exceptions[sum(d * len(digit) ** k for k, d in enumerate(reversed(digits)))] = v
    out = []
    for i, want in enumerate(reference.values):
        got = exceptions.get(i, engine.default)
        if got != want:
            out.append((reference._mapping(i), got, want))
    return out
