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
Rows are substituted a column at a time: a pattern looks up one flat
(subject, predicate, object) key per row, zipped from a column per
position, so only quoted parts and belief probes build triples; formulas
and belief expressions are compiled once per node.
"""

from __future__ import annotations

import functools
import itertools
from operator import eq, getitem, itemgetter
from typing import Callable, Iterable

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
from .four import CONFLICTED, TRUE, UNKNOWN, FourValue, absorbing_of, identity_of, table_of
from .model import (
    BeliefVocabulary,
    DEFAULT_VOCABULARY,
    FourGraph,
    Iri,
    StarTriple,
    Term,
    TriplePattern,
    Variable,
    active_domain,
    pattern_variables,
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


def _children(node: Query) -> tuple[Query, ...]:
    if isinstance(node, (Join, Union)):
        return node.left, node.right
    return (node.query,) if isinstance(node, (Filter, Project, MapState, Belief)) else ()


def _postorder(q: Query) -> list[Query]:
    """Each distinct node of q, a query ``in_scope`` has checked, once by id,
    children before parents, Belief bodies included, with an explicit stack,
    so a deep query costs no recursion."""
    order, seen, stack = [], set(), [(q, False)]
    while stack:
        node, leaving = stack.pop()
        if leaving:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack += [(child, False) for child in reversed(_children(node))]
    return order


def _can_miss(p) -> bool:
    """Whether some row puts a quoted triple in a predicate slot of p, at any depth."""
    return isinstance(p, TriplePattern) and (
        isinstance(p.predicate, Variable) or _can_miss(p.subject) or _can_miss(p.object))


# three-valued outcomes, deliberately not reusing the engine's enum: True,
# False and None for error; And and Or are Kleene's, decided by False and True
# respectively (the deciding outcome wins, then error, then the other one)
_NOT = {True: False, False: True, None: None}
_KLEENE = {decides: {(a, b): decides if decides in (a, b) else None if None in (a, b)
                     else not decides for a in _NOT for b in _NOT}
           for decides in (False, True)}


def _compile_formula(f, pos: dict[Variable, int]
                     ) -> Callable[[list[tuple], list[FourValue]], list]:
    """f as a function of a node's rows and their states to each row's outcome."""
    if isinstance(f, Eq):
        # a variable the row does not bind stays a variable: unbound
        if any(isinstance(s, Variable) and s not in pos for s in (f.left, f.right)):
            return lambda rows, states: [None] * len(rows)

        def side(s, rows: list[tuple]) -> Iterable:
            return map(itemgetter(pos[s]), rows) if s in pos else itertools.repeat(s, len(rows))
        return lambda rows, states: list(map(eq, side(f.left, rows), side(f.right, rows)))
    if isinstance(f, Bound):
        bound = f.var in pos
        return lambda rows, states: [bound] * len(rows)
    if isinstance(f, StateIs):
        return lambda rows, states: list(map(eq, states, itertools.repeat(f.state, len(states))))
    if isinstance(f, Not):
        inner = _compile_formula(f.inner, pos)
        return lambda rows, states: list(map(_NOT.__getitem__, inner(rows, states)))
    if isinstance(f, (And, Or)):
        tbl = _KLEENE[isinstance(f, Or)]
        left, right = _compile_formula(f.left, pos), _compile_formula(f.right, pos)
        return lambda rows, states: list(map(
            tbl.__getitem__, zip(left(rows, states), right(rows, states))))
    raise TypeError(f"not a formula: {f!r}")


# a belief context's lookup: the state of the triple a flat key names
Lookup = Callable[[tuple], FourValue]


def _compile_belief(e: BeliefQuery, vocab: BeliefVocabulary, atoms: list[Iri | Variable]
                    ) -> Callable[[StarTriple, Lookup, tuple[Term, ...]], FourValue]:
    """Pointwise belief extraction: what e says the state of t is, probing a
    lookup, with each atom's holder read from a tuple of terms at the
    position where the atom appends its own holder to ``atoms``."""
    if isinstance(e, AtomicBelief):
        at, predicate = len(atoms), vocab.predicate_for(e.state)
        state, fallback = e.state, e.fallback
        atoms.append(e.holder)
        return lambda t, base, terms: (
            state if base((terms[at], predicate, t)) in (TRUE, CONFLICTED) else fallback)
    if not isinstance(e, CompoundBelief):
        raise TypeError(f"not a belief query: {e!r}")
    left, right = _compile_belief(e.left, vocab, atoms), _compile_belief(e.right, vocab, atoms)
    tbl = table_of(e.op)
    return lambda t, base, terms: tbl[(left(t, base, terms), right(t, base, terms))]


def _columns(p: TriplePattern, w: tuple, rows_over, index_map, quoted: dict) -> list[Iterable]:
    """The substitution of p's subject, predicate and object by each row
    over w; a quoted part's triples come from ``quoted`` (see ``_quoted``)."""
    rows = rows_over(len(w))
    # a constant's column is bounded, or a ground pattern's one row would zip forever
    return [map(itemgetter(w.index(x)), rows) if isinstance(x, Variable)
            else itertools.repeat(x, len(rows)) if isinstance(x, Iri)
            else map(_quoted(x, rows_over, index_map, quoted).__getitem__,
                     index_map(w, _by_name(pattern_variables(x))))
            for x in (p.subject, p.predicate, p.object)]


def _quoted(p: TriplePattern, rows_over, index_map, memo: dict) -> list[StarTriple | None]:
    """A quoted part's triple per row over its own variables, None where it
    names none, built into ``memo`` once per evaluation."""
    if p not in memo:
        memo[p] = [StarTriple(s, pr, o) if pr.__class__ is Iri and s is not None and o is not None
                   else None for s, pr, o in zip(*_columns(
                       p, _by_name(pattern_variables(p)), rows_over, index_map, memo))]
    return memo[p]


def oracle_eval(
    q: Query,
    g: FourGraph,
    vocab: BeliefVocabulary = DEFAULT_VOCABULARY,
    cap: int = DEFAULT_ORACLE_CAP,
) -> DenseRelation:
    """Dense active-domain evaluation of a four-valued query, in two flat
    passes over one post-order of q: belief contexts from the root down,
    then tables from the leaves up."""
    universe = active_domain(g, query_constants(q))
    uni = sorted(universe, key=term_text)
    size = len(uni)
    # every node's name-sorted scope, from its children's, once in_scope has
    # checked the whole query
    in_scope(q)
    order = _postorder(q)
    scopes: dict[int, tuple[Variable, ...]] = {}
    for node in order:
        if isinstance(node, Pattern):
            w = pattern_variables(node.pattern)
        elif isinstance(node, Project):
            w = node.vars
        else:
            w = {v for child in _children(node) for v in scopes[id(child)]}
            if isinstance(node, Belief):
                w |= belief_variables(node.expr)
        w = scopes[id(node)] = _by_name(w)
        if size ** len(w) > cap:
            raise UniverseTooLarge(f"{size}**{len(w)} rows exceed oracle cap {cap}")

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

    # the graph keyed by each triple's (subject, predicate, object): a row's key
    # is a tuple of its columns; only quoted parts and belief probes build triples
    flat = {(t.subject, t.predicate, t.object): v for t, v in g.exceptions.items()}

    # mappings that put a quoted triple in a predicate slot name no triple at
    # all; such rows take the context's default, probed with a fresh key
    fresh_text = "urn:x-esparql:absent"
    taken = {t.text for t in universe if isinstance(t, Iri)}
    while fresh_text in taken:
        fresh_text += "x"
    fresh = Iri(fresh_text)
    probe = (fresh, fresh, fresh)

    # root down: each node's belief contexts, indexes into ``lookups``; 0 reads
    # the graph, and a Belief gives its body one per holder row of each of its
    # own, listed in ``slices``, or None where a holder is a quoted triple
    lookups: list[Lookup] = [lambda key: flat.get(key, g.default)]
    contexts: dict[int, dict[int, None]] = {id(q): {0: None}}
    slices: dict[tuple[int, int], list[int | None]] = {}
    for node in reversed(order):
        own = contexts[id(node)]
        if not isinstance(node, Belief):
            for child in _children(node):
                contexts.setdefault(id(child), {}).update(own)
            continue
        atoms: list[Iri | Variable] = []
        value = _compile_belief(node.expr, vocab, atoms)
        holders = _by_name(belief_variables(node.expr))
        body = contexts.setdefault(id(node.query), {})
        for ctx in own:
            slices[id(node), ctx] = out = []
            for row in rows_over(len(holders)):
                binding = dict(zip(holders, row))
                terms = tuple([binding.get(h, h) for h in atoms])
                if any(t.__class__ is not Iri for t in terms):
                    out.append(None)
                    continue
                out.append(len(lookups))
                body[len(lookups)] = None
                # each key's triple is built once per context
                lookups.append(functools.cache(
                    lambda k, terms=terms, base=lookups[ctx], value=value:
                    value(StarTriple(*k), base, terms)))

    # leaves up: each node's table in each of its contexts, from its
    # children's in the same context (a Belief's from its body's slices)
    quoted: dict[TriplePattern, list[StarTriple | None]] = {}
    tables: dict[tuple[int, int], list[FourValue]] = {}
    for node in order:
        w, own = scopes[id(node)], contexts[id(node)]
        if isinstance(node, Pattern):
            keys = list(zip(*_columns(node.pattern, w, rows_over, index_map, quoted)))
            if _can_miss(node.pattern):
                keys = [k if k[1].__class__ is Iri and k[0] is not None and k[2] is not None
                        else probe for k in keys]
            for ctx in own:
                tables[id(node), ctx] = list(map(lookups[ctx], keys))
        elif isinstance(node, Belief):
            cw = scopes[id(node.query)]
            unknown = [UNKNOWN] * size ** len(cw)
            hi, bi = index_map(w, _by_name(belief_variables(node.expr))), index_map(w, cw)
            for ctx in own:
                rows = [unknown if c is None else tables[id(node.query), c]
                        for c in slices[id(node), ctx]]
                tables[id(node), ctx] = list(map(getitem, map(rows.__getitem__, hi), bi))
        elif isinstance(node, (Join, Union)):
            # a union's branches bind its whole scope: their maps are the identity
            tbl = table_of(node.op)
            li, ri = index_map(w, scopes[id(node.left)]), index_map(w, scopes[id(node.right)])
            for ctx in own:
                left, right = tables[id(node.left), ctx], tables[id(node.right), ctx]
                tables[id(node), ctx] = list(map(tbl.__getitem__, zip(
                    map(left.__getitem__, li), map(right.__getitem__, ri))))
        elif isinstance(node, Project):
            tbl, into = table_of(node.op), index_map(scopes[id(node.query)], w)
            for ctx in own:
                tables[id(node), ctx] = out = [identity_of(node.op)] * size ** len(w)
                for i, v in zip(into, tables[id(node.query), ctx]):
                    out[i] = tbl[(out[i], v)]
        else:
            # a MapState maps each row's outcome to a state; a Filter weighs
            # the child's value by it
            holds = _compile_formula(node.formula, {v: i for i, v in enumerate(w)})
            mapping = isinstance(node, MapState)
            yes, no = (node.then_state, node.else_state) if mapping else (
                identity_of(node.op), absorbing_of(node.op))
            pick = {True: yes, False: no, None: no}
            for ctx in own:
                child = tables[id(node.query), ctx]
                out = list(map(pick.__getitem__, holds(rows_over(len(w)), child)))
                tables[id(node), ctx] = out if mapping else list(
                    map(table_of(node.op).__getitem__, zip(child, out)))
    return DenseRelation(scopes[id(q)], universe, tables[id(q), 0])


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
    # the engine's table laid out densely (its rows list terms in name order;
    # a row off the universe has no reference value) and compared whole, then
    # mismatches in canonical order, so the first counterexample is stable
    digit = {t: d for d, t in enumerate(reference._terms)}
    got = [engine.default] * len(reference.values)
    for row, v in engine.table.items():
        i = 0
        for t in row:
            d = digit.get(t)
            if d is None:
                break
            i = i * len(digit) + d
        else:
            got[i] = v
    if got == reference.values:
        return []
    return [(reference._mapping(i), a, b)
            for i, (a, b) in enumerate(zip(got, reference.values)) if a != b]
