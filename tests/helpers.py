"""Views of engine values that only tests need: whole-function comparison
of relations, formula evaluation at one mapping, and the inverse of a
belief vocabulary."""

from esparql import STATES, BeliefVocabulary, Iri, Mapping, Relation, mappings_over
from esparql.algebra import ThreeValued, _formula_value


def all_rows(r: Relation):
    """Every mapping over r's universe with its value; active-domain only."""
    if r.universe is None:
        raise ValueError("open relation has no finite row set")
    for m in mappings_over(r.vars, r.universe):
        yield m, r.value_at(m)


def same_function(r: Relation, other: Relation) -> bool:
    """Equality as total functions, tolerant of default choice when every
    mapping happens to be listed as an exception."""
    if r.vars != other.vars or r.universe != other.universe:
        return False
    for m in r.exceptions.keys() | other.exceptions.keys():
        if r.value_at(m) != other.value_at(m):
            return False
    if r.default == other.default:
        return True
    if r.universe is None:
        return False
    total = len(r.universe) ** len(r.vars)
    covered = len(r.exceptions.keys() | other.exceptions.keys())
    return covered >= total


def eval_formula(f, m: Mapping, r: Relation) -> ThreeValued:
    return _formula_value(f, m.get, r.value_at(m))


def state_for(vocab: BeliefVocabulary, predicate: Iri):
    for state in STATES:
        if vocab.predicate_for(state) == predicate:
            return state
    return None
