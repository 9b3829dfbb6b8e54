"""Concrete syntax: graph files, the user query language, and result output.

Graph files (FourStar format) carry one statement per line, each an RDF-star
triple with an optional ``@state`` annotation.  Queries use a SPARQL-like
surface syntax that desugars into the annotated algebra.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_text
from operator import itemgetter
from typing import Callable, Optional

from .belief import BeliefQuery, CompoundBelief, all_states_shorthand
from .errors import DuplicateTriple, IllFormedQuery, ParseError
from .four import TRUE, FourOperator, FourValue
from .model import (
    _BAD_IRI_CHAR,
    DEFAULT_BASE_IRI,
    DEPTH_LIMIT,
    FourGraph,
    Iri,
    StarTriple,
    TriplePattern,
    Variable,
    term_text,
)
from .algebra import (
    And,
    Belief,
    Bound,
    Eq,
    Filter,
    FilterFormula,
    Join,
    MapState,
    Not,
    Or,
    Pattern,
    Project,
    Query,
    Relation,
    StateIs,
    Union,
    _scope,
)

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

_STATE_WORDS = {v.label: v for v in FourValue}
_LABELS = {v: v.label for v in FourValue}  # read without Enum's descriptors
# how render_graph ends a statement of each state: '@true' is left implicit
_LINE_ENDS = {v: " .\n" if v is TRUE else f" @{v.label} .\n" for v in FourValue}

_STATE_KEYWORDS = {v.label.upper(): v for v in FourValue}

def resolve_iri(text: str, base: str) -> Iri:
    """Keep absolute IRIs; resolve bare names against the base."""
    if _SCHEME.match(text):
        return Iri(text)
    return Iri(base + text)


class _Iris(dict):
    """Token spelling ('<name>') -> Iri; each spelling is resolved only once."""

    def __init__(self, base: str):
        super().__init__()
        self.base = base

    def __missing__(self, spelling: str) -> Iri:
        iri = self[spelling] = resolve_iri(spelling[1:-1], self.base)
        return iri


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# A token is a tuple (kind, spelling, offset): the kind is the name of the
# group that matched, the spelling keeps its sigil ('<p>', '?x', '@true'),
# and the offset is where it starts.  Whitespace and comments are skipped in
# front of each token.  A character no token can start with is a BAD token;
# '\Z' ends the text with an EOF token (twice when the last match before it
# reaches the end; readers stop at the first).  So every match succeeds, and
# `finditer` never restarts its search inside a comment.  An IRI body holds
# no character that `Iri` rejects (str.isspace, '<', '>').
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(
    rf"""(?:[ \t\r\n]+|\#[^\n]*)*
    (?:(?P<IRI><[^\s<>]+>)
      |(?P<PUNCT><<|>>|&&|\|\||[.{{}}()!=*])
      |(?P<VAR>\?{_NAME})
      |(?P<ANNOT>@{_NAME})
      |(?P<WORD>{_NAME})
      |(?P<BAD>.)
      |(?P<EOF>\Z))""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = [(m.lastgroup, m[m.lastindex], m.start(m.lastindex))
              for m in _TOKEN.finditer(text)]
    if "BAD" in map(itemgetter(0), tokens):
        raise _token_error(text, next(off for kind, _, off in tokens if kind == "BAD"))
    return tokens


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _token_error(text: str, offset: int) -> ParseError:
    """Why no token starts at text[offset]."""
    c = text[offset]
    if c == "<":
        end = offset + 1
        while end < len(text) and text[end] not in ">\n":
            if text[end] == "<" or text[end].isspace():
                return ParseError("bad character inside IRI", *_position(text, end))
            end += 1
        if end == len(text) or text[end] != ">":
            return ParseError("unterminated IRI", *_position(text, offset))
        # a body of allowed characters would have made an IRI token
        return ParseError("empty IRI", *_position(text, offset))
    if c == "?":
        message = "expected a variable name after '?'"
    elif c == "@":
        message = "expected a word after '@'"
    elif c in ">&|":
        message = f"unexpected {c!r}"
    else:
        message = f"unexpected character {c!r}"
    return ParseError(message, *_position(text, offset))


def _expected(text: str, message: str, token: tuple[str, str, int]) -> ParseError:
    kind, spelling, offset = token
    if kind == "EOF":
        found = "end of input"
    elif kind == "IRI":
        found = spelling[1:-1]
    elif kind in ("VAR", "ANNOT"):
        found = spelling[1:]
    else:
        found = spelling
    return ParseError(f"{message}, found {found!r}", *_position(text, offset),
                      expected=message, found=found)


def _too_deep(text: str, offset: int, what: str) -> ParseError:
    """The refusal of the construct ``what`` opened at text[offset] one level
    past ``DEPTH_LIMIT``: quoting, conditions, SELECTs and groups each count
    their own nesting, and deeper input is a ParseError, not a RecursionError."""
    return ParseError(f"{what} nested deeper than {DEPTH_LIMIT} levels", *_position(text, offset))


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------


# A statement as files mostly hold it, read by one match: IRIs and triples
# quoting three IRIs, then an optional state.  Each character of its skip has
# one way to match, so a failed match gives back no part of a comment and
# fails in linear time; a match reads the tokens the tokenizer reads there.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_IRI = r"(<[^\s<>]+>)"
_TERM = rf"(?:{_IRI}|<<{_SKIP}{_IRI}{_SKIP}{_IRI}{_SKIP}{_IRI}{_SKIP}>>)"
_STATEMENT = re.compile(rf"{_SKIP}({_TERM}){_SKIP}{_IRI}{_SKIP}{_TERM}"
                        rf"(?:{_SKIP}@(true|false|unknown|conflicted))?{_SKIP}\.")


def _statement_tokens(text: str, pos: int) -> list[tuple[str, str, int]]:
    """The tokens from text[pos] on, up to the first '.' or the end of input:
    all a statement's reader looks at, for every token it reads is checked."""
    tokens = []
    for m in _TOKEN.finditer(text, pos):
        tokens.append(token := (m.lastgroup, m[m.lastindex], m.start(m.lastindex)))
        if token[1] in (".", ""):  # only EOF is spelled ''
            return tokens


def _ground_term(text: str, tokens: list, i: int, iris: _Iris, depth: int):
    """Read the term at tokens[i]; return it and the index after it."""
    kind, spelling, offset = tokens[i]
    if kind == "IRI":
        return iris[spelling], i + 1
    if spelling != "<<":
        raise _expected(text, "expected an IRI or a quoted triple", tokens[i])
    if depth == DEPTH_LIMIT:
        raise _too_deep(text, offset, "quoting")
    subject, i = _ground_term(text, tokens, i + 1, iris, depth + 1)
    kind, predicate, _ = tokens[i]
    if kind != "IRI":
        raise _expected(text, "expected a predicate IRI", tokens[i])
    obj, i = _ground_term(text, tokens, i + 1, iris, depth + 1)
    if tokens[i][1] != ">>":
        raise _expected(text, "expected '>>'", tokens[i])
    return StarTriple(subject, iris[predicate], obj), i + 1


def _read_statement(text: str, pos: int, iris: _Iris, states: dict = _STATE_WORDS):
    """The statement at text[pos] read from its own tokens: its triple (None
    for the '@default' header), its value (``states`` names them), its
    first token's offset and the offset after its '.'; None at the end of
    input."""
    tokens = _statement_tokens(text, pos)
    kind, spelling, start = tokens[0]
    if kind == "EOF":
        return None
    if spelling == "@default":
        if pos:
            raise _expected(text, "'@default' must be the first statement", tokens[0])
        kind, word, _ = tokens[1]
        if kind != "WORD" or word not in _STATE_WORDS:
            raise _expected(text, "expected a state name", tokens[1])
        triple, value, i = None, _STATE_WORDS[word], 2
    else:
        subject, i = _ground_term(text, tokens, 0, iris, 0)
        kind, predicate, _ = tokens[i]
        if kind != "IRI":
            raise _expected(text, "expected a predicate IRI", tokens[i])
        obj, i = _ground_term(text, tokens, i + 1, iris, 0)
        triple = StarTriple(subject, iris[predicate], obj)
        kind, spelling, offset = tokens[i]
        value = TRUE
        if kind == "ANNOT":
            if spelling[1:] not in states:
                raise ParseError(f"unknown state {spelling[1:]!r}", *_position(text, offset))
            value = states[spelling[1:]]
            i += 1
    if tokens[i][1] != ".":
        raise _expected(text, "expected '.'", tokens[i])
    return triple, value, start, tokens[i][2] + 1


def parse_graph(text: str, *, base_iri: str = DEFAULT_BASE_IRI) -> FourGraph:
    """Read a FourStar file into a graph; rejects duplicate triple keys.
    A statement is one match of ``_STATEMENT`` where it can be, else read from
    its own tokens (the header, deeper quoting, anything malformed).  Only an
    error tokenizes the whole text, so a token error anywhere still wins."""
    iris = _Iris(base_iri)
    default = FourValue.UNKNOWN
    entries: dict[StarTriple, FourValue] = {}
    pos = 0
    try:
        while True:
            m = _STATEMENT.match(text, pos)
            if m is None:
                if (read := _read_statement(text, pos, iris)) is None:
                    break
                triple, value, start, pos = read
                if triple is None:
                    default = value
                    continue
            else:
                _, s, s1, s2, s3, p, o, o1, o2, o3, state = m.groups()
                triple = StarTriple(
                    iris[s] if s else StarTriple(iris[s1], iris[s2], iris[s3]),
                    iris[p],
                    iris[o] if o else StarTriple(iris[o1], iris[o2], iris[o3]))
                value = _STATE_WORDS[state] if state else TRUE
                start, pos = m.start(1), m.end()
            if triple in entries:
                raise DuplicateTriple(f"triple annotated twice: {term_text(triple)}",
                                      *_position(text, start))
            entries[triple] = value
    except (ParseError, DuplicateTriple, ValueError):  # ValueError: a bad base_iri
        _tokenize(text)  # raises the first token error, wherever it is
        raise
    return FourGraph(default, entries)


def parse_statement(text: str, *,
                    base_iri: str = DEFAULT_BASE_IRI) -> tuple[StarTriple, Optional[FourValue]]:
    """The one statement of a graph file that ``text`` holds, read by the
    graph reader's rule: its triple and value, None for the annotation
    '@default', which stands for the graph's default."""
    iris = _Iris(base_iri)
    try:
        first = _statement_tokens(text, 0)[0]
        if first[0] == "EOF" or first[1] == "@default":
            raise _expected(text, "expected a statement", first)
        triple, value, _, end = _read_statement(text, 0, iris, {**_STATE_WORDS, "default": None})
        rest = _statement_tokens(text, end)[0]
        if rest[0] != "EOF":
            raise _expected(text, "expected one statement", rest)
    except ParseError:
        _tokenize(text)  # raises the first token error, wherever it is
        raise
    return triple, value


def render_graph(g: FourGraph) -> str:
    """Canonical writer: absolute statements, '@true' left implicit, in the
    ``term_text`` order of their triples.  A line starts with its triple's
    text less the outer '<< ' and ' >>', and term texts are self-delimiting,
    so no such body is a prefix of another: sorting the lines is enough."""
    lines = [
        f"{f'<{s.text}>' if (s := t.subject).__class__ is Iri else term_text(s)}"
        f" <{t.predicate.text}> "
        f"{f'<{o.text}>' if (o := t.object).__class__ is Iri else term_text(o)}{_LINE_ENDS[v]}"
        for t, v in g.exceptions.items()
    ]
    lines.sort()
    lines.insert(0, f"@default {g.default.label} .\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# User queries
# ---------------------------------------------------------------------------


@dataclass
class TripleItem:
    pattern: TriplePattern


@dataclass
class MapItem:
    cond: FilterFormula
    to_state: FourValue
    else_state: FourValue
    position: tuple[int, int] = (0, 0)


@dataclass
class FilterItem:
    cond: FilterFormula
    position: tuple[int, int] = (0, 0)


@dataclass
class SubSelect:
    query: "UserQuery"


@dataclass
class UnionItem:
    """A UNION chain: its branches' items, in order, and its first UNION's position."""
    branches: list[list]
    position: tuple[int, int] = (0, 0)


@dataclass
class UserQuery:
    info: bool
    projection: Optional[list[Variable]]  # None means SELECT *
    holders: list
    body: list
    position: tuple[int, int] = (0, 0)


class _Stream:
    """Cursor over a query's tokens.

    Punctuation and keywords are matched by spelling alone: sigils keep
    every other kind's spellings apart from theirs.
    """

    def __init__(self, text: str, base: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.iris = _Iris(base)
        self.selects = self.groups = 0  # SELECTs and groups open at the cursor

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def at(self, spelling: str) -> bool:
        return self.tokens[self.pos][1] == spelling

    def expect(self, spelling: str) -> tuple[str, str, int]:
        if not self.at(spelling):
            raise self.error(f"expected {spelling!r}")
        return self.next()

    def position(self, tok: tuple[str, str, int]) -> tuple[int, int]:
        return _position(self.text, tok[2])

    def error(self, message: str) -> ParseError:
        return _expected(self.text, message, self.peek())


def parse_query(text: str, *, base_iri: str = DEFAULT_BASE_IRI) -> UserQuery:
    s = _Stream(text, base_iri)
    q = _parse_select(s)
    if s.peek()[0] != "EOF":
        raise s.error("expected end of input")
    return q


def _parse_select(s: _Stream) -> UserQuery:
    start = s.expect("SELECT")
    if s.selects == DEPTH_LIMIT:
        raise _too_deep(s.text, start[2], "SELECT")
    s.selects += 1
    info = False
    if s.at("INFO"):
        s.next()
        info = True
    projection: Optional[list[Variable]]
    if s.at("*"):
        s.next()
        projection = None
    else:
        projection = []
        while s.peek()[0] == "VAR":
            projection.append(Variable(s.next()[1][1:]))
        if not projection:
            raise s.error("expected '*' or projection variables")
    holders: list = []
    if s.at("FROM"):
        s.next()
        s.expect("BELIEF")
        while (holder := _iri_or_variable(s)) is not None:
            holders.append(holder)
        if not holders:
            raise s.error("expected a belief holder")
    s.expect("WHERE")
    body = _parse_group(s)
    s.selects -= 1
    return UserQuery(info, projection, holders, body, s.position(start))


def _parse_group(s: _Stream) -> list:
    tok = s.expect("{")
    if s.groups == DEPTH_LIMIT:
        raise _too_deep(s.text, tok[2], "groups")
    s.groups += 1
    if s.at("SELECT"):
        # a group may hold a bare sub-query
        items = [SubSelect(_parse_select(s))]
    else:
        items = [_parse_item(s)]
        while True:
            if s.at("."):
                s.next()
                if s.at("}"):
                    break
                items.append(_parse_item(s))
            elif s.at("}"):
                break
            elif isinstance(items[-1], (SubSelect, UnionItem)):
                # separator dot is optional after a braced item
                items.append(_parse_item(s))
            else:
                raise s.error("expected '.' or '}'")
    s.expect("}")
    s.groups -= 1
    return items


def _parse_item(s: _Stream):
    if s.at("{"):
        if s.tokens[s.pos + 1][1] == "SELECT":
            s.next()
            sub = SubSelect(_parse_select(s))
            s.expect("}")
            if not s.at("UNION"):
                return sub
            first = [sub]
        else:
            first = _parse_group(s)
        union_tok = s.expect("UNION")
        branches = [first, _parse_group(s)]
        while s.at("UNION"):
            s.next()
            branches.append(_parse_group(s))
        return UnionItem(branches, s.position(union_tok))
    if s.at("MAP"):
        start = s.next()
        s.expect("IF")
        s.expect("(")
        cond = _parse_cond(s)
        s.expect(")")
        s.expect("TO")
        to_state = _parse_state_keyword(s)
        s.expect("ELSE")
        else_state = _parse_state_keyword(s)
        return MapItem(cond, to_state, else_state, s.position(start))
    if s.at("FILTER"):
        start = s.next()
        s.expect("(")
        cond = _parse_cond(s)
        s.expect(")")
        return FilterItem(cond, s.position(start))
    return TripleItem(_parse_triple_pattern(s, 0))


def _parse_state_keyword(s: _Stream) -> FourValue:
    kind, word, _ = s.peek()
    if kind == "WORD" and word in _STATE_KEYWORDS:
        s.next()
        return _STATE_KEYWORDS[word]
    raise s.error("expected TRUE, FALSE, UNKNOWN or CONFLICTED")


def _iri_or_variable(s: _Stream):
    """Consume an IRI or a variable token; None (consuming nothing) otherwise."""
    kind, spelling, _ = s.peek()
    if kind == "IRI":
        s.next()
        return s.iris[spelling]
    if kind == "VAR":
        s.next()
        return Variable(spelling[1:])
    return None


def _parse_term_pattern(s: _Stream, depth: int):
    term = _iri_or_variable(s)
    if term is not None:
        return term
    if s.at("<<"):
        if depth == DEPTH_LIMIT:
            raise _too_deep(s.text, s.peek()[2], "quoting")
        s.next()
        pattern = _parse_triple_pattern(s, depth + 1)
        s.expect(">>")
        return pattern
    raise s.error("expected an IRI, a variable or a quoted pattern")


def _parse_pred_pattern(s: _Stream):
    term = _iri_or_variable(s)
    if term is not None:
        return term
    if s.at("a"):
        s.next()
        return s.iris["<a>"]
    raise s.error("expected a predicate")


def _parse_triple_pattern(s: _Stream, depth: int) -> TriplePattern:
    subject = _parse_term_pattern(s, depth)
    pred = _parse_pred_pattern(s)
    obj = _parse_term_pattern(s, depth)
    return TriplePattern(subject, pred, obj)


def _balanced(parts: list, join: Callable):
    """The parts, in order, joined pairwise into a tree about log2(n) deep."""
    while len(parts) > 1:
        pairs = [join(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[len(pairs) * 2:]
    return parts[0]


def _parse_cond(s: _Stream, depth: int = 0) -> FilterFormula:
    parts = [_parse_cond_and(s, depth)]
    while s.at("||"):
        s.next()
        parts.append(_parse_cond_and(s, depth))
    return _balanced(parts, Or)


def _parse_cond_and(s: _Stream, depth: int) -> FilterFormula:
    parts = [_parse_cond_unary(s, depth)]
    while s.at("&&"):
        s.next()
        parts.append(_parse_cond_unary(s, depth))
    return _balanced(parts, And)


def _parse_cond_unary(s: _Stream, depth: int) -> FilterFormula:
    if s.at("!") or s.at("("):
        if depth == DEPTH_LIMIT:
            raise _too_deep(s.text, s.peek()[2], "condition")
        if s.next()[1] == "!":
            return Not(_parse_cond_unary(s, depth + 1))
        inner = _parse_cond(s, depth + 1)
        s.expect(")")
        return inner
    if s.at("STATE"):
        s.next()
        s.expect("IS")
        return StateIs(_parse_state_keyword(s))
    if s.at("BOUND"):
        s.next()
        s.expect("(")
        kind, spelling, _ = s.peek()
        if kind != "VAR":
            raise s.error("expected a variable")
        s.next()
        s.expect(")")
        return Bound(Variable(spelling[1:]))
    left = _parse_operand(s)
    s.expect("=")
    right = _parse_operand(s)
    return Eq(left, right)


def _parse_operand(s: _Stream):
    term = _iri_or_variable(s)
    if term is None:
        raise s.error("expected a variable or an IRI")
    return term


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------


def desugar(uq: UserQuery) -> Query:
    """Lower the surface form onto the algebra and validate scopes."""
    return _desugar_select(uq, {})


def _ops_for(info: bool):
    if info:
        return (FourOperator.INFO_MEET, FourOperator.INFO_JOIN,
                FourOperator.INFO_JOIN, FourOperator.INFO_MEET)
    return (FourOperator.TRUTH_MEET, FourOperator.TRUTH_JOIN,
            FourOperator.TRUTH_JOIN, FourOperator.TRUTH_MEET)


def _pos(position: tuple[int, int]) -> str:
    return f"{position[0]}:{position[1]}"


def _desugar_select(uq: UserQuery, scopes: dict) -> Query:
    """``scopes`` is the ``_scope`` table shared by every nested select, so
    each subquery is scope-checked once."""
    project_op = _ops_for(uq.info)[2]
    body = _desugar_body(uq.body, uq.info, uq.position, scopes)
    if uq.holders:
        expr = _holders_expression(uq.holders)
        body = Belief(expr, body)
    scope = _scope(body, scopes)[0]
    if uq.projection is None:
        keep = scope
    else:
        keep = frozenset(uq.projection)
        for v in sorted(keep - scope, key=lambda v: v.name):
            raise IllFormedQuery(
                f"{_pos(uq.position)}: projected variable ?{v.name} is not in scope"
            )
    return Project(project_op, keep, body)


def _holders_expression(holders: list) -> BeliefQuery:
    """The holders' shorthands, in order, joined into a balanced tree."""
    op = FourOperator.INFO_JOIN
    return _balanced([all_states_shorthand(h, op) for h in holders],
                     lambda a, b: CompoundBelief(a, op, b))


def _desugar_body(items: list, info: bool, position: tuple[int, int],
                  scopes: dict) -> Query:
    join_op, union_op, _, filter_op = _ops_for(info)
    acc: Optional[Query] = None
    for item in items:
        if isinstance(item, MapItem):
            if acc is None:
                raise IllFormedQuery(
                    f"{_pos(item.position)}: MAP needs a preceding pattern in its group"
                )
            acc = MapState(acc, item.cond, item.to_state, item.else_state)
            continue
        if isinstance(item, FilterItem):
            if acc is None:
                raise IllFormedQuery(
                    f"{_pos(item.position)}: FILTER needs a preceding pattern in its group"
                )
            acc = Filter(filter_op, acc, item.cond)
            continue
        if isinstance(item, TripleItem):
            q: Query = Pattern(item.pattern)
        elif isinstance(item, SubSelect):
            q = _desugar_select(item.query, scopes)
        elif isinstance(item, UnionItem):
            # left-deep, as the chain reads; the fold is a loop, so a chain may be any length
            branches = [_desugar_body(b, info, item.position, scopes) for b in item.branches]
            q = branches[0]
            for branch in branches[1:]:
                q = Union(union_op, q, branch)
        else:  # pragma: no cover - parser produces no other items
            raise IllFormedQuery(f"unknown body item {item!r}")
        acc = q if acc is None else Join(join_op, acc, q)
    if acc is None:
        raise IllFormedQuery(f"{_pos(position)}: empty WHERE group")
    return acc


def parse_and_desugar(text: str, *, base_iri: str = DEFAULT_BASE_IRI) -> Query:
    return desugar(parse_query(text, base_iri=base_iri))


# ---------------------------------------------------------------------------
# Result output
# ---------------------------------------------------------------------------


def _value_label(v) -> str:
    if isinstance(v, FourValue):
        return _LABELS[v]
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _table_cell(base: str):
    """The function taking a term's text to its table cell: every IRI under
    ``base`` shortened, a lone IRI without its brackets.  An IRI text holds
    no whitespace or angle bracket, so no IRI lies under a base that does;
    otherwise '<' + base starts only IRIs, and '<>', no term's text, marks
    an IRI equal to the base."""
    if not base or _BAD_IRI_CHAR(base):
        return lambda text: text if text[1] == "<" else text[1:-1]
    under, whole = "<" + base, f"<{base}>"

    def cell(text: str) -> str:
        text = text.replace(under, "<").replace("<>", whole)
        return text if text[1] == "<" else text[1:-1]
    return cell


FORMATS = ("table", "json-lines", "csv")  # what serialize_relation writes


def serialize_relation(
    r: Relation,
    format: str = "table",
    *,
    show_default: bool = False,
    base_iri: str = DEFAULT_BASE_IRI,
) -> str:
    """Render a relation's exception rows (plus the wildcard row on request).

    A row is the ``term_text`` of each binding, in variable-name order, then
    the state; rows sort by those texts, as ``Relation.rows`` does."""
    names = sorted(v.name for v in r.vars)
    header = names + ["state"]
    rows = sorted([*map(term_text, row), _LABELS.get(v) or _value_label(v)]
                  for row, v in r.table.items())
    wildcard = [["*"] * len(names) + [_value_label(r.default)]] if show_default else []
    if format == "table":
        cell = _table_cell(base_iri)
        rows = [[*map(cell, row[:-1]), row[-1]] for row in rows]
        return "".join(" | ".join(row) + "\n" for row in [header, *rows, *wildcard])
    if format == "json-lines":
        if "state" in names:
            raise IllFormedQuery("json-lines cannot write variable ?state: "
                                 "its records use that key for the state")
        # json.dumps of the record {header[i]: row[i]}, each key escaped once
        keys = (_json_text(h).replace("{", "{{").replace("}", "}}") for h in header)
        record = ("{{" + ", ".join(k + ": {}" for k in keys) + "}}\n").format
        return "".join([record(*map(_json_text, row)) for row in rows + wildcard])
    if format == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *rows, *wildcard])
        return out.getvalue()
    raise ValueError(f"unknown format {format!r}")
