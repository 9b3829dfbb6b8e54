"""Command line front end.

Exit codes: 0 success, 1 differential disagreement, 2 syntax errors,
3 ill-formed queries, 4 results without finite support, 5 resource limits.
"""

from __future__ import annotations

import random
import sys

import click

from .algebra import DEFAULT_CAP, EvalMode, evaluate, in_scope
from .errors import (
    DuplicateTriple,
    IllFormedQuery,
    NonFinitelySupported,
    NonIriHolder,
    ParseError,
    UnboundBeliefVariable,
    UniverseTooLarge,
)
from .four import FourValue
from .model import (
    DEFAULT_BASE_IRI,
    DEFAULT_VOCAB_NAMESPACE,
    BeliefVocabulary,
    FourGraph,
    term_text,
)
from .oracle import DEFAULT_ORACLE_CAP, diff as diff_relations, oracle_eval
from .parser import FORMATS, desugar, parse_graph, parse_query, serialize_relation
from . import randgen

# The exit code of each error class a command reports; a subclass takes its
# nearest listed ancestor's code (see the module docstring).
_EXIT_CODES = {ParseError: 2, DuplicateTriple: 2,
               IllFormedQuery: 3, UnboundBeliefVariable: 3, NonIriHolder: 3,
               NonFinitelySupported: 4, UniverseTooLarge: 5}
_REPORTED = tuple(_EXIT_CODES)


def _guarded(action):
    try:
        return action()
    except _REPORTED as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(next(_EXIT_CODES[c] for c in type(e).__mro__ if c in _EXIT_CODES))


def _read_text(path: str) -> str:
    """A graph or query file's text; a byte that is not UTF-8 is a
    ParseError at its line and column."""
    with open(path, "rb") as handle:
        # line ends as text-mode open reads them: in UTF-8, CR and LF bytes
        # only ever stand for themselves
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[:e.start].decode("utf-8")
        raise ParseError(f"byte {data[e.start]:#04x} is not UTF-8", before.count("\n") + 1,
                         len(before) - before.rfind("\n")) from None


def _load_graph(path: str, base_iri: str) -> FourGraph:
    return parse_graph(_read_text(path), base_iri=base_iri)


def _answer(text: str, graph: FourGraph, vocab: BeliefVocabulary, mode: str, cap: int,
            fmt: str, show_default: bool, base_iri: str) -> str:
    """Parse, evaluate and serialize one query: what `query` and the repl print."""
    q = desugar(parse_query(text, base_iri=base_iri))
    r = evaluate(q, graph, vocab=vocab, mode=EvalMode(mode), cap=cap)
    return serialize_relation(r, fmt, show_default=show_default, base_iri=base_iri)


def _query_text(query_path, inline) -> str:
    if (query_path is None) == (inline is None):
        raise click.UsageError("provide exactly one of --query and --eval")
    return inline if inline is not None else _read_text(query_path)


_MODES = tuple(m.value for m in EvalMode)
_mode_option = click.option(
    "--mode",
    type=click.Choice(_MODES),
    default="active-domain",
    show_default=True,
    help="Evaluation mode.",
)
_format_option = click.option(
    "--format", "fmt",
    type=click.Choice(FORMATS),
    default="table",
    show_default=True,
    help="Result serialization.",
)
def _iri_prefix(ctx, param, value: str) -> str:
    """Refuse a base or namespace that would make every IRI built on it invalid."""
    if any(c.isspace() or c in "<>" for c in value):
        raise click.BadParameter("must not contain whitespace, '<' or '>'")
    return value


_base_option = click.option(
    "--base-iri", default=DEFAULT_BASE_IRI, show_default=True, callback=_iri_prefix,
    help="Base for resolving bare names.",
)
_vocab_option = click.option(
    "--vocab-ns", envvar="ESPARQL_VOCAB_NS", default=DEFAULT_VOCAB_NAMESPACE,
    show_default=True, callback=_iri_prefix, help="Namespace of the belief predicates.",
)


@click.group()
def main() -> None:
    """Epistemic queries over four-valued RDF-star graphs."""


@main.command("query")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--query", "query_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--eval", "inline", default=None, help="Inline query text.")
@_mode_option
@_format_option
@click.option("--show-default", is_flag=True, help="Append the wildcard row.")
@_base_option
@_vocab_option
@click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_CAP, show_default=True,
              help="Largest allowed enumeration size.")
def cmd_query(graph_path, query_path, inline, mode, fmt, show_default,
              base_iri, vocab_ns, cap) -> None:
    """Evaluate a query over a graph file."""

    def run():
        text = _query_text(query_path, inline)
        g = _load_graph(graph_path, base_iri)
        vocab = BeliefVocabulary.from_namespace(vocab_ns)
        click.echo(_answer(text, g, vocab, mode, cap, fmt, show_default, base_iri), nl=False)

    _guarded(run)


@main.command("check")
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--query", "query_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--eval", "inline", default=None, help="Inline query text.")
@_base_option
def cmd_check(graph_path, query_path, inline, base_iri) -> None:
    """Validate a graph file and/or a query without evaluating."""
    if graph_path is None and query_path is None and inline is None:
        raise click.UsageError("nothing to check; provide --graph and/or --query/--eval")

    def run():
        text = None if query_path is None and inline is None else _query_text(query_path, inline)
        if graph_path is not None:
            g = _load_graph(graph_path, base_iri)
            click.echo(
                f"graph {graph_path}: ok "
                f"({len(g.exceptions)} exceptions, default {g.default.label})"
            )
        if text is not None:
            label = "query <inline>" if query_path is None else f"query {query_path}"
            q = desugar(parse_query(text, base_iri=base_iri))
            names = ", ".join(sorted("?" + v.name for v in in_scope(q))) or "(none)"
            click.echo(f"{label}: ok (in scope: {names})")

    _guarded(run)


@main.command("diff")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cases", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_ORACLE_CAP, show_default=True)
@_vocab_option
def cmd_diff(seed, cases, cap, vocab_ns) -> None:
    """Run seeded random cases through the engine and the brute-force oracle."""
    vocab = BeliefVocabulary.from_namespace(vocab_ns)
    rng = random.Random(seed)
    checked = 0
    skipped = 0
    for index in range(cases):
        g = randgen.random_graph(rng, vocab=vocab)
        q = randgen.random_query(rng, vocab=vocab)
        try:
            engine = evaluate(q, g, vocab=vocab, mode=EvalMode.ACTIVE_DOMAIN, cap=cap)
            reference = oracle_eval(q, g, vocab=vocab, cap=cap)
        except UniverseTooLarge:
            skipped += 1
            click.echo(f"case {index}: skipped (universe too large)")
            continue
        disagreements = diff_relations(engine, reference)
        if disagreements:
            m, got, want = disagreements[0]
            where = ", ".join(f"?{v.name}={term_text(t)}" for v, t in m.bindings)
            click.echo(f"case {index}: disagreement at {{{where}}}: "
                       f"engine={got.label} oracle={want.label}")
            sys.exit(1)
        checked += 1
    click.echo(f"{checked} cases agree, {skipped} skipped")


@main.command("repl")
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False))
@_mode_option
@_format_option
@click.option("--show-default", is_flag=True)
@_base_option
@_vocab_option
@click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_CAP, show_default=True)
def cmd_repl(graph_path, mode, fmt, show_default, base_iri, vocab_ns, cap) -> None:
    """Interactive session: queries end with a blank line, ':quit' leaves."""
    state = {"graph": FourGraph(FourValue.UNKNOWN), "mode": mode, "format": fmt}
    vocab = BeliefVocabulary.from_namespace(vocab_ns)
    if graph_path is not None:
        state["graph"] = _guarded(lambda: _load_graph(graph_path, base_iri))
        click.echo(f"loaded {graph_path}")
    interactive = sys.stdin.isatty()

    def run_query(text: str) -> None:
        try:
            click.echo(_answer(text, state["graph"], vocab, state["mode"], cap,
                               state["format"], show_default, base_iri), nl=False)
        except _REPORTED as e:
            click.echo(f"error: {e}")

    def directive(line: str) -> bool:
        parts = line.split(None, 1)
        name = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else None
        if name == ":quit":
            return False
        if name == ":load":
            if not arg:
                click.echo("usage: :load <path>")
                return True
            try:
                state["graph"] = _load_graph(arg, base_iri)
                click.echo(f"loaded {arg}")
            except (OSError, *_REPORTED) as e:
                click.echo(f"error: {e}")
            return True
        if name in (":mode", ":format"):
            key = name[1:]
            allowed = _MODES if key == "mode" else FORMATS
            if arg is None:
                click.echo(state[key])
            elif arg in allowed:
                state[key] = arg
            else:
                click.echo(f"{key}s: {', '.join(allowed)}")
            return True
        click.echo(f"unknown directive {name}")
        return True

    buffer: list[str] = []
    while True:
        try:
            line = input("esparql> " if interactive and not buffer else
                         ("......> " if interactive else ""))
        except EOFError:
            break
        stripped = line.strip()
        if not buffer and stripped.startswith(":"):
            if not directive(stripped):
                return
            continue
        if stripped == "":
            if buffer:
                run_query("\n".join(buffer))
                buffer = []
            continue
        buffer.append(line)
    if buffer:
        run_query("\n".join(buffer))
