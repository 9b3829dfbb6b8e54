"""Exception hierarchy shared across the engine.

Grouped here so the CLI can map each class to a stable exit code without
importing every subsystem.
"""

from __future__ import annotations


class EsparqlError(Exception):
    """Base class for every error raised by this package."""


class ParseError(EsparqlError):
    """Syntax error in a graph file or query, with a 1-based position."""

    def __init__(self, message: str, line: int, column: int,
                 expected: str | None = None, found: str | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(f"{line}:{column}: {message}")


class DuplicateTriple(EsparqlError):
    """A graph file annotates the same triple twice."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


class IllFormedQuery(EsparqlError):
    """A query violates a scoping rule and has no defined value."""


class UnboundBeliefVariable(EsparqlError):
    """A belief query was extracted with a binding missing one of its holder variables."""


class NonIriHolder(EsparqlError):
    """A belief holder variable was bound to something other than an IRI."""


class NonFinitelySupported(EsparqlError):
    """The result exists semantically but has no finite default+exception table."""


class NonFiniteBeliefExtraction(NonFinitelySupported):
    """Belief extraction over a graph whose default state asserts belief.

    When the graph default is true or conflicted, every one of the infinitely
    many absent belief triples would contribute to the extraction.
    """


class UniverseTooLarge(EsparqlError):
    """An enumeration bound (|universe| ** |vars|) exceeded the configured cap."""


class ShapeMismatch(EsparqlError):
    """Two relations cannot be diffed: variables or universe differ."""
