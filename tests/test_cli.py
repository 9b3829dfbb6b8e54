"""End-to-end checks of the command line front end via click's test runner."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import esparql
import esparql.algebra
import esparql.cli
from esparql.cli import main
from esparql.errors import (
    DuplicateTriple,
    EsparqlError,
    IllFormedQuery,
    NonFiniteBeliefExtraction,
    NonFinitelySupported,
    NonIriHolder,
    ParseError,
    ShapeMismatch,
    UnboundBeliefVariable,
    UniverseTooLarge,
)
from esparql.four import FourOperator, FourValue, apply as real_apply

from helpers import FUZZ_SOURCES, fixture_path, fixture_text, mutant


@pytest.fixture
def runner():
    return CliRunner()


def _fx(name):
    return str(fixture_path(name))


GRAPH = _fx("table1.f4s")


# --------------------------------------------------------------------- query


def test_query_prints_a_table(runner):
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--query", _fx("u1.esq")])
    assert result.exit_code == 0
    assert result.output == "deity | state\nJesus | true\n"


def test_query_show_default_appends_the_wildcard_row(runner):
    result = runner.invoke(
        main, ["query", "--graph", GRAPH, "--query", _fx("u1.esq"), "--show-default"]
    )
    assert result.output == "deity | state\nJesus | true\n* | unknown\n"


def test_query_formats_json_lines_and_csv(runner):
    base = ["query", "--graph", GRAPH, "--query", _fx("u1.esq")]
    jl = runner.invoke(main, base + ["--format", "json-lines"])
    assert jl.output == '{"deity": "<https://esparql.dev/data#Jesus>", "state": "true"}\n'
    csv = runner.invoke(main, base + ["--format", "csv"])
    assert csv.output == "deity,state\n<https://esparql.dev/data#Jesus>,true\n"


def test_query_accepts_inline_text(runner):
    result = runner.invoke(
        main,
        ["query", "--graph", GRAPH, "--eval", fixture_text("u1.esq")],
    )
    assert result.exit_code == 0
    assert result.output == "deity | state\nJesus | true\n"


def test_query_needs_exactly_one_source(runner):
    neither = runner.invoke(main, ["query", "--graph", GRAPH])
    assert neither.exit_code == 2
    assert "provide exactly one of --query and --eval" in neither.stderr
    both = runner.invoke(
        main,
        ["query", "--graph", GRAPH, "--query", _fx("u1.esq"), "--eval", "SELECT"],
    )
    assert both.exit_code == 2
    assert "provide exactly one of --query and --eval" in both.stderr


def test_syntax_errors_exit_with_2(runner):
    broken_query = runner.invoke(
        main, ["query", "--graph", GRAPH, "--query", _fx("bad.esq")]
    )
    assert broken_query.exit_code == 2
    assert broken_query.stderr == "error: 4:1: expected '.' or '}', found 'end of input'\n"

    broken_graph = runner.invoke(
        main,
        ["query", "--graph", _fx("dup.f4s"), "--eval", "SELECT ?x WHERE { ?x a ?y }"],
    )
    assert broken_graph.exit_code == 2
    assert broken_graph.stderr == (
        "error: 4:1: triple annotated twice: << <https://esparql.dev/data#PopeDI> "
        "<https://esparql.dev/data#a> <https://esparql.dev/data#Christian> >>\n"
    )


def test_whitespace_inside_an_iri_exits_with_2(runner, tmp_path):
    graph = tmp_path / "vt.f4s"
    graph.write_text("<a\x0bb> <p> <o> .\n")
    bad_graph = runner.invoke(
        main, ["query", "--graph", str(graph), "--eval", "SELECT * WHERE { ?s ?p ?o }"]
    )
    assert bad_graph.exit_code == 2
    assert bad_graph.stderr == "error: 1:3: bad character inside IRI\n"
    bad_query = runner.invoke(
        main, ["query", "--graph", GRAPH, "--eval", "SELECT * WHERE { ?s <p\x0c> ?o }"]
    )
    assert bad_query.exit_code == 2
    assert bad_query.stderr == "error: 1:23: bad character inside IRI\n"


@pytest.mark.parametrize("cond", ["!" * 1000 + "?s = ?o", "(" * 1000 + "?s = ?o" + ")" * 1000])
def test_conditions_nested_past_the_limit_exit_with_2(runner, tmp_path, cond):
    query = tmp_path / "deep.esq"
    head = "SELECT * WHERE { ?s ?p ?o . FILTER ("
    query.write_text(head + cond + ") }\n")
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--query", str(query)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    column = len(head) + 128 + 1
    assert result.stderr == f"error: 1:{column}: condition nested deeper than 128 levels\n"


def test_a_1500_branch_union_chain_exits_with_0(runner, tmp_path):
    query = tmp_path / "long.esq"
    query.write_text("SELECT * WHERE { " + " UNION ".join(["{ ?s ?p ?o }"] * 1500) + " }\n")
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--query", str(query)])
    assert result.exit_code == 0, result.stderr
    one = runner.invoke(main, ["query", "--graph", GRAPH, "--eval", "SELECT * WHERE { ?s ?p ?o }"])
    assert result.output == one.output
    result = runner.invoke(main, ["check", "--query", str(query)])
    assert result.exit_code == 0, result.stderr
    assert result.output == f"query {query}: ok (in scope: ?o, ?p, ?s)\n"


def test_selects_nested_past_the_limit_exit_with_2(runner, tmp_path):
    query = tmp_path / "deep.esq"
    query.write_text("SELECT * WHERE { " * 1000 + "?s ?p ?o" + " }" * 1000 + "\n")
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--query", str(query)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    column = 17 * 128 + 1  # the SELECT of level 129
    assert result.stderr == f"error: 1:{column}: SELECT nested deeper than 128 levels\n"


def test_groups_nested_past_the_limit_exit_with_2(runner, tmp_path):
    query = tmp_path / "deep.esq"
    query.write_text("SELECT * WHERE { " + "{ " * 999 + "?s ?p ?o"
                     + " } UNION { ?s ?p ?o }" * 999 + " }\n")
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--query", str(query)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    column = 17 + 2 * 127 + 1  # the '{' of level 129
    assert result.stderr == f"error: 1:{column}: groups nested deeper than 128 levels\n"


@pytest.mark.parametrize(
    "args",
    [
        ["query", "--graph", GRAPH, "--query", _fx("u1.esq"), "--base-iri", "http://x y/"],
        ["query", "--graph", GRAPH, "--query", _fx("u1.esq"), "--vocab-ns", "urn:v<#"],
        ["check", "--eval", "SELECT ?x WHERE { ?x a ?kind }", "--base-iri", "urn:\tx#"],
        ["diff", "--cases", "1", "--vocab-ns", "urn:v>#"],
    ],
)
def test_iri_prefixes_that_no_iri_can_start_with_are_usage_errors(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "must not contain whitespace, '<' or '>'" in result.stderr


def _nested(depth: int, inner: str) -> str:
    for _ in range(depth):
        inner = f"<< {inner} <p> <y> >>"
    return inner


def test_quoting_nests_up_to_the_limit_and_no_further(runner, tmp_path):
    from esparql.model import DEPTH_LIMIT as limit

    at_limit = tmp_path / "deep.f4s"
    at_limit.write_text(f"{_nested(limit, '<x>')} <says> <z> .\n")
    result = runner.invoke(
        main, ["query", "--graph", str(at_limit), "--eval", "SELECT ?s WHERE { ?s <says> <z> }"]
    )
    assert result.exit_code == 0, result.stderr
    assert result.output == f"s | state\n{_nested(limit, '<x>')} | true\n"

    past_limit = tmp_path / "deeper.f4s"
    past_limit.write_text(f"{_nested(limit + 1, '<x>')} <says> <z> .\n")
    result = runner.invoke(main, ["check", "--graph", str(past_limit)])
    assert result.exit_code == 2
    message = f"quoting nested deeper than {limit} levels"
    assert result.stderr == f"error: 1:{3 * limit + 1}: {message}\n"

    query = "SELECT * WHERE { " + _nested(limit + 1, "?x") + " <says> ?z }"
    result = runner.invoke(main, ["query", "--graph", str(at_limit), "--eval", query])
    assert result.exit_code == 2
    assert result.stderr == f"error: 1:{3 * limit + 18}: {message}\n"


def test_fuzzed_inputs_exit_with_a_documented_code_and_no_traceback(runner, tmp_path):
    rng, path = random.Random(2020), tmp_path / "mutant"
    for name in FUZZ_SOURCES:
        source = fixture_text(name)
        for _ in range(30):
            text = mutant(rng, source)
            path.write_text(text, encoding="utf-8")
            for args in (["query", "--graph", GRAPH, "--eval", text],
                         ["check", "--graph", str(path)], ["check", "--eval", text]):
                result = runner.invoke(main, args)
                assert result.exit_code in (0, 2, 3, 4, 5), (args, result.output)
                assert result.exception is None or isinstance(result.exception, SystemExit), \
                    (args, result.exception)


def test_files_that_are_not_utf8_exit_with_2_and_no_traceback(runner, tmp_path):
    graph, query = tmp_path / "bad.f4s", tmp_path / "bad.esq"
    graph.write_bytes(b"<a> <b> <c> .\r\n<d> \xff <e> .\n")
    query.write_bytes(b"SELECT * WHERE {\n  ?s <p\xfe> ?o }\n")
    graph_error = "error: 2:5: byte 0xff is not UTF-8\n"
    query_error = "error: 2:8: byte 0xfe is not UTF-8\n"
    for args, stderr in (
            (["query", "--graph", str(graph), "--eval", "SELECT * WHERE { ?s ?p ?o }"],
             graph_error),
            (["query", "--graph", GRAPH, "--query", str(query)], query_error),
            (["check", "--graph", str(graph)], graph_error),
            (["check", "--query", str(query)], query_error),
            (["check", "--graph", GRAPH, "--query", str(query)], query_error),
            (["repl", "--graph", str(graph)], graph_error)):
        result = runner.invoke(main, args, input=":quit\n")
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), (args, result.exception)
        assert result.stderr == stderr, args
        assert result.stdout == "", args


def test_scope_errors_exit_with_3(runner):
    result = runner.invoke(
        main, ["query", "--graph", GRAPH, "--query", _fx("proj_unused.esq")]
    )
    assert result.exit_code == 3
    assert result.stderr == "error: 2:1: projected variable ?nope is not in scope\n"


def test_non_finite_results_exit_with_4(runner):
    args = ["query", "--graph", GRAPH, "--query", _fx("meet-disjoint.esq")]
    open_mode = runner.invoke(main, args + ["--mode", "open"])
    assert open_mode.exit_code == 4
    assert open_mode.stderr == "error: join would repeat a one-sided row over every term of ?y\n"
    # the same query enumerates fine over the active domain
    bounded = runner.invoke(main, args)
    assert bounded.exit_code == 0
    assert bounded.output.splitlines()[1] == "Arius | << <Jesus> <a> <FullDeity> >> | true"


def test_open_filter_over_a_wide_join_answers(runner):
    # twelve variables in scope, two compared: no refusal
    query = ("SELECT INFO ?a ?b WHERE { ?a <p1> ?b . ?c <p2> ?d . ?e <p3> ?f . "
             "?g <p4> ?h . ?i <p5> ?j . ?k <p6> ?l . FILTER (?a = ?b) }")
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--mode", "open", "--eval", query])
    assert result.exit_code == 0, result.stderr
    assert result.output == "a | b | state\n"


def test_cap_overruns_exit_with_5(runner):
    result = runner.invoke(
        main, ["query", "--graph", GRAPH, "--query", _fx("u3.esq"), "--cap", "1000"]
    )
    assert result.exit_code == 5
    assert result.stderr == "error: |universe| ** |vars| = 17**4 exceeds cap 1000\n"


def test_cap_refusal_reports_the_widest_scope(runner):
    # the root projection binds two variables, the join under it four
    query = "SELECT ?a ?b WHERE { ?a <p> ?b . ?c <q> ?d }"
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--eval", query, "--cap", "17"])
    assert result.exit_code == 5
    assert result.stderr == "error: |universe| ** |vars| = 19**4 exceeds cap 17\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_query_cap_below_one_is_a_usage_error(runner, cap):
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--eval",
                                  "SELECT ?x WHERE { ?x a <Christian> }", "--cap", cap])
    assert result.exit_code == 2
    assert "Invalid value for '--cap'" in result.stderr


def test_repl_cap_below_one_is_a_usage_error(runner):
    result = runner.invoke(main, ["repl", "--graph", GRAPH, "--cap", "0"], input=":quit\n")
    assert result.exit_code == 2
    assert "Invalid value for '--cap'" in result.stderr
    assert "loaded" not in result.output


def test_diff_cap_below_one_is_a_usage_error(runner):
    result = runner.invoke(main, ["diff", "--cases", "1", "--cap", "0"])
    assert result.exit_code == 2
    assert "Invalid value for '--cap'" in result.stderr


def test_diff_cases_below_zero_is_a_usage_error(runner):
    result = runner.invoke(main, ["diff", "--cases", "-3"])
    assert result.exit_code == 2
    assert "Invalid value for '--cases'" in result.stderr
    assert "cases agree" not in result.output
    # no cases is a run that checks nothing
    assert runner.invoke(main, ["diff", "--cases", "0"]).output == "0 cases agree, 0 skipped\n"


def test_answers_do_not_depend_on_hash_order():
    # operators iterate the universe as a set, in hash order; the printed
    # answer of a densifying join and an equality filter must not show it.
    # IRIs hash by address, which the hash seed does not move, so each run
    # first interns a different number of unrelated IRIs
    src = Path(esparql.__file__).resolve().parent.parent
    inline = ("SELECT ?a ?b ?c WHERE { ?a <a> ?b . MAP IF (STATE IS TRUE) TO FALSE "
              "ELSE UNKNOWN . ?c <a> <Christian> . FILTER (?a = ?b) }")
    sources = [["--query", _fx(f"u{i}.esq")] for i in range(1, 5)] + [["--eval", inline]]
    for source in sources:
        outputs = set()
        for seed, unrelated in (("0", 0), ("1", 5), ("2", 13)):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
            stub = (f"from esparql.model import Iri; [Iri(f'urn:unrelated:{{i}}') for i in "
                    f"range({unrelated})]; from esparql.cli import main; main()")
            result = subprocess.run(
                [sys.executable, "-c", stub, "query", "--graph", GRAPH, *source,
                 "--show-default"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1, source


# ------------------------------------------------------------- output path

# a nested quoted triple, an IRI equal to the base and an IRI outside it
_CELLS_GRAPH = (
    "<s> <p> << <urn:x:o> <q> << <a> <b> <https://esparql.dev/data#> >> >> .\n"
    "<https://esparql.dev/data#> <p> <urn:x:o> .\n"
)
_NESTED = "<< <urn:x:o> <{0}q> << <{0}a> <{0}b> <https://esparql.dev/data#> >> >>"
_TABLE_CELLS = (
    "o | s | state\n"
    "<< <urn:x:o> <q> << <a> <b> <https://esparql.dev/data#> >> >> | s | true\n"
    "urn:x:o | https://esparql.dev/data# | true\n"
    "* | * | unknown\n"
)


@pytest.mark.parametrize("base, fmt, expected", [
    (None, "table", _TABLE_CELLS),
    (None, "csv",
     "o,s,state\n"
     f"{_NESTED.format('https://esparql.dev/data#')},<https://esparql.dev/data#s>,true\n"
     "<urn:x:o>,<https://esparql.dev/data#>,true\n"
     "*,*,unknown\n"),
    (None, "json-lines",
     f'{{"o": "{_NESTED.format("https://esparql.dev/data#")}", '
     '"s": "<https://esparql.dev/data#s>", "state": "true"}\n'
     '{"o": "<urn:x:o>", "s": "<https://esparql.dev/data#>", "state": "true"}\n'
     '{"o": "*", "s": "*", "state": "unknown"}\n'),
    ("", "table", _TABLE_CELLS),
    ("", "csv",
     "o,s,state\n"
     f"{_NESTED.format('')},<s>,true\n"
     "<urn:x:o>,<https://esparql.dev/data#>,true\n"
     "*,*,unknown\n"),
    ("", "json-lines",
     f'{{"o": "{_NESTED.format("")}", "s": "<s>", "state": "true"}}\n'
     '{"o": "<urn:x:o>", "s": "<https://esparql.dev/data#>", "state": "true"}\n'
     '{"o": "*", "s": "*", "state": "unknown"}\n'),
])
def test_result_cells_in_each_format(runner, tmp_path, base, fmt, expected):
    # rows sort by the full term texts, so the quoted triple comes first;
    # only table cells shorten IRIs, and never one equal to the base
    graph = tmp_path / "cells.f4s"
    graph.write_text(_CELLS_GRAPH)
    args = ["query", "--graph", str(graph), "--eval", "SELECT * WHERE { ?s <p> ?o }",
            "--format", fmt, "--show-default"]
    if base is not None:
        args += ["--base-iri", base]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr
    assert result.output == expected


@pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
def test_query_and_repl_print_the_same_answer(runner, fmt):
    text = fixture_text("u2.esq").strip()
    options = ["--graph", GRAPH, "--format", fmt, "--show-default"]
    query = runner.invoke(main, ["query", "--eval", text, *options])
    assert query.exit_code == 0, query.stderr
    repl = runner.invoke(main, ["repl", *options], input=text + "\n\n:quit\n")
    assert repl.exit_code == 0
    assert repl.output == f"loaded {GRAPH}\n" + query.output


_STATE_VARIABLE = "SELECT ?state ?o WHERE { ?state <a> ?o }"


@pytest.mark.parametrize("fmt, expected", [
    ("table", "o | state | state\nChristian | Arius | true\nChristian | PopeDI | true\n"),
    ("csv", "o,state,state\n<https://esparql.dev/data#Christian>,<https://esparql.dev/data#Arius>,"
            "true\n<https://esparql.dev/data#Christian>,<https://esparql.dev/data#PopeDI>,true\n"),
    ("json-lines", None),
])
def test_a_variable_named_state(runner, fmt, expected):
    # table and csv keep both columns; a json-lines record has one "state" key
    result = runner.invoke(main, ["query", "--graph", GRAPH, "--eval", _STATE_VARIABLE,
                                  "--format", fmt])
    repl = runner.invoke(main, ["repl", "--graph", GRAPH, "--format", fmt],
                         input=_STATE_VARIABLE + "\n")
    if expected is None:
        message = "error: json-lines cannot write variable ?state: " \
                  "its records use that key for the state\n"
        assert result.exit_code == 3
        assert result.stderr == message
        assert repl.output == f"loaded {GRAPH}\n{message}"
    else:
        assert result.exit_code == 0
        assert result.output == expected
        assert repl.output == f"loaded {GRAPH}\n{expected}"


def _error_classes(cls=EsparqlError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


# the words that the module docstring and the README put after each code
_DOCUMENTED = {
    ParseError: ("syntax errors", "syntax errors"),
    DuplicateTriple: ("syntax errors", "syntax errors"),
    IllFormedQuery: ("ill-formed queries", "ill-formed queries"),
    UnboundBeliefVariable: ("ill-formed queries", "ill-formed queries"),
    NonIriHolder: ("ill-formed queries", "ill-formed queries"),
    NonFinitelySupported: ("results without finite support", "no finite representation"),
    NonFiniteBeliefExtraction: ("results without finite support", "no finite representation"),
    UniverseTooLarge: ("resource limits", "enumeration cap exceeded"),
}


def test_every_error_query_can_raise_exits_with_its_documented_code(runner, monkeypatch):
    # ShapeMismatch comes only from comparing two relations, which `query` never does
    assert set(_error_classes()) - {ShapeMismatch} == set(_DOCUMENTED)
    readme = " ".join((Path(__file__).parent.parent / "README.md").read_text().split())
    docstring = " ".join(esparql.cli.__doc__.split())
    for cls, (doc_words, readme_words) in _DOCUMENTED.items():
        err = cls("boom", 1, 2) if cls in (ParseError, DuplicateTriple) else cls("boom")

        def fail(*args, **kwargs):
            raise err

        monkeypatch.setattr(esparql.cli, "evaluate", fail)
        result = runner.invoke(main, ["query", "--graph", GRAPH, "--query", _fx("u1.esq")])
        code = result.exit_code
        assert f"{code} {doc_words}" in docstring, cls
        assert f"`{code}` {readme_words}" in readme, cls
        assert result.stderr == f"error: {err}\n", cls
        repl = runner.invoke(main, ["repl"], input=fixture_text("u1.esq") + "\n")
        assert repl.output == f"error: {err}\n", cls


# --------------------------------------------------------------------- check


def test_check_reports_graph_and_query_summaries(runner):
    result = runner.invoke(main, ["check", "--graph", GRAPH, "--query", _fx("u1.esq")])
    assert result.exit_code == 0
    assert result.output == (
        f"graph {GRAPH}: ok (8 exceptions, default unknown)\n"
        f"query {_fx('u1.esq')}: ok (in scope: ?deity)\n"
    )


def test_check_labels_inline_queries(runner):
    result = runner.invoke(main, ["check", "--eval", "SELECT ?x WHERE { ?x a ?kind }"])
    assert result.exit_code == 0
    assert result.output == "query <inline>: ok (in scope: ?x)\n"


def test_package_runs_as_a_module():
    src = Path(esparql.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "esparql", "check", "--eval", "SELECT ?x WHERE { ?x a ?kind }"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "query <inline>: ok (in scope: ?x)\n"


def test_check_with_no_inputs_is_a_usage_error(runner):
    result = runner.invoke(main, ["check"])
    assert result.exit_code == 2
    assert "nothing to check" in result.stderr


def test_check_with_both_query_sources_is_a_usage_error(runner):
    result = runner.invoke(
        main, ["check", "--query", _fx("u1.esq"), "--eval", "SELECT ?x WHERE { ?x a ?kind }"]
    )
    assert result.exit_code == 2
    assert "provide exactly one of --query and --eval" in result.stderr


# ---------------------------------------------------------------------- diff


def test_diff_small_run_agrees_and_is_deterministic(runner):
    first = runner.invoke(main, ["diff", "--seed", "0", "--cases", "5"])
    assert first.exit_code == 0
    assert first.output == "5 cases agree, 0 skipped\n"
    second = runner.invoke(main, ["diff", "--seed", "0", "--cases", "5"])
    assert second.output == first.output


def test_diff_reports_and_counts_the_cases_it_skips(runner):
    result = runner.invoke(main, ["diff", "--seed", "0", "--cases", "5", "--cap", "300"])
    assert result.exit_code == 0
    assert result.output == (
        "case 1: skipped (universe too large)\n"
        "case 2: skipped (universe too large)\n"
        "case 3: skipped (universe too large)\n"
        "2 cases agree, 3 skipped\n"
    )


def _flipped_apply(op, a, b):
    if op == FourOperator.INFO_JOIN and {a, b} == {FourValue.TRUE, FourValue.FALSE}:
        return FourValue.TRUE
    return real_apply(op, a, b)


def test_diff_flags_an_engine_bug_with_exit_1(runner, monkeypatch):
    monkeypatch.setattr(esparql.algebra, "apply", _flipped_apply)
    result = runner.invoke(main, ["diff", "--seed", "0", "--cases", "25"])
    assert result.exit_code == 1
    last = result.output.splitlines()[-1]
    assert ": disagreement at {" in last
    assert "engine=true oracle=conflicted" in last


# --------------------------------------------------------------- vocabularies


def test_vocab_namespace_comes_from_flag_or_environment(runner, tmp_path):
    ns = "https://example.org/bel#"
    graph = tmp_path / "custom.f4s"
    graph.write_text(fixture_text("table1.f4s").replace("https://esparql.dev/vocab#", ns))
    args = ["query", "--graph", str(graph), "--query", _fx("u1.esq")]

    # with the default vocabulary the belief triples are just opaque data
    plain = runner.invoke(main, args)
    assert plain.output == "deity | state\n"

    flagged = runner.invoke(main, args + ["--vocab-ns", ns])
    assert flagged.output == "deity | state\nJesus | true\n"

    via_env = runner.invoke(main, args, env={"ESPARQL_VOCAB_NS": ns})
    assert via_env.output == flagged.output


# ---------------------------------------------------------------------- repl


def test_repl_session_runs_queries_and_directives(runner):
    session = (
        "SELECT INFO ?deity FROM BELIEF <PopeDI> WHERE { ?deity a <FullDeity> }\n"
        "\n"
        ":format csv\n"
        ":mode\n"
        "SELECT ?x WHERE { broken\n"
        "\n"
        ":wat\n"
        "SELECT ?x WHERE { ?x a <Christian> }"
    )
    result = runner.invoke(main, ["repl", "--graph", GRAPH], input=session)
    assert result.exit_code == 0
    assert result.output == (
        f"loaded {GRAPH}\n"
        "deity | state\n"
        "Jesus | true\n"
        "active-domain\n"
        "error: 1:19: expected an IRI, a variable or a quoted pattern, found 'broken'\n"
        "unknown directive :wat\n"
        # the trailing query has no blank line; end of input flushes it, in csv
        "x,state\n"
        "<https://esparql.dev/data#Arius>,true\n"
        "<https://esparql.dev/data#PopeDI>,true\n"
    )


def test_repl_quit_stops_reading(runner):
    result = runner.invoke(
        main,
        ["repl", "--graph", GRAPH],
        input=":quit\nSELECT ?x WHERE { ?x a <Christian> }\n\n",
    )
    assert result.exit_code == 0
    assert result.output == f"loaded {GRAPH}\n"


def test_repl_load_switches_graphs(runner, tmp_path):
    other = tmp_path / "other.f4s"
    other.write_text("<Arius> <a> <Christian> .\n")
    session = f":load {other}\nSELECT ?x WHERE {{ ?x <a> <Christian> }}\n\n:quit\n"
    result = runner.invoke(main, ["repl"], input=session)
    assert result.exit_code == 0
    assert result.output == f"loaded {other}\nx | state\nArius | true\n"


def test_repl_reports_missing_load_target_and_continues(runner):
    session = ":load /no/such/file.f4s\n:quit\n"
    result = runner.invoke(main, ["repl"], input=session)
    assert result.exit_code == 0
    assert result.output.startswith("error: ")


def test_repl_survives_loading_a_file_that_is_not_utf8(runner, tmp_path):
    bad = tmp_path / "bad.f4s"
    bad.write_bytes(b"<Arius> <a> <Christian\xff> .\n")
    session = f":load {bad}\nSELECT ?x WHERE {{ ?x a <Christian> }}\n\n:quit\n"
    result = runner.invoke(main, ["repl", "--graph", GRAPH], input=session)
    assert result.exit_code == 0
    assert result.output == (f"loaded {GRAPH}\nerror: 1:23: byte 0xff is not UTF-8\n"
                             "x | state\nArius | true\nPopeDI | true\n")


def test_repl_directives_answer_bad_or_missing_arguments(runner):
    session = ":mode open\n:mode\n:mode bogus\n:format\n:format bogus\n:load\n:quit\n"
    result = runner.invoke(main, ["repl"], input=session)
    assert result.exit_code == 0
    assert result.output == (
        "open\n"
        "modes: active-domain, open\n"
        "table\n"
        "formats: table, json-lines, csv\n"
        "usage: :load <path>\n"
    )
