"""End-to-end checks of the command line front end via click's test runner."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import esparql
import esparql.algebra
from esparql.cli import main
from esparql.fixtures import fixture_path, fixture_text
from esparql.four import FourOperator, FourValue, apply as real_apply


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
    assert open_mode.stderr == (
        "error: join of relations with disjoint variables whose defaults do not absorb\n"
    )
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


# ---------------------------------------------------------------------- diff


def test_diff_small_run_agrees_and_is_deterministic(runner):
    first = runner.invoke(main, ["diff", "--seed", "0", "--cases", "5"])
    assert first.exit_code == 0
    assert first.output == "5 cases agree, 0 skipped\n"
    second = runner.invoke(main, ["diff", "--seed", "0", "--cases", "5"])
    assert second.output == first.output


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
