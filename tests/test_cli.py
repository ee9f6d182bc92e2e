import inspect
import os
import sys

import pytest

from cfcolor import cli, fileio, prob
from cfcolor.coloring import ListAssignment
from cfcolor.errors import BudgetExceededError
from cfcolor.reductions import FIGURE_FORMULA
from util import (
    cycle_graph,
    format_formula,
    format_hypergraph,
    path_graph,
    run_python,
)


def write_c4(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text(fileio.format_graph(cycle_graph(4)))
    return str(p)


def write_figure(tmp_path):
    p = tmp_path / "fig.cnf"
    p.write_text(format_formula(FIGURE_FORMULA))
    return str(p)


def test_solve_and_verify_round_trip(tmp_path, capsys):
    g = write_c4(tmp_path)
    out = str(tmp_path / "col.txt")
    assert cli.main(["solve", "--graph", g, "--uniform", "2", "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--graph", g, "--coloring", out]) == 0
    assert "valid yes" in capsys.readouterr().out


def test_solve_no_answer_exits_1(tmp_path, capsys):
    g = write_c4(tmp_path)
    assert cli.main(["solve", "--graph", g, "--uniform", "1"]) == 1
    assert "no coloring" in capsys.readouterr().out


def test_chromatic(tmp_path, capsys):
    g = write_c4(tmp_path)
    assert cli.main(["solve", "--graph", g, "--chromatic"]) == 0
    assert "chromatic 2" in capsys.readouterr().out


def test_choose_no_prints_witness(tmp_path, capsys):
    g = write_c4(tmp_path)
    assert cli.main(["choose", "--graph", g, "--k", "1"]) == 1
    out = capsys.readouterr().out
    assert "choosable k=1 no" in out
    assert "l 1 1" in out


def test_oracle_yes_and_no(tmp_path, capsys):
    f = write_figure(tmp_path)
    assert cli.main(["oracle", "--formula", f]) == 0
    assert capsys.readouterr().out.strip() == "x1 x4"
    unsat = tmp_path / "unsat.cnf"
    # two clauses on the same three variables minus... x1+x2+x3 == 1 twice is
    # satisfiable; force contradiction with overlapping clauses instead
    unsat.write_text("p cnf 4 3\n1 2 3 0\n1 2 4 0\n3 4 1 0\n")
    code = cli.main(["oracle", "--formula", str(unsat)])
    captured = capsys.readouterr().out
    from cfcolor.reductions import Formula
    from util import all_one_in_three

    expect = all_one_in_three(Formula(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3))))
    assert code == (0 if expect else 1)


def test_reduce_writes_rolemap(tmp_path, capsys):
    f = write_figure(tmp_path)
    out = str(tmp_path / "g.txt")
    roles = str(tmp_path / "roles.txt")
    assert (
        cli.main(
            [
                "reduce",
                "--formula",
                f,
                "--target",
                "gdoubleprime",
                "--out",
                out,
                "--rolemap",
                roles,
            ]
        )
        == 0
    )
    capsys.readouterr()
    g = fileio.parse_graph(open(out).read())
    assert g.n == 14
    role_text = open(roles).read()
    assert "variable" in role_text and "pendant" in role_text


def test_gadget_hg(tmp_path, capsys):
    g = write_c4(tmp_path)
    assert cli.main(["gadget-hg", "--graph", g]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "p graph 52 144"


def test_edc(tmp_path, capsys):
    g = write_c4(tmp_path)
    assert cli.main(["edc", "--graph", g]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "p graph 8 12"


def test_pipeline_requires_seed(tmp_path, capsys):
    g = write_c4(tmp_path)
    assert cli.main(["pipeline", "--graph", g, "--lists", "RANGE:200"]) == 3


def test_pipeline_scaled_run_and_trace(tmp_path, capsys):
    g = write_c4(tmp_path)
    trace = str(tmp_path / "trace.txt")
    code = cli.main(
        [
            "pipeline",
            "--graph",
            g,
            "--lists",
            "RANGE:200",
            "--seed",
            "3",
            "--scaled",
            "--trace",
            trace,
        ]
    )
    assert code == 0
    capsys.readouterr()
    text = open(trace).read()
    assert "k 3" in text and "delegated no" in text


def test_pipeline_on_the_empty_graph(tmp_path, capsys):
    # the empty coloring is a CFCN* coloring of the graph with no vertex
    gp = tmp_path / "empty.txt"
    gp.write_text("p graph 0 0\n")
    out, trace = tmp_path / "col.txt", tmp_path / "trace.txt"
    args = ["--graph", str(gp), "--lists", "RANGE:1", "--seed", "1"]
    assert cli.main(["pipeline", *args, "--out", str(out), "--trace", str(trace)]) == 0
    assert out.read_text() == ""
    lines = trace.read_text().splitlines()
    assert {"k 2", "r 0", "delegated no"} <= set(lines)


def test_hypergraph_instances(tmp_path, capsys):
    hp = tmp_path / "h.txt"
    hp.write_text("p hgraph 4 3\nh 1 2 3\nh 2 3 4\nh 1 4\n")
    h = ["--hgraph", str(hp)]
    col = str(tmp_path / "col.txt")
    assert cli.main(["solve", *h, "--uniform", "2", "--total", "--out", col]) == 0
    assert cli.main(["verify", *h, "--coloring", col, "--total"]) == 0
    capsys.readouterr()
    # exactly one of {1, 2, 3}, of {2, 3, 4} and of {1, 4} is impossible
    assert cli.main(["choose", *h, "--k", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [f"l {v} 1" for v in range(1, 5)] == [x for x in out if x.startswith("l ")]
    assert cli.main(["choose", *h, "--k", "2"]) == 0

    # the report numbers vertices from 0: vertices 3 and 4 of the file are
    # uncolored, and vertex 1's color is outside its list
    part = tmp_path / "part.txt"
    part.write_text("v 1 1\nv 2 2\n")
    capsys.readouterr()
    assert cli.main(["verify", *h, "--coloring", str(part), "--total"]) == 1
    assert "vertex 2 violation uncolored" in capsys.readouterr().out.splitlines()
    lists = tmp_path / "lists.txt"
    lists.write_text("l 1 2 3\nl 2 2\nl 3 1\nl 4 1\n")
    assert cli.main(["verify", *h, "--coloring", str(part), "--lists", str(lists)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "vertex 0 violation color-not-in-list" in out


def test_flag_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    lemma = parser.parse_args(["lemma", "--hgraph", "h.txt", "--seed", "1"])
    pipeline = parser.parse_args(
        ["pipeline", "--graph", "g.txt", "--lists", "RANGE:1", "--seed", "1"]
    )
    lemma_defaults = inspect.signature(prob.near_uniform_color).parameters
    pipeline_defaults = inspect.signature(prob.cfcn_pipeline).parameters
    assert lemma.list_factor == lemma_defaults["list_factor"].default == 32
    assert lemma.max_rounds == lemma_defaults["max_rounds"].default == 1000
    assert lemma.alpha is lemma_defaults["alpha_override"].default is None
    assert pipeline.retries == pipeline_defaults["retry_limit"].default == 10
    assert pipeline.scaled is pipeline_defaults["scaled_mode"].default is False
    assert pipeline.k_override is pipeline_defaults["k_override"].default is None


def test_lemma_subcommand(tmp_path, capsys):
    import random

    from cfcolor.graphs import random_hypergraph

    h = random_hypergraph(32, 8, 8, 12, random.Random(0))
    hp = tmp_path / "h.txt"
    hp.write_text(format_hypergraph(h))
    code = cli.main(
        ["lemma", "--hgraph", str(hp), "--seed", "4", "--alpha", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("rounds ")


def test_lemma_on_an_edgeless_hypergraph(tmp_path, capsys):
    hp = tmp_path / "h.txt"
    hp.write_text("p hgraph 3 0\n")
    assert cli.main(["lemma", "--hgraph", str(hp), "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "rounds 0"


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--uniform", "2"],
        ["choose", "--k", "2"],
        ["verify", "--coloring", "col.txt"],
    ],
)
def test_instance_needs_exactly_one_of_graph_and_hgraph(tmp_path, capsys, command):
    hp = tmp_path / "h.txt"
    hp.write_text("p hgraph 2 1\nh 1 2\n")
    both = ["--graph", write_c4(tmp_path), "--hgraph", str(hp)]
    # exit 3 (input), never 1 ("no") from a crash
    assert cli.main(command) == 3
    assert cli.main(command + both) == 3
    assert "--graph" in capsys.readouterr().err


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p graph 2 1\ne 1 1\n")
    assert cli.main(["solve", "--graph", str(bad), "--uniform", "2"]) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["on", "on-star"])
def test_an_isolated_vertex_is_named_as_in_the_file(tmp_path, capsys, variant):
    # the file's vertex 3 is the isolated one; the library counts from 0
    gp = tmp_path / "g.txt"
    gp.write_text("p graph 3 1\ne 1 2\n")
    argv = ["solve", "--graph", str(gp), "--variant", variant, "--uniform", "1"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        f"input error: vertex 3 is isolated; --variant {variant} needs every "
        "open neighborhood non-empty\n"
    )


def test_lemma_rejects_a_repeated_vertex_with_exit_3(tmp_path, capsys):
    hp = tmp_path / "h.txt"
    hp.write_text("p hgraph 3 1\nh 1 1 2\n")
    assert cli.main(["lemma", "--hgraph", str(hp), "--seed", "1"]) == 3
    assert "line 2: vertex 1 repeated in hyperedge" in capsys.readouterr().err


def test_integer_input_errors_exit_3_with_line_number(tmp_path, capsys):
    g = write_c4(tmp_path)
    lists = tmp_path / "lists.txt"
    lists.write_text("l 1 1 2\nl 2 -2\nl 3 1\nl 4 1\n")
    assert cli.main(["solve", "--graph", g, "--lists", str(lists)]) == 3
    assert "input error: line 2: color -2 is below 0" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("c x\np graph 2 z\n")
    assert cli.main(["choose", "--graph", str(bad), "--k", "2"]) == 3
    assert "line 2: header count is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["solve", "--hgraph", "H", "--variant", "cn", "--uniform", "1"],
        ["verify", "--hgraph", "H", "--variant", "cn-star", "--coloring", "C"],
        ["solve", "--graph", "G", "--total", "--uniform", "2"],
        ["solve", "--graph", "G", "--uniform", "2", "--chromatic"],
        ["solve", "--graph", "G", "--lists", "RANGE:2", "--uniform", "2"],
        ["solve", "--graph", "G"],
        ["solve", "--graph", "G", "--uniform", "2", "--budget", "-5"],
        ["choose", "--graph", "G", "--k", "2", "--budget", "-1"],
        ["choose", "--graph", "G", "--k", "2", "--assignment-budget", "-1"],
    ],
)
def test_ignored_or_out_of_range_flags_exit_3(tmp_path, capsys, flags):
    # each flag was ignored, or one list source silently won, or a
    # negative budget tripped at once (exit 2); no list source at all
    # was and is an input error
    h, c = tmp_path / "h.txt", tmp_path / "c.txt"
    h.write_text("p hgraph 3 1\nh 1 2 3\n")
    c.write_text("v 1 1\n")
    paths = {"G": write_c4(tmp_path), "H": str(h), "C": str(c)}
    assert cli.main([paths.get(f, f) for f in flags]) == 3
    assert capsys.readouterr().out == ""


def test_missing_file_exit_code(tmp_path, capsys):
    assert (
        cli.main(["solve", "--graph", str(tmp_path / "nope"), "--uniform", "2"])
        == 3
    )


def test_budget_exit_code(tmp_path, capsys):
    g = write_c4(tmp_path)
    out = tmp_path / "col.txt"
    argv = ["solve", "--graph", g, "--uniform", "2"]
    assert cli.main(argv + ["--budget", "1", "--out", str(out)]) == 2
    assert "budget" in capsys.readouterr().err
    # a call inherits no flag from the call before it
    assert cli.main(argv) == 0
    assert not out.exists()


def test_range_lists_over_the_dense_color_cap_exit_2(tmp_path, capsys):
    # each list is cut to its first 1500 colors, and the cut lists of the
    # 1500 vertices are disjoint
    n = 1500
    g = tmp_path / "path.txt"
    g.write_text(fileio.format_graph(path_graph(n)))
    lists = tmp_path / "lists.txt"
    lists.write_text(
        "".join(f"L {v} {v * 10**6} {(v + 1) * 10**6}\n" for v in range(1, n + 1))
    )
    assert cli.main(["solve", "--graph", str(g), "--lists", str(lists)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource budget exceeded: range lists span 2250000 colors, "
        "over the dense-color cap\n"
    )


def test_choose_assignment_budget_exits_2(tmp_path, capsys):
    g = tmp_path / "c5.txt"
    g.write_text(fileio.format_graph(cycle_graph(5)))
    argv = ["choose", "--graph", str(g), "--k", "2", "--assignment-budget", "5"]
    assert cli.main(argv) == 2
    # the error says how far the walk got
    err = capsys.readouterr().err
    assert "exceeded 5 assignments: reached 5 leaves, made 2 solver calls" in err
    assert "pool of 2 colorings" in err
    # leaves, solver calls, pool and skips together pin the walk's order
    # and its budget accounting
    for graph, variant, budget, leaves, calls, skipped in (
        (path_graph(5), "on-star", 20, 20, 5, 0),
        (path_graph(5), "cn-star", 200, 110, 31, 90),
        (cycle_graph(6), "on-star", 200, 41, 41, 159),
    ):
        g.write_text(fileio.format_graph(graph))
        argv = ["choose", "--graph", str(g), "--variant", variant, "--k", "2"]
        assert cli.main(argv + ["--assignment-budget", str(budget)]) == 2
        assert (
            f"exceeded {budget} assignments: reached {leaves} leaves, made "
            f"{calls} solver calls, pool of {calls} colorings, skipped "
            f"{skipped} subtrees\n"
        ) in capsys.readouterr().err
    # every vertex of P4 shares open neighbourhoods with one other vertex,
    # so P4 ON* is 2-choosable without a walk, whatever the budget
    g.write_text(fileio.format_graph(path_graph(4)))
    argv = ["choose", "--graph", str(g), "--variant", "on-star", "--k", "2"]
    assert cli.main(argv + ["--assignment-budget", "0"]) == 0


def test_sweep_propositions_small(capsys):
    assert cli.main(["sweep", "--suite", "propositions", "--max-n", "3"]) == 0
    assert "pass" in capsys.readouterr().out


def test_sweep_propositions_refuses_order_8_at_once(capsys):
    # the orders are enumerated largest first, so 1..7 are never swept
    assert cli.main(["sweep", "--suite", "propositions", "--max-n", "8"]) == 3
    captured = capsys.readouterr()
    assert "input error: nonisomorphic_graphs enumerates n <= 7" in captured.err
    assert captured.out == ""


def test_help_exits_clean(capsys):
    assert cli.main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out


def test_lemma_round_cap_exits_2(tmp_path, capsys):
    import random

    from cfcolor.graphs import random_hypergraph

    h = random_hypergraph(400, 300, 8, 12, random.Random(1))
    hp = tmp_path / "h.txt"
    hp.write_text(format_hypergraph(h))
    # the round cap is a budget: exit 2, never 1 ("no") or a traceback
    argv = ["lemma", "--hgraph", str(hp), "--list-factor", "1", "--alpha", "8"]
    for seed in range(1, 6):
        assert cli.main(argv + ["--max-rounds", "1", "--seed", str(seed)]) == 2
        assert "resampling rounds" in capsys.readouterr().err


def test_exit_code_table(tmp_path, monkeypatch, capsys):
    """Failures exit 2, never 1 ("no"): a kernel that crashes with
    RecursionError, and a pipeline whose exact fallback finds nothing.  A
    2000-vertex path answers on either kernel: both search with an
    explicit per-depth state, not by recursion."""
    from cfcolor import _kernel_py, kernels, prob
    path = tmp_path / "path.txt"
    path.write_text(fileio.format_graph(path_graph(2000)))
    solve_path = ["solve", "--graph", str(path), "--uniform", "2"]
    pipeline = ["pipeline", "--graph", write_c4(tmp_path), "--lists", "RANGE:200"]
    pipeline += ["--seed", "1", "--scaled", "--retries", "1"]

    def failed_attempt(*args, **kwargs):
        raise prob.PipelineError("test", "attempt fails")

    def crashed_search(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    table = [
        (solve_path, {}, 0),
        (solve_path, {(kernels, "search"): _kernel_py.search}, 0),
        (solve_path, {(kernels, "search"): crashed_search}, 2),
        (
            pipeline,
            {
                (prob, "_core"): failed_attempt,
                (prob, "solve_list_cf"): lambda *args, **kwargs: None,
            },
            2,
        ),
    ]
    for argv, patches, code in table:
        with monkeypatch.context() as patched:
            for (module, name), value in patches.items():
                patched.setattr(module, name, value)
            assert cli.main(argv) == code, (argv, patches)
        capsys.readouterr()


_CRASHED_PROCESS = """
import runpy, sys
from types import SimpleNamespace
from cfcolor import kernels, solve

def raise_key_error(*args, **kwargs):
    raise KeyError("no such key")

if %r == "verify":
    solve.verify_cf = lambda *args, **kwargs: SimpleNamespace(valid=False)
else:
    kernels.search = raise_key_error
sys.argv = ["cfcolor", "solve", "--graph", %r, "--uniform", "2"]
runpy.run_module("cfcolor.cli", run_name="__main__")
"""


@pytest.mark.parametrize(
    "patched,message",
    [
        ("verify", "AssertionError: solver produced a coloring that fails verification"),
        ("search", "KeyError: 'no such key'"),
    ],
)
def test_a_crashed_process_exits_2(tmp_path, monkeypatch, patched, message):
    # a failed self-check or any other escaped exception is a crash, not
    # a "no": the process entry exits 2 and names it on stderr after its
    # traceback, while an in-process cli.main lets it escape
    g = write_c4(tmp_path)
    done = run_python(_CRASHED_PROCESS % (patched, g), check=False, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("Traceback (most recent call last):\n")
    assert done.stderr.endswith(f"\ninternal error: {message}\n")
    from types import SimpleNamespace

    from cfcolor import kernels, solve

    if patched == "verify":
        monkeypatch.setattr(solve, "verify_cf", lambda *a, **k: SimpleNamespace(valid=False))
    else:
        monkeypatch.setattr(kernels, "search", lambda *a, **k: {}["no such key"])
    with pytest.raises((AssertionError, KeyError), match=message.split(": ", 1)[1]):
        cli.main(["solve", "--graph", g, "--uniform", "2"])


_OVERSIZED_EDGE_COUNT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cfcolor import cli
open(%r, "w").write("p graph 3 99999999999\\ne 1 2\\n")
sys.exit(cli.main(["edc", "--graph", %r]))
"""


def test_an_edge_count_the_text_cannot_hold_exits_3(tmp_path):
    # the header's edge count sizes no allocation: within a 2 GiB address
    # space the record loop counts the one edge and names the mismatch
    path = str(tmp_path / "g.txt")
    done = run_python(_OVERSIZED_EDGE_COUNT % (path, path), check=False, timeout=60)
    assert done.returncode == 3
    assert done.stderr == "input error: header declares 99999999999 edges, found 1\n"


@pytest.mark.parametrize("flag", ["--out", "--trace", "--rolemap", "--report"])
def test_unwritable_output_path_exits_3(tmp_path, capsys, flag):
    g = write_c4(tmp_path)
    col = tmp_path / "col.txt"
    col.write_text("v 1 1\n")
    argv = {
        "--out": ["solve", "--graph", g, "--uniform", "2"],
        "--trace": ["pipeline", "--graph", g, "--lists", "RANGE:200"]
        + ["--seed", "3", "--scaled"],
        "--rolemap": ["reduce", "--formula", write_figure(tmp_path)]
        + ["--target", "gprime"],
        "--report": ["verify", "--graph", g, "--coloring", str(col)],
    }[flag]
    bad = str(tmp_path / "no-such-dir" / "x.txt")
    # exit 3 (input), never 1 ("no") from an escaped OSError
    assert cli.main(argv + [flag, bad]) == 3
    assert f"input error: cannot write {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["RANGE:x", "RANGE:", "RANGE:0", "RANGE:-3"])
def test_malformed_lists_range_names_the_flag(tmp_path, capsys, spec):
    g = write_c4(tmp_path)
    for argv in (["solve", "--graph", g], ["pipeline", "--graph", g, "--seed", "1"]):
        assert cli.main(argv + ["--lists", spec]) == 3
        message = f"input error: --lists {spec}: r must be an integer >= 1"
        assert message in capsys.readouterr().err


HUGE = "100000000000000000000"  # colors in a range longer than sys.maxsize


def test_huge_implicit_lists_exit_3(tmp_path, capsys):
    # len() of such a range raises OverflowError, which escaped as a
    # traceback and exit 1 ("no"); the list is rejected as input instead
    g = write_c4(tmp_path)
    hp = tmp_path / "h.txt"
    hp.write_text("p hgraph 3 1\nh 1 2 3\n")
    lists = tmp_path / "lists.txt"
    lists.write_text("".join(f"L {v} 0 {HUGE}\n" for v in range(1, 5)))
    for argv in (
        ["pipeline", "--graph", g, "--lists", f"RANGE:{HUGE}", "--seed", "1"],
        ["lemma", "--hgraph", str(hp), "--lists", f"RANGE:{HUGE}"]
        + ["--seed", "1", "--alpha", "1"],
        ["solve", "--graph", g, "--lists", f"RANGE:{HUGE}"],
        ["solve", "--graph", g, "--lists", str(lists)],
    ):
        assert cli.main(argv) == 3, argv
        assert "implicit range lists hold at most" in capsys.readouterr().err
    with pytest.raises(ValueError, match="implicit range lists hold at most"):
        ListAssignment([range(int(HUGE))])
    assert ListAssignment([range(1, sys.maxsize + 1)]).size(0) == sys.maxsize


def test_oversized_integers_exit_3(tmp_path, capsys):
    # each raised OverflowError, which escaped as a traceback and exit 1
    g = tmp_path / "c5.txt"
    g.write_text(fileio.format_graph(cycle_graph(5)))
    for argv in (
        ["pipeline", "--graph", str(g), "--lists", "RANGE:500", "--seed", "1"]
        + ["--k-override", "1" + "0" * 400],
        ["sweep", "--suite", "lemma", "--size", f"1..{HUGE}"],
    ):
        assert cli.main(argv) == 3, argv
        assert "input error" in capsys.readouterr().err


_HUGE_UNIFORM = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cfcolor import cli
sys.exit(cli.main(["solve", "--graph", %r, "--uniform", "100000000000"]))
"""


def test_huge_uniform_list_is_not_built(tmp_path, capsys):
    # {1..k} is a range; the symmetric search cuts it to n colors, so the
    # coloring is the one for k = n.  Built as a tuple it ran out of the
    # 1 GiB address space (exit 2); unlimited it takes the machine's memory
    g = write_c4(tmp_path)
    out = run_python(_HUGE_UNIFORM % g, timeout=60).stdout
    assert cli.main(["solve", "--graph", g, "--uniform", "4"]) == 0
    assert out == capsys.readouterr().out


@pytest.mark.parametrize("size", ["5", "a..b", "10..5", "0..4"])
def test_malformed_sweep_size_names_the_flag(capsys, size):
    assert cli.main(["sweep", "--suite", "lemma", "--size", size]) == 3
    message = f"argument --size: invalid size_range value: '{size}'"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (["solve", "--graph", "G", "--uniform", "0"], "--uniform", "0"),
        (["solve", "--graph", "G", "--uniform", "-2"], "--uniform", "-2"),
        (["lemma", "--hgraph", "H", "--seed", "1", "--list-factor", "0"], "--list-factor", "0"),
        # a lemma sweep over no edges would print "pass" having checked nothing
        (["sweep", "--suite", "lemma", "--edges", "0"], "--edges", "0"),
        (["sweep", "--suite", "lemma", "--edges", "-5"], "--edges", "-5"),
        (["choose", "--graph", "G", "--k", "0"], "--k", "0"),
        # the pipeline raises a k below 2 to 2, so -5 would run unnoticed
        (
            ["pipeline", "--graph", "G", "--lists", "RANGE:50", "--seed", "1"]
            + ["--scaled", "--k-override", "-5"],
            "--k-override",
            "-5",
        ),
        (
            ["pipeline", "--graph", "G", "--lists", "RANGE:50", "--seed", "1"]
            + ["--retries", "0"],
            "--retries",
            "0",
        ),
        (["lemma", "--hgraph", "H", "--seed", "1", "--alpha", "-4"], "--alpha", "-4"),
        (["lemma", "--hgraph", "H", "--seed", "1", "--max-rounds", "0"], "--max-rounds", "0"),
    ],
)
def test_sizes_and_counts_below_one_name_the_flag(tmp_path, capsys, argv, flag, value):
    hp = tmp_path / "h.txt"
    hp.write_text("p hgraph 3 1\nh 1 2 3\n")
    paths = {"G": write_c4(tmp_path), "H": str(hp)}
    assert cli.main([paths.get(a, a) for a in argv]) == 3
    captured = capsys.readouterr()
    assert f"argument {flag}: invalid positive value: '{value}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "propositions", "--max-n", "4"],
        ["--suite", "reductions"],
        ["--suite", "lemma"],
        ["--suite", "pipeline"],
    ],
)
def test_every_sweep_suite_passes_at_its_defaults(capsys, argv):
    assert cli.main(["sweep"] + argv) == 0
    assert f"suite {argv[1]}: pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "propositions", "--max-n", "0"],
        ["--suite", "reductions", "--trials", "-3"],
        ["--suite", "pipeline", "--trials", "0"],
    ],
)
def test_sweep_that_checks_nothing_exits_3(capsys, argv):
    # "pass (0 rows)" would claim a check that never ran
    assert cli.main(["sweep"] + argv) == 3
    captured = capsys.readouterr()
    assert f"suite {argv[1]} has nothing to check" in captured.err
    assert captured.out == ""


def test_sweep_prints_each_row_as_it_is_checked(monkeypatch, capsys):
    # a budget trip after two rows leaves both on stdout and exits 2
    def tripped(args):
        yield True, "first"
        yield False, "second"
        raise BudgetExceededError("test budget")

    monkeypatch.setitem(cli.SWEEPS, "tripped", tripped)
    assert cli.main(["sweep", "--suite", "tripped"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "   1 pass first\n   2 FAIL second\n"
    assert captured.err == "resource budget exceeded: test budget\n"

    # a failed row fails the suite, which still checks every row
    def failing(args):
        yield False, "first"
        yield True, "second"

    monkeypatch.setitem(cli.SWEEPS, "failing", failing)
    assert cli.main(["sweep", "--suite", "failing"]) == 1
    assert capsys.readouterr().out == (
        "   1 FAIL first\n   2 pass second\nsuite failing: FAIL (2 rows)\n"
    )


_KILLED_SWEEP = """
import os, sys
from cfcolor import cli

def killed(args):
    yield True, "first"
    os._exit(9)

cli.SWEEPS["killed"] = killed
sys.exit(cli.run(["sweep", "--suite", "killed"]))
"""


def test_a_killed_sweep_has_flushed_the_rows_before():
    # each row is flushed as it is printed, so a process killed in the
    # next row, as `timeout` kills it, leaves the row in its stdout pipe
    done = run_python(_KILLED_SWEEP, check=False, timeout=60)
    assert (done.returncode, done.stdout) == (9, "   1 pass first\n")


_CLOSED_READER = """
import sys
from cfcolor import cli
sys.exit(cli.run(%r))
"""


@pytest.mark.parametrize(
    "argv",
    [
        # each row is flushed as it is printed
        ["sweep", "--suite", "propositions", "--max-n", "3"],
        # the answer stays buffered until the process entry flushes it
        ["oracle", "--formula", "FORMULA"],
    ],
)
def test_a_closed_reader_exits_3_without_a_traceback(tmp_path, argv):
    # a reader that closed standard output, as `head -n 1` does, makes
    # the process exit 3 with one stderr line, as an unwritable --out does
    argv = [write_figure(tmp_path) if a == "FORMULA" else a for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_python(_CLOSED_READER % argv, check=False, timeout=60, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 3
    assert done.stderr == "input error: cannot write standard output: [Errno 32] Broken pipe\n"


def test_out_holds_exactly_the_printed_result(tmp_path, capsys):
    import random

    from cfcolor.graphs import random_hypergraph

    g = write_c4(tmp_path)
    hp = tmp_path / "h.txt"
    h = random_hypergraph(32, 8, 8, 12, random.Random(0))
    hp.write_text(format_hypergraph(h))
    # (argv, number of printed lines before the coloring or graph)
    table = [
        (["solve", "--graph", g, "--uniform", "2"], 0),
        (["solve", "--graph", g, "--chromatic"], 1),
        (["pipeline", "--graph", g, "--lists", "RANGE:200", "--seed", "3"]
         + ["--scaled"], 0),
        (["lemma", "--hgraph", str(hp), "--seed", "4", "--alpha", "8"], 1),
        (["reduce", "--formula", write_figure(tmp_path), "--target", "gphi"], 0),
        (["gadget-hg", "--graph", g], 0),
        (["edc", "--graph", g], 0),
    ]
    out = tmp_path / "out.txt"
    for argv, head in table:
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        printed = capsys.readouterr().out.splitlines(keepends=True)
        assert out.read_text() == "".join(printed[head:]), argv
        assert printed[head].startswith(("v ", "p graph ")), argv
