"""Self-tests of the benchmark: the tracer sees the layers each workload
uses, its kernel node count matches what the kernels returned, and the
answer checks reject wrong answers.

    PYTHONPATH=src python3 -m pytest -q cfbench/tests
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

from cfcolor import kernels  # noqa: E402

EXPECTED_LAYERS = {
    "exact-deep": (
        "cli.requests",
        "fileio.parse_calls",
        "kernels.calls",
        "solve.solve_list_cf_calls",
        "solve.oracle_calls",
        "verify.verify_cf_calls",
    ),
    "exact-many": (
        "cli.requests",
        "fileio.parse_calls",
        "kernels.calls",
        "solve.assignments",
        "verify.verify_cf_calls",
        "reductions.build_calls",
    ),
    "randomized": (
        "cli.requests",
        "fileio.parse_calls",
        "graphs.max_star_calls",
        "graphs.hypergraph_stats_calls",
        "prob.attempts",
        "prob.resample_rounds",
    ),
}


def one_of_each_kind(plan):
    """The first request of every kind in the pass."""
    best = {}
    for req in plan.requests:
        best.setdefault(req.kind, req)
    return list(best.values())


def traced(name, tmp_path):
    plan = workloads.build(name, 0, tmp_path)
    runner, tracer = run.Runner(), Tracer()
    reqs = one_of_each_kind(plan)
    tracer.install()
    try:
        for i, req in enumerate(reqs):
            runner.execute(req, tracer, i)
    finally:
        tracer.uninstall()
    return runner, tracer, len(reqs)


@pytest.mark.parametrize("name", sorted(EXPECTED_LAYERS))
def test_expected_layers_record_work(name, tmp_path):
    runner, tracer, n = traced(name, tmp_path)
    assert runner.failed == 0, runner.messages
    metrics, _ = summarize(tracer.spans, n)
    for key in EXPECTED_LAYERS[name]:
        assert metrics[key] > 0, key
    assert metrics["trace.accounted_share"] > 0.9


@pytest.mark.parametrize("name", ["exact-deep", "exact-many"])
def test_traced_nodes_equal_kernel_returns(name, tmp_path):
    """Observed with the interpreter's profiler, independent of which
    bindings the tracer patched."""
    codes = {getattr(f, "__code__", None) for f in (kernels.solve_cf, kernels.exact_one)}
    if None in codes:
        pytest.skip("compiled kernels return through C, not visible to the profiler")
    returned = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code in codes:
            returned.append(arg[2])

    sys.setprofile(profile)
    try:
        _, tracer, n = traced(name, tmp_path)
    finally:
        sys.setprofile(None)
    metrics, _ = summarize(tracer.spans, n)
    assert returned
    assert round(metrics["kernels.nodes"] * n) == sum(returned)


def test_uninstall_restores_every_binding(tmp_path):
    from cfcolor import cli, prob, solve

    before = (cli.main, solve.verify_cf, prob.verify_cf, prob.max_star, kernels.solve_cf)
    tracer = Tracer()
    tracer.install()
    patched = (cli.main, solve.verify_cf, prob.verify_cf, prob.max_star, kernels.solve_cf)
    tracer.uninstall()
    assert all(a is not b for a, b in zip(before, patched))
    assert (cli.main, solve.verify_cf, prob.verify_cf, prob.max_star, kernels.solve_cf) == before


def canonical_two_assignments(n):
    """Every assignment of 2-lists to n vertices up to renaming colors: new
    colors enter in order, after the old ones of the same list."""

    def extend(prefix, used):
        if len(prefix) == n:
            yield list(prefix)
            return
        for fresh in range(3):
            for old in combinations(range(1, used + 1), 2 - fresh):
                prefix.append(old + tuple(range(used + 1, used + 1 + fresh)))
                yield from extend(prefix, used + fresh)
                prefix.pop()

    yield from extend([], 0)


def test_small_connected_graphs_are_two_choosable():
    """The fact behind workloads.choose_check, by exhaustive enumeration."""
    graphs = [g for n in range(1, 6) for g in inputs.connected_graphs(n)]
    assert [g[0] for g in graphs].count(5) == 21 and len(graphs) == 31
    for n, edges in graphs:
        hedges = check.neighborhoods(n, edges, "cn-star")
        for lists in canonical_two_assignments(n):
            assert check.brute_force_colorable(hedges, lists, False), (edges, lists)


def test_checks_reject_wrong_answers():
    k3 = (3, [(0, 1), (0, 2), (1, 2)])
    solve_check = workloads.solve_check(k3, True)
    solve_check(0, "v 1 1\n", None)
    for code, out in [(0, "v 1 1\nv 2 1\n"), (1, "no coloring\n"), (3, "")]:
        with pytest.raises(check.WrongAnswer):
            solve_check(code, out, None)
    chromatic = workloads.chromatic_check(k3, "cn")
    chromatic(0, "chromatic 2\nv 1 1\nv 2 2\nv 3 2\n", None)
    with pytest.raises(check.WrongAnswer):
        chromatic(0, "chromatic 3\nv 1 1\nv 2 2\nv 3 3\n", None)
    formula = (4, [(0, 1, 2), (1, 2, 3)])
    oracle = workloads.oracle_check(formula, check.Agreement(True))
    oracle(0, "x2\n", None)
    for code, out in [(0, "x1 x2\n"), (1, "unsatisfiable\n")]:
        with pytest.raises(check.WrongAnswer):
            oracle(code, out, None)


def test_tail_is_nearest_rank():
    latencies = list(range(100, 0, -1))
    assert run.tail(latencies, 90.0) == (90, 10)
    assert run.tail(latencies[:5], 99.0) == (100, 0)


def test_calibration_uses_the_nearest_samples():
    cal = calibrate.Calibrator(every_s=0.0)
    ref = calibrate.REFERENCE_S
    # a host at full speed until t=10, then at half speed
    cal.stamps = [float(t) for t in range(20)]
    cal.seconds = [ref if t < 10 else 2 * ref for t in range(20)]
    assert cal.adjust(0.5, 2.0) == pytest.approx(0.5)
    assert cal.adjust(0.5, 15.0) == pytest.approx(0.25)
    assert cal.factor(-5.0) == pytest.approx(1.0)
    assert cal.factor(50.0) == pytest.approx(0.5)
    cal.sample()
    assert len(cal.seconds) == 21 and cal.seconds[-1] > 0
