"""The benchmark's workloads: inputs made from a seed, the fixed request
list that a run cycles through, and the check applied to every answer.

A request is a call to ``cfcolor.cli.main(argv)`` in-process, or to the
public library function where no subcommand exists (``solve.find_pimds``
and ``solve.find_pids``).  Functions are looked up on their modules at call
time so that the tracer's wrappers are seen.

Why these workloads (sizes are scaled so that a run of the pure-Python
backend completes dozens to thousands of requests):

- exact-deep: long exact searches, where the kernel's node rate and node
  count set almost all the time.  Random-graph searches carry a node budget
  that most of them reach, so every seed does about the same kernel work;
  a search that needs fewer nodes turns budget trips into answers.
- exact-many: thousands of tiny exact requests on graphs of at most five
  vertices and formulas of at most eight variables.  Per-call overhead
  (argument parsing, dense colors, verification, kernel set-up) dominates.
- randomized: the CFCN* pipeline on line graphs and the sample-and-resample
  colorer on random hypergraphs.  Graph statistics and resampling dominate
  while the exact kernels stay idle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import inputs as gen
from check import (
    Agreement,
    WrongAnswer,
    brute_force_colorable,
    brute_force_one_in_three,
    check_coloring,
    check_pids,
    check_pimds,
    is_total,
    neighborhoods,
    one_in_three,
    parse_coloring_lines,
    unique_count,
)

from cfcolor import cli, fileio, solve
from cfcolor.errors import BudgetExceededError

VARIANTS = ("on-star", "cn-star", "on", "cn")

DEEP_SOLVES = 24  # random-graph searches per pass
DEEP_BUDGET = 50_000
DEEP_FORMULAS = 5
MANY_CHOOSE_N5 = 5  # five-vertex graphs per pass that get a choose request
MANY_FORMULAS = 12
RAND_PIPELINES = 40
RAND_LEMMAS = 20


@dataclass
class Request:
    kind: str
    call: Callable  # () -> (exit code, library result or None)
    check: Callable  # (exit code, stdout, result) -> None, raises WrongAnswer


@dataclass
class Plan:
    requests: list
    warmup: Request


def cli_call(argv):
    return lambda: (cli.main(argv), None)


def exact_one_call(path, finder):
    """Parse a graph file and run solve.find_pimds / solve.find_pids on it;
    exit codes follow the CLI (0 found, 1 none, 2 budget)."""

    def call():
        g = fileio.parse_graph(Path(path).read_text())
        try:
            found = getattr(solve, finder)(g)
        except BudgetExceededError:
            return 2, None
        return (1, None) if found is None else (0, found)

    return call


def expect_code(code, allowed):
    if code not in allowed:
        raise WrongAnswer(f"exit code {code}, expected one of {allowed}")


def solve_check(graph, colorable):
    """`solve --variant cn-star --uniform 2` on a graph that is known to
    have such a coloring or known not to."""
    n = graph[0]
    hedges = neighborhoods(*graph, "cn-star")

    def check(code, out, _):
        expect_code(code, (0, 1))
        if code == 0:
            color = parse_coloring_lines(out)
            check_coloring(n, hedges, color, False, lambda v, c: c in (1, 2))
        elif colorable:
            raise WrongAnswer("'no' on an instance that has a coloring")

    return check


@lru_cache(maxsize=None)
def _colorable(n, edges, variant, k):
    hedges = neighborhoods(n, edges, variant)
    return brute_force_colorable(hedges, [range(1, k + 1)] * n, is_total(variant))


def chromatic_check(graph, variant):
    """`solve --chromatic`: k colors suffice and k-1 do not (brute force)."""
    n = graph[0]
    hedges = neighborhoods(*graph, variant)
    edges = tuple(graph[1])

    def check(code, out, _):
        expect_code(code, (0,))
        first = out.splitlines()[0].split()
        if first[0] != "chromatic":
            raise WrongAnswer("missing chromatic line")
        k = int(first[1])
        color = parse_coloring_lines(out)
        check_coloring(n, hedges, color, is_total(variant), lambda v, c: 1 <= c <= k)
        if _colorable(n, edges, variant, k - 1):
            raise WrongAnswer(f"{k - 1} colors suffice, chromatic {k} reported")

    return check


def verify_check(graph, variant, coloring_path):
    """`verify`: the verdict and every reported witness match the file."""
    n = graph[0]
    hedges = neighborhoods(*graph, variant)

    def check(code, out, _):
        color = parse_coloring_lines(Path(coloring_path).read_text())
        try:
            check_coloring(n, hedges, color, is_total(variant))
            valid = True
        except WrongAnswer:
            valid = False
        expect_code(code, (0,) if valid else (1,))
        lines = out.splitlines()
        if lines[0] != f"valid {'yes' if valid else 'no'}":
            raise WrongAnswer(f"verdict line {lines[0]!r}")
        witnesses = [ln.split() for ln in lines if ln.startswith("edge ") and "witness" in ln]
        for _, i, _, v, _, c in witnesses:
            edge, v, c = hedges[int(i)], int(v), int(c)
            holders = sum(1 for w in edge if color.get(w) == c)
            if v not in edge or color.get(v) != c or holders != 1:
                raise WrongAnswer(f"witness {v} is not unique in edge {i}")
        if valid and len(witnesses) != len(hedges):
            raise WrongAnswer("an edge lacks its witness")

    return check


def choose_check(k):
    """Every connected graph on at most five vertices is 2-CFCN*-choosable
    (cfbench/tests/test_benchmark.py re-derives this by exhaustive
    enumeration), so the only correct answer is yes."""

    def check(code, out, _):
        expect_code(code, (0,))
        if out.splitlines()[0] != f"choosable k={k} yes":
            raise WrongAnswer("choosability line")

    return check


def oracle_check(formula, agreement):
    def check(code, out, _):
        expect_code(code, (0, 1))
        if code == 0:
            true_vars = {int(tok[1:]) - 1 for tok in out.split()}
            if not one_in_three(formula[1], true_vars):
                raise WrongAnswer("assignment is not a 1-in-3 solution")
        agreement.record(code == 0, "oracle")

    return check


def exact_one_check(graph, certify, agreement, method):
    def check(code, _, found):
        expect_code(code, (0, 1))
        if code == 0:
            certify(*graph, set(found))
        agreement.record(code == 0, method)

    return check


def reduce_check(expected, out_path):
    def check(code, out, _):
        expect_code(code, (0,))
        text = Path(out_path).read_text()
        if out != text:
            raise WrongAnswer("printed graph differs from the written one")
        n, edges = gen.read_graph(text)
        if n != expected[0] or edges != set(expected[1]):
            raise WrongAnswer("reduction graph differs from its definition")

    return check


def pipeline_check(graph, r):
    n = graph[0]
    hedges = neighborhoods(*graph, "cn-star")

    def check(code, out, _):
        expect_code(code, (0,))
        check_coloring(n, hedges, parse_coloring_lines(out), False, lambda v, c: 0 <= c < r)

    return check


def lemma_check(hgraph):
    """The colorer's guarantee: total, within lists of size max |E|, and at
    least an eighth of every edge uniquely colored."""
    n, edges = hgraph
    size = max(len(e) for e in edges)

    def check(code, out, _):
        expect_code(code, (0,))
        if not out.startswith("rounds "):
            raise WrongAnswer("missing rounds line")
        color = parse_coloring_lines(out)
        check_coloring(n, edges, color, True, lambda v, c: 0 <= c < size)
        for e in edges:
            if 8 * unique_count(e, color) < len(e):
                raise WrongAnswer("an edge has under 1/8 unique colors")

    return check


def _formula_requests(formula, agreement, work, tag):
    """oracle, PIMDS on G'_phi and PIDS on G''_phi for one formula."""
    phi = gen.write_formula(work / f"{tag}.cnf", formula)
    gp, gpp = gen.g_prime(formula), gen.g_double_prime(formula)
    gp_path = gen.write_graph(work / f"{tag}.gprime", gp)
    gpp_path = gen.write_graph(work / f"{tag}.gdoubleprime", gpp)
    return [
        Request(
            "oracle",
            cli_call(["oracle", "--formula", phi]),
            oracle_check(formula, agreement),
        ),
        Request(
            "pimds",
            exact_one_call(gp_path, "find_pimds"),
            exact_one_check(gp, check_pimds, agreement, "PIMDS"),
        ),
        Request(
            "pids",
            exact_one_call(gpp_path, "find_pids"),
            exact_one_check(gpp, check_pids, agreement, "PIDS"),
        ),
    ]


def interleave(groups, rng):
    """The pass order: groups of requests (a group runs back to back) are
    shuffled within their kind, then each kind is spread evenly over the
    pass, so that every stretch of it, and the part of a pass a run ends
    in, holds the kinds in their shares."""
    by_kind = {}
    for group in groups:
        by_kind.setdefault(group[0].kind, []).append(group)
    keyed = []
    for kind, members in sorted(by_kind.items()):
        rng.shuffle(members)
        keyed += [((i + 0.5) / len(members), kind, i, g) for i, g in enumerate(members)]
    keyed.sort(key=lambda item: item[:3])
    return [req for *_, group in keyed for req in group]


def exact_deep(rng, work):
    reqs = []

    def solve_request(kind, graph, tag, budget, colorable):
        path = gen.write_graph(work / f"{tag}.graph", graph)
        argv = ["solve", "--graph", path, "--variant", "cn-star", "--uniform", "2"]
        if budget:
            argv += ["--budget", str(budget)]
        reqs.append(Request(kind, cli_call(argv), solve_check(graph, colorable)))

    # n=40 is the size of the old kernel benchmark's search.  78 edges is
    # what G(40, 0.10) expects; a fixed edge count keeps the time per search
    # node alike across seeds.  The graphs that local search certifies
    # colorable still need more than DEEP_BUDGET nodes, so nearly all of
    # them stop at the budget
    for i in range(DEEP_SOLVES):
        graph = gen.colorable_graph(40, 78, rng)
        solve_request("solve-random", graph, f"random{i}", DEEP_BUDGET, True)
    bases = {
        "K2": (2, [(0, 1)]),
        "P3": (3, [(0, 1), (1, 2)]),
        "K3": (3, [(0, 1), (0, 2), (1, 2)]),
        "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    }
    # H_G is colorable for G in K2, P3, K3; H_C4 is not, and its refutation
    # is beyond any budget a pass can afford
    for name, base in bases.items():
        c4 = name == "C4"
        budget = DEEP_BUDGET if c4 else None
        solve_request(f"hub-{name}", gen.hub_gadget(base), f"hub{name}", budget, not c4)
    for i in range(DEEP_FORMULAS):
        # 0.9 clauses per variable is near the 1-in-3 satisfiability
        # threshold.  At 21 variables PIDS takes up to about 160 ms, below a
        # budget-bound solve, so that the tail percentile lands among the
        # budget-bound searches rather than on this seed's slowest formulas
        formula = gen.random_formula(21, 19, rng)
        reqs += _formula_requests(formula, Agreement(), work, f"phi{i}")
    warmup = next(r for r in reqs if r.kind == "oracle")
    return interleave([[r] for r in reqs], rng), warmup


def exact_many(rng, work):
    groups = []
    graphs = [gen.relabel(g, rng) for n in range(1, 6) for g in gen.connected_graphs(n)]
    small = [g for g in graphs if g[0] <= 4]
    five = rng.sample([g for g in graphs if g[0] == 5], MANY_CHOOSE_N5)
    for i, graph in enumerate(graphs):
        path = gen.write_graph(work / f"g{i}.graph", graph)
        for variant in VARIANTS:
            if graph[0] == 1 and variant.startswith("on"):
                continue  # an isolated vertex has an empty open neighborhood
            out = str(work / f"g{i}.{variant}.col")
            instance = ["--graph", path, "--variant", variant]
            solve_argv = ["solve", *instance, "--chromatic", "--out", out]
            verify_argv = ["verify", *instance, "--coloring", out]
            groups.append([
                Request("chromatic", cli_call(solve_argv), chromatic_check(graph, variant)),
                Request("verify", cli_call(verify_argv), verify_check(graph, variant, out)),
            ])
        if graph in small or graph in five:
            argv = ["choose", "--graph", path, "--k", "2"]
            groups.append([Request("choose", cli_call(argv), choose_check(2))])
    for i in range(MANY_FORMULAS):
        nvars = rng.randint(3, 8)
        nclauses = rng.randint(1, min(math.comb(nvars, 3), nvars + 2))
        formula = gen.random_formula(nvars, nclauses, rng)
        agreement = Agreement(brute_force_one_in_three(*formula))
        tag = f"phi{i}"
        reqs = _formula_requests(formula, agreement, work, tag)
        builders = {
            "gphi": gen.incidence_graph,
            "gprime": gen.g_prime,
            "gdoubleprime": gen.g_double_prime,
        }
        for target, build in builders.items():
            out = str(work / f"{tag}.{target}.out")
            phi = str(work / f"{tag}.cnf")
            argv = ["reduce", "--formula", phi, "--target", target, "--out", out]
            reqs.append(Request("reduce", cli_call(argv), reduce_check(build(formula), out)))
        groups += [[r] for r in reqs]
    warmup = groups[0][0]
    # a verify request reads the coloring its chromatic request wrote, so
    # the two form one group
    return interleave(groups, rng), warmup


def randomized(rng, work):
    reqs = []

    def pipeline_request(tag, base_n, p):
        # G(n, m) with m the expected edge count of G(n, p): every line
        # graph has the same number of vertices
        base_m = round(p * math.comb(base_n, 2))
        graph = gen.line_graph(gen.random_graph(base_n, base_m, rng))
        # line graphs are claw-free, so the pipeline's k is 3
        r = math.ceil(32 * 3 * math.log(gen.max_degree(graph)))
        path = gen.write_graph(work / f"{tag}.graph", graph)
        seed = str(rng.randrange(10**6))
        argv = ["pipeline", "--graph", path, "--lists", f"RANGE:{r}", "--seed", seed, "--scaled"]
        return Request("pipeline", cli_call(argv), pipeline_check(graph, r))

    for i in range(RAND_PIPELINES):
        reqs.append(pipeline_request(f"line{i}", 60, 0.3))
    for i in range(RAND_LEMMAS):
        hgraph = gen.random_hypergraph(1000, 600, 8, 12, rng)
        path = gen.write_hypergraph(work / f"hyper{i}.hgraph", hgraph)
        seed = str(rng.randrange(10**6))
        argv = ["lemma", "--hgraph", path, "--list-factor", "1", "--alpha", "8", "--seed", seed]
        reqs.append(Request("lemma", cli_call(argv), lemma_check(hgraph)))
    warmup = pipeline_request("warmup", 20, 0.3)
    return interleave([[r] for r in reqs], rng), warmup


WORKLOADS = {"exact-deep": exact_deep, "exact-many": exact_many, "randomized": randomized}

# Percentile reported as latency_tail_ms: the highest level that leaves at
# least ten requests above it in a 35-second run of the pure-Python backend,
# fixed per workload so that two commits report the same percentile.
TAIL_LEVEL = {"exact-deep": 90.0, "exact-many": 99.0, "randomized": 75.0}


def build(name, seed, work):
    """Write the workload's inputs under `work` and return its Plan; the
    same name and seed give the same inputs and request order."""
    rng = random.Random(f"{name}:{seed}")
    return Plan(*WORKLOADS[name](rng, Path(work)))
