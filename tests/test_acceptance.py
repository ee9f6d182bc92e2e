"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single summary line
(visible in the pytest pass-report section).  Criterion 6's primary path
(direct refutation of the 52-vertex hub gadget under 2-color lists) is not
reachable at desk scale -- the search needs ~4e12 nodes; see the analysis
in the solver notes -- so that test makes an honest budgeted attempt and
then applies its declared fallback: exhaustive solver-correctness
cross-checks on instances of at most 12 vertices.
"""

import math
import random
import time

import pytest

from cfcolor import cli, fileio, prob, reductions, solve
from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.errors import BudgetExceededError
from cfcolor.graphs import (
    derived_hypergraph,
    extended_double_cover,
    hypergraph_stats,
    line_graph,
    random_graph,
    random_hypergraph,
)
from cfcolor.reductions import FIGURE_FORMULA, Formula
from cfcolor.smallgraphs import nonisomorphic_graphs
from cfcolor.verify import is_pids, is_pimds, unique_colors, verify_cf
from util import (
    all_one_in_three,
    all_pids,
    all_pimds,
    brute_force_cf,
    cf_valid,
    complete_graph,
    cycle_graph,
    format_formula,
    has_edge,
    path_graph,
)


def report(num, ok, detail, elapsed):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail}) [{elapsed:.1f}s]"
    print(line)
    assert ok, line


def random_formula(rng, n_hi=6, m_hi=5):
    n = rng.randint(3, n_hi)
    m = rng.randint(1, min(m_hi, math.comb(n, 3)))
    clauses = set()
    while len(clauses) < m:
        clauses.add(tuple(sorted(rng.sample(range(n), 3))))
    return Formula(n, tuple(sorted(clauses)))


def test_criterion_1_figure_fidelity(tmp_path, capsys):
    t0 = time.time()
    formula_path = tmp_path / "fig.cnf"
    formula_path.write_text(format_formula(FIGURE_FORMULA))

    assert cli.main(["oracle", "--formula", str(formula_path)]) == 0
    assert capsys.readouterr().out.strip() == "x1 x4"

    gp_out = tmp_path / "gp.txt"
    assert (
        cli.main(
            [
                "reduce",
                "--formula",
                str(formula_path),
                "--target",
                "gprime",
                "--out",
                str(gp_out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    gp = fileio.parse_graph(gp_out.read_text())
    assert gp.n == 19

    gpp_out = tmp_path / "gpp.txt"
    assert (
        cli.main(
            [
                "reduce",
                "--formula",
                str(formula_path),
                "--target",
                "gdoubleprime",
                "--out",
                str(gpp_out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    gpp = fileio.parse_graph(gpp_out.read_text())
    assert gpp.n == 14

    truth = frozenset({0, 3})
    on_cert = reductions.truth_to_certificate(FIGURE_FORMULA, truth, "on")
    cn_cert = reductions.truth_to_certificate(FIGURE_FORMULA, truth, "cn")
    assert is_pimds(gp, on_cert)
    assert is_pids(gpp, cn_cert)

    elapsed = time.time() - t0
    report(
        1,
        elapsed < 1.0,
        f"oracle x1 x4, |V(G')|=19, |V(G'')|=14, certificates verify",
        elapsed,
    )


def test_criterion_2_gadget_edge_formula():
    t0 = time.time()
    cases = [complete_graph(1), complete_graph(2), cycle_graph(4), path_graph(4)]
    for g in cases:
        out = reductions.build_h_gadget(g)
        assert out.graph.m == 12 * g.m + 24 * g.n
        assert out.graph.n == 12 * g.n + 4
    elapsed = time.time() - t0
    report(2, elapsed < 1.0, "12|E|+24|V| exact on K1, K2, C4, P4", elapsed)


def test_criterion_3_reduction_equivalence_sweep():
    t0 = time.time()
    rng = random.Random(2024)
    agree = 0
    for _ in range(200):
        formula = random_formula(rng)
        sat = solve.solve_one_in_three(formula) is not None
        has_pimds = (
            solve.find_pimds(reductions.build_g_prime(formula).graph) is not None
        )
        has_pids = (
            solve.find_pids(reductions.build_g_double_prime(formula).graph)
            is not None
        )
        assert sat == has_pimds == has_pids
        agree += 1
    elapsed = time.time() - t0
    report(3, agree == 200 and elapsed < 60, f"{agree}/200 formulas agree", elapsed)


def test_criterion_4_one_choosability_equals_colorability():
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n, connected_only=True):
            for variant in solve.VARIANTS:
                if variant.startswith("on") and g.has_isolated_vertex():
                    continue
                inst = solve.SolveInstance.from_graph(g, variant)
                chooser = solve.decide_choosable(inst, 1).answer
                colorable = (
                    solve.solve_list_cf(inst, ListAssignment.uniform(g.n, [1]))
                    is not None
                )
                assert chooser == colorable
                checked += 1
    elapsed = time.time() - t0
    report(
        4,
        elapsed < 120,
        f"{checked} (graph, variant) pairs agree on connected n<=5",
        elapsed,
    )


def test_criterion_5_extended_double_cover_equivalence():
    t0 = time.time()
    pairs = 0
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n, connected_only=True):
            d = extended_double_cover(g)
            assert bool(all_pids(g)) == bool(all_pimds(d))
            pairs += 1

    rng = random.Random(31)
    transfers = 0
    while transfers < 100:
        g = random_graph(rng.randint(3, 7), 0.5, rng)
        inst = solve.SolveInstance.from_graph(g, "cn-star")
        fx = solve.solve_list_cf(inst, ListAssignment.uniform(g.n, [1, 2, 3]))
        fy = solve.solve_list_cf(inst, ListAssignment.uniform(g.n, [4, 5, 6]))
        if fx is None or fy is None:
            continue
        f = reductions.edc_transfer("cn-to-on", g, (fx, fy))
        d = extended_double_cover(g)
        assert verify_cf(derived_hypergraph(d, "open"), f).valid
        back = reductions.edc_transfer("on-to-cn", g, f)
        assert verify_cf(derived_hypergraph(g, "closed"), back).valid
        assert dict(back.items()) == dict(fx.items())
        transfers += 1
    elapsed = time.time() - t0
    report(
        5,
        elapsed < 120,
        f"{pairs} cover equivalences, {transfers} transfers verified",
        elapsed,
    )


DIRECT_ATTEMPT_BUDGET = 200_000_000  # ~10 s compiled; the full refutation
# needs ~4e12 nodes, far beyond any feasible budget, so the fallback applies


def test_criterion_6_hub_gadget_negative_direction():
    t0 = time.time()
    gadget = reductions.build_h_gadget(cycle_graph(4)).graph
    assert gadget.n == 52
    inst = solve.SolveInstance.from_graph(gadget, "cn-star")
    lists = ListAssignment.uniform(gadget.n, [1, 2])
    direct = None
    try:
        direct = solve.solve_list_cf(inst, lists, budget=DIRECT_ATTEMPT_BUDGET)
        tripped = False
    except BudgetExceededError:
        tripped = True

    if not tripped:
        elapsed = time.time() - t0
        report(6, direct is None, "direct refutation within budget", elapsed)
        return

    # declared fallback: exhaustive solver-correctness cross-check on
    # instances of at most 12 vertices
    agree = total = 0
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for variant in solve.VARIANTS:
                if variant.startswith("on") and g.has_isolated_vertex():
                    continue
                inst = solve.SolveInstance.from_graph(g, variant)
                for k in (1, 2):
                    la = ListAssignment.uniform(g.n, range(1, k + 1))
                    mine = solve.solve_list_cf(inst, la)
                    ref = brute_force_cf(
                        inst.hypergraph, la, require_total=inst.require_total
                    )
                    total += 1
                    agree += (mine is None) == (ref is None)

    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(2, 12)
        h = random_hypergraph(n, rng.randint(1, 6), 1, min(4, n), rng)
        entries = [
            tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 2))))
            for _ in range(n)
        ]
        la = ListAssignment(entries)
        for require_total in (False, True):
            inst = solve.SolveInstance(h, require_total)
            mine = solve.solve_list_cf(inst, la)
            ref = brute_force_cf(h, la, require_total=require_total)
            total += 1
            agree += (mine is None) == (ref is None)

    elapsed = time.time() - t0
    report(
        6,
        agree == total,
        f"direct budget tripped at {DIRECT_ATTEMPT_BUDGET} nodes; "
        f"fallback cross-check {agree}/{total} agree",
        elapsed,
    )


def test_criterion_7_hub_gadget_positive_direction():
    t0 = time.time()
    g = complete_graph(3)
    out = reductions.build_h_gadget(g)
    closed = derived_hypergraph(out.graph, "closed")
    hubs = [out.vertex_with_role(("hub", ell)) for ell in range(1, 5)]

    def inner(gg, lists):
        inst = solve.SolveInstance.from_graph(gg, "cn-star")
        return solve.solve_list_cf(inst, lists)

    rng = random.Random(77)
    distinct_cases = 0
    for _ in range(500):
        entries = [
            tuple(sorted(rng.sample(range(1, 11), 2))) for _ in range(out.graph.n)
        ]
        lists = ListAssignment(entries)
        f = reductions.hg_strategy(g, lists, inner)
        assert verify_cf(closed, f, lists=lists).valid
        hub_colors = [f.get(h) for h in hubs[:3]]
        if len(set(hub_colors)) == 3:
            distinct_cases += 1
            assert len(f) == 4
    elapsed = time.time() - t0
    report(
        7,
        elapsed < 120 and distinct_cases > 0,
        f"500 runs verify; {distinct_cases} all-distinct-hub cases colored "
        "exactly 4 vertices",
        elapsed,
    )


def test_criterion_8_proposition_suite():
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            chi_cn_star, _ = solve.chromatic_number(
                solve.SolveInstance.from_graph(g, "cn-star")
            )
            chi_cn, _ = solve.chromatic_number(
                solve.SolveInstance.from_graph(g, "cn")
            )
            assert chi_cn <= chi_cn_star + 1
            if not g.has_isolated_vertex():
                chi_on_star, _ = solve.chromatic_number(
                    solve.SolveInstance.from_graph(g, "on-star")
                )
                assert chi_cn_star <= 2 * chi_on_star
            checked += 1
    elapsed = time.time() - t0
    report(8, elapsed < 300, f"{checked} graphs, zero violations", elapsed)


def test_criterion_9_lemma_engine():
    t0 = time.time()
    per_seed = []
    for seed in (101, 202, 303):
        seed_t0 = time.time()
        rng = random.Random(seed)
        h = random_hypergraph(512, 100, 64, 128, rng)
        lists = ListAssignment.uniform_range(h.n, 32 * 128)
        f, rounds = prob.near_uniform_color(
            h, lists, seed, alpha_override=64, max_rounds=50
        )
        assert rounds <= 50
        for e in h.edges:
            unique = len(unique_colors([f[v] for v in e]))
            assert unique >= math.ceil(len(e) / 8)
        seed_elapsed = time.time() - seed_t0
        assert seed_elapsed < 60
        per_seed.append((rounds, seed_elapsed))
    elapsed = time.time() - t0
    detail = ", ".join(f"rounds={r} {s:.1f}s" for r, s in per_seed)
    report(9, True, f"3 seeds succeed ({detail})", elapsed)


def pipeline_corpus():
    rng = random.Random(1500)
    out = []
    while len(out) < 20:
        base = random_graph(15, 0.3, rng)
        g, _ = line_graph(base)
        if g.n >= 3 and g.max_degree() >= 2:
            out.append(g)
    return out


def pipeline_lists(g, scaled_mode=False):
    _, _, r = prob.pipeline_list_size(g, scaled_mode)
    return ListAssignment.uniform_range(g.n, max(r, 1))


def check_trace(g, trace):
    a = trace.independent_set
    assert all(not has_edge(g, u, v) for u in a for v in a if u < v)
    assert all(v in a or any(w in a for w in g.adj[v]) for v in range(g.n))
    seen = set()
    for cls_ in trace.classes:
        assert not (cls_ & seen) and not (cls_ & a)
        seen |= cls_
    assert seen == set(range(g.n)) - a
    assert trace.part_c == seen - trace.part_b
    if not trace.delegated:
        assert set(trace.f1.domain) == a
        for u in trace.removed_x:
            assert len(trace.removed_x[u]) <= trace.k - 1
            assert len(trace.removed_y[u]) <= (trace.k - 1) * (trace.b - 1) + 1
    assert trace.final is not None


def test_criterion_10_pipeline_end_to_end():
    t0 = time.time()
    corpus = pipeline_corpus()
    closed = {id(g): derived_hypergraph(g, "closed") for g in corpus}

    for i, g in enumerate(corpus):
        lists = pipeline_lists(g)
        f, trace = prob.cfcn_pipeline(g, lists, 9000 + i)
        assert not trace.part_c, "full-scale constants must swallow every class"
        assert not trace.delegated
        assert verify_cf(closed[id(g)], f, lists=lists).valid
        check_trace(g, trace)

    forced_c = 0
    for i, g in enumerate(corpus):
        lists = pipeline_lists(g, True)
        f, trace = prob.cfcn_pipeline(g, lists, 9100 + i, True, retry_limit=20)
        assert verify_cf(closed[id(g)], f, lists=lists).valid
        check_trace(g, trace)
        if trace.part_c and not trace.delegated:
            forced_c += 1

    elapsed = time.time() - t0
    report(
        10,
        elapsed < 600 and forced_c > 0,
        f"20 full-constant runs with C empty; {forced_c}/20 scaled runs "
        "exercised the resampling stage",
        elapsed,
    )
