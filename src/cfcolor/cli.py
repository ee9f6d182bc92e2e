"""Command-line entry point.

Decision subcommands exit 0 for yes, 1 for no, 2 when a resource budget
tripped or the run failed for want of resources (a failed pipeline, the
recursion limit, memory); all subcommands exit 3 on malformed input, a
path that cannot be read or written, or a failed write to standard
output.  A failure never exits 1, which means "no": as a process
(``run``), an exception that escapes ``main``, such as a failed
self-check, is a crash and exits 2 too.  Randomized paths require an
explicit --seed; identical command and seed give byte-identical output.
What a command prints as its coloring or graph is also exactly what it
writes to --out.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import traceback
from pathlib import Path

from cfcolor import fileio, prob, reductions, solve
from cfcolor.coloring import ListAssignment
from cfcolor.errors import BudgetExceededError, InputFormatError
from cfcolor.graphs import (
    derived_hypergraph,
    extended_double_cover,
    line_graph,
    random_graph,
    random_hypergraph,
)
from cfcolor.verify import verify_cf

EXIT_YES = 0
EXIT_NO = 1
EXIT_RESOURCE = 2
EXIT_INPUT = 3


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _emit(text, path):
    """Print a result and write the same text to `path` when one is given."""
    sys.stdout.write(text)
    if path:
        _write(path, text)


def _emit_built(args, built):
    """Print a built graph, write it to --out and its roles to --rolemap."""
    _emit(fileio.format_graph(built.graph), args.out)
    if args.rolemap:
        _write(args.rolemap, "\n".join(built.role_lines()) + "\n")


def _load_lists(spec_text, n):
    """`RANGE:<r>` for uniform implicit ranges, otherwise a file path."""
    if spec_text.startswith("RANGE:"):
        try:
            size = int(spec_text[len("RANGE:"):])
        except ValueError:
            size = 0
        if size < 1:
            raise InputFormatError(f"--lists {spec_text}: r must be an integer >= 1")
        return ListAssignment.uniform_range(n, size)
    return fileio.parse_lists(_read(spec_text), n)


def _instance(args):
    if args.hgraph:
        if args.variant:
            raise InputFormatError("--variant applies to --graph inputs only")
        h = fileio.parse_hypergraph(_read(args.hgraph))
        return solve.SolveInstance(h, args.total)
    if args.total:
        raise InputFormatError("--total applies to --hgraph inputs only")
    g = fileio.parse_graph(_read(args.graph))
    variant = args.variant or "cn-star"
    if variant.startswith("on") and () in g.adj:
        # named as in the file, 1-indexed
        v = g.adj.index(()) + 1
        raise InputFormatError(
            f"vertex {v} is isolated; --variant {variant} needs every open "
            "neighborhood non-empty"
        )
    return solve.SolveInstance.from_graph(g, variant)


def cmd_verify(args):
    inst = _instance(args)
    n = inst.hypergraph.n
    f = fileio.parse_coloring(_read(args.coloring), n)
    lists = _load_lists(args.lists, n) if args.lists else None
    report = verify_cf(inst.hypergraph, f, lists, require_total=inst.require_total)
    _emit("\n".join(report.lines()) + "\n", args.report)
    return EXIT_YES if report.valid else EXIT_NO


def cmd_solve(args):
    inst = _instance(args)
    n = inst.hypergraph.n
    if args.chromatic:
        k, f = solve.chromatic_number(inst, budget=args.budget)
        print(f"chromatic {k}")
        _emit(fileio.format_coloring(f), args.out)
        return EXIT_YES
    if args.uniform is not None:
        lists = ListAssignment.uniform_range(n, args.uniform, lo=1)
    else:
        lists = _load_lists(args.lists, n)
    f = solve.solve_list_cf(inst, lists, budget=args.budget)
    if f is None:
        print("no coloring")
        return EXIT_NO
    _emit(fileio.format_coloring(f), args.out)
    return EXIT_YES


def cmd_choose(args):
    inst = _instance(args)
    cert = solve.decide_choosable(
        inst, args.k, budget=args.budget, assignment_budget=args.assignment_budget
    )
    if cert.answer:
        print(f"choosable k={args.k} yes")
        return EXIT_YES
    print(f"choosable k={args.k} no")
    print("witness assignment:")
    sys.stdout.write(fileio.format_lists(cert.witness))
    return EXIT_NO


def cmd_oracle(args):
    formula = fileio.parse_formula(_read(args.formula))
    assignment = solve.solve_one_in_three(formula)
    if assignment is None:
        print("unsatisfiable")
        return EXIT_NO
    print(" ".join(f"x{x + 1}" for x in sorted(assignment)))
    return EXIT_YES


def cmd_reduce(args):
    formula = fileio.parse_formula(_read(args.formula))
    builder = {
        "gphi": reductions.build_associated_graph,
        "gprime": reductions.build_g_prime,
        "gdoubleprime": reductions.build_g_double_prime,
    }[args.target]
    _emit_built(args, builder(formula))
    return EXIT_YES


def cmd_gadget_hg(args):
    g = fileio.parse_graph(_read(args.graph))
    _emit_built(args, reductions.build_h_gadget(g))
    return EXIT_YES


def cmd_edc(args):
    g = fileio.parse_graph(_read(args.graph))
    _emit(fileio.format_graph(extended_double_cover(g)), args.out)
    return EXIT_YES


def cmd_pipeline(args):
    g = fileio.parse_graph(_read(args.graph))
    lists = _load_lists(args.lists, g.n)
    f, trace = prob.cfcn_pipeline(
        g, lists, args.seed, args.scaled, args.k_override, args.retries
    )
    _emit(fileio.format_coloring(f), args.out)
    if args.trace:
        _write(args.trace, "\n".join(trace.lines()) + "\n")
    return EXIT_YES


def cmd_lemma(args):
    h = fileio.parse_hypergraph(_read(args.hgraph))
    if args.lists:
        lists = _load_lists(args.lists, h.n)
    else:
        lists = prob.lemma_lists(h, args.list_factor)
    f, rounds = prob.near_uniform_color(
        h, lists, args.seed, args.list_factor, args.alpha, args.max_rounds
    )
    print(f"rounds {rounds}")
    _emit(fileio.format_coloring(f), args.out)
    return EXIT_YES


def _sweep_propositions(args):
    from cfcolor.smallgraphs import nonisomorphic_graphs

    def chi(g, variant):
        return solve.chromatic_number(solve.SolveInstance.from_graph(g, variant))[0]

    # largest order first, so an order too large to enumerate fails at once
    orders = range(1, args.max_n + 1)
    classes = {n: nonisomorphic_graphs(n) for n in reversed(orders)}
    for n in orders:
        for g in classes[n]:
            chi_cn_star = chi(g, "cn-star")
            chi_cn = chi(g, "cn")
            ok = chi_cn <= chi_cn_star + 1
            detail = f"chiCN {chi_cn} chiCN* {chi_cn_star}"
            if not g.has_isolated_vertex() and g.n > 0 and g.m > 0:
                chi_on_star = chi(g, "on-star")
                ok = ok and chi_cn_star <= 2 * chi_on_star
                detail += f" chiON* {chi_on_star}"
            yield ok, detail


def _sweep_reductions(args):
    rng = random.Random(args.seed)
    for _ in range(args.trials):
        n = rng.randint(3, 6)
        m = rng.randint(1, min(5, math.comb(n, 3)))
        clauses = set()
        while len(clauses) < m:
            clauses.add(tuple(sorted(rng.sample(range(n), 3))))
        formula = reductions.Formula(n, tuple(sorted(clauses)))
        sat = solve.solve_one_in_three(formula)
        pimds = solve.find_pimds(reductions.build_g_prime(formula).graph)
        pids = solve.find_pids(reductions.build_g_double_prime(formula).graph)
        ok = (sat is not None) == (pimds is not None) == (pids is not None)
        if sat is not None:
            on_cert = reductions.truth_to_certificate(formula, sat, "on")
            cn_cert = reductions.truth_to_certificate(formula, sat, "cn")
            ok = ok and reductions.certificate_to_truth(formula, on_cert, "on") == sat
            ok = ok and reductions.certificate_to_truth(formula, cn_cert, "cn") == sat
        yield ok, f"n={n} m={m} sat={'yes' if sat else 'no'}"


def nonnegative(text):
    """A budget: an integer >= 0; argparse names the flag and the value
    when this raises."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def positive(text):
    """A size or a count: an integer >= 1; argparse names the flag and
    the value when this raises."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def size_range(text):
    """`--size <lo>..<hi>` with integers 1 <= lo <= hi; argparse names the
    flag and the value when this raises."""
    lo, hi = (int(x) for x in text.split(".."))
    if not 1 <= lo <= hi:
        raise ValueError(text)
    return lo, hi


def _sweep_lemma(args):
    lo, hi = args.size
    rng = random.Random(args.seed)
    h = random_hypergraph(4 * hi, args.edges, lo, hi, rng)
    lists = prob.lemma_lists(h, prob.LIST_FACTOR)
    f, rounds = prob.near_uniform_color(h, lists, args.seed, alpha_override=lo)
    report = verify_cf(h, f, lists=lists, require_total=True)
    yield report.valid, f"edges={args.edges} rounds={rounds}"


def _sweep_pipeline(args):
    rng = random.Random(args.seed)
    for t in range(args.trials):
        base = random_graph(10, 0.35, rng)
        g, _ = line_graph(base)
        for scaled in (False, True):
            _, _, r = prob.pipeline_list_size(g, scaled)
            lists = ListAssignment.uniform_range(g.n, max(r, 1))
            f, trace = prob.cfcn_pipeline(g, lists, args.seed + t, scaled)
            report = verify_cf(derived_hypergraph(g, "closed"), f, lists=lists)
            mode = "scaled" if scaled else "full"
            part_c = len(trace.part_c) or "empty"
            yield report.valid, f"trial={t + 1} mode={mode} n={g.n} C={part_c}"


SWEEPS = {
    "propositions": _sweep_propositions,
    "reductions": _sweep_reductions,
    "lemma": _sweep_lemma,
    "pipeline": _sweep_pipeline,
}


def cmd_sweep(args):
    """Print each row of the suite as it is checked, then the summary."""
    rows = failed = 0
    for rows, (ok, detail) in enumerate(SWEEPS[args.suite](args), 1):
        failed += not ok
        print(f"{rows:4d} {'pass' if ok else 'FAIL'} {detail}", flush=True)
    if not rows:
        raise InputFormatError(f"suite {args.suite} has nothing to check")
    print(f"suite {args.suite}: {'FAIL' if failed else 'pass'} ({rows} rows)")
    return EXIT_NO if failed else EXIT_YES


def build_parser():
    p = argparse.ArgumentParser(
        prog="cfcolor",
        description="Conflict-free coloring and choosability toolkit.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_instance_args(sp):
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--graph", help="graph file")
        source.add_argument("--hgraph", help="hypergraph file")
        sp.add_argument(
            "--variant",
            choices=solve.VARIANTS,
            help="neighborhood variant for graph inputs (default cn-star)",
        )
        sp.add_argument(
            "--total",
            action="store_true",
            help="require a total coloring (hypergraph inputs)",
        )

    sp = sub.add_parser("verify", help="check a coloring file")
    add_instance_args(sp)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--lists")
    sp.add_argument("--report", help="write the report to a file")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("solve", help="exact list-CF coloring search")
    add_instance_args(sp)
    lists = sp.add_mutually_exclusive_group(required=True)
    lists.add_argument("--lists", help="lists file or RANGE:<r>")
    lists.add_argument("--uniform", type=positive, help="constant lists {1..k}")
    lists.add_argument("--chromatic", action="store_true")
    sp.add_argument("--budget", type=nonnegative, default=solve.DEFAULT_NODE_BUDGET)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("choose", help="decide k-choosability")
    add_instance_args(sp)
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--budget", type=nonnegative, default=solve.DEFAULT_NODE_BUDGET)
    sp.add_argument(
        "--assignment-budget", type=nonnegative, default=solve.DEFAULT_ASSIGNMENT_BUDGET
    )
    sp.set_defaults(func=cmd_choose)

    sp = sub.add_parser("oracle", help="positive 1-in-3-SAT oracle")
    sp.add_argument("--formula", required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("reduce", help="build a reduction graph")
    sp.add_argument("--formula", required=True)
    sp.add_argument(
        "--target", choices=("gphi", "gprime", "gdoubleprime"), required=True
    )
    sp.add_argument("--out")
    sp.add_argument("--rolemap")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("gadget-hg", help="build the hub gadget H_G")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out")
    sp.add_argument("--rolemap")
    sp.set_defaults(func=cmd_gadget_hg)

    sp = sub.add_parser("edc", help="extended double cover")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_edc)

    sp = sub.add_parser("pipeline", help="randomized CFCN* pipeline")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--lists", required=True, help="lists file or RANGE:<r>")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--scaled", action="store_true")
    sp.add_argument("--k-override", type=positive)
    sp.add_argument("--retries", type=positive, default=prob.RETRY_LIMIT)
    sp.add_argument("--trace")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("lemma", help="near-uniform hypergraph colorer")
    sp.add_argument("--hgraph", required=True)
    sp.add_argument("--list-factor", type=positive, default=prob.LIST_FACTOR)
    sp.add_argument("--alpha", type=positive, help="alpha override")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--max-rounds", type=positive, default=prob.LEMMA_MAX_ROUNDS)
    sp.add_argument("--lists")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lemma)

    sp = sub.add_parser("sweep", help="batch invariant suites")
    sp.add_argument("--suite", required=True, choices=SWEEPS)
    sp.add_argument("--max-n", type=int, default=5)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--edges", type=positive, default=100)
    sp.add_argument("--size", type=size_range, default="64..128")
    sp.set_defaults(func=cmd_sweep)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the input-error code
        return EXIT_INPUT if exc.code else EXIT_YES
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (prob.PipelineError, RecursionError, MemoryError) as exc:
        print(f"resources exhausted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OverflowError) as exc:
        # OverflowError: an integer input too large for a C size or a float
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run(argv=None):
    """``main`` as a process entry: an exception that escapes it is a
    crash, whose traceback and a last line `internal error: <type>:
    <message>` go to stderr, and exits 2.  ``main`` itself lets it
    escape, so that an in-process caller sees the crash.  A failed write
    to standard output, such as to a reader that closed it early, is an
    input error, as an unwritable --out is: one stderr line, exit 3."""
    try:
        code = main(argv)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # main words every file it cannot read or write, so what escapes
        # it is standard output
        print(f"input error: cannot write standard output: {exc}", file=sys.stderr)
        # what stays buffered would fail the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(run())
