"""Randomized coloring machinery: the near-uniform hypergraph colorer
(random sampling plus resampling of bad hyperedges) and the full
K_{1,k}-free CFCN* pipeline.

All randomness flows from explicit seeds; identical inputs and seed give
identical output.  Correctness is enforced by post-hoc verification and
seed retries, never by trusting the probabilistic guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise

from cfcolor import kernels
# the twin's stages, bound here too: the benchmark's tracer times them
# as prob.color_h1 and prob.reduce_lists
from cfcolor._kernel_py import color_h1, reduce_lists  # noqa: F401
from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.errors import PipelineError, ResampleFailure
from cfcolor.graphs import Hypergraph, derived_hypergraph, hypergraph_stats, max_star
from cfcolor.solve import SolveInstance, solve_list_cf
from cfcolor.verify import verify_cf

FULL_ALPHA_FLOOR = 2**12
FULL_ALPHA_LOG_COEFF = 136
# the defaults of near_uniform_color and cfcn_pipeline, and of the CLI's flags
LIST_FACTOR = 32
LEMMA_MAX_ROUNDS = 1000
RETRY_LIMIT = 10
PIPELINE_MAX_ROUNDS = 200
# the pipeline's constants by scaled_mode, the paper's (False) and the
# desk-scale ones (True): b = min{s, max{b_floor, ceil(b_log_coeff ln 4
# Delta)}} and r = ceil(r_coeff k ln Delta); the lemma requires lists of
# list_factor * (max edge size) colors.  The trace prints the row as is.
CONSTANTS = {
    False: dict(b_floor=2**12, b_log_coeff=272, r_coeff=2**18, list_factor=LIST_FACTOR),
    True: dict(b_floor=2, b_log_coeff=0.0, r_coeff=32.0, list_factor=LIST_FACTOR),
}


def lemma_lists(h, list_factor):
    """Uniform lists of list_factor * (max edge size) colors, the sizes
    near_uniform_color requires (list_factor colors when h has no edge)."""
    max_size = max((len(e) for e in h.edges), default=0)
    return ListAssignment.uniform_range(h.n, list_factor * max(max_size, 1))


def required_alpha(gamma):
    """The lemma's minimum edge size max(2^12, ceil(136 ln(16 Gamma)))."""
    # with Gamma = 0 no two edges meet, and the floor alone applies
    return max(
        FULL_ALPHA_FLOOR,
        math.ceil(FULL_ALPHA_LOG_COEFF * math.log(16 * max(gamma, 1))),
    )


def near_uniform_color(
    h,
    lists,
    rng_seed,
    list_factor=LIST_FACTOR,
    alpha_override=None,
    max_rounds=LEMMA_MAX_ROUNDS,
):
    """Sample-and-resample coloring of a near-uniform hypergraph.

    Colors every vertex uniformly from its list; while some edge E has
    X_E >= 7/8 |E| non-uniquely colored vertices, resamples all vertices
    of the lowest-index such edge, at most max_rounds times.  On success
    every edge sees at least |E|/8 unique colors.  Every list needs
    list_factor * (max edge size) colors, and every edge at least
    max(2^12, ceil(136 ln(16 Gamma))) vertices unless alpha_override
    gives the minimum.  Returns (coloring, rounds); at the round cap it
    raises ResampleFailure with the rounds and the lowest bad edge.

    The input is checked here; the loop is ``kernels.near_uniform``,
    looked up at call time, which draws every color as
    ``random.Random(rng_seed)`` would.
    """
    if list_factor < 1:
        raise ValueError("list_factor must be >= 1")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if lists.n != h.n:
        raise ValueError("lists must cover every vertex")
    sizes = [len(e) for e in h.edges]
    alpha = alpha_override
    if alpha is None:
        alpha = required_alpha(hypergraph_stats(h))
    if sizes and min(sizes) < alpha:
        raise ValueError(
            f"minimum edge size {min(sizes)} below required alpha {alpha}"
        )
    need = list_factor * max(sizes, default=0)
    for v in range(h.n):
        if lists.size(v) < need:
            raise ValueError(
                f"list of vertex {v} has {lists.size(v)} colors, need {need}"
            )
    color, rounds = kernels.near_uniform(h, lists, rng_seed, max_rounds)
    return PartialColoring(dict(enumerate(color))), rounds


def pipeline_list_size(g, scaled_mode=False, k_override=None):
    """(k, Delta, r) on g: the claw bound k = max_star(g) + 1 or
    k_override, never below 2, and the list size the pipeline requires,
    r = ceil(r_coeff k ln Delta), which is 0 when Delta < 2."""
    k = max(k_override if k_override is not None else max_star(g) + 1, 2)
    delta = g.max_degree()
    log_delta = math.log(delta) if delta >= 2 else 0.0
    return k, delta, math.ceil(CONSTANTS[bool(scaled_mode)]["r_coeff"] * k * log_delta)


@dataclass
class PipelineTrace:
    """Everything a pipeline run decided, for audit and invariants."""

    k: int = 0
    delta: int = 0
    r: int = 0
    b: int = 0
    s: int = 0
    independent_set: frozenset = frozenset()
    classes: tuple = ()
    part_b: frozenset = frozenset()
    part_c: frozenset = frozenset()
    f1: PartialColoring | None = None
    removed_x: dict = field(default_factory=dict)
    removed_y: dict = field(default_factory=dict)
    resample_rounds: int = 0
    final: PartialColoring | None = None
    attempts: int = 0
    delegated: bool = False
    scaled_mode: bool = False
    constants: dict = field(default_factory=dict)
    failures: tuple = ()

    def lines(self):
        out = [
            f"k {self.k}",
            f"delta {self.delta}",
            f"r {self.r}",
            f"s {self.s}",
            f"b {self.b}",
            f"attempts {self.attempts}",
            f"delegated {'yes' if self.delegated else 'no'}",
            f"scaled {'yes' if self.scaled_mode else 'no'}",
            "constants "
            + " ".join(f"{k}={v}" for k, v in sorted(self.constants.items())),
            "A " + " ".join(str(v) for v in sorted(self.independent_set)),
        ]
        for i, cls_ in enumerate(self.classes):
            out.append(f"class {i + 1} " + " ".join(str(v) for v in sorted(cls_)))
        out.append("B " + " ".join(str(v) for v in sorted(self.part_b)))
        out.append("C " + " ".join(str(v) for v in sorted(self.part_c)))
        for u in sorted(self.removed_x):
            xs = " ".join(str(c) for c in sorted(self.removed_x[u]))
            ys = " ".join(str(c) for c in sorted(self.removed_y[u]))
            out.append(f"removed {u} X [{xs}] Y [{ys}]")
        out.append(f"rounds {self.resample_rounds}")
        if self.final is not None:
            for v, c in sorted(self.final.items()):
                out.append(f"color {v} {c}")
        return out


def cfcn_pipeline(
    g, lists, rng_seed, scaled_mode=False, k_override=None, retry_limit=RETRY_LIMIT
):
    """Full CFCN* list-coloring pipeline for K_{1,k}-free graphs.

    Builds a maximal independent core A, greedily classes the rest and
    colors A, all in one ``kernels.pipeline_core`` call, then resamples
    the near-uniform B-neighborhood hypergraph for the deep classes.  The output always passes verification against
    the closed-neighborhood hypergraph and the original lists.  Only the
    resampling depends on the seed: a failed resampling retries with a
    fresh seed, and after retry_limit attempts, or at once when a stage
    that does not depend on the seed fails, the run delegates to the
    exact solver (recorded in the trace).

    The constants of b and r are the row of CONSTANTS that scaled_mode
    picks: the paper's, or the desk-scale ones; the trace records it.  In
    both modes the lemma gets PIPELINE_MAX_ROUNDS resampling rounds per
    seed, and the exact fallback gets solve.DEFAULT_NODE_BUDGET nodes.

    Returns (coloring, trace).
    """
    if retry_limit < 1:
        raise ValueError("retry_limit must be >= 1")
    if lists.n != g.n:
        raise ValueError("lists must cover every vertex")
    k, delta, r = pipeline_list_size(g, scaled_mode, k_override)
    for v in range(g.n):
        if lists.size(v) < max(r, 1):
            raise ValueError(
                f"list of vertex {v} has {lists.size(v)} colors, pipeline needs {r}"
            )

    closed = derived_hypergraph(g, "closed")
    constants = CONSTANTS[bool(scaled_mode)]
    trace = PipelineTrace(
        k=k,
        delta=delta,
        r=r,
        scaled_mode=scaled_mode,
        constants=dict(constants),
    )
    failures = []
    trace.attempts = 1
    try:
        f1, h2_job = _core(g, lists, constants, k, delta, trace)
    except PipelineError as exc:
        failures.append(f"attempt 1: {exc}")
        tries = 0
    else:
        tries = retry_limit if h2_job is not None else 1

    for attempt in range(tries):
        trace.attempts = attempt + 1
        f, rounds = f1, 0
        if h2_job is not None:
            h2, reduced, b_sorted, b = h2_job
            try:
                f2, rounds = near_uniform_color(
                    h2,
                    reduced,
                    rng_seed + attempt,
                    list_factor=constants["list_factor"],
                    alpha_override=b,
                    max_rounds=PIPELINE_MAX_ROUNDS,
                )
            except ResampleFailure as exc:
                failures.append(f"attempt {attempt + 1}: {exc}")
                continue
            except ValueError as exc:
                # reduced lists or edge sizes below the lemma's thresholds:
                # the checks fail before any sampling, so no other seed
                # can pass them
                failures.append(f"attempt {attempt + 1}: [h2] {exc}")
                break
            f = f1.union(PartialColoring({b_sorted[i]: c for i, c in f2.items()}))
        report = verify_cf(closed, f, lists=lists, require_total=False)
        if report.valid:
            trace.final = f
            trace.resample_rounds = rounds
            trace.failures = tuple(failures)
            return f, trace
        failures.append(
            f"attempt {attempt + 1}: verification failed on edges "
            f"{report.edge_violations[:5]}"
        )

    # every attempt failed: fall back to the exact solver in place of the
    # general-graph construction this pipeline does not carry
    trace.delegated = True
    trace.failures = tuple(failures)
    inst = SolveInstance(closed)
    f = solve_list_cf(inst, lists)
    if f is None:
        raise PipelineError("delegate", "exact solver found no coloring")
    trace.final = f
    return f, trace


def _core(g, lists, constants, k, delta, trace):
    """The stages that do not depend on the seed, with b from the
    CONSTANTS row `constants`: ``kernels.pipeline_core``, looked up at
    call time, finds the core A, the classes, the H1 coloring f1, X_u and
    Y_u and H2 in one call and runs every check but Gamma's; the trace
    and the reduced lists L_u minus X_u and Y_u are built here.  Returns
    (f1, None) when C is empty, else (f1, (h2, reduced lists, B in
    order, b)).
    """
    # Delta = 0 takes the log term at Delta = 1, below b_floor in both rows
    log_term = math.ceil(constants["b_log_coeff"] * math.log(4 * max(delta, 1)))
    core = kernels.pipeline_core(*g.csr, lists, k, max(constants["b_floor"], log_term))
    members, bounds, b = core.members, core.bounds, core.b
    trace.independent_set = frozenset(members[:bounds[1]])
    trace.classes = tuple(frozenset(members[i:j]) for i, j in pairwise(bounds[1:]))
    trace.s = len(trace.classes)
    trace.b = b
    trace.part_b = frozenset(members[bounds[1]:bounds[b + 1]])
    trace.part_c = frozenset(members[bounds[b + 1]:])
    if core.f1 is not None:
        trace.f1 = PartialColoring(core.f1)
    if core.error is not None:
        raise PipelineError(*core.error)
    if core.h2 is None:
        return trace.f1, None

    b_sorted = sorted(trace.part_b)
    trace.removed_x = {u: xs for u, (xs, _) in zip(b_sorted, core.removed)}
    trace.removed_y = {u: ys for u, (_, ys) in zip(b_sorted, core.removed)}
    # L_u minus X_u and Y_u, which the kernel checked to be non-empty
    reduced = ListAssignment._from_sorted(
        [lists.without(u, xs | ys) for u, (xs, ys) in zip(b_sorted, core.removed)]
    )
    h2 = Hypergraph._from_csr(len(b_sorted), *core.h2)
    gamma = hypergraph_stats(h2)
    if gamma > delta * delta:
        raise PipelineError("h2", f"Gamma {gamma} exceeds Delta^2 {delta * delta}")
    return trace.f1, (h2, reduced, b_sorted, b)
