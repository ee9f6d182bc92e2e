"""Randomized coloring machinery: the near-uniform hypergraph colorer
(random sampling plus resampling of bad hyperedges) and the full
K_{1,k}-free CFCN* pipeline.

All randomness flows from explicit seeds; identical inputs and seed give
identical output.  Correctness is enforced by post-hoc verification and
seed retries, never by trusting the probabilistic guarantee.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.errors import BudgetExceededError
from cfcolor.graphs import (
    Hypergraph,
    derived_hypergraph,
    greedy_color_classes,
    hypergraph_stats,
    max_star,
    maximal_independent_set,
)
from cfcolor.solve import SolveInstance, solve_list_cf
from cfcolor.verify import unique_colors, verify_cf

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


class ResampleFailure(BudgetExceededError):
    """The resampling loop hit its round cap; retry with a fresh seed."""

    def __init__(self, rounds, worst_edge):
        super().__init__(
            f"no good coloring after {rounds} resampling rounds "
            f"(worst edge {worst_edge})"
        )
        self.rounds = rounds
        self.worst_edge = worst_edge


class PipelineError(RuntimeError):
    """The pipeline failed; the message starts with the stage, in brackets."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")


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
    gives the minimum.  Returns (coloring, rounds).

    The set of bad edges is kept across rounds: a resample can change
    only the edges that meet the resampled one, so only those are
    checked again (Moser & Tardos, JACM 2010).  The check reads counts
    kept per edge, not the edge's colors: a color -> count dict and the
    number of colors counted once, which is the number of uniquely
    colored vertices.  Each recolored vertex updates them on its incident
    edges.  The finished coloring is checked by a full scan.
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

    rng = random.Random(rng_seed)
    color = [lists.sample(v, rng) for v in range(h.n)]
    incident = h.incidence()
    counts = [Counter([color[v] for v in edge]) for edge in h.edges]
    once = [list(cnt.values()).count(1) for cnt in counts]

    def is_bad(i):
        return 8 * (sizes[i] - once[i]) >= 7 * sizes[i]

    bad = set(filter(is_bad, range(h.m)))
    rounds = 0
    while bad:
        worst = min(bad)
        if rounds >= max_rounds:
            raise ResampleFailure(rounds, worst)
        touched = set()
        for v in h.edges[worst]:
            old = color[v]
            new = color[v] = lists.sample(v, rng)
            touched.update(incident[v])
            if new == old:
                continue
            for i in incident[v]:
                cnt = counts[i]
                x = cnt.pop(old)
                if x > 1:
                    cnt[old] = x - 1
                y = cnt.get(new, 0)
                cnt[new] = y + 1
                # old: 1 -> 0 loses a unique color, 2 -> 1 gains one;
                # new: 0 -> 1 gains one, 1 -> 2 loses one
                once[i] += (x == 2) - (x == 1) + (y == 0) - (y == 1)
        rounds += 1
        bad -= touched
        bad.update(filter(is_bad, touched))

    for edge in h.edges:
        non_unique = len(edge) - len(unique_colors([color[v] for v in edge]))
        if 8 * non_unique >= 7 * len(edge):  # pragma: no cover
            raise AssertionError("resampling terminated with a bad edge")
    return PartialColoring({v: color[v] for v in range(h.n)}), rounds


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


def color_h1(in_a, a_set, b_set, lists):
    """Color the independent core so every vertex of A u B sees a unique
    color among its closed A-neighbors, which in_a[v] lists in increasing
    order.

    Greedy: each a in A takes a list color unused by any A-vertex sharing
    a conflict edge with it; a greedy dead end falls back to the exact
    solver on the A-neighborhood hypergraph H1.  Requires
    |L_a| >= (k-1)b + 2 in the pipeline's parlance; callers check sizes.
    Returns (f1, witness), where witness[v] for v in A u B is the smallest
    color that appears once on in_a[v] under f1; an A-vertex is its own
    witness.
    """
    a_sorted = sorted(a_set)
    vertices = sorted(a_set | b_set)
    for v in vertices:
        if not in_a[v]:
            raise PipelineError(
                "color_h1", f"vertex {v} in B has no neighbor in A"
            )

    conflicts = {a: set() for a in a_sorted}
    for v in vertices:
        edge = in_a[v]
        for x in edge:
            conflicts[x].update(w for w in edge if w != x)

    f = {}
    greedy_ok = True
    for a in a_sorted:
        taken = {f[w] for w in conflicts[a] if w in f}
        chosen = None
        for c in lists.colors(a):
            if c not in taken:
                chosen = c
                break
        if chosen is None:
            greedy_ok = False
            break
        f[a] = chosen

    if not greedy_ok:
        a_index = {a: i for i, a in enumerate(a_sorted)}
        h1 = Hypergraph._from_sorted(
            len(a_sorted), [tuple(a_index[w] for w in in_a[v]) for v in vertices]
        )
        inst = SolveInstance(h1)
        sub = solve_list_cf(inst, lists.restrict(a_sorted))
        if sub is None:
            raise PipelineError("color_h1", "A-core hypergraph is uncolorable")
        f = {a_sorted[i]: c for i, c in sub.items()}

    witness = {}
    for v in vertices:
        unique = unique_colors([f.get(w) for w in in_a[v]])
        if not unique:  # pragma: no cover
            raise AssertionError("H1 coloring left an edge without a witness")
        witness[v] = min(unique)
    return PartialColoring(f), witness


def reduce_lists(g, in_a, b_set, witness, lists, k, b):
    """Strike protected colors from the lists of B.

    For u in B, X_u holds the witness colors of u's A-neighbors in_a[u]
    (their own colors) and Y_u those of u's closed B-neighbors, from
    color_h1's witness map; the reduced list is L_u minus both.  Returns
    (assignment over sorted(B), X_u map, Y_u map).
    """
    removed_x = {}
    removed_y = {}
    entries = []
    for u in sorted(b_set):
        xs = {witness[a] for a in in_a[u]}
        ys = {witness[w] for w in g.closed[u] if w in b_set}
        if len(xs) > k - 1:
            raise PipelineError("reduce_lists", f"|X_{u}| = {len(xs)} > k-1")
        if len(ys) > (k - 1) * (b - 1) + 1:
            raise PipelineError(
                "reduce_lists", f"|Y_{u}| = {len(ys)} exceeds (k-1)(b-1)+1"
            )
        reduced = lists.without(u, xs | ys)
        if not reduced:
            raise PipelineError("reduce_lists", f"vertex {u} left with empty list")
        removed_x[u] = frozenset(xs)
        removed_y[u] = frozenset(ys)
        entries.append(reduced)
    return ListAssignment(entries), removed_x, removed_y


def _check_structure(in_a, in_b, a_set, k, b):
    for v, row in enumerate(in_a):
        if v not in a_set and not (1 <= len(row) <= k - 1):
            raise PipelineError(
                "structure",
                f"vertex {v} has {len(row)} A-neighbors, expected 1..{k - 1}",
            )
    for v, row in in_b.items():
        if not (b <= len(row) <= (k - 1) * b):
            raise PipelineError(
                "structure",
                f"C-vertex {v} has {len(row)} B-neighbors, expected {b}..{(k - 1) * b}",
            )


def cfcn_pipeline(
    g, lists, rng_seed, scaled_mode=False, k_override=None, retry_limit=RETRY_LIMIT
):
    """Full CFCN* list-coloring pipeline for K_{1,k}-free graphs.

    Builds a maximal independent core A, greedily classes the rest, colors
    A exactly, then resamples the near-uniform B-neighborhood hypergraph
    for the deep classes.  The output always passes verification against
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
    """The stages that do not depend on the seed: the core A, the classes,
    the H1 coloring f1, the reduced lists and H2, with b from the
    CONSTANTS row `constants`.  Returns (f1, None) when C is empty, else
    (f1, (h2, reduced lists, B in order, b)).
    """
    a_set = maximal_independent_set(g)
    # A-vertices stay uncolored, so greedy-coloring the rest of g in
    # increasing order gives the classes of g minus A
    classes = greedy_color_classes(
        g, order=[v for v in range(g.n) if v not in a_set]
    )
    s = len(classes)
    # Delta = 0 takes the log term at Delta = 1, below b_floor in both rows
    log_term = math.ceil(constants["b_log_coeff"] * math.log(4 * max(delta, 1)))
    b = min(s, max(constants["b_floor"], log_term))
    b_set = set().union(*classes[:b]) if classes else set()
    c_set = set().union(*classes[b:]) if s > b else set()

    trace.independent_set = a_set
    trace.classes = classes
    trace.s = s
    trace.b = b
    trace.part_b = frozenset(b_set)
    trace.part_c = frozenset(c_set)

    # each neighborhood is scanned once: in_a[v] holds v's closed
    # A-neighbors (v itself for v in A, since A is independent) and
    # in_b[v] each C-vertex's B-neighbors, both in increasing order
    in_a = [
        [v] if v in a_set else [w for w in g.adj[v] if w in a_set]
        for v in range(g.n)
    ]
    in_b = {v: [w for w in g.adj[v] if w in b_set] for v in c_set}
    _check_structure(in_a, in_b, a_set, k, b)

    needed = (k - 1) * b + 2
    for a in a_set:
        if lists.size(a) < needed:
            raise PipelineError(
                "color_h1", f"list of {a} has {lists.size(a)} colors, need {needed}"
            )
    f1, witness = color_h1(in_a, a_set, b_set, lists)
    trace.f1 = f1

    if not c_set:
        return f1, None

    reduced, removed_x, removed_y = reduce_lists(
        g, in_a, b_set, witness, lists, k=k, b=b
    )
    trace.removed_x = removed_x
    trace.removed_y = removed_y

    b_sorted = sorted(b_set)
    b_index = {v: i for i, v in enumerate(b_sorted)}
    # every C-vertex has at least b >= 1 B-neighbors (checked above)
    h2 = Hypergraph._from_sorted(
        len(b_sorted), [tuple(b_index[w] for w in in_b[v]) for v in sorted(c_set)]
    )

    gamma = hypergraph_stats(h2)
    if gamma > delta * delta:
        raise PipelineError("h2", f"Gamma {gamma} exceeds Delta^2 {delta * delta}")
    return f1, (h2, reduced, b_sorted, b)
