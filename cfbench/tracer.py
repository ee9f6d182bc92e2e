"""Spans around the package's public functions, recorded from outside it.

The package imports functions by name (``from cfcolor.verify import
verify_cf``), so a wrapper only takes effect where the caller looks the
name up.  `Tracer.install` therefore replaces every binding of each traced
function in every loaded ``cfcolor`` module, and `uninstall` restores them.
Spans are kept in memory and written out at the end of the run.

A span is (id, parent id, request, name, start, end, self seconds, count).
Self time is the duration minus the time covered by child spans.  The
count carries what a layer reports about its work: bytes parsed, nodes
searched, edges checked, resampling rounds, pipeline attempts.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function, count taken from (args, result) or None).  Helpers
# called once per edge or vertex are left out: a span each would cost more
# than the work it measures.
TARGETS = [
    ("cli", "main", None),
    ("fileio", "parse_graph", lambda a, r: len(a[0])),
    ("fileio", "parse_hypergraph", lambda a, r: len(a[0])),
    ("fileio", "parse_formula", lambda a, r: len(a[0])),
    ("fileio", "parse_coloring", lambda a, r: len(a[0])),
    ("fileio", "parse_lists", lambda a, r: len(a[0])),
    ("fileio", "format_graph", None),
    ("fileio", "format_coloring", None),
    ("fileio", "format_lists", None),
    ("graphs", "derived_hypergraph", None),
    ("graphs", "hypergraph_stats", None),
    ("graphs", "max_star", None),
    ("graphs", "maximal_independent_set", None),
    ("graphs", "greedy_color_classes", None),
    ("kernels", "solve_cf", lambda a, r: (r[2], r[0] == 2)),
    ("kernels", "exact_one", lambda a, r: (r[2], r[0] == 2)),
    ("solve", "solve_list_cf", None),
    ("solve", "chromatic_number", None),
    ("solve", "decide_choosable", None),
    ("solve", "find_pimds", None),
    ("solve", "find_pids", None),
    ("solve", "solve_one_in_three", None),
    ("verify", "verify_cf", lambda a, r: a[0].m),
    ("verify", "is_pimds", None),
    ("verify", "is_pids", None),
    ("prob", "cfcn_pipeline", lambda a, r: (r[1].attempts, r[1].delegated)),
    ("prob", "color_h1", None),
    ("prob", "reduce_lists", None),
    ("prob", "near_uniform_color", lambda a, r: r[1]),
    ("reductions", "build_associated_graph", None),
    ("reductions", "build_g_prime", None),
    ("reductions", "build_g_double_prime", None),
    ("reductions", "build_h_gadget", None),
]

REQUEST = "bench.request"


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = 0
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                extra = count(args, result) if count and result is not None else None
                parent_id = parent[0] if parent else -1
                self_s = end - start - frame[1]
                spans.append((sid, parent_id, self.request, name, start, end, self_s, extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "cfcolor" or k.startswith("cfcolor.")]
        for mod_name, fn_name, count in TARGETS:
            original = getattr(sys.modules[f"cfcolor.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def run_request(self, request_id, fn):
        """Call fn() inside a root span that the request's spans hang from."""
        self.request = request_id
        return self._wrap(REQUEST, fn, None)()

    def write(self, path):
        with open(path, "w") as out:
            out.write("id\tparent\trequest\tname\tstart\tend\tself_s\tcount\n")
            for s in self.spans:
                out.write("\t".join(map(str, s)) + "\n")


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans, requests):
    """Per-layer metrics of the spans of `requests` traced requests: times
    and counts per request, plus rates and ratios."""
    name_of = {s[0]: s[3] for s in spans}
    by = {}
    for s in spans:
        by.setdefault(s[3], []).append(s)

    def calls(*names):
        return sum(len(by.get(n, ())) for n in names)

    def total(*names):
        return sum(s[5] - s[4] for n in names for s in by.get(n, ()))

    def self_time(*names):
        return sum(s[6] for n in names for s in by.get(n, ()))

    def counts(name, pick=lambda c: c):
        return sum(pick(s[7]) for s in by.get(name, ()) if s[7] is not None)

    layer_self = {}
    for s in spans:
        layer = layer_of(s[3])
        layer_self[layer] = layer_self.get(layer, 0.0) + s[6]

    def layer_names(layer):
        return [n for n in by if layer_of(n) == layer]

    def busy(layer):
        """Time inside the layer's outermost spans."""
        return sum(
            s[5] - s[4]
            for n in layer_names(layer)
            for s in by[n]
            if s[1] < 0 or layer_of(name_of.get(s[1], "")) != layer
        )

    kernel_s = total("kernels.solve_cf", "kernels.exact_one")
    kernel_calls = calls("kernels.solve_cf", "kernels.exact_one")
    nodes = sum(counts(n, lambda c: c[0]) for n in ("kernels.solve_cf", "kernels.exact_one"))
    trips = sum(counts(n, lambda c: c[1]) for n in ("kernels.solve_cf", "kernels.exact_one"))
    rounds = counts("prob.near_uniform_color")
    near_uniform_s = self_time("prob.near_uniform_color")
    attempts = counts("prob.cfcn_pipeline", lambda c: c[0])
    request_s = total(REQUEST)
    parsers = [n for n in layer_names("fileio") if ".parse_" in n]
    formatters = [n for n in layer_names("fileio") if ".format_" in n]
    classes = ("graphs.maximal_independent_set", "graphs.greedy_color_classes")
    assignments = sum(
        1
        for s in by.get("solve.solve_list_cf", ())
        if name_of.get(s[1]) == "solve.decide_choosable"
    )
    harness_s = layer_self.get("bench", 0.0)
    per = 1.0 / requests
    return {
        "fileio.parse_s": per * total(*parsers),
        "fileio.parse_calls": per * calls(*parsers),
        "fileio.parse_bytes": per * sum(counts(n) for n in parsers),
        "fileio.format_s": per * total(*formatters),
        "graphs.derived_hypergraph_s": per * total("graphs.derived_hypergraph"),
        "graphs.max_star_s": per * total("graphs.max_star"),
        "graphs.max_star_calls": per * calls("graphs.max_star"),
        "graphs.hypergraph_stats_s": per * total("graphs.hypergraph_stats"),
        "graphs.hypergraph_stats_calls": per * calls("graphs.hypergraph_stats"),
        "graphs.classes_s": per * total(*classes),
        "kernels.calls": per * kernel_calls,
        "kernels.nodes": per * nodes,
        "kernels.busy_s": per * kernel_s,
        "kernels.nodes_per_s": nodes / kernel_s if kernel_s else 0.0,
        "kernels.us_per_call": 1e6 * kernel_s / kernel_calls if kernel_calls else 0.0,
        "kernels.budget_trips": per * trips,
        "solve.solve_list_cf_calls": per * calls("solve.solve_list_cf"),
        "solve.solve_list_cf_s": per * total("solve.solve_list_cf"),
        "solve.self_s": per * layer_self.get("solve", 0.0),
        "solve.assignments": per * assignments,
        "solve.exact_one_s": per * total("solve.find_pimds", "solve.find_pids"),
        "solve.oracle_calls": per * calls("solve.solve_one_in_three"),
        "solve.oracle_s": per * total("solve.solve_one_in_three"),
        "verify.verify_cf_calls": per * calls("verify.verify_cf"),
        "verify.verify_cf_s": per * total("verify.verify_cf"),
        "verify.edges_checked": per * counts("verify.verify_cf"),
        "prob.pipeline_s": per * total("prob.cfcn_pipeline"),
        "prob.attempts": per * attempts,
        "prob.retries": per * (attempts - calls("prob.cfcn_pipeline")),
        "prob.delegated": per * counts("prob.cfcn_pipeline", lambda c: c[1]),
        "prob.color_h1_s": per * total("prob.color_h1"),
        "prob.reduce_lists_s": per * total("prob.reduce_lists"),
        "prob.near_uniform_s": per * near_uniform_s,
        "prob.resample_rounds": per * rounds,
        "prob.rounds_per_s": rounds / near_uniform_s if near_uniform_s else 0.0,
        "prob.self_s": per * layer_self.get("prob", 0.0),
        "reductions.build_s": per * busy("reductions"),
        "reductions.build_calls": per * calls(*layer_names("reductions")),
        "cli.requests": calls("cli.main"),
        "cli.self_s": per * layer_self.get("cli", 0.0),
        "trace.accounted_share": 1.0 - harness_s / request_s if request_s else 0.0,
    }, {layer: per * t for layer, t in sorted(layer_self.items())}
