"""Run one benchmark workload and print its metrics.

    python3 cfbench/run.py --workload exact-deep --seed 1 --seconds 35 --trace 0

``--workload all`` runs the three workloads one after the other, each in a
process of its own.

Run from the root of a checkout; the package is imported from its ``src``
directory.  Set-up writes the workload's inputs under ``cfbench/.work`` and
is repeated a few times.  The run then sends the workload's fixed request
list, in a closed loop with one client and no threads, until ``--seconds``
have passed, and checks every answer.  Every timing is paired with
calibration samples taken next to it and reported adjusted for the host's
speed at that moment (cfbench/calibrate.py); the raw timings are printed
and recorded beside them.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` each request runs once untraced and
once traced, and the per-layer metrics and the tracing overhead come from
the traced copies.  The last line of output is one JSON object; the full
result, with the environment it ran in, goes to ``cfbench/.work/results``.
See cfbench/README.md for every metric.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REFERENCE_S, Calibrator  # noqa: E402
from check import WrongAnswer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 0.1
WORKLOADS = ("exact-deep", "exact-many", "randomized")

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name in ("kernels.nodes_per_s", "prob.rounds_per_s"):
        return "1/s"
    if name == "kernels.us_per_call":
        return "us"
    if name == "cli.requests":
        return "count"
    if name.startswith("trace.") or name.endswith("_ratio"):
        return "ratio"
    if name == "fileio.parse_bytes":
        return "B/req"
    return "s/req" if name.endswith("_s") else "count/req"


def import_package():
    """Import cfcolor from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cfcolor
    except ImportError as exc:
        raise SystemExit(f"cannot import cfcolor from {src}: {exc}")
    if not Path(cfcolor.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cfcolor was imported from {cfcolor.__file__}, not {src}")


def git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Executes requests, checks answers and tallies the outcomes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.budget = 0
        self.failures = Counter()
        self.messages = []
        self._verdicts = {}

    def execute(self, req, traced=None, request_id=0):
        """Run one request; returns its latency in seconds."""
        out = io.StringIO()
        code = result = error = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                if traced is None:
                    code, result = req.call()
                else:
                    code, result = traced.run_request(request_id, req.call)
        except Exception as exc:  # an escape is a failure to count, not to stop on
            error = type(exc).__name__
        latency = time.perf_counter() - start
        self._tally(req, code, out.getvalue(), result, error)
        return latency

    def _tally(self, req, code, out, result, error):
        self.attempted += 1
        if error is not None:
            verdict = f"escaped {error}"
        elif code == 2:
            verdict = "budget"
        else:
            key = (id(req), code, out, result)
            verdict = self._verdicts.get(key)
            if verdict is None:
                try:
                    req.check(code, out, result)
                    verdict = "ok"
                except WrongAnswer as exc:
                    verdict = f"wrong answer: {exc}"
                except (ValueError, IndexError, KeyError, TypeError) as exc:
                    verdict = f"malformed output: {exc!r}"
                self._verdicts[key] = verdict
        if verdict == "budget":
            self.budget += 1
        elif verdict != "ok":
            self.failed += 1
            self.failures[f"{req.kind}: {verdict.split(':')[0]}"] += 1
            if len(self.messages) < 20:
                self.messages.append(f"{req.kind}: {verdict}")


def tail(latencies, level):
    """Nearest-rank percentile at `level`: (value, samples above it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run(args):
    import_package()
    import workloads
    from cfcolor import kernels
    from tracer import Tracer, summarize

    import_s = time.perf_counter() - PROCESS_START
    cal = Calibrator(CALIBRATE_EVERY_S)
    cal.sample()
    work = HERE / ".work"
    inputs = work / "inputs" / args.workload
    runner = Runner()

    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        plan = workloads.build(args.workload, args.seed, inputs)
        runner.execute(plan.warmup)
        setups_raw.append(time.perf_counter() - start)
        cal.sample()
        setups.append(cal.adjust(setups_raw[-1], start))

    tracer = Tracer() if args.trace else None
    timed, plain_s, traced_s = [], 0.0, 0.0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while not timed or time.perf_counter() < deadline:
        req = plan.requests[i % len(plan.requests)]
        i += 1
        cal.maybe_sample()
        start = time.perf_counter()
        latency = runner.execute(req)
        timed.append((req.kind, start, latency))
        if tracer is not None:
            plain_s += latency
            tracer.install()
            try:
                traced_s += runner.execute(req, tracer, i)
            finally:
                tracer.uninstall()
    cal.sample()
    raw = [latency for _, _, latency in timed]
    latencies = [cal.adjust(latency, start) for _, start, latency in timed]
    by_kind = {}
    for (kind, _, _), latency in zip(timed, latencies):
        by_kind.setdefault(kind, []).append(latency)

    env = {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": git_commit(),
    }
    extra = {
        "failed_ratio": runner.failed / runner.attempted,
        "budget_ratio": runner.budget / runner.attempted,
        "requests": len(latencies),
        "passes": len(latencies) / len(plan.requests),
        "failures": dict(runner.failures),
        "failure_messages": runner.messages,
        "requests_by_kind": {k: len(v) for k, v in by_kind.items()},
        "median_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
        "calibration": {
            "reference_s": REFERENCE_S,
            "samples": len(cal.seconds),
            "median_s": statistics.median(cal.seconds),
            "quartiles_s": statistics.quantiles(cal.seconds, n=4),
        },
    }
    if tracer is None:
        level = workloads.TAIL_LEVEL[args.workload]
        tail_s, beyond = tail(latencies, level)
        import_adjusted = cal.adjust(import_s, PROCESS_START)
        values = {
            "setup_s": import_adjusted + statistics.median(setups),
            "requests_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        raw_tail_s, _ = tail(raw, level)
        extra.update(tail_level=level, tail_beyond=beyond, import_s=import_s,
                     setup_runs_s=setups, setup_runs_raw_s=setups_raw)
        extra["raw"] = {
            "setup_s": import_s + statistics.median(setups_raw),
            "requests_per_s": len(raw) / sum(raw),
            "latency_p50_ms": 1e3 * statistics.median(raw),
            "latency_tail_ms": 1e3 * raw_tail_s,
        }
    else:
        values, layer_self = summarize(tracer.spans, len(latencies))
        values["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        values["cli.budget_ratio"] = extra["budget_ratio"]
        units = {name: per_layer_unit(name) for name in values}
        extra["layer_self_s_per_request"] = layer_self
        spans = work / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write(spans / f"{args.workload}-seed{args.seed}.tsv")

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    summary = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(summary, workload=args.workload, seconds=args.seconds, trace=args.trace)
    record.update(env=env, extra=extra)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} backend {env['backend']} "
          f"python {env['python']} nproc {env['nproc']} commit {env['commit']}")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    for k, v in extra.get("raw", {}).items():
        print(f"raw_{k} {v:.6g} {END_TO_END_UNITS[k]}")
    c = extra["calibration"]
    print(f"calibration unit median {1e3 * c['median_s']:.4g} ms over {c['samples']} samples, "
          f"reference {1e3 * REFERENCE_S:g} ms")
    for layer, seconds in extra.get("layer_self_s_per_request", {}).items():
        print(f"self time of layer {layer} {seconds:.6g} s/req")
    print(f"failed_ratio {extra['failed_ratio']:.6g} ratio")
    print(f"budget_ratio {extra['budget_ratio']:.6g} ratio")
    if tracer is None:
        print(f"latency_tail_ms is p{level:g} of {len(latencies)} requests, {beyond} above it")
    for message in runner.messages:
        print(f"failure {message}")
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all":
        return run(args)
    # one process per workload keeps set-up time and peak memory apart
    codes = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(argv).returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
