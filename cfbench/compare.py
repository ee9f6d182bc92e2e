"""Compare two sets of benchmark results, metric by metric.

    python3 cfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (``cfbench/.work/results``
of one commit, copied aside before running the other).  For every workload
and trace mode found in both, prints each metric's median and quartiles on
both sides and the change of the medians.  Warns when the two sets ran
different kernel backends, which differ about 50x, or when a run failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory):
    groups = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(base_dir, change_dir):
    base, change = load(base_dir), load(change_dir)
    base_backends, change_backends = (
        sorted({r["env"]["backend"] for rs in groups.values() for r in rs})
        for groups in (base, change)
    )
    if base_backends != change_backends:
        print(f"WARNING: kernel backends differ: base {base_backends}, change {change_backends}")
    for key in sorted(base.keys() & change.keys()):
        workload, trace = key
        runs = f"{len(base[key])} base runs, {len(change[key])} change runs"
        print(f"\n{workload} trace={trace}: {runs}")
        for side, records in (("base", base[key]), ("change", change[key])):
            failed = sum(r["failed"] for r in records)
            if failed:
                print(f"WARNING: {failed} failed requests in the {side} runs")
        for name, metric in base[key][0]["metrics"].items():
            b = [r["metrics"][name]["value"] for r in base[key]]
            c = [r["metrics"][name]["value"] for r in change[key] if name in r["metrics"]]
            if not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            delta = (cq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            print(
                f"  {name:30s} {metric['unit']:>9s}  base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                f"  change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]  {delta:+.1%}"
            )


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
