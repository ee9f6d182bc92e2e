"""Print one SHA-256 per request of a benchmark workload, to compare the
outputs of two checkouts or two kernel backends.

    python3 tools/output_hashes.py --workload randomized --seed 1 > c.txt
    env PATH=/nonexistent python3 tools/output_hashes.py --workload randomized --seed 1 > p.txt
    diff c.txt p.txt

The package is imported from this checkout's ``src`` and the workload from
its ``cfbench``.  The inputs are built by ``cfbench/workloads.build`` in a
temporary directory, which is the working directory of the run, so no
output names it.  The warm-up request runs first, then every request
once, in the plan's order.  Each line is the request's kind and the hash
of its exit code, standard output, standard error and result (a
frozenset result sorted first).  Standard error names the backend.
"""

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "cfbench")]

import workloads  # noqa: E402
from cfcolor import kernels  # noqa: E402


def output_hash(request):
    """The SHA-256 of what one request gives back."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code, result = request.call()
    if isinstance(result, frozenset):
        result = sorted(result)
    record = repr((code, out.getvalue(), err.getvalue(), result))
    return hashlib.sha256(record.encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(f"backend {kernels.BACKEND}", file=sys.stderr)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            plan = workloads.build(args.workload, args.seed, ".")
            for request in [plan.warmup, *plan.requests]:
                print(request.kind, output_hash(request))
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
