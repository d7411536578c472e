"""Benchmark entry point: runs one workload of BENCHMARK.json in a fresh child.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a readable report, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  ``correct`` is false when any output disagrees with its
reference in a way that no open defect explains; every disagreement,
explained or not, is counted in ``failed``.  Exits non-zero without a
result when the checkout lacks the package or the reference data.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("BENCHMARK.json", "src/bilorentz/__init__.py", "src/bilorentz/cli.py",
            "tests/golden/fig2-original.svg")
#: Each run must end within 180 s; leave room for start-up and reporting.
CHILD_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        return fail(f"checkout lacks {', '.join(missing)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        out = tmp / "result.json"
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), args.workload, str(args.seed),
             repr(args.seconds), str(args.trace), str(tmp), str(out)],
            cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return fail(f"workload did not finish within {CHILD_TIMEOUT_S} s")
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)    # with any CLI it started
                child.wait()
        if code != 0:
            return fail(f"workload exited with code {code}")
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # the largest resident set of the child and of every process it waited for
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    measured = dict(result["metrics"], peak_rss_mb=peak_rss_mb)
    metrics, absent = {}, []
    for m in wanted:
        if m["name"] not in measured:
            absent.append(m["name"])
        metrics[m["name"]] = {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
    if absent and not args.trace:
        return fail(f"end-to-end metrics not measured: {', '.join(absent)}")

    for line in result["lines"]:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if absent:
        print(f"not traced in this build (reported as 0): {', '.join(absent)}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio = {failed / attempted:.6f} (failed={failed} attempted={attempted}, "
          f"unexplained={result['unexplained']}) kinds={result['kinds']} "
          f"later passes that failed differently={result['disagreeing']}")
    for example in result["examples"]:
        print(f"unexplained failure: {example}")
    print(json.dumps({"correct": result["unexplained"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
