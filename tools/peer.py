"""Wall time of fresh ``verify`` processes with and without the forked peer.

Each run starts a fresh ``python`` that sets ``verify._WORKERS`` to 1 or 2 and
then runs ``bilorentz verify --trials N`` through ``cli.run()``, as the tests'
``_TWO_WORKERS`` wrapper does; ``OPENBLAS_NUM_THREADS`` is 1, as ``cli.run()``
would set it before ``verify`` imports numpy.  The time is the wall time of the
whole process, interpreter start and ``import numpy`` included, so it is what a
caller of the CLI waits.  With 1 worker no peer is forked; with 2 one is,
from 2 blocks on, whatever the CPU count.

The trial counts are 1e5 (the CLI default), 2e5, 4e5 and 1e6: the range in
which the peer turns from a cost into a gain.  Given several ``src`` folders
(for instance a parent checkout's and this one's), each round runs every
(trial count, worker count) once per folder, and the order of the runs within
a round, folders and worker counts alike, reverses every other round.  One
JSON object keyed by folder is printed, with the median and the quartiles in ms
of each worker count and trial count, and the ratio of the medians with and
without the peer.

Run with ``python tools/peer.py [--runs N] [SRC ...]``; SRC defaults to this
checkout's ``src``.  It starts one ``verify`` at a time, since each may fork its
peer, and is not part of the test suite.  Run it more than once: on a shared
host the peer's effect has moved between sweeps by more than the effect itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRIALS = (100_000, 200_000, 400_000, 1_000_000)
WORKERS = (1, 2)
WRAPPER = """\
import sys
from bilorentz import cli, verify
verify._WORKERS = int(sys.argv.pop(1))
cli.run()
"""


def wall_ms(workers: int, trials: int, env, cwd) -> float:
    """Wall time in ms of one fresh verify process with that many workers.  No timeout:
    with one, the wait polls the child with sleeps of up to 50 ms."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", WRAPPER, str(workers), "verify", "--trials",
                    str(trials)], env=env, cwd=cwd, stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) * 1e3


def summary(times) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_ms": round(median, 1), "quartiles_ms": [round(q1, 1), round(q3, 1)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("src", nargs="*", default=[str(SRC)])
    args = parser.parse_args(argv)
    runs = [(src, workers, trials) for trials in TRIALS for src in args.src
            for workers in WORKERS]
    samples = {run: [] for run in runs}
    with tempfile.TemporaryDirectory() as cwd:
        for round_ in range(args.runs):
            for src, workers, trials in runs if round_ % 2 == 0 else runs[::-1]:
                env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()),
                       "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
                samples[src, workers, trials].append(wall_ms(workers, trials, env, cwd))
    report = {}
    for src in args.src:
        report[src] = {f"{trials:g}": {
            **{f"workers={workers}": summary(samples[src, workers, trials])
               for workers in WORKERS},
            "peer_ratio": round(statistics.median(samples[src, 2, trials])
                                / statistics.median(samples[src, 1, trials]), 3),
        } for trials in TRIALS}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
