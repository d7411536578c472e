"""Wall time of fresh ``verify`` processes with and without the forked peer.

Each run starts a fresh ``python`` that sets ``verify._WORKERS`` to 1 or 2 and
then runs ``bilorentz verify --trials N`` through ``cli.run()``, as the tests'
``_TWO_WORKERS`` wrapper does; ``OPENBLAS_NUM_THREADS`` is 1, as ``cli.run()``
would set it before ``verify`` imports numpy.  The time is the wall time of the
whole process, interpreter start and ``import numpy`` included, so it is what a
caller of the CLI waits.  With 1 worker no peer is forked; with 2 one is,
from 2 blocks on, whatever the CPU count.

The trial counts are 1e5 (the CLI default), 2e5, 4e5 and 1e6: the range in
which the peer turns from a cost into a gain.  The cases are every (trial
count, worker count).  Each folder's JSON holds the median and the quartiles
in ms of each worker count and trial count, and the ratio of the medians with
and without the peer.

It runs on ``tools/ab.py``'s loop: ``python tools/peer.py [--runs N] [SRC ...]``.
Each ``verify`` may fork its peer, so only one runs at a time.  Run it more
than once: on a shared host the peer's effect has moved between sweeps by
more than the effect itself.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import ab

TRIALS = (100_000, 200_000, 400_000, 1_000_000)
WORKERS = (1, 2)
CASES = [(trials, workers) for trials in TRIALS for workers in WORKERS]
WRAPPER = """\
import sys
from bilorentz import cli, verify
verify._WORKERS = int(sys.argv.pop(1))
cli.run()
"""


def wall_ms(case, src, cwd) -> float:
    """Wall time in ms of one fresh verify process for (trials, workers).  No timeout:
    with one, the wait polls the child with sleeps of up to 50 ms."""
    trials, workers = case
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", WRAPPER, str(workers), "verify", "--trials",
                    str(trials)], env=ab.env(src, OPENBLAS_NUM_THREADS="1"), cwd=cwd,
                   stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) * 1e3


def summary(times) -> dict:
    q1, median, q3 = (round(ab.quantile(times, 4, i), 1) for i in (1, 2, 3))
    return {"median_ms": median, "quartiles_ms": [q1, q3]}


def report(samples) -> dict:
    return {f"{trials:g}": {
        **{f"workers={workers}": summary(samples[trials, workers]) for workers in WORKERS},
        "peer_ratio": round(statistics.median(samples[trials, 2])
                            / statistics.median(samples[trials, 1]), 3),
    } for trials in TRIALS}


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, 9, CASES, wall_ms, report))
