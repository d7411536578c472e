"""Wall time, teardown, peak resident set and page faults of fresh CLI processes.

Each sample starts one ``python`` with stdout on a pipe, reads the pipe to its
end, noting when the last bytes arrive, and reaps the process with
``os.wait4``, whose usage covers the process and every child it reaped, so
``verify``'s forked peer too.  Per case, each folder's JSON holds over the runs:

* ``wall_ms``: start to reap, what a caller of the CLI waits (median, 10th
  percentile, quartiles);
* ``teardown_ms``: last write to reap, what the process does once its output is
  out (median, 10th percentile);
* ``peak_rss_mb``: the largest peak resident set of the process and the
  children it reaped, in MB (``ru_maxrss`` is in KiB on Linux; median, range);
* ``extra_faults``: minor page faults beyond the median of the folder's
  ``verify@1`` runs (median, range).

The cases are ``bare`` (``python -c "print(0)"``), ``transform``, ``diagram``,
``verify@N`` for ``--trials`` N of 1, 1e5 (the default), 1e6 and 4e6 through
``python -m bilorentz.cli``, and ``verify@N/wW`` for N from 1e5 to 1e6 through a
one-line wrapper that sets ``verify._WORKERS`` to W, then calls ``cli.run()``:
with W = 1 no peer is forked, with W = 2 one is from 2 blocks on, whatever the
CPU count.  Every child has ``OPENBLAS_NUM_THREADS=1``, as ``cli.run()`` sets it.

``floor_mb`` is the median peak of the ``verify@1`` runs, one trial and no peer:
little more than the interpreter, numpy and ``numpy.random``, so a peak less
``floor_mb`` is what the fuzz checks' blocks add.  ``peer_ratio`` is, per trial
count, the median wall time with the peer over the median without it.

It runs on ``tools/ab.py``'s loop: ``python tools/proc.py [--runs N] [SRC ...]``,
one process at a time, since ``verify`` may fork its peer.  A steady 10th
percentile of ``teardown_ms`` wants ``--runs 25``.  Run it more than once: on a
shared host the peer's effect has moved between sweeps by more than the effect
itself.  It needs Linux (``os.wait4``, ``ru_maxrss`` in KiB).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import ab

CLI = ("-m", "bilorentz.cli")
WRAPPER = ("-c", "import sys; from bilorentz import cli, verify; "
                 "verify._WORKERS = int(sys.argv.pop(1)); cli.run()")
PEER_TRIALS = ("1e5", "2e5", "4e5", "1e6")
CASES = {
    "bare": ("-c", "print(0)"),
    "transform": (*CLI, "transform", "--branch", "l", "--tau", "-1", "--k", "1", "--vel", "2",
                  "--vec", "2,1"),
    "diagram": (*CLI, "diagram", "--builtin", "fig2", "--out", "fig2"),
    **{f"verify@{n}": (*CLI, "verify", "--trials", f"{float(n):.0f}")
       for n in ("1", "1e5", "1e6", "4e6")},
    **{f"verify@{n}/w{w}": (*WRAPPER, str(w), "verify", "--trials", f"{float(n):.0f}")
       for n in PEER_TRIALS for w in (1, 2)},
}


def measure(case, src, cwd) -> tuple[float, float, int, int]:
    """(teardown_ms, wall_ms, ru_maxrss in KiB, ru_minflt) of one fresh process."""
    argv = CASES[case]
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                             env=ab.env(src, OPENBLAS_NUM_THREADS="1"), cwd=cwd)
    last = start
    with child.stdout:
        while os.read(child.stdout.fileno(), 1 << 16):
            last = time.perf_counter()
    _, status, usage = os.wait4(child.pid, 0)
    reaped = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)    # reaped: Popen must not wait
    if child.returncode != 0:
        raise SystemExit(f"{argv} exited {child.returncode}")
    return (reaped - last) * 1e3, (reaped - start) * 1e3, usage.ru_maxrss, usage.ru_minflt


def _ms(xs) -> dict:
    return {"median": round(statistics.median(xs), 2), "p10": round(ab.quantile(xs, 10, 1), 2)}


def _spread(xs, digits=None) -> dict:
    return {"median": round(statistics.median(xs), digits),
            "range": [round(min(xs), digits), round(max(xs), digits)]}


def summary(runs, base_faults) -> dict:
    teardown, wall, maxrss, minflt = zip(*runs)
    return {"wall_ms": {**_ms(wall), "quartiles": [round(ab.quantile(wall, 4, i), 2)
                                                   for i in (1, 3)]},
            "teardown_ms": _ms(teardown),
            "peak_rss_mb": _spread([kib / 1024 for kib in maxrss], 2),
            "extra_faults": _spread([faults - base_faults for faults in minflt])}


def report(samples) -> dict:
    _, _, floor_kib, floor_faults = zip(*samples["verify@1"])
    wall = {case: statistics.median(run[1] for run in runs) for case, runs in samples.items()}
    return {"floor_mb": round(statistics.median(floor_kib) / 1024, 2),
            "peer_ratio": {n: round(wall[f"verify@{n}/w2"] / wall[f"verify@{n}/w1"], 3)
                           for n in PEER_TRIALS},
            **{case: summary(runs, statistics.median(floor_faults))
               for case, runs in samples.items()}}


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, 9, CASES, measure, report))
