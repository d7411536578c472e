"""Time from a CLI process's last write to its reap, against a bare interpreter.

For each command, each run starts a fresh ``python`` with stdout on a pipe,
notes when the last bytes arrive and when the process is reaped, and reports
over the runs the 10th percentile and the median of:

* ``teardown_ms``: last write to reap, which is what the process does after
  its output is out: for a process that ends by ``sys.exit``, the
  interpreter's teardown;
* ``wall_ms``: start to reap.

The commands, which are the cases, are ``bare`` (``python -c "print(0)"``),
``transform``, ``diagram --builtin fig2`` and ``verify --trials 100000``.

It runs on ``tools/ab.py``'s loop: ``python tools/teardown.py [--runs N] [SRC ...]``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import ab

CLI = ("-m", "bilorentz.cli")
COMMANDS = {
    "bare": ("-c", "print(0)"),
    "transform": (*CLI, "transform", "--branch", "l", "--tau", "-1", "--k", "1", "--vel", "2",
                  "--vec", "2,1"),
    "diagram": (*CLI, "diagram", "--builtin", "fig2", "--out", "fig2"),
    "verify": (*CLI, "verify", "--trials", "100000"),
}


def time_one(name, src, cwd) -> tuple[float, float]:
    """(last write to reap, start to reap) in ms for one process."""
    argv = COMMANDS[name]
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, env=ab.env(src),
                             cwd=cwd)
    last = start
    while os.read(child.stdout.fileno(), 1 << 16):
        last = time.perf_counter()
    child.wait()
    reaped = time.perf_counter()
    child.stdout.close()
    if child.returncode != 0:
        raise SystemExit(f"{argv} exited {child.returncode}")
    return (reaped - last) * 1e3, (reaped - start) * 1e3


def summary(samples) -> dict:
    teardown, wall = zip(*samples)
    return {"teardown_ms_p10": round(ab.quantile(teardown, 10, 1), 2),
            "teardown_ms_median": round(statistics.median(teardown), 2),
            "wall_ms_p10": round(ab.quantile(wall, 10, 1), 2),
            "wall_ms_median": round(statistics.median(wall), 2)}


def report(samples) -> dict:
    return {name: summary(runs) for name, runs in samples.items()}


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, 25, COMMANDS, time_one, report))
