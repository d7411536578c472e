"""Time from a CLI process's last write to its reap, against a bare interpreter.

For each command, each run starts a fresh ``python`` with stdout on a pipe,
notes when the last bytes arrive and when the process is reaped, and reports
over the runs the 10th percentile and the median of:

* ``teardown_ms``: last write to reap, which is what the process does after
  its output is out: for a process that ends by ``sys.exit``, the
  interpreter's teardown;
* ``wall_ms``: start to reap.

The commands are ``bare`` (``python -c "print(0)"``), ``transform``,
``diagram --builtin fig2`` and ``verify --trials 100000``.  Given several
``src`` folders (for instance a parent checkout's and this one's), each round
runs every command once per folder, the folder that goes first alternating
per round, and one JSON object keyed by folder is printed.

Run with ``python tools/teardown.py [--runs N] [SRC ...]``; SRC defaults to
this checkout's ``src``.  It starts one process at a time and is not part of
the test suite.
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
CLI = ("-m", "bilorentz.cli")
COMMANDS = {
    "bare": ("-c", "print(0)"),
    "transform": (*CLI, "transform", "--branch", "l", "--tau", "-1", "--k", "1", "--vel", "2",
                  "--vec", "2,1"),
    "diagram": (*CLI, "diagram", "--builtin", "fig2", "--out", "fig2"),
    "verify": (*CLI, "verify", "--trials", "100000"),
}


def time_one(argv, env, cwd) -> tuple[float, float]:
    """(last write to reap, start to reap) in ms for one process."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, env=env, cwd=cwd)
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
    def p10(xs):
        return statistics.quantiles(xs, n=10)[0]
    teardown, wall = zip(*samples)
    return {"teardown_ms_p10": round(p10(teardown), 2),
            "teardown_ms_median": round(statistics.median(teardown), 2),
            "wall_ms_p10": round(p10(wall), 2), "wall_ms_median": round(statistics.median(wall), 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=25)
    parser.add_argument("src", nargs="*", default=[str(SRC)])
    args = parser.parse_args(argv)
    samples = {src: {name: [] for name in COMMANDS} for src in args.src}
    with tempfile.TemporaryDirectory() as cwd:
        for round_ in range(args.runs):
            order = args.src if round_ % 2 == 0 else args.src[::-1]
            for name, command in COMMANDS.items():
                for src in order:
                    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()),
                           "PYTHONDONTWRITEBYTECODE": "1"}
                    samples[src][name].append(time_one(command, env, cwd))
    print(json.dumps({src: {name: summary(runs) for name, runs in by_name.items()}
                      for src, by_name in samples.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
