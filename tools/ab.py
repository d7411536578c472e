"""The A/B loop of the tools ``proc``, ``stages`` and ``digest``.

A tool is a table of cases, a function that takes one sample of one case for
one ``src`` folder in fresh processes, and a function that turns one folder's
samples into JSON.  Given several ``src`` folders (for instance a parent
checkout's and this one's), each round samples every (case, folder) pair once,
and the order of the whole pair list, cases and folders alike, reverses every
other round.  One JSON object keyed by folder is printed.

Run a tool with ``python tools/<tool>.py [--runs N] [SRC ...]``; SRC defaults
to this checkout's ``src``.  Each child imports the package from its folder,
writes no bytecode and runs in one temporary working folder.  The tools take
one sample at a time and are not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def env(src, *path, **extra) -> dict:
    """The environment of a child that imports from ``src``, then from ``path``."""
    pythonpath = os.pathsep.join(str(Path(p).resolve()) for p in (src, *path))
    return {**os.environ, "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1", **extra}


def quantile(xs, n, i):
    """The ``i``-th ``n``-quantile of ``xs`` (``i`` from 1), or its value if there is one."""
    return statistics.quantiles(xs, n=n)[i - 1] if len(xs) > 1 else xs[0]


def main(doc, runs, cases, sample, report, argv=None) -> int:
    """Run ``sample(case, src, cwd)`` over ``--runs`` rounds and print
    ``report({case: samples})`` per folder."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=runs)
    parser.add_argument("src", nargs="*", default=[str(SRC)])
    args = parser.parse_args(argv)
    pairs = [(case, src) for case in cases for src in args.src]
    samples = {pair: [] for pair in pairs}
    with tempfile.TemporaryDirectory() as cwd:
        for round_ in range(args.runs):
            for case, src in pairs if round_ % 2 == 0 else pairs[::-1]:
                samples[case, src].append(sample(case, src, cwd))
    print(json.dumps({src: report({case: samples[case, src] for case in cases})
                      for src in args.src}, indent=1))
    return 0
