"""Time per stage of the ``scenario_render`` op, in fresh processes.

The op is the benchmark's (``bench/workloads.py``, ``ScenarioRender._op``):
``scenario_from_dict``, ``scenario_to_dict``, ``save_scenario``,
``load_scenario``, ``render_pair``, ``annotate_events`` (both documents, with
the events of the transformed one mapped through ``core.apply``) and
``to_svg`` (both documents).  Its inputs are the op's own:
``bench/gen.py``'s ``scenario_dicts`` for seed ``SEED``, as many as
``ScenarioRender.SIZE``, plus the three built-in scenarios.

Each run is a fresh ``python`` that imports the package from one ``src``
folder, then runs the whole op on every input ``REPS`` times, timing each
stage with ``perf_counter_ns``.  Per stage it keeps each input's minimum and
sums those minima over the inputs; divided by the number of inputs this is
the stage's cost per op in µs.  ``op`` is the same for the whole op.

Given several ``src`` folders (for instance a parent checkout's and this
one's), each round runs every folder once, and the order of the folders
reverses every other round.  One JSON object keyed by folder is printed, with
the median and the quartiles over the runs of each stage's µs per op.

Run with ``python tools/stages.py [--runs N] [SRC ...]``;
SRC defaults to this checkout's ``src``.  It reads ``bench/`` and changes
nothing there, writes its scenario files to a temporary folder, starts one
process at a time and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
SEED = 9001
REPS = 20
STAGES = ("scenario_from_dict", "scenario_to_dict", "save_scenario", "load_scenario",
          "render_pair", "annotate_events", "to_svg", "op")
CHILD = """\
import json, sys
from pathlib import Path
from time import perf_counter_ns as now
import gen, reference
from workloads import ScenarioRender
import bilorentz
from bilorentz import (DiagramStyle, annotate_events, apply, load_scenario, render_pair,
                       save_scenario, scenario_from_dict, scenario_to_dict)

seed, reps, tmp = int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
inputs = gen.scenario_dicts(seed, ScenarioRender.SIZE, reference.apply_spec)
inputs += [scenario_to_dict(getattr(bilorentz, f"build_{name}_scenario")())
           for name in gen.BUILTINS]
style = DiagramStyle()
best = {}
for _ in range(reps):
    for i, data in enumerate(inputs):
        path = tmp / f"scenario-{i}.json"
        t0 = now()
        s = scenario_from_dict(data)
        t1 = now()
        scenario_to_dict(s)
        t2 = now()
        save_scenario(s, path)
        t3 = now()
        loaded = load_scenario(path)
        t4 = now()
        original, moved = render_pair(loaded, style)
        t5 = now()
        if loaded.events:
            original = annotate_events(original, loaded.events)
            moved = annotate_events(moved, tuple((apply(loaded.transform, at), label)
                                                 for at, label in loaded.events))
        t6 = now()
        original.to_svg(), moved.to_svg()
        t7 = now()
        times = (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6, t7 - t0)
        old = best.get(i)
        best[i] = times if old is None else tuple(map(min, old, times))
print(json.dumps([sum(column) / len(best) / 1e3 for column in zip(*best.values())]))
"""


def stage_us(src: str, cwd: str) -> list[float]:
    """µs per op of each stage, in STAGES order, from one fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(Path(src).resolve()), str(BENCH))),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", CHILD, str(SEED), str(REPS), cwd], env=env,
                          cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median_us": round(median, 1), "quartiles_us": [round(q1, 1), round(q3, 1)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("src", nargs="*", default=[str(SRC)])
    args = parser.parse_args(argv)
    samples = {src: [] for src in args.src}
    with tempfile.TemporaryDirectory() as cwd:
        for round_ in range(args.runs):
            for src in args.src if round_ % 2 == 0 else args.src[::-1]:
                samples[src].append(stage_us(src, cwd))
    report = {src: {stage: summary([run[j] for run in runs]) for j, stage in enumerate(STAGES)}
              for src, runs in samples.items()}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
