"""Time per stage of the ``scenario_render`` op, in fresh processes.

The op is the benchmark's own: each run is a fresh ``python`` that imports the
package from one ``src`` folder, builds ``bench/workloads.py``'s
``ScenarioRender`` for seed ``SEED`` and its ``SIZE``, runs its ``setup()``
and then calls its ``_op`` on every input ``REPS`` times.  The inputs are
``bench/gen.py``'s ``scenario_dicts`` plus the three built-in scenarios.  The
op's calls into the library come from ``_fns``, handed an object whose
``wrap`` times each call with ``perf_counter_ns`` and adds it to its stage:
``scenario_from_dict``, ``scenario_to_dict``, ``save_scenario``,
``load_scenario``, ``render_pair``, ``annotate_events`` (both documents, with
the events of the transformed one mapped through ``core.apply``) and
``to_svg`` (both documents).  ``op`` is the whole ``_op`` call.  Per stage
it keeps each input's minimum and sums those minima over the inputs; divided
by the number of inputs this is the stage's cost per op in µs.  Each
folder's JSON holds the median and the quartiles over the runs of each
stage's µs per op.

It runs on ``tools/ab.py``'s loop: ``python tools/stages.py [--runs N] [SRC ...]``.
It reads ``bench/`` and changes nothing there, and writes its scenario files
to the temporary working folder.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import ab

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 9001
REPS = 20
CHILD = """\
import json, sys
from pathlib import Path
from time import perf_counter_ns as now
import bilorentz    # first: workloads.library() puts the bench checkout's src first on sys.path
from workloads import ScenarioRender


class Stages:
    def __init__(self):
        self.ns = {}

    def wrap(self, name, fn):
        stage = "annotate_events" if name == "core.apply" else name.split(".")[1]
        self.ns[stage] = 0

        def timed(*args):
            t0 = now()
            out = fn(*args)
            self.ns[stage] += now() - t0
            return out
        return timed


seed, reps, tmp = int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
work = ScenarioRender(seed, ScenarioRender.SIZE, tmp)
work.setup()
stages = Stages()
f = work._fns(stages)
best = {}
for _ in range(reps):
    for i, data in enumerate(work.inputs):
        stages.ns = dict.fromkeys(stages.ns, 0)
        t0 = now()
        work._op(f, i, data)
        times = [*stages.ns.values(), now() - t0]
        best[i] = list(map(min, best.get(i, times), times))
print(json.dumps(dict(zip([*stages.ns, "op"],
                          (sum(column) / len(best) / 1e3 for column in zip(*best.values()))))))
"""


def stage_us(seed, src, cwd) -> dict:
    """µs per op of each stage, from one fresh process."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(seed), str(REPS), cwd],
                          env=ab.env(src, BENCH), cwd=cwd, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def summary(values) -> dict:
    q1, median, q3 = (round(ab.quantile(values, 4, i), 1) for i in (1, 2, 3))
    return {"median_us": median, "quartiles_us": [q1, q3]}


def report(samples) -> dict:
    runs = samples[SEED]
    return {stage: summary([run[stage] for run in runs]) for stage in runs[0]}


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, 5, (SEED,), stage_us, report))
