"""One sha256 per ``src`` folder over what the benchmark's own ops return.

For each folder a fresh ``python`` imports the package from that folder and,
as ``tools/stages.py``'s child does, builds ``bench/workloads.py``'s
``ScenarioRender`` and ``Kinematics`` for each seed from 9001 to 9006 at their
``SIZE`` and runs their ``setup()``.  ``ScenarioRender._op`` then runs on every
input (``bench/gen.py``'s ``scenario_dicts`` plus the three built-ins) at 2, 6
and 9 decimals: the hash takes its ``scenario_to_dict`` document, the bytes it
saved and both annotated SVG texts.  ``Kinematics._op`` runs on every item: the
hash takes the ``repr`` of its output.  An op that raises adds its exception's
type and message instead, so the refusals are compared too.  Two folders with
one hash returned the same outputs for every input.

It runs on ``tools/ab.py``'s loop: ``python tools/digest.py [--runs N] [SRC ...]``.
Each folder's JSON is ``{"sha256": [...]}``, the distinct hashes of its runs, so
one entry means its fresh processes agreed.  It reads ``bench/`` and changes
nothing there, and writes its scenario files to the temporary working folder.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import ab

BENCH = Path(__file__).resolve().parent.parent / "bench"
TOOLS = Path(__file__).resolve().parent
SEEDS = range(9001, 9007)
DECIMALS = (2, 6, 9)
CHILD = """\
import sys
from pathlib import Path
import bilorentz    # first: workloads.library() puts the bench checkout's src first on sys.path
import digest
print(digest.digest(digest.SEEDS, None, Path(sys.argv[1])))
"""


def _refusal(exc: Exception) -> bytes:
    return f"{type(exc).__name__}: {exc}".encode()


def digest(seeds, size, tmp: Path) -> str:
    """The sha256 of both ops on ``size`` inputs per seed, or on each workload's ``SIZE``."""
    from workloads import Kinematics, ScenarioRender   # bench/ is on the child's path

    h = hashlib.sha256()
    for seed in seeds:
        work = ScenarioRender(seed, size or ScenarioRender.SIZE, tmp)
        work.setup()
        f = work._fns(None)
        for places in DECIMALS:
            work.style = work.lib.DiagramStyle(decimal_places=places)
            for i, data in enumerate(work.inputs):
                try:
                    _, doc, _, svgs = work._op(f, i, data)
                except Exception as exc:        # a refusal is part of what is compared
                    h.update(_refusal(exc))
                    continue
                h.update(json.dumps(doc, sort_keys=True).encode())
                h.update((tmp / f"scenario-{i}.json").read_bytes())
                for svg in svgs:
                    h.update(svg.encode())
        work = Kinematics(seed, size or Kinematics.SIZE)
        work.setup()
        f = work._fns(None)
        for item in work.items:
            try:
                h.update(repr(work._op(f, item)).encode())
            except Exception as exc:
                h.update(_refusal(exc))
    return h.hexdigest()


def folder_digest(case, src, cwd) -> str:
    """``digest`` of the full inputs, from a fresh process that imports from ``src``."""
    done = subprocess.run([sys.executable, "-c", CHILD, cwd], env=ab.env(src, BENCH, TOOLS),
                          cwd=cwd, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def report(samples) -> dict:
    return {"sha256": sorted(set(samples["all"]))}


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, 1, ("all",), folder_digest, report))
