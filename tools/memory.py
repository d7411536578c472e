"""Peak resident set and extra minor page faults of fresh ``verify`` processes.

Each run starts a fresh ``python`` that runs ``python -m bilorentz.cli verify
--trials N`` as its only child and prints that child's ``RUSAGE_CHILDREN``
usage: a fresh wrapper per run, because a process's ``ru_maxrss`` for its
children is the largest of every child it has reaped.  The usage covers the
``verify`` process and the peer it forks and reaps on 2 or more CPUs.  For
each trial count it reports over the runs the median and the range of:

* ``peak_rss_mb``: the larger peak resident set of the ``verify`` process and
  its peer, in MB (``ru_maxrss`` is in KiB on Linux);
* ``extra_faults``: minor page faults of the run beyond the median of the
  1-trial runs of the same folder.

The trial counts, which are the cases, are 1e5, 1e6 and 4e6, plus 1.  Each
folder's ``floor_mb`` is the median peak of its 1-trial runs: one block of one
trial and no peer, so little more than the interpreter, numpy and
``numpy.random``.  A peak less ``floor_mb`` is what the fuzz checks' blocks add.

It runs on ``tools/ab.py``'s loop: ``python tools/memory.py [--runs N] [SRC ...]``.
It needs Linux (``ru_maxrss`` units).
"""

from __future__ import annotations

import statistics
import subprocess
import sys

import ab

TRIALS = (1, 100_000, 1_000_000, 4_000_000)
WRAPPER = """\
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "bilorentz.cli", "verify", "--trials", sys.argv[1]],
               stdout=subprocess.DEVNULL, check=True)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(usage.ru_maxrss, usage.ru_minflt)
"""


def usage_of(trials, src, cwd) -> tuple[int, int]:
    """(ru_maxrss in KiB, ru_minflt) of one fresh verify process and its peer."""
    done = subprocess.run([sys.executable, "-c", WRAPPER, str(trials)], env=ab.env(src),
                          cwd=cwd, capture_output=True, text=True, check=True, timeout=600)
    maxrss, minflt = done.stdout.split()
    return int(maxrss), int(minflt)


def summary(runs, base_faults: float) -> dict:
    rss = [kib / 1024 for kib, _ in runs]
    extra = [faults - base_faults for _, faults in runs]
    return {"peak_rss_mb_median": round(statistics.median(rss), 2),
            "peak_rss_mb_range": [round(min(rss), 2), round(max(rss), 2)],
            "extra_faults_median": round(statistics.median(extra)),
            "extra_faults_range": [round(min(extra)), round(max(extra))]}


def report(samples) -> dict:
    floor = samples[1]
    base = statistics.median(faults for _, faults in floor)
    return {"floor_mb": round(statistics.median(kib for kib, _ in floor) / 1024, 2),
            **{f"{trials:g}": summary(runs, base)
               for trials, runs in samples.items() if trials > 1}}


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, 5, TRIALS, usage_of, report))
