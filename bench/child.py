"""One workload in a fresh process; started by run.py, which it reports to.

Usage: python bench/child.py WORKLOAD SEED SECONDS TRACE TMP_DIR OUT_JSON

Untraced (TRACE 0): set up five times (the median is setup_s), then run
whole passes over the inputs until SECONDS have passed, and report the
quiet op time (see QuietTime) rescaled by a yardstick.  Every pass is
checked, but each input op counts once in ``attempted`` and ``failed``.  Traced (TRACE 1):
set up every workload at a small size and run one traced pass of each,
which gives the per-layer metrics, then alternate untraced and traced
passes of WORKLOAD until SECONDS have passed, which gives the tracing
overhead.  Spans are written to TMP_DIR when the run ends; run.py removes
that directory, so run this file directly to keep them.
"""

from time import perf_counter, perf_counter_ns

_START = perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
IN_PROCESS = {"kinematics_stream", "scenario_render"}


def make(name: str, seed: int, tmp: Path, small: bool):
    if name == "kinematics_stream":
        return wl.Kinematics(seed, wl.Kinematics.SIZE)
    if name == "scenario_render":
        return wl.ScenarioRender(seed, wl.ScenarioRender.TRACE_SIZE if small
                                 else wl.ScenarioRender.SIZE, tmp)
    if name == "cli_oneshot":
        return wl.CliOneshot(seed, tmp, small)
    if name == "verify_fuzz":
        return wl.VerifyFuzz(seed, tmp, small)
    raise ValueError(f"unknown workload {name!r}")


def percentile(xs, q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def tail_level(n: int) -> int:
    """The highest of p90/p80/p50 that has at least ten samples beyond it."""
    for level in (90, 80, 50):
        if n * (100 - level) / 100 >= 10:
            return level
    return 50


class QuietTime:
    """Time per op when the machine is quiet.

    Each pass times the same inputs in the same order.  The pass is cut into
    fixed slices of ``window`` consecutive ops, and each slice keeps its time
    from every pass.  The estimate is the sum over slices of each slice's
    10th-percentile time (the minimum under ten passes), divided by the ops
    in a pass.  Other tenants on a shared machine only ever add time, in
    bursts; a low quantile per slice skips the bursts and still weighs
    every op of the input once.
    """

    def __init__(self, window: int):
        self.window = window
        self.slots: list[list[int]] = []
        self.ops = 0

    def add(self, ns: list[int]) -> None:
        sums = [sum(ns[i:i + self.window]) for i in range(0, len(ns), self.window)]
        if not self.slots:
            self.slots = [[] for _ in sums]
            self.ops = len(ns)
        for slot, value in zip(self.slots, sums):
            slot.append(value)

    def ms(self) -> float:
        return sum(percentile(slot, 0.1) for slot in self.slots) / self.ops / 1e6


#: Ops per slice: about 2.5 ms of stream items; one scenario; one invocation.
WINDOW = {"kinematics_stream": 200}
#: Quiet times, on the machine in README.md, of the two yardsticks that op
#: times are rescaled by: a bare interpreter start-up for the subprocess
#: workloads, and ``yardstick_loop`` for the in-process ones.
BARE_REF_MS = 40.0
LOOP_REF_MS = 0.3


def yardstick_loop() -> int:
    """A fixed pure-Python loop that no change to the package can speed up."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    return s


def time_yardstick() -> int:
    """The fastest of five runs of ``yardstick_loop``, in ns."""
    def once() -> int:
        t = perf_counter_ns()
        yardstick_loop()
        return perf_counter_ns() - t
    return min(once() for _ in range(5))


def untraced(name: str, seed: int, seconds: float, tmp: Path) -> dict:
    t = perf_counter()
    if name in IN_PROCESS:
        wl.library()
    import_s = perf_counter() - t + (t - _START)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        work = make(name, seed, tmp, small=False)
        work.setup()
        setups.append(perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    # In-process passes hold thousands of ops: keep per-slice sums and each
    # pass's p50 and tail rather than every duration, so memory does not grow
    # with speed.
    quiet, quiet_ref = QuietTime(WINDOW.get(name, 1)), QuietTime(1)
    samples, tails, bare, tally, passes, n = [], [], [], None, 0, 0
    t = perf_counter()
    while passes == 0 or perf_counter() - t < seconds:
        res = work.run_pass(traced=False)
        quiet.add(res.ns)
        if name in IN_PROCESS:
            quiet_ref.add([time_yardstick()])
            samples.append(statistics.median(res.ns))
            tails.append(percentile(res.ns, tail_level(len(res.ns)) / 100))
        else:
            samples += res.ns
            quiet_ref.add(res.extra_ns)
            bare += res.extra_ns
        n += len(res.ns)
        if tally is None:
            tally = res.tally
        else:
            tally.repeat(res.tally)
        passes += 1

    op_ms = quiet.ms()
    p50_ms = statistics.median(samples) / 1e6
    lines = [f"workload {name}: seed={seed} passes={passes} ops={n} "
             f"(set-up: median of {SETUP_REPEATS}, import {import_s:.4f} s included)",
             f"quiet op time {op_ms:.6g} ms: per slice of {quiet.window} op(s), the "
             f"10th-percentile time over {passes} passes, summed, per op"]
    # On a shared host the quiet speed itself drifts by tens of percent over
    # minutes; a yardstick timed between the ops drifts with it.
    ref_ms, what = ((LOOP_REF_MS, "yardstick loop") if name in IN_PROCESS
                    else (BARE_REF_MS, "bare python -c pass"))
    lines.append(f"op_ms = quiet op time * {ref_ms:g} ms / quiet {what} "
                 f"{quiet_ref.ms():.4f} ms (n={len(quiet_ref.slots) * passes})")
    op_ms *= ref_ms / quiet_ref.ms()
    metrics = {"setup_s": setup_s, "op_ms": op_ms}
    if name in IN_PROCESS:
        level = tail_level(n // passes)
        tail_ms = statistics.median(tails) / 1e6
        per = f"median over {passes} passes of {n // passes} ops"
    else:
        level = tail_level(n)
        tail_ms = percentile(samples, level / 100) / 1e6
    if name == "cli_oneshot":
        bare_p50 = statistics.median(bare) / 1e6
        lines += [f"cli_p50_ms = {p50_ms:.3f} ms (n={n})",
                  f"cli_p{level}_ms = {tail_ms:.3f} ms (n={n}; the highest of p90/p80 "
                  f"with ten samples beyond it)" if level > 50 else
                  f"no tail percentile has ten samples beyond it (n={n})",
                  f"cli_overhead_p50_ms = {p50_ms - bare_p50:.3f} ms (bare python -c pass "
                  f"p50 {bare_p50:.3f} ms, n={len(bare)})",
                  f"cli_overhead_quiet_ms = {quiet.ms() - quiet_ref.ms():.3f} ms"]
    elif name == "verify_fuzz":
        bare_p50 = statistics.median(bare) / 1e6
        lines += [f"verify_p50_s = {p50_ms / 1e3:.4f} s (n={n}, trials={wl.VerifyFuzz.TRIALS})",
                  f"verify_overhead_p50_s = {(p50_ms - bare_p50) / 1e3:.4f} s "
                  f"(bare python -c pass p50 {bare_p50:.3f} ms, n={len(bare)})"]
    elif name == "kinematics_stream":
        lines += [f"kin_items_per_s = {1e3 / quiet.ms():.1f} 1/s, from the quiet op time (n={n})",
                  f"kin_item_p50_us = {p50_ms * 1e3:.3f} us, p{level} {tail_ms * 1e3:.3f} us "
                  f"({per})"]
    else:
        lines += [f"render_scenarios_per_s = {1e3 / quiet.ms():.2f} 1/s, from the quiet op time "
                  f"(n={n})",
                  f"render_scenario_p50_ms = {p50_ms:.4f} ms, p{level} {tail_ms:.4f} ms ({per})"]
    return {"metrics": metrics, "tally": tally, "lines": lines}


def traced(name: str, seed: int, seconds: float, tmp: Path) -> dict:
    t0 = perf_counter()
    wl.library()
    layers, tally, lines, mine = {}, wl.Tally(), [], None
    for other in ("cli_oneshot", "verify_fuzz", "kinematics_stream", "scenario_render"):
        work = make(other, seed, tmp, small=True)
        work.setup()
        t = perf_counter()
        res = work.run_pass(traced=True)
        lines.append(f"traced pass of {other}: {len(res.ns)} ops in {perf_counter() - t:.2f} s")
        layers.update(res.layers)
        if other != name:    # this workload's tally is added once its passes are checked
            tally.add(res.tally)
        if res.tracer is not None:    # the shim already wrote its spans to tmp
            res.tracer.dump(tmp / f"spans-{other}.jsonl")
        if other == name:
            mine, first, samples = work, res.tally, {True: [res], False: []}

    # alternate untraced and traced passes of this workload for the overhead
    traced_next = False
    while not samples[False] or perf_counter() - t0 < seconds:
        res = mine.run_pass(traced=traced_next)
        samples[traced_next].append(res)
        first.repeat(res.tally)
        traced_next = not traced_next
    tally.add(first)
    ns = {mode: [x for r in rs for x in r.ns] for mode, rs in samples.items()}
    if name in IN_PROCESS:
        ratio = (len(ns[True]) / sum(ns[True])) / (len(ns[False]) / sum(ns[False]))
        what = "throughput"
    else:
        # both sides ran the same invocations the same number of times
        ratio = (sum(ns[True]) / len(ns[True])) / (sum(ns[False]) / len(ns[False]))
        what = "mean latency"
    layers["trace.overhead_ratio"] = ratio
    lines.append(f"trace.overhead_ratio = {ratio:.4f} (traced / untraced {what}, "
                 f"n={len(ns[True])} traced, {len(ns[False])} untraced)")
    return {"metrics": layers, "tally": tally, "lines": lines}


def main(argv) -> int:
    name, seed, seconds, trace, tmp, out = argv
    run = traced if trace == "1" else untraced
    result = run(name, int(seed), float(seconds), Path(tmp))
    tally = result.pop("tally")
    result.update(attempted=tally.attempted, failed=tally.failed,
                  unexplained=tally.unexplained, kinds=dict(tally.kinds),
                  disagreeing=tally.disagreeing, examples=tally.examples)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
