"""Self-tests of the benchmark at a small size.

Run from the repository root with:  python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import gen
import reference as ref
import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tmp():
    path = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=wl.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(workload: str, trace: int) -> list[str]:
    p = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "3",
                        "--seconds", "0.01", "--trace", str(trace)],
                       capture_output=True, text=True, cwd=wl.ROOT, timeout=170)
    assert p.returncode == 0, p.stderr
    return p.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["kinematics_stream", "scenario_render"])
def test_every_end_to_end_metric_printed_with_unit(workload):
    lines = run_bench(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_every_per_layer_metric_printed_with_unit():
    lines = run_bench("scenario_render", 1)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert not any(line.startswith("not traced") for line in lines)
    assert result["metrics"]["import.modules"]["value"] > 0
    assert result["metrics"]["verify.interval_invariance.1e6_ms"]["value"] > 0


def test_planted_wrong_class_is_counted(tmp):
    work = wl.Kinematics(seed=5, size=400)
    work.setup()
    clean = work.run_pass(traced=False).tally
    i = next(i for i, it in enumerate(work.items)
             if it.kind == gen.CHAIN and work.refs[i].scale_sq > 1.0
             and work.refs[i].cls != ref.LIGHTLIKE)
    work.refs[i].cls = ref.SPACELIKE if work.refs[i].cls == ref.TIMELIKE else ref.TIMELIKE
    planted = work.run_pass(traced=False).tally
    assert planted.failed == clean.failed + 1
    assert planted.unexplained == clean.unexplained + 2    # both sides of the chain


def test_planted_wrong_golden_is_counted(tmp):
    work = wl.ScenarioRender(seed=5, size=4, tmp=tmp)
    work.setup()
    assert work.run_pass(traced=False).tally.failed == 0
    original, transformed = work.refs[-1]
    work.refs[-1] = (original, transformed.replace("480", "481", 1))
    tally = work.run_pass(traced=False).tally
    assert (tally.failed, tally.unexplained, dict(tally.kinds)) == (1, 1, {"golden": 1})


def test_planted_wrong_cli_output_is_counted(tmp):
    work = wl.CliOneshot(seed=5, tmp=tmp, trace_size=True)
    work.setup()
    work.plan = [inv for inv in work.plan if inv.kind in ("transform", "compose")]
    clean = work.run_pass(traced=False).tally
    work.plan[0].exit_code = 3
    planted = work.run_pass(traced=False).tally
    assert clean.kinds["exit_unexpected"] == 0 and planted.kinds["exit_unexpected"] == 1
    assert planted.unexplained > clean.unexplained


def test_same_seed_same_counts(tmp):
    def counts(seed):
        work = wl.Kinematics(seed, 3000)
        work.setup()
        res = work.run_pass(traced=True)
        return (res.tally.attempted, res.tally.failed, dict(res.tally.kinds),
                {k: v for k, v in res.layers.items() if not k.endswith("us")})

    first = counts(7)
    assert first == counts(7)
    assert first[1] > 0    # the open tolerance defects stay visible
    assert first != counts(8)


def test_later_passes_count_once_and_must_fail_alike():
    work = wl.Kinematics(7, 3000)
    work.setup()
    tally = work.run_pass(traced=False).tally
    counts = (tally.attempted, tally.failed, dict(tally.kinds))
    tally.repeat(work.run_pass(traced=False).tally)
    assert (tally.attempted, tally.failed, dict(tally.kinds), tally.unexplained) == (*counts, 0)
    other = wl.Tally()
    other.record(["abs_tol_class"], str)
    tally.repeat(other)    # a pass that failed differently is not explained
    assert tally.disagreeing == 1 and tally.unexplained == 1


def test_scenario_inputs_repeat_for_a_seed():
    assert gen.scenario_dicts(4, 5, ref.apply_spec) == gen.scenario_dicts(4, 5, ref.apply_spec)


def test_exact_class_ignores_rounding():
    assert ref.exact_class(1e-7, 0.0) == ref.TIMELIKE
    assert ref.exact_class(3.0, 3.0) == ref.LIGHTLIKE
    assert ref.exact_class(1.0, 1.0 + 2 ** -52) == ref.SPACELIKE
    assert ref.exact_class(1.0, 2.0, swapped=True) == ref.TIMELIKE


def test_self_time_subtracts_children():
    from tracing import self_times
    spans = [["op", 0, 100, -1, 0], ["a", 10, 40, 0, 0], ["b", 30, 60, 0, 0],
             ["c", 35, 45, 2, 0]]
    assert self_times(spans) == [50, 30, 20, 10]
