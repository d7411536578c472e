"""The measurement tools' shared A/B loop, ``tools/ab.py``, and what each tool
prints, driven in this process with fake samples: no test here starts a process.

Each tool's JSON keys are pinned here, at any ``--runs``, one included.
"""

import contextlib
import importlib.util
import io
import itertools
import json
import os
import statistics
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load("ab")
sys.modules["ab"] = ab      # each tool runs `import ab`
try:
    proc, stages, digest = map(_load, ("proc", "stages", "digest"))
finally:
    del sys.modules["ab"]

STAGES = ["scenario_from_dict", "scenario_to_dict", "save_scenario", "load_scenario",
          "render_pair", "annotate_events", "to_svg", "op"]


def _shape(report):
    return {key: _shape(value) if isinstance(value, dict) else None
            for key, value in report.items()}


def _leaves(*names):
    return dict.fromkeys(names)


PROC_CASES = ["bare", "transform", "diagram", "verify@1", "verify@1e5", "verify@1e6",
              "verify@4e6", *(f"verify@{n}/w{w}" for n in ("1e5", "2e5", "4e5", "1e6")
                              for w in (1, 2))]
PROC_CASE = {"wall_ms": _leaves("median", "p10", "quartiles"),
             "teardown_ms": _leaves("median", "p10"),
             "peak_rss_mb": _leaves("median", "range"), "extra_faults": _leaves("median", "range")}
#: tool -> (its module, its cases, a fake sample's value from a counter, its report's shape)
SHAPES = {
    "proc": (proc, proc.CASES, lambda n: (n / 10, float(n), 30_000 + n, 2_000 + n),
             {"floor_mb": None, "peer_ratio": _leaves("1e5", "2e5", "4e5", "1e6"),
              **dict.fromkeys(PROC_CASES, PROC_CASE)}),
    "stages": (stages, (stages.SEED,), lambda n: {stage: float(n) for stage in STAGES},
               dict.fromkeys(STAGES, _leaves("median_us", "quartiles_us"))),
    "digest": (digest, ("all",), lambda n: f"{n:064x}", _leaves("sha256")),
}


def test_pairs_reverse_every_other_round(capsys):
    seen, cwds = [], set()

    def sample(case, src, cwd):
        assert os.path.isdir(cwd)
        seen.append((case, src))
        cwds.add(cwd)
        return len(seen)

    assert ab.main("doc", 9, ("a", "b"), sample, lambda s: s, ["--runs", "3", "x", "y"]) == 0
    pairs = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]
    assert seen == pairs + pairs[::-1] + pairs
    assert len(cwds) == 1 and not os.path.exists(cwds.pop())
    assert json.loads(capsys.readouterr().out) == {
        "x": {"a": [1, 8, 9], "b": [3, 6, 11]}, "y": {"a": [2, 7, 10], "b": [4, 5, 12]}}


def test_runs_and_src_default_to_the_tool_and_this_checkout(capsys):
    seen = []
    ab.main("doc", 2, ("a",), lambda case, src, cwd: seen.append(src), lambda s: s, [])
    assert seen == [str(ab.SRC)] * 2 == [str(TOOLS.parent / "src")] * 2
    assert list(json.loads(capsys.readouterr().out)) == [str(ab.SRC)]


def test_env_puts_each_folder_on_the_path_in_order():
    env = ab.env("src", TOOLS, OPENBLAS_NUM_THREADS="1")
    assert env["PYTHONPATH"] == os.pathsep.join((str(Path("src").resolve()), str(TOOLS)))
    assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env["OPENBLAS_NUM_THREADS"] == "1"


def test_quantile_falls_back_to_the_one_sample():
    xs = [4.0, 1.0, 3.0, 2.0, 9.0]
    assert [ab.quantile(xs, 4, i) for i in (1, 2, 3)] == statistics.quantiles(xs, n=4)
    assert ab.quantile(xs, 4, 2) == statistics.median(xs)
    assert ab.quantile([7.5], 10, 1) == ab.quantile([7.5], 4, 3) == 7.5


@pytest.mark.parametrize("runs", ["1", "2", "5"])
@pytest.mark.parametrize("name", SHAPES)
def test_each_tool_prints_the_keys_it_printed_before(name, runs, capsys):
    # With one run, a 10th percentile raised StatisticsError.
    tool, cases, value, shape = SHAPES[name]
    count = itertools.count(1)
    assert ab.main(tool.__doc__, 5, cases, lambda case, src, cwd: value(next(count)),
                   tool.report, ["--runs", runs, "x", "y"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["x", "y"]
    assert all(_shape(report) == shape for report in out.values())


def test_proc_cases_run_the_cli_or_the_worker_wrapper(monkeypatch):
    from bilorentz import cli, verify
    assert list(proc.CASES) == PROC_CASES
    assert proc.CASES["verify@1"][-4:] == ("bilorentz.cli", "verify", "--trials", "1")
    assert proc.CASES["verify@4e6"][-3:] == ("verify", "--trials", "4000000")
    # The wrapper sets verify's worker count, then hands cli.run() the rest of argv.
    flag, code, *argv = proc.CASES["verify@2e5/w2"]
    assert (flag, argv) == ("-c", ["2", "verify", "--trials", "200000"])
    ran = []
    monkeypatch.setattr(verify, "_WORKERS", None)
    monkeypatch.setattr(cli, "run", lambda: ran.append((verify._WORKERS, sys.argv[1:])))
    monkeypatch.setattr(sys, "argv", [flag, *argv])
    exec(code, {})
    assert ran == [(2, ["verify", "--trials", "200000"])]


def test_proc_reports_the_floor_the_peer_ratio_and_the_extra_faults():
    # A run is (teardown_ms, wall_ms, ru_maxrss in KiB, ru_minflt).
    samples = {case: [(1.0, 200.0, 40 * 1024, 5000)] * 3 for case in proc.CASES}
    samples["verify@1"] = [(1.0, 100.0, 34 * 1024, 2060), (3.0, 120.0, 39 * 1024, 2000),
                           (2.0, 110.0, 36 * 1024, 2010)]
    samples["verify@1e6"] = [(9.0 - i, 480.0 - 10 * i, 36 * 1024 + 128 * i, 3850 + 5 * i)
                             for i in range(9)]
    samples["verify@1e6/w1"] = [(1.0, wall, 1, 1) for wall in (600.0, 650.0, 590.0)]
    samples["verify@1e6/w2"] = [(1.0, wall, 1, 1) for wall in (420.0, 400.0, 455.0)]
    out = proc.report(samples)
    assert out["floor_mb"] == 36.0       # medians: the means are 36.33 MB and 2023.3 faults
    assert out["peer_ratio"] == {"1e5": 1.0, "2e5": 1.0, "4e5": 1.0, "1e6": 0.7}
    assert out["verify@1"]["extra_faults"] == {"median": 0, "range": [-10, 50]}
    # Nine runs: the 10th percentile is the least, the quartiles fall between two runs.
    assert out["verify@1e6"] == {
        "wall_ms": {"median": 440.0, "p10": 400.0, "quartiles": [415.0, 465.0]},
        "teardown_ms": {"median": 5.0, "p10": 1.0},
        "peak_rss_mb": {"median": 36.5, "range": [36.0, 37.0]},
        "extra_faults": {"median": 1860, "range": [1840, 1880]}}
    assert out["bare"]["extra_faults"] == {"median": 2990, "range": [2990, 2990]}
    assert out["bare"]["peak_rss_mb"] == {"median": 40.0, "range": [40.0, 40.0]}


def test_stages_child_times_the_benchmark_op_by_stage(tmp_path, monkeypatch):
    # The child's one statement of the stages is ScenarioRender._fns: run it here, one pass.
    monkeypatch.syspath_prepend(str(stages.BENCH))
    monkeypatch.setattr(sys, "argv", ["-c", str(stages.SEED), "1", str(tmp_path)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(stages.CHILD, "<stages child>", "exec"), {"__name__": "__main__"})
    us = json.loads(out.getvalue())
    assert list(us) == STAGES
    assert all(value > 0 for value in us.values())
    # One pass: each stage and the op come from the same calls, so no stage counts twice.
    assert us["op"] >= sum(us[stage] for stage in STAGES[:-1])


def _digest(tmp_path, monkeypatch, seeds=(9001,), size=3):
    monkeypatch.syspath_prepend(str(digest.BENCH))
    return digest.digest(seeds, size, tmp_path)


def test_digest_hashes_what_the_benchmark_ops_return(tmp_path, monkeypatch):
    # The ops call the library through ScenarioRender._fns and Kinematics._fns, which read
    # the submodules' attributes: the plants go there.
    from bilorentz import core, diagram, scenario_io
    first = _digest(tmp_path, monkeypatch)
    assert len(first) == 64 and first == _digest(tmp_path, monkeypatch)
    assert first != _digest(tmp_path, monkeypatch, size=2)
    assert first != _digest(tmp_path, monkeypatch, seeds=(9002,))
    # One more byte in every saved file, or in every SVG, moves the hash.
    save = scenario_io.save_scenario
    with monkeypatch.context() as m:
        m.setattr(scenario_io, "save_scenario",
                  lambda s, path: (save(s, path), path.write_bytes(path.read_bytes() + b" ")))
        assert _digest(tmp_path, m) != first
    with monkeypatch.context() as m:
        m.setattr(diagram.SvgDocument, "to_svg", lambda doc: "<svg/>")
        blank = _digest(tmp_path, m)
        assert blank != first
        m.setattr(diagram.SvgDocument, "to_svg", lambda doc: "<svg />")
        assert _digest(tmp_path, m) != blank
    # A refusal is hashed by its type and message.
    refused = set()
    for refusal in (ValueError("no"), ValueError("nope"), KeyError("no")):
        def refuse(*args, refusal=refusal):
            raise refusal
        with monkeypatch.context() as m:
            m.setattr(diagram, "render_pair", refuse)
            refused.add(_digest(tmp_path, m))
    assert len(refused) == 3 and not refused & {first, blank}
    # So does the op's scenario_to_dict document, and a kinematics output: refit's fit.
    to_dict = scenario_io.scenario_to_dict
    with monkeypatch.context() as m:
        m.setattr(scenario_io, "scenario_to_dict", lambda s: {**to_dict(s), "name": "planted"})
        renamed = _digest(tmp_path, m)
    with monkeypatch.context() as m:
        m.setattr(core, "refit", lambda p, tau: None)
        unfitted = _digest(tmp_path, m)
    assert len({first, renamed, unfitted}) == 3
    assert _digest(tmp_path, monkeypatch) == first


def test_digest_reports_the_distinct_hashes_of_a_folder():
    # One entry: the folder's fresh processes agreed.
    assert digest.report({"all": ["b", "a", "b"]}) == {"sha256": ["a", "b"]}
    assert digest.report({"all": ["a", "a"]}) == {"sha256": ["a"]}
    assert list(digest.SEEDS) == [9001, 9002, 9003, 9004, 9005, 9006]
    assert digest.DECIMALS == (2, 6, 9)
