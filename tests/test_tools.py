"""The measurement tools' shared A/B loop, ``tools/ab.py``, and what each tool
prints, driven in this process with fake samples: no test here starts a process.

Each tool must keep the JSON keys it printed when it moved onto ``ab.main``, at
any ``--runs``, one included.
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
    peer, teardown, memory, stages, digest = map(
        _load, ("peer", "teardown", "memory", "stages", "digest"))
finally:
    del sys.modules["ab"]

STAGES = ["scenario_from_dict", "scenario_to_dict", "save_scenario", "load_scenario",
          "render_pair", "annotate_events", "to_svg", "op"]


def _shape(report):
    return {key: _shape(value) if isinstance(value, dict) else None
            for key, value in report.items()}


def _leaves(*names):
    return dict.fromkeys(names)


PEER_TRIALS = {"workers=1": _leaves("median_ms", "quartiles_ms"),
               "workers=2": _leaves("median_ms", "quartiles_ms"), "peer_ratio": None}
MEMORY_TRIALS = _leaves("peak_rss_mb_median", "peak_rss_mb_range", "extra_faults_median",
                        "extra_faults_range")
TEARDOWN_COMMAND = _leaves("teardown_ms_p10", "teardown_ms_median", "wall_ms_p10",
                           "wall_ms_median")
#: tool -> (its module, its cases, a fake sample's value from a counter, its report's shape)
SHAPES = {
    "peer": (peer, peer.CASES, float,
             dict.fromkeys(("100000", "200000", "400000", "1e+06"), PEER_TRIALS)),
    "teardown": (teardown, teardown.COMMANDS, lambda n: (n / 10, float(n)),
                 dict.fromkeys(("bare", "transform", "diagram", "verify"), TEARDOWN_COMMAND)),
    "memory": (memory, memory.TRIALS, lambda n: (30_000 + n, 2_000 + n),
               {"floor_mb": None, **dict.fromkeys(("100000", "1e+06", "4e+06"),
                                                  MEMORY_TRIALS)}),
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
    # With one run, teardown's 10th percentile raised StatisticsError.
    tool, cases, value, shape = SHAPES[name]
    count = itertools.count(1)
    assert ab.main(tool.__doc__, 5, cases, lambda case, src, cwd: value(next(count)),
                   tool.report, ["--runs", runs, "x", "y"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["x", "y"]
    assert all(_shape(report) == shape for report in out.values())


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
