"""Whole ``bilorentz`` processes, which end through ``cli.run()``.

``run()`` ends the process by ``os._exit`` once its output is flushed, so the
in-process tests of ``cli.main()`` cannot see what it does.  Here real
processes must print what ``main()`` prints and exit with its code, with
stdout buffered and unbuffered; report a closed stdout as the interpreter
does; leave a profiler its report; and fork ``verify``'s peer from a single
thread.  Each CPython from 3.10 on that pyenv holds must run the CLI's golden
cases as the interpreter of the tests does, and refuse ``verify`` without numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bilorentz import build_fig2_scenario, cli, core, scenario_to_dict

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"

#: Defines make_l with its matrix negated, the sign flip that verify must catch.
_PLANT = """\
def make_l(tau, k, w, real=core.make_l):
    t = real(tau, k, w)
    m = tuple(tuple(-x for x in row) for row in t.m)
    return core.Transform(m, t.branch, t.tau, t.k, t.vel)
"""

#: Runs cli.run() on its arguments with the planted make_l.
_PLANTED_RUN = "from bilorentz import cli, core\n" + _PLANT + "core.make_l = make_l\ncli.run()\n"

#: One command for each exit code; verify is planted to fail, and forks its peer
#: on 2 or more CPUs (70,000 trials are 3 blocks).
CORPUS = {
    "transform": (0, ["transform", "--branch", "l", "--tau", "-1", "--k", "1", "--vel", "2",
                      "--vec", "2,1"]),
    "classify": (0, ["classify", "--vec=2,1"]),
    "compose": (0, ["compose", "lambda,1,1,0.5", "lambda,1,1,0.5"]),
    "diagram": (0, ["diagram", "--builtin", "fig2", "--out", "fig2"]),
    "planted_verify": (1, ["verify", "--trials", "70000", "--seed", "3"]),
    "bad_scenario": (2, ["diagram", "--scenario", "bad.json", "--out", "bad"]),
    "empty_window": (3, ["diagram", "--scenario", "empty.json", "--out", "empty"]),
}


def _env(**extra):
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1", **extra}


def _write_scenarios(folder: Path) -> Path:
    folder.mkdir()
    bad = scenario_to_dict(build_fig2_scenario())
    bad["surprise"] = True
    empty = scenario_to_dict(build_fig2_scenario())
    empty["window"] = {"min": [50, -40], "max": [60, -20]}
    for name, data in (("bad.json", bad), ("empty.json", empty)):
        (folder / name).write_text(json.dumps(data), encoding="utf-8")
    return folder


@pytest.mark.parametrize("case", CORPUS)
def test_a_process_prints_and_exits_as_main_does(case, tmp_path, capsys, monkeypatch):
    code, argv = CORPUS[case]
    monkeypatch.chdir(_write_scenarios(tmp_path / "main"))
    if case == "planted_verify":
        namespace = {"core": core}
        exec(_PLANT, namespace)
        monkeypatch.setattr(core, "make_l", namespace["make_l"])
        command = [sys.executable, "-c", _PLANTED_RUN, *argv]
    else:
        command = [sys.executable, "-m", "bilorentz.cli", *argv]
    expected = (cli.main(argv), *capsys.readouterr())
    assert expected[0] == code
    monkeypatch.undo()
    folders = [tmp_path / "main"]
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        folders.append(_write_scenarios(tmp_path / f"process{len(folders)}"))
        done = subprocess.run(command, cwd=folders[-1], env=_env(**unbuffered),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == expected, unbuffered
    if case == "diagram":
        for folder in folders:
            for side in ("original", "transformed"):
                assert ((folder / f"fig2-{side}.svg").read_bytes()
                        == (GOLDEN / f"fig2-{side}.svg").read_bytes())


@pytest.mark.parametrize("unbuffered, code, first, last", [
    ({}, 120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>'",
     "BrokenPipeError: [Errno 32] Broken pipe"),
    ({"PYTHONUNBUFFERED": "1"}, 2, "error: [Errno 32] Broken pipe",
     "error: [Errno 32] Broken pipe"),
], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_is_reported_as_the_interpreter_reports_it(unbuffered, code, first,
                                                                  last):
    """stdout's reader has gone before the process starts.  Buffered, the failed
    flush in run() leaves the output in the buffer, and the teardown's own flush
    reports it; unbuffered, print itself fails, and main() reports an input error."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "bilorentz.cli", "classify", "--vec=2,1"],
                              stdout=write_end, stderr=subprocess.PIPE, env=_env(**unbuffered),
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    lines = done.stderr.splitlines()
    assert done.returncode == code
    assert lines[0].startswith(first) and lines[-1] == last and len(lines) <= 2, done.stderr


def test_a_profiled_process_prints_its_stats():
    """A profiler reports at the interpreter's exit, so run() leaves by sys.exit."""
    done = subprocess.run([sys.executable, "-m", "cProfile", "-m", "bilorentz.cli", "classify",
                           "--vec=2,1"], env=_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("coord_speed: 0.5\n")
    assert "function calls" in done.stdout and "Ordered by" in done.stdout


#: Runs cli.run() on its arguments with verify's peer forced on, and prints to stderr
#: how many threads the process has when it forks.
_COUNT_THREADS_AT_FORK = """\
import os, sys
from bilorentz import cli
real_fork, real_main = os.fork, cli.main
def fork():
    print("threads at fork:", len(os.listdir("/proc/self/task")), file=sys.stderr)
    return real_fork()
def main():
    from bilorentz import verify
    verify._WORKERS = 2
    return real_main()
os.fork, cli.main = fork, main
cli.run()
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/task").is_dir(),
                    reason="needs os.fork and /proc")
def test_verify_forks_its_peer_from_a_single_thread():
    """run() sets OPENBLAS_NUM_THREADS to 1 before verify imports numpy, so OpenBLAS
    starts no thread; a value the process inherits does not count."""
    done = subprocess.run([sys.executable, "-c", _COUNT_THREADS_AT_FORK, "verify",
                           "--trials", "70000"], env=_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "threads at fork: 1\n")


#: Runs cli.run() on its arguments as if numpy were not installed.
_WITHOUT_NUMPY = "import sys\nsys.modules['numpy'] = None\nfrom bilorentz import cli\ncli.run()\n"

#: Text json must escape: non-ASCII, a quote, a backslash, control characters, U+2028
#: and a lone surrogate.
_AWKWARD_TEXT = 'ξ₁ "quoted" back\\slash \x00\x1f\t\n\u2028 \ud800 </title> & \U0001f600'

#: Builds scenarios with that text, an infinite-limit transform, no worldlines and
#: signed-zero, subnormal and huge coordinates.
_AWKWARD_SCENARIOS = f"""\
from bilorentz import (Scenario, TwoVector, Window, Worldline, WorldlineKind, make_l,
                       make_lambda_infinite_limit, save_scenario)
text = {ascii(_AWKWARD_TEXT)}
o = TwoVector(0.0, 0.0)
scenarios = [
    Scenario(text, make_l(-1, 1.0, 2.0),
             (Worldline(o, TwoVector(1.0, 1.0), text, WorldlineKind.LIGHT_RAY),
              Worldline(TwoVector(-0.0, 5e-324), TwoVector(1.0, -0.1), "\\xe9")),
             Window(TwoVector(-3.0, -2.5), TwoVector(3.0, 1e300)), ((o, text), (o, ""))),
    Scenario("inf", make_lambda_infinite_limit(-1, -0.25), (),
             Window(TwoVector(-1e-300, -3.0), TwoVector(0.1, 3.0))),
]
"""

#: Saves each awkward scenario and prints the saved files.
_SAVE_AWKWARD = _AWKWARD_SCENARIOS + """\
for i, s in enumerate(scenarios):
    save_scenario(s, f"awkward-{i}.json")
    with open(f"awkward-{i}.json", encoding="utf-8") as f:
        print(f.read(), end="")
"""

#: The CLI cases each CPython from 3.10 on must run as the interpreter of the tests
#: does: the golden diagrams, each exit code, the bytes save_scenario writes, and verify
#: refused without numpy.
_INTERPRETER_CASES = {
    **{name: ["-m", "bilorentz.cli", *argv] for name, argv in {
        "transform": CORPUS["transform"][1],
        "transform_inf": ["transform", "--branch", "lambda", "--tau", "-1", "--k", "-0.5",
                          "--vel", "inf", "--vec", "1,2"],
        "domain_error": ["transform", "--branch", "lambda", "--tau", "1", "--k", "1",
                         "--vel", "2", "--vec", "1,1"],
        "singular_member": ["transform", "--branch", "lambda", "--tau", "1", "--k", "0.5",
                            "--vel", "1", "--vec", "1,0.25"],
        "classify": CORPUS["classify"][1],
        "compose": ["compose", "lambda,1,1,0.999", "lambda,1,1,0.999"],
        "compose_l": ["compose", "l,-1,1,2", "l,1,1,-3"],
        **{name: ["diagram", "--builtin", name, "--out", name] for name in ("fig2", "fig3", "fig4")},
        "bad_scenario": CORPUS["bad_scenario"][1],
        "empty_window": CORPUS["empty_window"][1],
    }.items()},
    "verify_without_numpy": ["-c", _WITHOUT_NUMPY, "verify", "--trials", "7"],
    "save_awkward": ["-c", _SAVE_AWKWARD],
}


def _run(python: str, argv, cwd=None) -> tuple:
    done = subprocess.run([python, *argv], cwd=cwd, env=_env(), capture_output=True, text=True,
                          timeout=120)
    return done.returncode, done.stdout, done.stderr


def _run_cases(python: str, folder: Path) -> dict:
    """(exit code, stdout, stderr) of each case under python, run in folder, and the
    bytes of every SVG the cases wrote there."""
    _write_scenarios(folder)
    out = {name: _run(python, argv, folder) for name, argv in _INTERPRETER_CASES.items()}
    out["svg"] = {path.name: path.read_bytes() for path in sorted(folder.glob("*.svg"))}
    return out


@pytest.fixture(scope="module")
def reference_cases(tmp_path_factory):
    return _run_cases(sys.executable, tmp_path_factory.mktemp("reference") / "cases")


def test_the_reference_cases_are_golden_and_refuse_verify_without_numpy(reference_cases):
    assert reference_cases["svg"] == {path.name: path.read_bytes()
                                      for path in sorted(GOLDEN.glob("*.svg"))}
    assert reference_cases["verify_without_numpy"] == (
        2, "", "error: verify needs numpy: pip install 'bilorentz[verify]'\n")
    assert {case[0] for name, case in reference_cases.items() if name != "svg"} == {0, 2, 3}


def test_the_reference_refuses_a_singular_member_and_saves_what_json_dumps_writes(
        reference_cases):
    assert reference_cases["singular_member"] == (
        2, "", "error: symmetric family singular at |v| = 1, got v = 1.0 for k = 0.5\n")
    namespace = {}
    exec(_AWKWARD_SCENARIOS, namespace)
    assert reference_cases["save_awkward"] == (0, "".join(
        json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"
        for s in namespace["scenarios"]), "")


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_each_cpython_runs_the_cli_cases_as_the_tests_interpreter_does(version, tmp_path,
                                                                       reference_cases):
    """The same stdout, stderr, exit codes and SVG bytes under each CPython from 3.10
    on that pyenv holds.  Plain verify refuses under one without numpy, as the
    reference does with numpy hidden, and runs as the reference does under one with it."""
    if version == "{}.{}".format(*sys.version_info):
        pytest.skip(f"{version} runs the tests: it is the reference")
    found = sorted((Path.home() / ".pyenv" / "versions").glob(f"{version}.*/bin/python3"))
    if not found:
        pytest.skip(f"no CPython {version} in ~/.pyenv/versions")
    python = str(found[-1])
    assert _run_cases(python, tmp_path / "cases") == reference_cases
    verify = ["-m", "bilorentz.cli", "verify", "--trials", "7"]
    has_numpy = _run(python, ["-c", "import numpy"])[0] == 0
    assert _run(python, verify) == (_run(sys.executable, verify) if has_numpy
                                    else reference_cases["verify_without_numpy"])
