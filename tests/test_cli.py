"""End-to-end CLI behaviour: outputs, exit codes, golden diagram files."""

import json
from pathlib import Path

import pytest

from bilorentz import (Scenario, TwoVector, Window, Worldline, WorldlineKind, build_fig2_scenario,
                       build_fig4_scenario, cli, core, make_lambda, save_scenario, scenario_to_dict)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_worked_example(capsys):
    code, out, _ = run_cli(capsys, "transform", "--branch", "l", "--tau", "-1",
                           "--k", "1", "--vel", "2", "--vec", "2,1")
    assert code == 0
    c1, c2 = out.strip().split(",")
    assert float(c1) == 0.0
    assert abs(float(c2) - 1.7320508075688772) < 1e-12


def test_transform_identity(capsys):
    code, out, _ = run_cli(capsys, "transform", "--branch", "lambda", "--tau", "1",
                           "--k", "1", "--vel", "0", "--vec", "3,4")
    assert code == 0
    assert out.strip() == "3.0,4.0"


def test_transform_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "transform", "--branch", "lambda", "--tau", "1",
                           "--k", "1", "--vel", "1", "--vec", "1,0")
    assert code == 2
    assert err.startswith("error:")


def test_transform_infinite_velocity(capsys):
    code, out, _ = run_cli(capsys, "transform", "--branch", "lambda", "--tau", "1",
                           "--k", "-1", "--vel", "infinity", "--vec", "3,4")
    assert code == 0
    assert out.strip() == "-4.0,-3.0"


def test_infinite_velocity_needs_negative_k(capsys):
    code, _, err = run_cli(capsys, "transform", "--branch", "lambda", "--tau", "1",
                           "--k", "1", "--vel", "infinity", "--vec", "3,4")
    assert code == 2
    assert err.startswith("error:")


def test_negative_infinite_velocity_exits_2(capsys):
    code, out, err = run_cli(capsys, "transform", "--branch", "lambda", "--tau", "1",
                             "--k", "-1", "--vel=-inf", "--vec", "3,4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_classify_worked_case(capsys):
    code, out, _ = run_cli(capsys, "classify", "--vec", "2,1", "--metric", "standard")
    assert code == 0
    assert "coord_speed: 0.5" in out
    assert "coord_superluminal: false" in out
    assert "interval_sq: 3.0" in out
    assert "causal_class: timelike" in out


def test_classify_lightlike(capsys):
    code, out, _ = run_cli(capsys, "classify", "--vec", "1,1")
    assert code == 0
    assert "causal_class: lightlike" in out


def test_classify_spacelike(capsys):
    code, out, _ = run_cli(capsys, "classify", "--vec", "1,3")
    assert code == 0
    assert "coord_superluminal: true" in out
    assert "interval_sq: -8.0" in out
    assert "causal_class: spacelike" in out


def test_classify_vertical_displacement(capsys):
    code, out, _ = run_cli(capsys, "classify", "--vec", "0,2", "--metric", "swapped")
    assert code == 0
    assert "coord_speed: inf" in out
    assert "causal_class: timelike" in out


def test_classify_zero_vector_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--vec", "0,0")
    assert code == 2
    assert err.startswith("error:")


def test_compose_velocity_addition(capsys):
    code, out, _ = run_cli(capsys, "compose", "lambda,1,1,0.5", "lambda,1,1,0.5")
    assert code == 0
    assert "fit: branch=lambda tau=1" in out
    vel = float(out.split("vel=")[1].split()[0])
    assert abs(vel - 0.8) < 1e-12


def test_compose_two_antisymmetric(capsys):
    code, out, _ = run_cli(capsys, "compose", "l,-1,1,2", "l,-1,1,3")
    assert code == 0
    assert "fit: branch=lambda" in out
    vel = float(out.split("vel=")[1].split()[0])
    assert abs(vel - 5.0 / 7.0) < 1e-12


def test_compose_without_a_k1_fit(capsys):
    code, out, _ = run_cli(capsys, "compose", "lambda,1,4,0.25", "lambda,1,4,0.25")
    assert code == 0
    assert out.endswith("\nfit: none (no k=1 family form matches)\n")


def test_transform_vector_needs_two_components(capsys):
    code, out, err = run_cli(capsys, "transform", "--branch", "l", "--tau", "-1",
                             "--k", "1", "--vel", "2", "--vec=1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: expected two comma-separated numbers")


def test_compose_bad_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "compose", "lambda,1,1", "lambda,1,1,0.5")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("k", ["inf", "-inf"])
def test_transform_infinite_k_exits_2(capsys, k):
    code, out, err = run_cli(capsys, "transform", "--branch", "l", "--tau", "-1",
                             f"--k={k}", "--vel", "2", "--vec", "2,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: k must be finite")


@pytest.mark.parametrize("branch, k, vel", [("l", "1", "1e200"), ("lambda", "-1", "1e300")])
def test_transform_overflowing_k_v2_exits_2(capsys, branch, k, vel):
    code, out, err = run_cli(capsys, "transform", "--branch", branch, "--tau", "1",
                             f"--k={k}", "--vel", vel, "--vec", "1,1")
    assert (code, out) == (2, "")
    assert err.startswith("error: k*") and err.count("\n") == 1


def test_classify_is_unit_free(capsys):
    code, out, _ = run_cli(capsys, "classify", "--vec=1e-7,0")
    assert code == 0
    assert out.splitlines()[-1] == "causal_class: timelike"


@pytest.mark.xfail(strict=True, reason="the squares overflow (nan) or underflow (0.0), so "
                   "(1, 0.5) in these units reads lightlike: an open ROADMAP item")
@pytest.mark.parametrize("vec", ["1e160,5e159", "1e-200,5e-201"])
def test_classify_is_unit_free_where_the_squares_leave_the_float_range(vec, capsys):
    code, out, _ = run_cli(capsys, "classify", f"--vec={vec}")
    assert code == 0
    assert "interval_sq: nan" not in out
    assert out.splitlines()[-1] == "causal_class: timelike"


def test_compose_fits_a_product_near_the_light_cone(capsys):
    # 50-digit velocity sum: 1.998 / 1.998001 = 0.9999994994997500001...
    code, out, _ = run_cli(capsys, "compose", "lambda,1,1,0.999", "lambda,1,1,0.999")
    assert code == 0
    assert out.splitlines()[-1] == "fit: branch=lambda tau=1 k=1.0 vel=0.99999949949975"


def test_verify_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "2000", "--seed", "42")
    assert code == 0
    assert "all 13 identity checks within tolerance" in out


def test_verify_report_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--trials", "1500", "--seed", "7")
    _, second, _ = run_cli(capsys, "verify", "--trials", "1500", "--seed", "7")
    assert first == second


def test_verify_detects_sign_flip(capsys, monkeypatch):
    """Negative control: a corrupted antisymmetric constructor must fail verify."""
    true_make_l = core.make_l

    def flipped_make_l(tau, k, w):
        t = true_make_l(tau, k, w)
        m = tuple(tuple(-x for x in row) for row in t.m)
        return core.Transform(m=m, branch=t.branch, tau=t.tau, k=t.k, vel=t.vel)

    monkeypatch.setattr(core, "make_l", flipped_make_l)
    code, out, _ = run_cli(capsys, "verify", "--trials", "500", "--seed", "3")
    assert code == 1
    assert "FAIL" in out


def test_verify_check_that_raises_is_a_failure_not_an_input_error(capsys, monkeypatch):
    """A broken build whose check raises exits 1 and names the check, not 2."""
    gamma = core.gamma_symmetric
    monkeypatch.setattr(core, "gamma_symmetric",
                        lambda k, v: gamma(k * k, v))
    code, out, err = run_cli(capsys, "verify", "--trials", "2000", "--seed", "0")
    assert code == 1
    assert err == ""
    assert "gamma_parity: max_residual=nan tol=nan FAIL raised DomainError: " in out
    assert out.endswith("4 of 13 identity checks failed\n")


def test_verify_broken_fit_fails_composition_closure(capsys, monkeypatch):
    """A refit that raises fails composition_closure by name, with exit 1."""
    def no_fit(t, k=1.0):
        raise core.NotDecomposableError("planted")

    monkeypatch.setattr(core, "refit", no_fit)
    code, out, err = run_cli(capsys, "verify", "--trials", "2000", "--seed", "0")
    assert code == 1
    assert err == ""
    assert ("composition_closure: max_residual=nan tol=nan FAIL "
            "raised NotDecomposableError: planted") in out
    assert out.endswith("1 of 13 identity checks failed\n")


def test_verify_calls_through_cli_verify(capsys, monkeypatch):
    """``cli.verify`` is the module ``verify`` runs, so patching it takes effect."""
    calls = []
    real = cli.verify.run_verification

    def spy(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(cli.verify, "run_verification", spy)
    code, _, _ = run_cli(capsys, "verify", "--trials", "500", "--seed", "3")
    assert code == 0
    assert calls == [{"trials": 500, "seed": 3}]


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 146. TiB"), MemoryError()])
def test_verify_out_of_memory_is_an_input_error(capsys, monkeypatch, error):
    """Exit 1 means an identity failed; a population too large to allocate is
    an input error."""
    def out_of_memory(**kwargs):
        raise error

    monkeypatch.setattr(cli.verify, "run_verification", out_of_memory)
    code, out, err = run_cli(capsys, "verify", "--trials", "10000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1


def test_verify_rejects_bad_trials(capsys):
    code, _, err = run_cli(capsys, "verify", "--trials", "0")
    assert code == 2
    assert err.startswith("error:")


def test_diagram_builtin_writes_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "diagram", "--builtin", "fig3", "--out", "fig3")
    assert code == 0
    assert Path("fig3-original.svg").exists()
    assert Path("fig3-transformed.svg").exists()
    assert "wrote" in out


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_diagram_matches_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "diagram", "--builtin", name, "--out", name)
    assert code == 0
    for side in ("original", "transformed"):
        produced = Path(f"{name}-{side}.svg").read_bytes()
        expected = (GOLDEN / f"{name}-{side}.svg").read_bytes()
        assert produced == expected


def test_diagram_that_cannot_encode_writes_neither_file(tmp_path, capsys):
    # A lone surrogate loads from JSON but has no UTF-8 encoding.  Both documents are
    # encoded before either file is opened, so an old file at the target keeps its bytes.
    data = scenario_to_dict(build_fig2_scenario())
    data["name"] = "x\ud800"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ("diagram", "--scenario", str(path), "--out", str(tmp_path / "x"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't encode character '\\ud800'")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]
    old = tmp_path / "x-original.svg"
    old.write_bytes(b"old bytes")
    assert run_cli(capsys, *argv)[0] == 2
    assert old.read_bytes() == b"old bytes"
    assert not (tmp_path / "x-transformed.svg").exists()


def test_diagram_missing_scenario_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "diagram", "--scenario",
                           str(tmp_path / "missing.json"), "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error:")


def test_diagram_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "diagram", "--scenario", str(bad),
                           "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error:")


def test_diagram_unknown_scenario_key_exits_2(tmp_path, capsys):
    data = scenario_to_dict(build_fig2_scenario())
    data["surprise"] = True
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "diagram", "--scenario", str(path),
                           "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error:")


def test_diagram_bad_worldline_names_it_on_stderr(tmp_path, capsys):
    data = scenario_to_dict(build_fig2_scenario())
    data["worldlines"][1]["direction"] = [0, 0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "diagram", "--scenario", str(path),
                             "--out", str(tmp_path / "x"))
    assert (code, out) == (2, "")
    assert err == "error: worldlines[1]: worldline direction must be non-zero\n"


def test_diagram_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    data = scenario_to_dict(build_fig2_scenario())
    data["transform"]["k"] = int("9" * 400)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "diagram", "--scenario", str(path),
                             "--out", str(tmp_path / "x"))
    assert (code, out) == (2, "")
    assert err.startswith("error: transform.k must be a number within the float range")
    assert err.count("\n") == 1


def test_diagram_endpoint_that_overflows_exits_2(tmp_path, capsys):
    # The ray from (0.5, 0.5) along (5e-324, 5e-324) ends at (-inf, -inf) at the window's corner.
    window = Window(TwoVector(0.0, 0.0), TwoVector(1.0, 1.0))
    wl = Worldline(TwoVector(0.5, 0.5), TwoVector(5e-324, 5e-324), "", WorldlineKind.LIGHT_RAY)
    path = tmp_path / "scenario.json"
    save_scenario(Scenario("overflow", make_lambda(1, 1.0, 0.5), (wl,), window), path)
    code, out, err = run_cli(capsys, "diagram", "--scenario", str(path),
                             "--out", str(tmp_path / "x"))
    assert (code, out) == (2, "")
    assert err == "error: TwoVector components must be finite, got (-inf, -inf)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_diagram_empty_window_exits_3(tmp_path, capsys):
    data = scenario_to_dict(build_fig2_scenario())
    data["window"] = {"min": [50, -40], "max": [60, -20]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "diagram", "--scenario", str(path),
                           "--out", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error:")


def test_diagram_event_outside_the_window_exits_3(tmp_path, capsys):
    data = scenario_to_dict(build_fig4_scenario())
    data["events"] = [{"at": [100.0, 100.0], "label": "far"}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "diagram", "--scenario", str(path),
                             "--out", str(tmp_path / "x"))
    assert (code, out) == (3, "")
    assert err.startswith("error: event 'far'") and err.count("\n") == 1


def test_diagram_from_saved_scenario_matches_builtin(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_scenario(build_fig4_scenario(), "fig4.json")
    first, _, _ = run_cli(capsys, "diagram", "--scenario", "fig4.json", "--out", "fromfile")
    second, _, _ = run_cli(capsys, "diagram", "--builtin", "fig4", "--out", "builtin")
    assert first == second == 0
    for side in ("original", "transformed"):
        assert (Path(f"fromfile-{side}.svg").read_bytes()
                == Path(f"builtin-{side}.svg").read_bytes())
