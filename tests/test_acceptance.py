"""Acceptance gate: every stated identity at its stated tolerance.

Each test prints one pass/fail line, so the whole gate reads off a plain
``pytest -s tests/test_acceptance.py`` run.  Tolerances are pinned here and
must not be loosened.
"""

import math
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from bilorentz import (
    STANDARD_METRIC,
    CausalClass,
    TwoVector,
    WorldlineKind,
    apply,
    build_fig2_scenario,
    classify_coordinate,
    classify_geometric,
    cli,
    coordinate_velocity,
    core,
    gamma_antisymmetric,
    gamma_symmetric,
    k_constant,
    make_l,
    make_lambda,
    make_lambda_infinite_limit,
    measured_displacement,
    parity_conjugate,
    transform_metric,
    transform_worldline,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
SVG_NS = "{http://www.w3.org/2000/svg}"


def w_grid():
    half = np.linspace(1.001, 100.0, 200)
    return np.concatenate([half, -half])


def max_entry_diff(a, b):
    return max(abs(a[i][j] - b[i][j]) for i in (0, 1) for j in (0, 1))


def report(num, label, ok):
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_swap_decomposition_grid():
    start = time.perf_counter()
    worst = 0.0
    for w in w_grid():
        w = float(w)
        lam = np.asarray(make_lambda(1, 1.0, 1.0 / w).m)
        ell = np.asarray(make_l(-1, 1.0, w).m)
        worst = max(worst, float(np.max(np.abs(SWAP @ lam - ell))))
    elapsed = time.perf_counter() - start
    report(1, "swap decomposition over 400-point grid", worst <= 1e-12 and elapsed < 1.0)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_inverse_law_grid():
    start = time.perf_counter()
    ident = np.eye(2)
    worst = 0.0
    for w in w_grid():
        w = float(w)
        prod = np.asarray(make_l(-1, 1.0, w).m) @ np.asarray(make_l(-1, 1.0, -w).m)
        worst = max(worst, float(np.max(np.abs(prod - ident))))
    elapsed = time.perf_counter() - start
    report(2, "inverse law over 400-point grid", worst <= 1e-12 and elapsed < 1.0)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_03_infinite_velocity_limit():
    limit = make_lambda_infinite_limit(1, -1.0)
    exact = limit.m == ((0.0, -1.0), (-1.0, 0.0))
    huge = np.asarray(make_lambda(1, -1.0, 1e6).m)
    gap = float(np.max(np.abs(huge - np.asarray(limit.m))))
    report(3, "infinite-velocity limit", exact and gap <= 1e-6)
    assert exact
    assert gap <= 1e-6


def test_criterion_04_k_recovery():
    worst = 0.0
    for k in (-1.0, -0.5, 0.5, 1.0):
        if k > 0:
            vs = np.concatenate([np.linspace(0.01, 0.99, 50),
                                 -np.linspace(0.01, 0.99, 50)]) / math.sqrt(k)
        else:
            vs = np.concatenate([np.linspace(0.1, 10.0, 50),
                                 -np.linspace(0.1, 10.0, 50)])
        for v in vs:
            v = float(v)
            rec = k_constant(gamma_symmetric(k, v), gamma_symmetric(k, -v), v)
            worst = max(worst, abs(rec - k))
        if k > 0:  # the antisymmetric domain k*w**2 > 1 is empty for k < 0
            ws = np.concatenate([np.linspace(1.01, 50.0, 50),
                                 -np.linspace(1.01, 50.0, 50)]) / math.sqrt(k)
            for w in ws:
                w = float(w)
                rec = k_constant(gamma_antisymmetric(k, w),
                                 gamma_antisymmetric(k, -w), w)
                worst = max(worst, abs(rec - k))
    report(4, "k-constant round trip", worst <= 1e-10)
    assert worst <= 1e-10


def _quad(d, g):
    return (g[0, 0] * d[:, 0] ** 2
            + (g[0, 1] + g[1, 0]) * d[:, 0] * d[:, 1]
            + g[1, 1] * d[:, 1] ** 2)


def test_criterion_05_interval_invariance_fuzz():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    d = rng.uniform(-1.0, 1.0, size=(100_000, 2))
    g = np.asarray(STANDARD_METRIC.g, dtype=float)
    transforms = []
    for _ in range(10):
        tau = 1 if rng.random() < 0.5 else -1
        transforms.append(make_lambda(tau, 1.0, float(rng.uniform(-0.95, 0.95))))
    for _ in range(10):
        tau = 1 if rng.random() < 0.5 else -1
        w = float(rng.uniform(1.05, 10.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        transforms.append(make_l(tau, 1.0, w))
    s_before = _quad(d, g)
    worst = 0.0
    for t in transforms:
        gp = np.asarray(transform_metric(t, STANDARD_METRIC).g, dtype=float)
        dp = d @ np.asarray(t.m).T
        s_after = _quad(dp, gp)
        denom = np.maximum(1.0, np.maximum(np.abs(s_before), np.abs(s_after)))
        worst = max(worst, float(np.max(np.abs(s_after - s_before) / denom)))
    elapsed = time.perf_counter() - start
    report(5, "interval invariance, 1e5 displacements x 20 transforms",
           worst <= 1e-9 and elapsed < 5.0)
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_06_divergence_witness():
    t = make_l(-1, 1.0, 2.0)
    d = TwoVector(2.0, 1.0)
    before = classify_geometric(d, STANDARD_METRIC)
    after = classify_geometric(apply(t, d), transform_metric(t, STANDARD_METRIC))
    ok = (before.coord_speed.value == 0.5
          and not before.coord_superluminal
          and math.isinf(after.coord_speed.value)
          and after.coord_superluminal
          and abs(before.interval_sq - 3.0) <= 1e-12
          and abs(after.interval_sq - 3.0) <= 1e-12
          and before.causal_class is CausalClass.TIMELIKE
          and after.causal_class is CausalClass.TIMELIKE)
    report(6, "coordinate/geometric superluminality divergence", ok)
    assert ok


def test_criterion_07_fig2_reproduction():
    s = build_fig2_scenario()
    ok = True
    for wl in s.worldlines:
        moved = transform_worldline(s.transform, wl)
        raw = coordinate_velocity(moved).value
        if wl.kind is WorldlineKind.PARTICLE:
            ok = ok and coordinate_velocity(wl).value < 1.0
            ok = ok and raw > 1.0
            measured = measured_displacement(moved.direction)
            ok = ok and classify_coordinate(measured).value < 1.0
        else:
            ok = ok and abs(raw - 1.0) <= 1e-12
    report(7, "fig2 speeds: original < 1, raw > 1, measured < 1", ok)
    assert ok


def test_criterion_08_parity_forcing_grid():
    sym_worst = 0.0
    anti_worst = 0.0
    violation_floor = math.inf
    points = 0
    for tau in (1, -1):
        for k in (-1.0, -0.5, 0.5, 1.0):
            if k > 0:
                vs = [f / math.sqrt(k) for f in
                      (0.05, 0.15, 0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 0.95)]
                ws = [f / math.sqrt(k) for f in
                      (1.05, 1.3, 1.7, 2.5, 4.0, 7.0, 12.0, 25.0, 50.0)]
            else:
                # |v| = 1 is a singular member for k != 1, which the families refuse.
                vs = [0.1, 0.3, 0.7, 1.2, 1.8, 3.0, 5.0, 7.5, 10.0]
                ws = []
            for v in vs:
                conj = parity_conjugate(make_lambda(tau, k, v))
                sym_worst = max(sym_worst,
                                max_entry_diff(conj.m, make_lambda(tau, k, -v).m))
                points += 1
            for w in ws:
                conj = parity_conjugate(make_l(tau, k, w))
                reversed_l = make_l(tau, k, -w)
                negated = tuple(tuple(-x for x in row) for row in reversed_l.m)
                anti_worst = max(anti_worst, max_entry_diff(conj.m, negated))
                violation_floor = min(violation_floor,
                                      max_entry_diff(conj.m, reversed_l.m))
                points += 1
    ok = (points >= 100 and sym_worst <= 1e-12 and anti_worst <= 1e-12
          and violation_floor > 1e-6)
    report(8, "parity conjugation across a 100-point grid", ok)
    assert points >= 100
    assert sym_worst <= 1e-12
    assert anti_worst <= 1e-12
    # only the symmetric branch satisfies P T(v) P = T(-v)
    assert violation_floor > 1e-6


def test_criterion_09_diagram_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ok = True
    for name in ("fig2", "fig3", "fig4"):
        assert cli.main(["diagram", "--builtin", name, "--out", f"{name}-a"]) == 0
        assert cli.main(["diagram", "--builtin", name, "--out", f"{name}-b"]) == 0
        for side in ("original", "transformed"):
            ok = ok and (Path(f"{name}-a-{side}.svg").read_bytes()
                         == Path(f"{name}-b-{side}.svg").read_bytes())
    for side in ("original", "transformed"):
        root = ET.fromstring(Path(f"fig3-a-{side}.svg").read_text(encoding="utf-8"))
        rays = [el for el in root.iter(f"{SVG_NS}line")
                if "lightray" in el.get("class", "")]
        ok = ok and len(rays) == 2
        for el in rays:
            dx = float(el.get("x2")) - float(el.get("x1"))
            dy = float(el.get("y2")) - float(el.get("y1"))
            ok = ok and dx != 0.0 and abs(abs(dy / dx) - 1.0) <= 1e-5
    report(9, "byte-identical diagrams, fig3 slopes at 1", ok)
    assert ok


def test_criterion_10_negative_control_sign_flip(monkeypatch, capsys):
    true_make_l = core.make_l

    def flipped_make_l(tau, k, w):
        t = true_make_l(tau, k, w)
        m = tuple(tuple(-x for x in row) for row in t.m)
        return core.Transform(m=m, branch=t.branch, tau=t.tau, k=t.k, vel=t.vel)

    monkeypatch.setattr(core, "make_l", flipped_make_l)
    code = cli.main(["verify", "--trials", "2000", "--seed", "0"])
    out = capsys.readouterr().out
    ok = code == 1 and "swap_decomposition" in out and "FAIL" in out
    report(10, "sign-flipped build fails verification with exit 1", ok)
    assert code == 1
    assert "FAIL" in out
