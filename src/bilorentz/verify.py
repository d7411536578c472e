"""Mechanical verification of the transformation-family identities.

Each check reports the maximal residual over a parameter grid or a seeded
fuzz population; a run passes only when every residual stays within its
tolerance.  Grid checks are deterministic; fuzz checks are reproducible
from (seed, trials).

A fuzz check draws its whole population at once, then runs every sampled
transform over it in slices of ``_BLOCK`` trials, so that the per-slice
temporaries stay in cache.  Every operation is elementwise and the only
reductions are max and count, so results do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import STANDARD_METRIC, BranchKind, CausalClass, TwoVector


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    trials: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


_K_VALUES = (-1.0, -0.5, 0.5, 1.0)

#: Trials per slice in the fuzz checks: 256 KiB per float64 temporary, so a
#: slice's working set fits in L2.  Of 2**12 to 2**20, 2**15 ran fastest on
#: a host with 2 MiB of L2 per core; 2**17 and up ran nearly 2x slower.
_BLOCK = 1 << 15


def _blocks(trials: int):
    """Consecutive slices of at most _BLOCK trials covering range(trials)."""
    return (slice(i, i + _BLOCK) for i in range(0, trials, _BLOCK))


def _w_grid() -> np.ndarray:
    half = np.linspace(1.001, 100.0, 200)
    return np.concatenate([half, -half])


def _lambda_domain_velocities(k: float, count: int = 50) -> np.ndarray:
    """Velocities spanning the k*v**2 < 1 domain, both signs, zero excluded."""
    if k > 0:
        half = np.linspace(0.01, 0.99, count) / math.sqrt(k)
    else:
        half = np.linspace(0.1, 10.0, count)
    return np.concatenate([half, -half])


def _l_domain_velocities(k: float, count: int = 50) -> np.ndarray:
    """Velocities spanning the k*w**2 > 1 domain; empty for k <= 0."""
    if k <= 0:
        return np.array([])
    half = np.linspace(1.01, 50.0, count) / math.sqrt(k)
    return np.concatenate([half, -half])


def _sample_w(rng: np.random.Generator) -> float:
    """Antisymmetric-family velocity with 1.05 <= |w| <= 10 and random sign."""
    return float(rng.uniform(1.05, 10.0)) * (1.0 if rng.random() < 0.5 else -1.0)


def _sample_family_transforms(rng: np.random.Generator, per_branch: int) -> list:
    ts = []
    for _ in range(per_branch):
        tau = 1 if rng.random() < 0.5 else -1
        ts.append(core.make_lambda(tau, 1.0, float(rng.uniform(-0.95, 0.95))))
    for _ in range(per_branch):
        tau = 1 if rng.random() < 0.5 else -1
        ts.append(core.make_l(tau, 1.0, _sample_w(rng)))
    return ts


def _sample_matrices_and_metrics(rng: np.random.Generator, per_branch: int) -> list:
    """(t.m, transform_metric(t).g) for each sampled family transform t."""
    return [(t.m, core.transform_metric(t, STANDARD_METRIC).g)
            for t in _sample_family_transforms(rng, per_branch)]


def _max_abs_diff(a, b) -> float:
    return max(abs(a[i][j] - b[i][j]) for i in (0, 1) for j in (0, 1))


def check_gamma_parity() -> CheckResult:
    """gamma_symmetric is exactly even, gamma_antisymmetric exactly odd."""
    worst = 0.0
    for k in _K_VALUES:
        for v in _lambda_domain_velocities(k, 25):
            worst = max(worst, abs(core.gamma_symmetric(k, float(v))
                                   - core.gamma_symmetric(k, float(-v))))
        for w in _l_domain_velocities(k, 25):
            worst = max(worst, abs(core.gamma_antisymmetric(k, float(w))
                                   + core.gamma_antisymmetric(k, float(-w))))
    return CheckResult("gamma_parity", worst, 0.0)


def check_k_recovery() -> CheckResult:
    """k_constant applied to constructed gamma pairs gives back the input k."""
    worst = 0.0
    for k in _K_VALUES:
        for v in _lambda_domain_velocities(k):
            v = float(v)
            rec = core.k_constant(core.gamma_symmetric(k, v),
                                  core.gamma_symmetric(k, -v), v)
            worst = max(worst, abs(rec - k))
        for w in _l_domain_velocities(k):
            w = float(w)
            rec = core.k_constant(core.gamma_antisymmetric(k, w),
                                  core.gamma_antisymmetric(k, -w), w)
            worst = max(worst, abs(rec - k))
    return CheckResult("k_recovery", worst, 1e-10)


def check_determinant_law() -> CheckResult:
    """det lambda = (1 - v**2)/(1 - k*v**2); at k = 1 the families have det +1/-1."""
    worst = 0.0
    for k in _K_VALUES:
        for tau in (1, -1):
            for v in _lambda_domain_velocities(k, 25):
                v = float(v)
                expected = (1.0 - v * v) / (1.0 - k * v * v)
                worst = max(worst, abs(core.mat_det(core.make_lambda(tau, k, v).m) - expected))
    for tau in (1, -1):
        for v in np.linspace(-0.9, 0.9, 19):
            worst = max(worst, abs(core.mat_det(core.make_lambda(tau, 1.0, float(v)).m) - 1.0))
        for w in _w_grid():
            worst = max(worst, abs(core.mat_det(core.make_l(tau, 1.0, float(w)).m) + 1.0))
    return CheckResult("determinant_law", worst, 1e-12)


def check_swap_decomposition() -> CheckResult:
    """The swap composed with swap_decompose(make_l(-1, 1, w)) reproduces make_l(-1, 1, w)."""
    swap = core.Transform(m=core.SWAP_MAT, branch=BranchKind.DERIVED)
    worst = 0.0
    for w in _w_grid():
        t = core.make_l(-1, 1.0, float(w))
        worst = max(worst, _max_abs_diff(core.compose(swap, core.swap_decompose(t)).m, t.m))
    return CheckResult("swap_decomposition", worst, 1e-12)


def check_inverse_law() -> CheckResult:
    """make_l(-1, 1, w) composed with make_l(-1, 1, -w) is the identity."""
    worst = 0.0
    for w in _w_grid():
        w = float(w)
        prod = core.compose(core.make_l(-1, 1.0, w), core.make_l(-1, 1.0, -w))
        worst = max(worst, _max_abs_diff(prod.m, core.IDENTITY_MAT))
    return CheckResult("inverse_law", worst, 1e-12)


def check_parity_forcing() -> CheckResult:
    """Parity conjugation reverses velocity; the antisymmetric branch also flips sign."""
    worst = 0.0
    for tau in (1, -1):
        for k in _K_VALUES:
            for v in _lambda_domain_velocities(k, 7):
                v = float(v)
                pc = core.parity_conjugate(core.make_lambda(tau, k, v))
                worst = max(worst, _max_abs_diff(pc.m, core.make_lambda(tau, k, -v).m))
            for w in _l_domain_velocities(k, 7):
                w = float(w)
                pc = core.parity_conjugate(core.make_l(tau, k, w))
                neg = [[-x for x in row] for row in core.make_l(tau, k, -w).m]
                worst = max(worst, _max_abs_diff(pc.m, neg))
    return CheckResult("parity_forcing", worst, 1e-12)


def check_parity_violation_antisymmetric() -> CheckResult:
    """No antisymmetric-family transform satisfies the parity covariance rule.

    The deviation of P L(w) P from L(-w) must stay large (>= 0.5 elementwise
    somewhere) across the whole grid; the residual is how far below that
    margin the smallest deviation falls.
    """
    min_dev = math.inf
    for tau in (1, -1):
        for k in (0.5, 1.0):
            for w in _l_domain_velocities(k, 13):
                w = float(w)
                pc = core.parity_conjugate(core.make_l(tau, k, w))
                dev = _max_abs_diff(pc.m, core.make_l(tau, k, -w).m)
                min_dev = min(min_dev, dev)
    return CheckResult("antisymmetric_parity_violation", max(0.0, 0.5 - min_dev), 0.0)


def check_composition_closure() -> CheckResult:
    """Products of k=1 family transforms refit the symmetric family.

    Two symmetric transforms compose with the relativistic velocity sum;
    two antisymmetric ones also land in the symmetric family, at velocity
    (w1 + w2)/(1 + w1*w2).
    """
    worst = 0.0
    families = ((core.make_lambda, 1, (-0.9, -0.5, -0.1, 0.2, 0.6, 0.8)),
                (core.make_l, -1, (-5.0, -2.0, -1.5, 1.2, 3.0, 10.0)))
    for make, tau, vels in families:
        for u1 in vels:
            for u2 in vels:
                prod = core.compose(make(tau, 1.0, u1), make(tau, 1.0, u2))
                try:
                    fitted = core.refit(prod, k=1.0)
                except core.NotDecomposableError:
                    fitted = None
                if fitted is None or fitted.branch is not BranchKind.SYMMETRIC_LAMBDA:
                    return CheckResult("composition_closure", math.inf, 1e-9)
                worst = max(worst, abs(fitted.vel - (u1 + u2) / (1.0 + u1 * u2)))
    return CheckResult("composition_closure", worst, 1e-9)


def check_interval_invariance(rng: np.random.Generator, trials: int) -> CheckResult:
    """interval_squared is unchanged by (apply, transform_metric) pairs.

    The discrepancy is measured relative to max(|before|, |after|, 1); the
    unit floor keeps near-lightlike displacements from dividing by zero.
    """
    c1, c2 = rng.uniform(-1.0, 1.0, size=(2, trials))
    pairs = _sample_matrices_and_metrics(rng, 10)
    worst = 0.0
    for block in _blocks(trials):
        b1, b2 = c1[block], c2[block]
        s_before = core.quad_form(STANDARD_METRIC.g, b1, b2)
        floor = np.maximum(1.0, np.abs(s_before))
        for m, gp in pairs:
            s_after = core.quad_form(gp, *core.mat_vec(m, b1, b2))
            denom = np.maximum(floor, np.abs(s_after))
            worst = max(worst, float(np.max(np.abs(s_after - s_before) / denom)))
    return CheckResult("interval_invariance", worst, 1e-9)


def check_light_cone_preservation(rng: np.random.Generator, trials: int) -> CheckResult:
    """Lightlike displacements stay lightlike under every family transform."""
    c1 = rng.uniform(0.01, 1.0, size=trials) * rng.choice([-1.0, 1.0], size=trials)
    c2 = c1 * rng.choice([-1.0, 1.0], size=trials)
    matrices = [t.m for t in _sample_family_transforms(rng, 5)]
    worst = 0.0
    for block in _blocks(trials):
        b1, b2 = c1[block], c2[block]
        for m in matrices:
            e1, e2 = core.mat_vec(m, b1, b2)
            worst = max(worst, float(np.max(np.abs(np.abs(e1) - np.abs(e2)))))
    return CheckResult("light_cone_preservation", worst, 1e-12)


def check_causal_class_absoluteness(rng: np.random.Generator, trials: int) -> CheckResult:
    """The timelike/lightlike/spacelike class never changes across frames."""
    c1, c2 = rng.uniform(-1.0, 1.0, size=(2, trials))
    pairs = _sample_matrices_and_metrics(rng, 5)
    mismatches = 0
    for block in _blocks(trials):
        b1, b2 = c1[block], c2[block]
        cls_before = core.causal_sign(core.quad_form(STANDARD_METRIC.g, b1, b2))
        for m, gp in pairs:
            cls_after = core.causal_sign(core.quad_form(gp, *core.mat_vec(m, b1, b2)))
            mismatches += int(np.count_nonzero(cls_before != cls_after))
    return CheckResult("causal_class_absoluteness", float(mismatches), 0.0)


def check_measured_speed_bound(rng: np.random.Generator, trials: int) -> CheckResult:
    """Swapped-readout speeds of subluminal worldlines stay strictly below 1.

    The worldline direction (1, v) maps to (e1, e2); the swapped readout of
    measured_displacement reads e2 as c*dt and e1 as dx, so its speed is |e1/e2|.
    """
    v = rng.uniform(-0.99, 0.99, size=trials)
    matrices = [core.make_l(-1, 1.0, _sample_w(rng)).m for _ in range(5)]
    worst = 0.0
    for block in _blocks(trials):
        for m in matrices:
            e1, e2 = core.mat_vec(m, 1.0, v[block])
            worst = max(worst, float(np.max(np.abs(e1 / e2))))
    return CheckResult("measured_speed_bound", worst, 1.0 - 1e-9)


def check_divergence_witness() -> CheckResult:
    """Displacement (2, 1) flips coordinate superluminality under make_l(-1, 1, 2)
    while its interval squared stays 3 and its causal class stays timelike."""
    t = core.make_l(-1, 1.0, 2.0)
    d = TwoVector(2.0, 1.0)
    before = core.classify_geometric(d, STANDARD_METRIC)
    after = core.classify_geometric(core.apply(t, d),
                                    core.transform_metric(t, STANDARD_METRIC))
    worst = max(abs(before.interval_sq - 3.0), abs(after.interval_sq - 3.0),
                abs(before.coord_speed.value - 0.5))
    flipped = (not before.coord_superluminal and after.coord_superluminal
               and math.isinf(after.coord_speed.value)
               and before.causal_class is CausalClass.TIMELIKE
               and after.causal_class is CausalClass.TIMELIKE)
    if not flipped:
        worst = math.inf
    return CheckResult("divergence_witness", worst, 1e-12)


def run_verification(trials: int = 100_000, seed: int = 0) -> VerificationReport:
    """Run every identity check; grid checks ignore the trial count."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    checks = (
        check_gamma_parity(),
        check_k_recovery(),
        check_determinant_law(),
        check_swap_decomposition(),
        check_inverse_law(),
        check_parity_forcing(),
        check_parity_violation_antisymmetric(),
        check_composition_closure(),
        check_interval_invariance(rng, trials),
        check_light_cone_preservation(rng, trials),
        check_causal_class_absoluteness(rng, trials),
        check_measured_speed_bound(rng, trials),
        check_divergence_witness(),
    )
    return VerificationReport(seed=seed, trials=trials, checks=checks)


def format_report(report: VerificationReport) -> str:
    lines = [f"seed={report.seed} trials={report.trials}"]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name}: max_residual={c.residual:.6e} "
                     f"tol={c.tolerance:.10g} {status}")
    failed = sum(1 for c in report.checks if not c.passed)
    if failed:
        lines.append(f"{failed} of {len(report.checks)} identity checks failed")
    else:
        lines.append(f"all {len(report.checks)} identity checks within tolerance")
    return "\n".join(lines)
