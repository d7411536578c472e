"""Mechanical verification of the transformation-family identities.

Each check reports the maximal residual over a parameter grid or a seeded
fuzz population; a run passes only when every residual stays within its
tolerance.  Grid checks are deterministic; fuzz checks are reproducible
from (seed, trials).

A fuzz check never holds its whole population.  Its inputs have one layout
(see ``_inputs``): a check of w input columns owns the rng's next w * trials
outputs, and column j of trial i is the uniform draw from output j * trials + i.
The check moves the rng past those outputs and samples its transforms after
them; then it runs every sampled transform over the population in slices of
``_BLOCK`` trials, each slice drawing its own columns from a copy of the rng
placed where they start.  So no array grows with the trial count, the
per-slice temporaries stay in cache, and the memory a slice frees stays in
the process for the next one.  On 2 or more CPUs, ``run_verification`` forks
one peer process just before the first fuzz check (see ``_with_peer``).  The
peer starts from the same rng state, so it samples the same transforms; each
process draws and runs every other slice, and only the slices' results cross
a pipe (see ``_map_blocks``).  Two processes share no GIL, so no ufunc call
of one waits on the other.  Each slice reduces to its own worst residual or
mismatch count, and the check folds those in slice order.  Every operation is
elementwise and the only reductions are max and count, so results depend
neither on the block size nor on whether a peer ran.  Every max is taken by
``_worst``, which keeps NaN, so a NaN residual fails its check.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from collections import namedtuple
from contextvars import ContextVar
from itertools import product

import numpy as np

from . import core
from .core import STANDARD_METRIC, BranchKind, CausalClass, TwoVector, _setters, _Value


class CheckResult(_Value):
    __slots__ = ("name", "residual", "tolerance", "error")

    def __init__(self, name: str, residual: float, tolerance: float, error: str | None = None):
        _set_name(self, name)
        _set_residual(self, residual)
        _set_tolerance(self, tolerance)
        _set_error(self, error)  # "ExceptionType: message" when the check raised

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


_set_name, _set_residual, _set_tolerance, _set_error = _setters(CheckResult)


class VerificationReport(_Value):
    __slots__ = ("seed", "trials", "checks")

    def __init__(self, seed: int, trials: int, checks: tuple[CheckResult, ...]):
        _set_seed(self, seed)
        _set_trials(self, trials)
        _set_checks(self, checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


_set_seed, _set_trials, _set_checks = _setters(VerificationReport)


_K_VALUES = (-1.0, -0.5, 0.5, 1.0)

#: Trials per fuzz block: a float64 temporary is then 128 KiB, under the 256 KiB from
#: which numpy reuses a temporary in place, so core's kernels and the checks write into
#: arrays they just made.  A check then holds about 1.5 MB of block arrays per process,
#: which stay in cache.  The block-size sweeps are in CHANGES.md and BENCH_30.json.
_BLOCK = 1 << 14

#: Processes sharing a fuzz check's blocks, the caller among them, not threads, which
#: trade the GIL on every ufunc call: one per CPU in the affinity mask (a cgroup's CPU
#: quota is not read), but at most 2, the only count measured (see CHANGES.md).
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_WORKERS = 2 if _CPUS >= 2 else 1

#: (rank, pipe, pid) while a forked peer shares this context's fuzz checks (see
#: _with_peer): rank 0, the read end and the peer's pid in the caller, rank 1, the
#: write end and the caller's pid in the peer.  A context variable, so that a run in
#: another thread neither sees nor shares it.
_PEER = ContextVar("_PEER", default=None)


def _blocks(trials: int) -> list:
    """The consecutive slices of _BLOCK trials that cover range(trials), the last one
    ending at trials.

    It first frees one untouched chunk of eight blocks' worth plus 256 bytes per block
    (a listed block holds about 180 with its stop and its result), for two reasons.  A
    trial count whose blocks could not be listed fails here, at once.  And freeing a
    chunk above glibc's mmap threshold but under 32 MiB (about 2 * 10**9 trials) raises
    that threshold to its size and the trim threshold to twice that (mallopt(3)), so
    the 128 KiB temporaries a block frees stay in the process for the next block.
    """
    starts = range(0, trials, _BLOCK)
    np.empty(8 * _BLOCK + 32 * len(starts))
    return list(map(slice, starts, [*starts[1:], trials]))


def _map_blocks(fn, trials: int) -> list:
    """[fn(block) for block in _blocks(trials)].  While a peer process shares the fuzz
    checks (see _with_peer), each process runs the blocks i with i % 2 == its rank,
    and the peer sends its results over the pipe for the caller to fold in block
    order.  Otherwise, or with one block, the map runs inline.

    An exception is raised as the serial loop would raise it: the one from the
    earliest failing block.  Each side stops at its first failing block, so every
    block before the earliest failure ran on one side or the other.  The peer
    raises its own exception too, after sending it, so that both processes go on
    to the same next check.  A peer whose caller is gone leaves by SystemExit,
    before its next block or when its send fails.
    """
    blocks = _blocks(trials)
    peer = _PEER.get()
    if peer is None or len(blocks) < 2:
        return [fn(block) for block in blocks]
    rank, pipe, pid = peer
    mine = _run_share(fn, blocks[rank::2], pid if rank == 1 else None)
    if rank == 1:
        try:
            pipe.write(pickle.dumps((fn.__qualname__, mine)))
            pipe.flush()
        except OSError:
            raise SystemExit from None      # the read end is closed: nobody waits for this
        results, error = mine
        if error is not None:
            raise error
        return results
    try:
        tag, theirs = pickle.load(pipe)
        lost = tag != fn.__qualname__
    except Exception:
        lost = True
    if lost:
        # The peer died, or fell out of step because a check raised before its
        # _map_blocks call in one process only: stop the peer and run its share here.
        os.kill(pid, signal.SIGKILL)
        _PEER.set(None)
        theirs = _run_share(fn, blocks[1::2])
    out = []
    for i in range(len(blocks)):
        results, error = (mine, theirs)[i % 2]
        if i // 2 == len(results):
            raise error
        out.append(results[i // 2])
    return out


def _run_share(fn, blocks, caller=None) -> tuple:
    """([fn(block) for each block before the first that raises], its exception or
    None).  An interrupt is not an error of a block: it propagates at once.  In the
    peer, caller is the calling process's pid: once that process has died, the peer
    raises SystemExit before its next block rather than compute for nobody."""
    results = []
    try:
        for block in blocks:
            if caller is not None and os.getppid() != caller:
                raise SystemExit
            results.append(fn(block))
    except Exception as exc:
        return results, exc
    return results, None


def _with_peer(trials: int, work):
    """work(), with the _map_blocks calls it makes shared by one forked peer process.

    The peer starts from this process's state, its rng included, so it samples the
    same transforms and draws the same slice inputs; only block results cross the
    pipe.  There is no peer with one worker, without os.fork, or when a fuzz check
    of this many trials is one block.  The peer leaves only by os._exit, and as soon
    as it finds the calling process gone (see _map_blocks).  On any exception here,
    an interrupt included, the peer is killed first; it is reaped in every case, so
    no process outlives the call.
    """
    if _WORKERS < 2 or not hasattr(os, "fork") or len(_blocks(trials)) < 2:
        return work()
    caller = os.getpid()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            _PEER.set((1, os.fdopen(write_end, "wb"), caller))
            work()
        finally:
            os._exit(0)
    os.close(write_end)
    pipe = os.fdopen(read_end, "rb")
    token = _PEER.set((0, pipe, pid))
    try:
        return work()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _PEER.reset(token)
        pipe.close()        # before the wait: a peer blocked on a full pipe gets EPIPE
        os.waitpid(pid, 0)


def _w_grid() -> np.ndarray:
    half = np.linspace(1.001, 100.0, 200)
    return np.concatenate([half, -half])


def _lambda_domain_velocities(k: float, count: int) -> np.ndarray:
    """Velocities spanning the k*v**2 < 1 domain, both signs, zero excluded."""
    if k > 0:
        half = np.linspace(0.01, 0.99, count) / math.sqrt(k)
    else:
        half = np.linspace(0.1, 10.0, count)
    return np.concatenate([half, -half])


def _l_domain_velocities(k: float, count: int) -> np.ndarray:
    """Velocities spanning the k*w**2 > 1 domain; empty for k <= 0."""
    if k <= 0:
        return np.array([])
    half = np.linspace(1.01, 50.0, count) / math.sqrt(k)
    return np.concatenate([half, -half])


#: A constructor family over its velocity domain; parity is the sign in
#: gamma(k, -u) == parity * gamma(k, u) and in P make(u) P == parity * make(-u).
_Family = namedtuple("_Family", "gamma make grid parity")


def _families() -> tuple:
    """Both families, read from core per call so that a patched constructor is checked."""
    return (_Family(core.gamma_symmetric, core.make_lambda, _lambda_domain_velocities, 1),
            _Family(core.gamma_antisymmetric, core.make_l, _l_domain_velocities, -1))


def _family_grid(families, count: int, ks=_K_VALUES):
    """(family, k, u) for each k, each family and each of its count-per-sign velocities."""
    for k in ks:
        for fam in families:
            for u in fam.grid(k, count):
                yield fam, k, float(u)


def _worst(residuals) -> float:
    """Largest of the residuals (floats or ndarrays), 0.0 for none, and NaN if any is
    NaN; the builtin max keeps a number over a NaN that follows it, and would pass."""
    worst = 0.0
    for r in residuals:
        if isinstance(r, np.ndarray):
            r = float(np.max(r))
        if r > worst or math.isnan(r):
            worst = r
    return worst


def _gap(a: core.Mat, b: core.Mat, sign: int = 1) -> float:
    """Largest entry of |a - sign * b|."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return _worst((abs(a00 - sign * b00), abs(a01 - sign * b01),
                   abs(a10 - sign * b10), abs(a11 - sign * b11)))


def _inputs(rng: np.random.Generator, trials: int, *ranges):
    """Move rng on by len(ranges) * trials outputs and return inputs: inputs(block) is
    the list of the block's columns, where column j of trial i is the uniform draw on
    ranges[j] = (low, high) from rng output j * trials + i.  Joined over the blocks,
    column j is the rng.uniform(low, high, trials) that rng would draw after the
    columns before it.  inputs reuses one Generator, placed anew for each column;
    rng's bit generator must be a PCG64, as default_rng's is."""
    start = rng.bit_generator.state
    rng.bit_generator.advance(len(ranges) * trials)
    gen = np.random.Generator(np.random.PCG64())

    def inputs(block: slice) -> list:
        columns = []
        for j, (low, high) in enumerate(ranges):
            gen.bit_generator.state = start
            gen.bit_generator.advance(j * trials + block.start)
            columns.append(gen.uniform(low, high, size=block.stop - block.start))
        return columns
    return inputs


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


def check_gamma_parity() -> CheckResult:
    """gamma_symmetric is exactly even, gamma_antisymmetric exactly odd."""
    worst = _worst(abs(fam.gamma(k, u) - fam.parity * fam.gamma(k, -u))
                   for fam, k, u in _family_grid(_families(), 25))
    return CheckResult("gamma_parity", worst, 0.0)


def check_k_recovery() -> CheckResult:
    """k_constant applied to constructed gamma pairs gives back the input k."""
    worst = _worst(abs(core.k_constant(fam.gamma(k, u), fam.gamma(k, -u), u) - k)
                   for fam, k, u in _family_grid(_families(), 50))
    return CheckResult("k_recovery", worst, 1e-10)


def check_determinant_law() -> CheckResult:
    """det lambda = (1 - v**2)/(1 - k*v**2), whose v -> inf limit is 1/k for k < 0; the
    v = inf matrix is also make_lambda's at v = 1e100, sign included.  At k = 1 each
    family's det is its parity."""
    families = _families()
    general = (abs(core.mat_det(fam.make(tau, k, v).m) - (1.0 - v * v) / (1.0 - k * v * v))
               for fam, k, v in _family_grid(families[:1], 25) for tau in (1, -1))
    limits = [(k, tau, core.make_transform("lambda", tau, k, math.inf).m)
              for k in _K_VALUES if k < 0.0 for tau in (1, -1)]
    limit = (abs(core.mat_det(m) - 1.0 / k) for k, _, m in limits)
    near = (_gap(m, core.make_lambda(tau, k, 1e100).m) for k, tau, m in limits)
    unit_k = (abs(core.mat_det(fam.make(tau, 1.0, float(u)).m) - fam.parity)
              for fam, grid in zip(families, (np.linspace(-0.9, 0.9, 19), _w_grid()))
              for tau in (1, -1) for u in grid)
    return CheckResult("determinant_law", _worst((*general, *limit, *near, *unit_k)), 1e-12)


def check_swap_decomposition() -> CheckResult:
    """The swap composed with swap_decompose(make_l(-1, 1, w)) reproduces make_l(-1, 1, w)."""
    swap = core.Transform(m=core.SWAP_MAT, branch=BranchKind.DERIVED)
    worst = _worst(_gap(core.compose(swap, core.swap_decompose(t)).m, t.m)
                   for t in (core.make_l(-1, 1.0, float(w)) for w in _w_grid()))
    return CheckResult("swap_decomposition", worst, 1e-12)


def check_inverse_law() -> CheckResult:
    """make_l(-1, 1, w) composed with make_l(-1, 1, -w) is the identity."""
    worst = _worst(_gap(core.compose(core.make_l(-1, 1.0, w), core.make_l(-1, 1.0, -w)).m,
                        core.IDENTITY_MAT)
                   for w in map(float, _w_grid()))
    return CheckResult("inverse_law", worst, 1e-12)


def check_parity_forcing() -> CheckResult:
    """Parity conjugation reverses velocity; the antisymmetric branch also flips sign."""
    worst = _worst(_gap(core.parity_conjugate(fam.make(tau, k, u)).m,
                        fam.make(tau, k, -u).m, fam.parity)
                   for tau in (1, -1) for fam, k, u in _family_grid(_families(), 7))
    return CheckResult("parity_forcing", worst, 1e-12)


def check_parity_violation_antisymmetric() -> CheckResult:
    """No antisymmetric-family transform satisfies the parity covariance rule.

    The deviation of P L(w) P from L(-w) (the rule with sign +1) must stay
    large (>= 0.5 elementwise somewhere) across the whole grid; the residual
    is how far below that margin the smallest deviation falls.
    """
    worst = _worst(0.5 - _gap(core.parity_conjugate(fam.make(tau, k, w)).m,
                              fam.make(tau, k, -w).m)
                   for tau in (1, -1)
                   for fam, k, w in _family_grid(_families()[1:], 13, (0.5, 1.0)))
    return CheckResult("antisymmetric_parity_violation", worst, 0.0)


def check_composition_closure() -> CheckResult:
    """Products of k=1 family transforms built by core.make_transform refit by rapidity
    addition: branch "l" exactly when one factor is, tau_a*tau_b and (u1 + u2)/(1 + u1*u2).
    Pairs with 1 + u1*u2 == 0 are skipped: their product has a zero diagonal."""
    gaps = []
    velocities = {"lambda": (-0.9, -0.5, -0.1, 0.2, 0.6, 0.8),
                  "l": (-5.0, -2.0, -1.5, 1.2, 3.0, 10.0)}
    for a, b in product(velocities, repeat=2):
        branch = BranchKind("l" if a != b else "lambda")
        for tau_a, tau_b, u1, u2 in product((1, -1), (1, -1), velocities[a], velocities[b]):
            if 1.0 + u1 * u2 == 0.0:
                continue
            fitted = core.refit(core.compose(core.make_transform(a, tau_a, 1.0, u1),
                                             core.make_transform(b, tau_b, 1.0, u2)))
            if fitted.branch is not branch or fitted.tau != tau_a * tau_b:
                return CheckResult("composition_closure", math.inf, 1e-9)
            gaps.append(abs(fitted.vel - (u1 + u2) / (1.0 + u1 * u2)))
    return CheckResult("composition_closure", _worst(gaps), 1e-9)


def check_interval_invariance(rng: np.random.Generator, trials: int) -> CheckResult:
    """interval_squared is unchanged by (apply, transform_metric) pairs.

    The discrepancy is measured relative to max(|before|, |after|, 1); the
    unit floor keeps near-lightlike displacements from dividing by zero.
    """
    inputs = _inputs(rng, trials, (-1.0, 1.0), (-1.0, 1.0))
    pairs = _sample_matrices_and_metrics(rng, 10)

    def block_gap(block):
        b1, b2 = inputs(block)
        s_before = core.quad_form(STANDARD_METRIC.g, b1, b2)
        floor = np.maximum(1.0, np.abs(s_before))

        def gap(pair):
            m, gp = pair
            s_after = core.quad_form(gp, *core.mat_vec(m, b1, b2))
            diff = np.subtract(s_after, s_before)
            np.abs(diff, out=diff)
            np.abs(s_after, out=s_after)
            return np.divide(diff, np.maximum(floor, s_after, out=s_after), out=diff)
        return _worst(map(gap, pairs))
    return CheckResult("interval_invariance", _worst(_map_blocks(block_gap, trials)), 1e-9)


def check_light_cone_preservation(rng: np.random.Generator, trials: int) -> CheckResult:
    """Lightlike displacements stay lightlike under every family transform.

    The displacement is (c1, c2) = (s1*r, s2*s1*r), with r uniform on [0.01, 1)
    and fair, independent signs s1 and s2, both read from q uniform on [-1, 1):
    s1 is the sign of q, and s2 is -1 where |q| < 0.5.  A family matrix is
    [[a, b], [b, a]], and with c2 = +-c1 the image components a*c1 + b*c2 and
    b*c1 + a*c2 are equal or opposite in floats: the residual is exactly 0.0.
    """
    inputs = _inputs(rng, trials, (0.01, 1.0), (-1.0, 1.0))
    matrices = [t.m for t in _sample_family_transforms(rng, 5)]

    def block_gap(block):
        r, q = inputs(block)
        c1 = np.copysign(r, q)
        c2 = np.where(np.abs(q) < 0.5, -c1, c1)

        def gap(m):
            e1, e2 = core.mat_vec(m, c1, c2)
            np.abs(e1, out=e1)
            e1 -= np.abs(e2, out=e2)
            return np.abs(e1, out=e1)
        return _worst(map(gap, matrices))
    return CheckResult("light_cone_preservation", _worst(_map_blocks(block_gap, trials)), 1e-12)


def check_causal_class_absoluteness(rng: np.random.Generator, trials: int) -> CheckResult:
    """The timelike/lightlike/spacelike class never changes across frames."""
    inputs = _inputs(rng, trials, (-1.0, 1.0), (-1.0, 1.0))
    pairs = _sample_matrices_and_metrics(rng, 5)

    def block_mismatches(block):
        b1, b2 = inputs(block)
        cls_before = core.causal_sign(core.quad_form(STANDARD_METRIC.g, b1, b2),
                                      core.form_size(STANDARD_METRIC.g, b1, b2))
        mismatches = 0
        for m, gp in pairs:
            e1, e2 = core.mat_vec(m, b1, b2)
            cls_after = core.causal_sign(core.quad_form(gp, e1, e2), core.form_size(gp, e1, e2))
            mismatches += int(np.count_nonzero(cls_before != cls_after))
        return mismatches
    mismatches = sum(_map_blocks(block_mismatches, trials))
    return CheckResult("causal_class_absoluteness", float(mismatches), 0.0)


def check_measured_speed_bound(rng: np.random.Generator, trials: int) -> CheckResult:
    """Swapped-readout speeds of subluminal worldlines stay strictly below 1.

    The worldline direction (1, v) maps to (e1, e2); the swapped readout of
    measured_displacement reads e2 as c*dt and e1 as dx, so its speed is |e1/e2|.
    """
    inputs = _inputs(rng, trials, (-0.99, 0.99))
    matrices = [core.make_l(-1, 1.0, _sample_w(rng)).m for _ in range(5)]

    def block_speed(block):
        v, = inputs(block)

        def speed(m):
            e1, e2 = core.mat_vec(m, 1.0, v)
            e1 /= e2
            return np.abs(e1, out=e1)
        return _worst(map(speed, matrices))
    return CheckResult("measured_speed_bound", _worst(_map_blocks(block_speed, trials)),
                       1.0 - 1e-9)


def check_divergence_witness() -> CheckResult:
    """Displacement (2, 1) flips coordinate superluminality under make_l(-1, 1, 2)
    while its interval squared stays 3 and its causal class stays timelike."""
    t = core.make_l(-1, 1.0, 2.0)
    d = TwoVector(2.0, 1.0)
    before = core.classify_geometric(d, STANDARD_METRIC)
    after = core.classify_geometric(core.apply(t, d),
                                    core.transform_metric(t, STANDARD_METRIC))
    worst = _worst((abs(before.interval_sq - 3.0), abs(after.interval_sq - 3.0),
                    abs(before.coord_speed.value - 0.5)))
    flipped = (not before.coord_superluminal and after.coord_superluminal
               and math.isinf(after.coord_speed.value)
               and before.causal_class is CausalClass.TIMELIKE
               and after.causal_class is CausalClass.TIMELIKE)
    if not flipped:
        worst = math.inf
    return CheckResult("divergence_witness", worst, 1e-12)


def _guarded(name: str, check, *args) -> CheckResult:
    """check(*args), or a FAIL with residual NaN naming the exception it raised:
    a broken build whose check raises is a failed identity, not bad input.
    MemoryError propagates: running out of memory is not a failed identity."""
    try:
        return check(*args)
    except MemoryError:
        raise
    except Exception as exc:
        return CheckResult(name, math.nan, math.nan, f"{type(exc).__name__}: {exc}")


def run_verification(trials: int = 100_000, seed: int = 0) -> VerificationReport:
    """Run every identity check; grid checks ignore the trial count.

    A check that raises is recorded as failed (see _guarded) and the rest
    still run; after a fuzz check raised, later fuzz checks draw from an rng
    in a different state than in a passing run.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _blocks(trials)     # refuses a trial count too large to run, before the grid checks
    rng = np.random.default_rng(seed)
    grid = tuple(_guarded(name, check) for name, check in (
        ("gamma_parity", check_gamma_parity),
        ("k_recovery", check_k_recovery),
        ("determinant_law", check_determinant_law),
        ("swap_decomposition", check_swap_decomposition),
        ("inverse_law", check_inverse_law),
        ("parity_forcing", check_parity_forcing),
        ("antisymmetric_parity_violation", check_parity_violation_antisymmetric),
        ("composition_closure", check_composition_closure),
    ))

    def fuzz():
        return tuple(_guarded(name, check, rng, trials) for name, check in (
            ("interval_invariance", check_interval_invariance),
            ("light_cone_preservation", check_light_cone_preservation),
            ("causal_class_absoluteness", check_causal_class_absoluteness),
            ("measured_speed_bound", check_measured_speed_bound),
        ))
    checks = (*grid, *_with_peer(trials, fuzz),
              _guarded("divergence_witness", check_divergence_witness))
    return VerificationReport(seed=seed, trials=trials, checks=checks)


def format_report(report: VerificationReport) -> str:
    lines = [f"seed={report.seed} trials={report.trials}"]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"{c.name}: max_residual={c.residual:.6e} tol={c.tolerance:.10g} {status}"
        if c.error is not None and not c.passed:
            line += f" raised {c.error}"
        lines.append(line)
    failed = sum(1 for c in report.checks if not c.passed)
    if failed:
        lines.append(f"{failed} of {len(report.checks)} identity checks failed")
    else:
        lines.append(f"all {len(report.checks)} identity checks within tolerance")
    return "\n".join(lines)
