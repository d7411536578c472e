"""Verification engine behaviour."""

import math
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bilorentz import cli, core, verify
from bilorentz.core import Transform
from bilorentz.verify import VerificationReport, format_report, run_verification

SRC = Path(__file__).resolve().parent.parent / "src"

GRID_CHECKS = (verify.check_gamma_parity, verify.check_k_recovery,
               verify.check_determinant_law, verify.check_swap_decomposition,
               verify.check_inverse_law, verify.check_parity_forcing,
               verify.check_parity_violation_antisymmetric,
               verify.check_composition_closure)
FUZZ_CHECKS = (verify.check_interval_invariance, verify.check_light_cone_preservation,
               verify.check_causal_class_absoluteness, verify.check_measured_speed_bound)


def test_default_checks_all_pass():
    report = run_verification(trials=5000, seed=1)
    assert report.passed
    assert len(report.checks) == 13


def test_check_names_are_unique():
    report = run_verification(trials=1000, seed=0)
    names = [c.name for c in report.checks]
    assert len(set(names)) == len(names)


def test_reports_are_reproducible():
    first = run_verification(trials=3000, seed=9)
    second = run_verification(trials=3000, seed=9)
    assert first == second
    assert format_report(first) == format_report(second)


def test_different_seeds_still_pass():
    assert run_verification(trials=3000, seed=1).passed
    assert run_verification(trials=3000, seed=2).passed


def test_report_mentions_every_check(capsys):
    report = run_verification(trials=1000, seed=0)
    text = format_report(report)
    for check in report.checks:
        assert check.name in text
    assert text.count("PASS") == len(report.checks)


def test_planted_mat_vec_fault_fails_a_fuzz_check(monkeypatch):
    """Negative control: the fuzz checks run core's own matrix-vector product,
    so a fault planted there must fail at least one of them."""
    def broken_mat_vec(m, c1, c2):
        (a, b), (c, d) = m
        return a * c1 - b * c2, c * c1 + d * c2

    monkeypatch.setattr(core, "mat_vec", broken_mat_vec)
    rng = np.random.default_rng(0)
    assert not all(check(rng, 2000).passed for check in FUZZ_CHECKS)


@pytest.mark.parametrize("residuals", [
    [math.nan, 1.0, 2.0],
    [1.0, math.nan, 2.0],
    [1.0, 2.0, math.nan],
    [0.5, np.array([1.0, math.nan, 3.0]), 0.25],
], ids=["first", "middle", "last", "in-array"])
def test_worst_keeps_nan(residuals):
    assert math.isnan(verify._worst(residuals))
    assert math.isnan(verify._worst(iter(residuals)))


def test_worst_of_numbers_and_arrays():
    assert verify._worst([]) == 0.0
    assert verify._worst([0.5, np.array([0.25, 3.0]), 2.0]) == 3.0


def test_nan_from_mat_vec_fails_the_max_folded_fuzz_checks(monkeypatch):
    """Python's max drops a NaN that follows a number; these three checks
    reported 0.0 and passed while core.mat_vec returned nothing but NaN."""
    def nan_mat_vec(m, c1, c2):
        nan = np.full(np.broadcast(c1, c2).shape, math.nan)
        return nan, nan

    monkeypatch.setattr(core, "mat_vec", nan_mat_vec)
    rng = np.random.default_rng(0)
    for check in (verify.check_interval_invariance, verify.check_light_cone_preservation,
                  verify.check_measured_speed_bound):
        result = check(rng, 1000)
        assert math.isnan(result.residual) and not result.passed, result


def test_nan_from_mat_mul_fails_the_matrix_grid_checks(monkeypatch):
    monkeypatch.setattr(core, "_mat_mul", lambda a, b: ((math.nan,) * 2,) * 2)
    for check in (verify.check_swap_decomposition, verify.check_inverse_law,
                  verify.check_parity_forcing, verify.check_parity_violation_antisymmetric):
        result = check()
        assert math.isnan(result.residual) and not result.passed, result


def _flip_upper_right(make_lambda):
    def mutant(tau, k, v):
        t = make_lambda(tau, k, v)
        (a, b), (c, d) = t.m
        return Transform(((a, -b), (c, d)), t.branch, t.tau, t.k, t.vel)
    return mutant


def _with_tau(t, tau):
    return Transform(t.m, t.branch, tau, t.k, t.vel)


def _doubled(t):
    m = tuple(tuple(2.0 * x for x in row) for row in t.m)
    return Transform(m, t.branch, t.tau, t.k, t.vel)


#: (core attribute, mutation of it, checks that fail at 20,000 trials and seed 0).
MUTANTS = {
    "make_lambda-off-diagonal-sign": (
        "make_lambda", _flip_upper_right,
        {"determinant_law", "swap_decomposition", "composition_closure",
         "light_cone_preservation"}),
    "make_l-drops-tau": (
        "make_l", lambda make_l: lambda tau, k, w: _with_tau(make_l(1, k, w), tau),
        {"swap_decomposition"}),
    "gamma_antisymmetric-drops-copysign": (
        "gamma_antisymmetric",
        lambda gamma: lambda k, w: gamma(k, w) * math.copysign(1.0, w),
        {"gamma_parity", "k_recovery", "swap_decomposition", "inverse_law",
         "parity_forcing", "antisymmetric_parity_violation"}),
    "causal_sign-reversed": (
        "causal_sign", lambda causal_sign: lambda s2, size: -causal_sign(s2, size),
        {"divergence_witness"}),
    "refit-always-tau-1": (
        "refit", lambda refit: lambda t, k=1.0: _with_tau(refit(t, k), 1),
        {"composition_closure"}),
    "make_lambda_infinite_limit-doubled": (
        "make_lambda_infinite_limit", lambda limit: lambda tau, k: _doubled(limit(tau, k)),
        {"determinant_law"}),
    "gamma_symmetric-squares-k": (
        "gamma_symmetric", lambda gamma: lambda k, v: gamma(k * k, v),
        {"gamma_parity", "k_recovery", "determinant_law", "parity_forcing"}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_catches_planted_mutant(monkeypatch, name):
    attr, mutate, caught = MUTANTS[name]
    monkeypatch.setattr(core, attr, mutate(getattr(core, attr)))
    report = run_verification(20_000, 0)
    assert caught <= {c.name for c in report.checks if not c.passed}
    # A mutant that no longer fits its call sites fails every check for the wrong reason.
    assert "raised TypeError" not in format_report(report)


def test_a_check_that_raises_fails_under_its_own_name(monkeypatch):
    """Each raising check becomes a FAIL with residual NaN and its exception
    named; the others still run, and every check keeps its report name."""
    good = run_verification(trials=1000, seed=0)

    def raises(*args):
        raise ValueError("planted")

    for check in GRID_CHECKS + FUZZ_CHECKS + (verify.check_divergence_witness,):
        monkeypatch.setattr(verify, check.__name__, raises)
    report = run_verification(trials=1000, seed=0)
    assert [c.name for c in report.checks] == [c.name for c in good.checks]
    for c in report.checks:
        assert math.isnan(c.residual) and not c.passed
        assert c.error == "ValueError: planted"
    text = format_report(report)
    assert text.count("FAIL raised ValueError: planted") == 13
    assert text.endswith("13 of 13 identity checks failed")


def test_memory_error_from_a_check_propagates(monkeypatch):
    def out_of_memory(rng, trials):
        raise MemoryError()

    monkeypatch.setattr(verify, "check_interval_invariance", out_of_memory)
    with pytest.raises(MemoryError):
        run_verification(trials=1000, seed=0)


def test_error_is_printed_only_on_fail_lines():
    results = (verify.CheckResult("kept", 0.0, 1.0, "ValueError: stale"),
               verify.CheckResult("broken", math.nan, math.nan, "DomainError: k"))
    lines = format_report(VerificationReport(seed=0, trials=1, checks=results)).splitlines()
    assert lines[1] == "kept: max_residual=0.000000e+00 tol=1 PASS"
    assert lines[2] == "broken: max_residual=nan tol=nan FAIL raised DomainError: k"


def test_run_verification_is_the_public_checks_in_order_on_one_rng():
    """bench/shim.py rebuilds the report this way, one check at a time, and
    requires it to equal run_verification's; fusing or reordering checks
    would break that."""
    in_order = GRID_CHECKS + FUZZ_CHECKS + (verify.check_divergence_witness,)
    public = {name for name in dir(verify) if name.startswith("check_")}
    assert public == {check.__name__ for check in in_order}
    for seed, trials in ((0, 1000), (5, 40_000)):
        rng = np.random.default_rng(seed)
        checks = tuple(check(rng, trials) if check in FUZZ_CHECKS else check()
                       for check in in_order)
        expected = VerificationReport(seed=seed, trials=trials, checks=checks)
        assert run_verification(trials=trials, seed=seed) == expected


@pytest.mark.parametrize("seed", [0, 3, 11, 1000])
def test_report_does_not_depend_on_block_size(monkeypatch, seed):
    trials = 7 * 3 + 5
    assert trials <= verify._BLOCK
    one_block = run_verification(trials=trials, seed=seed)
    monkeypatch.setattr(verify, "_BLOCK", 7)
    assert run_verification(trials=trials, seed=seed) == one_block


def test_each_fuzz_trial_meets_each_sampled_transform_once(monkeypatch):
    """Counts the trials each core.mat_vec call covers (its broadcast size)."""
    covered = []
    real_mat_vec = core.mat_vec

    def counting_mat_vec(m, c1, c2):
        covered.append(np.broadcast(c1, c2).size)
        return real_mat_vec(m, c1, c2)

    monkeypatch.setattr(core, "mat_vec", counting_mat_vec)
    monkeypatch.setattr(verify, "_BLOCK", 7)
    trials, blocks = 7 * 3 + 5, 4
    # _sample_family_transforms(rng, n) yields n transforms of each branch.
    for check, transforms in zip(FUZZ_CHECKS, (20, 10, 10, 5)):
        covered.clear()
        check(np.random.default_rng(0), trials)
        assert len(covered) == blocks * transforms, check.__name__
        assert sum(covered) == trials * transforms, check.__name__


@pytest.mark.parametrize("seed", [0, 3, 11, 1000])
def test_report_does_not_depend_on_the_worker_count(monkeypatch, seed):
    monkeypatch.setattr(verify, "_BLOCK", 7)
    trials = 7 * 5 + 3
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(verify, "_WORKERS", workers)
        reports.append(run_verification(trials=trials, seed=seed))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_keeps_block_order_and_raises_the_earliest_failure(monkeypatch, workers):
    monkeypatch.setattr(verify, "_BLOCK", 1)
    monkeypatch.setattr(verify, "_WORKERS", workers)
    assert verify._map_blocks(lambda block: block.start, 50) == list(range(50))

    def fails_late(block):
        if block.start in (20, 30):
            raise ValueError(block.start)
        return block.start

    for _ in range(20):
        with pytest.raises(ValueError, match="^20$"):
            verify._map_blocks(fails_late, 50)


def test_map_blocks_runs_each_block_once_under_contention(monkeypatch):
    """More workers than cores and a short switch interval: a block claimed
    twice or never would show in the calls or in the results."""
    monkeypatch.setattr(verify, "_BLOCK", 1)
    monkeypatch.setattr(verify, "_WORKERS", 8)
    ran = []

    def record(block):
        ran.append(block.start)
        return block.start

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran.clear()
            assert verify._map_blocks(record, 300) == list(range(300))
            assert sorted(ran) == list(range(300))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_an_interrupt_between_blocks_stops_the_helpers(monkeypatch):
    """A KeyboardInterrupt that lands outside fn, here in the third claim of the
    calling thread, propagates, and the helper stops after its current block."""
    class InterruptedLock:
        def __init__(self):
            self.lock, self.claims = threading.Lock(), 0

        def __enter__(self):
            if threading.current_thread() is threading.main_thread():
                self.claims += 1
                if self.claims == 3:
                    raise KeyboardInterrupt
            self.lock.acquire()

        def __exit__(self, *exc):
            self.lock.release()

    ran = []

    def slow(block):
        ran.append(block.start)
        time.sleep(0.001)

    monkeypatch.setattr(verify, "Lock", InterruptedLock)
    monkeypatch.setattr(verify, "_BLOCK", 1)
    monkeypatch.setattr(verify, "_WORKERS", 2)
    threads = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        verify._map_blocks(slow, 2000)
    for helper in set(threading.enumerate()) - threads:
        helper.join(1.0)
        assert not helper.is_alive()
    assert len(ran) < 100


def test_helper_threads_are_fewer_than_blocks(monkeypatch):
    """One worker or one block runs inline; 64 workers on 3 blocks start 2 helpers."""
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(verify, "Thread", CountedThread)
    monkeypatch.setattr(verify, "_BLOCK", 7)
    for workers, trials, helpers in ((1, 38, 0), (2, 7, 0), (64, 17, 2)):
        monkeypatch.setattr(verify, "_WORKERS", workers)
        started.clear()
        assert verify._map_blocks(lambda block: block.start, trials) == list(range(0, trials, 7))
        assert len(started) == helpers, (workers, trials)


def test_workers_are_capped_at_the_measured_count():
    # Each helper adds its own malloc arena of slice temporaries; only 2 threads
    # were measured against the RSS and bytes-per-trial bounds.
    assert verify._WORKERS == (2 if verify._CPUS >= 2 else 1)


@pytest.mark.parametrize("workers", [2, 3])
def test_nan_in_the_last_block_fails_each_fuzz_check(monkeypatch, workers):
    """The last of the four blocks is the only one of 5 trials; a NaN planted
    there must survive the fold of the per-block results."""
    real_mat_vec = core.mat_vec

    def nan_in_last_block(m, c1, c2):
        e1, e2 = real_mat_vec(m, c1, c2)
        if np.broadcast(c1, c2).size == 5:
            e1, e2 = e1.copy(), e2.copy()
            e1[-1] = e2[-1] = math.nan
        return e1, e2

    monkeypatch.setattr(core, "mat_vec", nan_in_last_block)
    monkeypatch.setattr(verify, "_BLOCK", 7)
    monkeypatch.setattr(verify, "_WORKERS", workers)
    for check in FUZZ_CHECKS:
        result = check(np.random.default_rng(0), 7 * 3 + 5)
        assert not result.passed, result


def _fails_once_in_a_helper(monkeypatch, error):
    """Patch core.mat_vec so that the first block a helper thread runs raises
    error; the calling thread waits in its first block until that happened."""
    real_mat_vec = core.mat_vec
    raised = threading.Event()

    def mat_vec(m, c1, c2):
        if isinstance(c2, np.ndarray):
            if threading.current_thread() is threading.main_thread():
                raised.wait(10)
            elif not raised.is_set():
                raised.set()
                raise error
        return real_mat_vec(m, c1, c2)

    monkeypatch.setattr(core, "mat_vec", mat_vec)
    monkeypatch.setattr(verify, "_BLOCK", 1000)
    monkeypatch.setattr(verify, "_WORKERS", 2)
    return raised


def test_an_error_in_a_helper_thread_is_the_checks_named_fail(capsys, monkeypatch):
    raised = _fails_once_in_a_helper(monkeypatch, ValueError("planted in a helper"))
    code = cli.main(["verify", "--trials", "20000", "--seed", "0"])
    out, err = capsys.readouterr()
    assert raised.is_set()
    assert code == 1
    assert err == ""
    assert ("interval_invariance: max_residual=nan tol=nan FAIL "
            "raised ValueError: planted in a helper\n") in out
    assert out.endswith("1 of 13 identity checks failed\n")


def test_memory_error_in_a_helper_thread_exits_2(capsys, monkeypatch):
    raised = _fails_once_in_a_helper(monkeypatch, MemoryError("planted in a helper"))
    code = cli.main(["verify", "--trials", "20000", "--seed", "0"])
    out, err = capsys.readouterr()
    assert raised.is_set()
    assert (code, out) == (2, "")
    assert err == "error: out of memory: planted in a helper\n"


@pytest.mark.parametrize("seed", [0, 7, 1000])
def test_minus_signs_are_the_draws_of_choice(seed):
    """The light-cone check draws its signs through rng.integers to save memory;
    they must be rng.choice([-1.0, 1.0])'s and leave the rng in the same state,
    or every later draw of verify would change."""
    for n in (1, 7, 100_001):
        ours, choices = np.random.default_rng(seed), np.random.default_rng(seed)
        minus = verify._minus_signs(ours, n)
        assert np.array_equal(minus, choices.choice([-1.0, 1.0], size=n) == -1.0)
        assert ours.bit_generator.state == choices.bit_generator.state


@pytest.mark.parametrize("seed", [0, 5, 1000])
def test_light_cone_population_matches_its_choice_reference(monkeypatch, seed):
    """Reference: the population drawn with rng.choice and multiplied out.  The
    check's residual is 0.0 either way, so compare what reaches core.mat_vec."""
    trials = 70_000
    rng = np.random.default_rng(seed)
    c1 = rng.uniform(0.01, 1.0, size=trials) * rng.choice([-1.0, 1.0], size=trials)
    c2 = c1 * rng.choice([-1.0, 1.0], size=trials)
    transforms = len(verify._sample_family_transforms(rng, 5))
    seen = []
    real_mat_vec = core.mat_vec

    def recording_mat_vec(m, b1, b2):
        seen.append((b1, b2))
        return real_mat_vec(m, b1, b2)

    monkeypatch.setattr(core, "mat_vec", recording_mat_vec)
    monkeypatch.setattr(verify, "_WORKERS", 1)
    checked = np.random.default_rng(seed)
    verify.check_light_cone_preservation(checked, trials)
    first_transform = seen[::transforms]
    assert np.concatenate([b1 for b1, _ in first_transform]).tobytes() == c1.tobytes()
    assert np.concatenate([b2 for _, b2 in first_transform]).tobytes() == c2.tobytes()
    assert checked.bit_generator.state == rng.bit_generator.state


def test_verify_memory_is_bounded_per_trial():
    """numpy reports its buffers to tracemalloc, so this is a byte count, not
    a timing: the fuzz checks hold their drawn inputs plus one block of
    temporaries, not whole-population temporaries."""
    trials = 400_000
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        run_verification(trials=trials, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert (peak - before) / trials < 40


def _verify_minor_faults(trials: int) -> int:
    """Minor page faults of a fresh ``verify --trials <trials>`` process."""
    import resource  # Unix only; its one caller is skipped off glibc

    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "-m", "bilorentz.cli", "verify", "--trials", str(trials)],
                   env=env, capture_output=True, check=True, timeout=120)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's faults")
def test_fuzz_blocks_do_not_refault_their_temporaries():
    """A count, not a timing: the faults a fresh 400,000-trial run takes beyond a
    1-trial run.  Its populations and block temporaries fault in once (about 3,000
    pages); temporaries that glibc hands back to the kernel after each block, to
    fault them in again for the next one, took over 20,000 more."""
    extra = _verify_minor_faults(400_000) - _verify_minor_faults(1)
    assert extra < 10_000, f"{extra} more minor faults at 400,000 trials than at 1"


def test_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        run_verification(trials=0)
