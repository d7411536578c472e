"""Verification engine behaviour."""

import gc
import math
import os
import platform
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
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
#: Trial counts for the block-layout tests: one and several partial blocks, one and two
#: full default blocks, one trial past each, and many blocks.
BOUNDARY_TRIALS = (1, 7, verify._BLOCK, verify._BLOCK + 1, 2 * verify._BLOCK,
                   2 * verify._BLOCK + 1, 100_001)


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


def _shared(trials, fn):
    """verify._map_blocks(fn, trials), shared with a forked peer where verify would fork one."""
    return verify._with_peer(trials, lambda: verify._map_blocks(fn, trials))


def _no_child_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_keeps_block_order_and_raises_the_earliest_failure(monkeypatch, workers):
    """The earliest failing block's exception wins, whichever process raised it: with
    a peer, the even blocks run in the calling process and the odd ones in the peer."""
    monkeypatch.setattr(verify, "_BLOCK", 1)
    monkeypatch.setattr(verify, "_WORKERS", workers)
    assert _shared(50, lambda block: block.start) == list(range(50))

    for failing in ((20, 30), (20, 31), (21, 30), (21, 31)):
        def fails_late(block):
            if block.start in failing:
                raise ValueError(block.start)
            return block.start

        with pytest.raises(ValueError, match=f"^{min(failing)}$"):
            _shared(50, fails_late)
    _no_child_process_left()


def test_map_blocks_runs_each_block_once_across_the_two_processes(monkeypatch):
    """The calling process runs the even blocks and the peer the odd ones: a block
    run twice or never would show in the calls or in the results."""
    monkeypatch.setattr(verify, "_BLOCK", 1)
    monkeypatch.setattr(verify, "_WORKERS", 2)
    parent, ran = os.getpid(), []

    def record(block):
        ran.append(block.start)
        return block.start, os.getpid()

    out = _shared(300, record)
    assert [start for start, _ in out] == list(range(300))
    assert ran == list(range(0, 300, 2))
    assert {pid for _, pid in out[0::2]} == {parent}
    peers = {pid for _, pid in out[1::2]}
    assert len(peers) == 1 and parent not in peers
    _no_child_process_left()


def _recorded_waitpid(monkeypatch):
    """Patch os.waitpid to keep the status of each process it reaps."""
    real_waitpid, reaped = os.waitpid, []

    def waitpid(pid, options):
        got = real_waitpid(pid, options)
        reaped.append(got[1])
        return got

    monkeypatch.setattr(os, "waitpid", waitpid)
    return reaped


def test_an_interrupt_in_the_parents_third_block_leaves_no_child_process(monkeypatch):
    """A KeyboardInterrupt propagates at once: the calling process runs no block after
    it, and the peer is killed, not waited for, and reaped."""
    monkeypatch.setattr(verify, "_BLOCK", 1)
    monkeypatch.setattr(verify, "_WORKERS", 2)
    reaped = _recorded_waitpid(monkeypatch)
    parent, ran = os.getpid(), []

    def interrupted(block):
        if os.getpid() == parent:
            ran.append(block.start)
            if len(ran) == 3:
                raise KeyboardInterrupt
        time.sleep(0.001)
        return block.start

    with pytest.raises(KeyboardInterrupt):
        _shared(2000, interrupted)
    assert ran == [0, 2, 4]
    assert len(reaped) == 1 and os.WIFSIGNALED(reaped[0])
    assert os.WTERMSIG(reaped[0]) == signal.SIGKILL
    _no_child_process_left()


def test_a_peer_forks_only_for_two_workers_and_two_blocks(monkeypatch):
    """One worker, one block or no os.fork runs every block in the calling process;
    otherwise verify forks one peer per run, and the report does not change."""
    real_fork, forks = os.fork, []

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(verify, "_BLOCK", 7)
    monkeypatch.setattr(verify, "_WORKERS", 1)
    serial = {trials: run_verification(trials=trials, seed=3) for trials in (7, 17, 38)}
    assert forks == []
    for workers, trials, expected in ((2, 7, 0), (2, 8, 1), (2, 38, 1), (64, 17, 1)):
        monkeypatch.setattr(verify, "_WORKERS", workers)
        forks.clear()
        report = run_verification(trials=trials, seed=3)
        assert len(forks) == expected, (workers, trials)
        if trials in serial:
            assert report == serial[trials]
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(verify, "_WORKERS", 2)
    assert run_verification(trials=38, seed=3) == serial[38]
    _no_child_process_left()


def test_workers_are_capped_at_the_measured_count():
    # Only 2 processes were measured against the RSS and bytes-per-trial bounds;
    # each peer holds its own block inputs and temporaries.
    assert verify._WORKERS == (2 if verify._CPUS >= 2 else 1)


@pytest.mark.parametrize("workers", [2, 3])
def test_nan_in_the_last_block_fails_each_fuzz_check(monkeypatch, workers):
    """The last of the four blocks is the only one of 5 trials, and the peer runs it;
    a NaN planted there must survive the pipe and the fold of the per-block results."""
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
        trials = 7 * 3 + 5
        result = verify._with_peer(trials, lambda: check(np.random.default_rng(0), trials))
        assert not result.passed, result
    _no_child_process_left()


def _fails_once_in_the_peer(monkeypatch, error):
    """Patch core.mat_vec so that the first block the peer runs raises error; the
    calling process never raises."""
    real_mat_vec, parent, raised = core.mat_vec, os.getpid(), []

    def mat_vec(m, c1, c2):
        if isinstance(c2, np.ndarray) and os.getpid() != parent and not raised:
            raised.append(error)
            raise error
        return real_mat_vec(m, c1, c2)

    monkeypatch.setattr(core, "mat_vec", mat_vec)
    monkeypatch.setattr(verify, "_BLOCK", 1000)
    monkeypatch.setattr(verify, "_WORKERS", 2)


def test_an_error_in_the_peer_is_the_checks_named_fail(capsys, monkeypatch):
    _fails_once_in_the_peer(monkeypatch, ValueError("planted in the peer"))
    reaped = _recorded_waitpid(monkeypatch)
    code = cli.main(["verify", "--trials", "20000", "--seed", "0"])
    out, err = capsys.readouterr()
    assert len(reaped) == 1 and os.WIFEXITED(reaped[0]) and os.WEXITSTATUS(reaped[0]) == 0
    assert code == 1
    assert err == ""
    assert ("interval_invariance: max_residual=nan tol=nan FAIL "
            "raised ValueError: planted in the peer\n") in out
    assert out.endswith("1 of 13 identity checks failed\n")
    _no_child_process_left()


def test_memory_error_in_the_peer_exits_2(capsys, monkeypatch):
    _fails_once_in_the_peer(monkeypatch, MemoryError("planted in the peer"))
    code = cli.main(["verify", "--trials", "20000", "--seed", "0"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: out of memory: planted in the peer\n"
    _no_child_process_left()


def test_a_peer_out_of_step_is_stopped_and_the_report_unchanged(monkeypatch):
    """A check that raises before its first block in the peer only skips a _map_blocks
    call there, so the peer's next message answers the next check: the calling process
    must not fold it into this one."""
    monkeypatch.setattr(verify, "_BLOCK", 1000)
    monkeypatch.setattr(verify, "_WORKERS", 1)
    serial = run_verification(trials=20_000, seed=5)
    real_sample, parent = verify._sample_matrices_and_metrics, os.getpid()

    def sample(rng, per_branch):
        pairs = real_sample(rng, per_branch)
        if os.getpid() != parent:
            raise ValueError("planted in the peer")
        return pairs

    monkeypatch.setattr(verify, "_sample_matrices_and_metrics", sample)
    monkeypatch.setattr(verify, "_WORKERS", 2)
    assert run_verification(trials=20_000, seed=5) == serial
    _no_child_process_left()


def test_a_peer_killed_in_its_first_block_leaves_the_report_unchanged(monkeypatch):
    """The calling process kills the peer with SIGKILL while both run their first
    block, and runs the peer's blocks itself: the report is the serial run's."""
    monkeypatch.setattr(verify, "_BLOCK", 1000)
    monkeypatch.setattr(verify, "_WORKERS", 1)
    serial = run_verification(trials=20_000, seed=5)
    real_fork, real_mat_vec, peers = os.fork, core.mat_vec, []

    def recorded_fork():
        pid = real_fork()
        peers.append(pid)
        return pid

    def mat_vec(m, c1, c2):
        if peers and peers[-1] > 0:
            os.kill(peers.pop(), signal.SIGKILL)
        return real_mat_vec(m, c1, c2)

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(core, "mat_vec", mat_vec)
    monkeypatch.setattr(verify, "_WORKERS", 2)
    assert run_verification(trials=20_000, seed=5) == serial
    assert peers == []
    _no_child_process_left()


@pytest.mark.parametrize("block", [7, 1 << 12, 1 << 14, 1 << 15, 1 << 17])
@pytest.mark.parametrize("trials", BOUNDARY_TRIALS)
def test_inputs_columns_are_the_uniform_draws_from_output_j_times_trials(monkeypatch, trials,
                                                                       block):
    """Joined over the blocks, column j is rng.uniform(low, high, trials) read from
    output j * trials, and the rng ends len(ranges) * trials outputs on."""
    monkeypatch.setattr(verify, "_BLOCK", block)
    ranges = ((-1.0, 1.0), (0.01, 1.0), (-0.99, 0.99))
    rng, reference = np.random.default_rng(3), np.random.default_rng(3)
    blocks = verify._map_blocks(verify._inputs(rng, trials, *ranges), trials)
    for j, (low, high) in enumerate(ranges):
        drawn = np.concatenate([columns[j] for columns in blocks])
        assert drawn.tobytes() == reference.uniform(low, high, trials).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


def _population_inputs(check, rng, trials):
    """The (c1, c2) that check's first sampled transform gets, drawn as one population,
    and how many transforms it samples after it."""
    if check is verify.check_light_cone_preservation:
        r, q = rng.uniform(0.01, 1.0, size=trials), rng.uniform(-1.0, 1.0, size=trials)
        c1 = np.where(q < 0.0, -r, r)
        return (c1, np.where(np.abs(q) < 0.5, -c1, c1)), \
            len(verify._sample_family_transforms(rng, 5))
    if check is verify.check_measured_speed_bound:
        v = rng.uniform(-0.99, 0.99, size=trials)
        for _ in range(5):
            verify._sample_w(rng)
        return (np.ones(trials), v), 5
    c1, c2 = rng.uniform(-1.0, 1.0, size=(2, trials))
    per_branch = 10 if check is verify.check_interval_invariance else 5
    return (c1, c2), len(verify._sample_matrices_and_metrics(rng, per_branch))


@pytest.mark.parametrize("seed", [0, 5, 1000])
@pytest.mark.parametrize("trials", BOUNDARY_TRIALS)
def test_block_inputs_are_the_whole_population_draws(monkeypatch, trials, seed):
    """Each block draws its own inputs from a copy of the rng placed where they start;
    they must be the slices of the population drawn whole, and the rng must end where
    that population left it, in its whole state.  The light cone's residual is exactly
    0.0, whatever its population."""
    seen = []
    real_mat_vec = core.mat_vec

    def recording_mat_vec(m, b1, b2):
        seen.append((b1, b2))
        return real_mat_vec(m, b1, b2)

    monkeypatch.setattr(core, "mat_vec", recording_mat_vec)
    for check in FUZZ_CHECKS:
        seen.clear()
        reference = np.random.default_rng(seed)
        population, transforms = _population_inputs(check, reference, trials)
        checked = np.random.default_rng(seed)
        result = check(checked, trials)
        assert result.passed, check.__name__
        if check is verify.check_light_cone_preservation:
            assert result.residual == 0.0
        first_transform = seen[::transforms]
        for i, column in enumerate(population):
            drawn = np.concatenate([np.broadcast_to(inputs[i], np.shape(inputs[1]))
                                    for inputs in first_transform])
            assert drawn.tobytes() == column.tobytes(), check.__name__
        assert checked.bit_generator.state == reference.bit_generator.state, check.__name__
    monkeypatch.setattr(core, "mat_vec", real_mat_vec)
    serial = run_verification(trials=trials, seed=seed)
    monkeypatch.setattr(verify, "_WORKERS", 2)
    assert run_verification(trials=trials, seed=seed) == serial


def test_verify_memory_is_bounded_per_trial():
    """numpy reports its buffers to tracemalloc, so this is a byte count, not
    a timing.  After a 1-trial run, which loads numpy.random, a 400,000-trial run
    holds one block of inputs and temporaries at a time, or the untouched chunk
    that _blocks frees, eight blocks' worth plus 256 bytes per block.  That reads
    3.9 B/trial with blocks of 2**14 trials; blocks of 2**15 read 7.3, above the
    bound.  While the refusal was a chunk of 16 bytes per trial the run read
    16.0, and with whole-population inputs 23.7."""
    trials = 400_000
    run_verification(trials=1, seed=0)
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
    assert (peak - before) / trials < 5.5


#: Runs ``verify --trials <argv[1]>`` as its one child and prints the child's
#: RUSAGE_CHILDREN ru_maxrss (KiB on Linux) and ru_minflt, its peer's included.  A
#: fresh process per run: the ru_maxrss a process reads for its children is the
#: largest of every child it has ever reaped.
_USAGE = """\
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "bilorentz.cli", "verify", "--trials", sys.argv[1]],
               stdout=subprocess.DEVNULL, check=True)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(usage.ru_maxrss, usage.ru_minflt)
"""


def _verify_usage(trials: int) -> tuple[int, int]:
    """(peak RSS in KiB, minor page faults) of a fresh ``verify --trials <trials>``
    process and its peer, read in a fresh wrapper process (Unix only)."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", _USAGE, str(trials)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return tuple(map(int, done.stdout.split()))


def test_verify_with_warnings_as_errors_prints_the_serial_report(monkeypatch):
    """A fresh verify process, which forks its peer on 2 or more CPUs: an unclosed
    pipe end would print a ResourceWarning to stderr when it is collected.  The
    process ends by os._exit, which collects nothing, so a pipe end that stays
    referenced to the end is left to the in-process test below."""
    monkeypatch.setattr(verify, "_WORKERS", 1)
    serial = format_report(run_verification(trials=100_000, seed=0)) + "\n"
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "bilorentz.cli", "verify",
                           "--trials", "100000"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == serial


def _children() -> set:
    """Pids of this process's children, read from /proc."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:     # gone since the listing
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
                pids.add(int(entry.name))
    return pids


@pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/fd").is_dir(),
                    reason="needs os.fork and /proc")
def test_a_run_with_a_peer_leaves_no_descriptor_warning_or_process(monkeypatch):
    """The peer's pipe end is closed, its context variable reset and the peer reaped
    before run_verification returns: this process has the descriptors and children
    it had before, and collecting its garbage warns of no unclosed file."""
    monkeypatch.setattr(verify, "_WORKERS", 2)
    fds, children = sorted(os.listdir("/proc/self/fd")), _children()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_verification(trials=100_000, seed=0)
        gc.collect()
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert _children() == children
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


#: Runs the bilorentz CLI on its arguments in a fresh process whose fuzz checks
#: would share their blocks with a peer, whatever its CPU count.
_TWO_WORKERS = """\
import sys
from bilorentz import cli, core, verify
verify._WORKERS = 2
{}
sys.exit(cli.main(sys.argv[1:]))
"""


#: Caps the address space of the process at 1 GiB more than it has after import, so
#: that a regression fails on a bare MemoryError rather than fill the machine.
_CAPPED = ("import resource\n"
           "vm = int(open('/proc/self/status').read().split('VmSize:')[1].split()[0])\n"
           "resource.setrlimit(resource.RLIMIT_AS, ((vm << 10) + (1 << 30),) * 2)\n")


def _capped_verify(trials: int, plant: str = "") -> subprocess.CompletedProcess:
    """``verify --trials <trials>`` in a fresh process that would fork a peer, its
    address space capped (see _CAPPED), after running plant."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", _TWO_WORKERS.format(_CAPPED + plant),
                           "verify", "--trials", str(trials)], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not hasattr(os, "fork") or sys.platform != "linux",
                    reason="needs os.fork and an enforced RLIMIT_AS")
def test_too_many_trials_for_a_peer_fail_at_once_on_the_population():
    """10**13 trials fail at once on the refusal, 256 bytes for each of their
    610,351,563 blocks, as they do without a peer, and not after listing the
    blocks.  While the refusal was a population-sized chunk, 16 bytes per trial,
    it read "Unable to allocate 146. TiB"."""
    start = time.monotonic()
    done = _capped_verify(10_000_000_000_000)
    assert time.monotonic() - start < 10
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: out of memory: Unable to allocate 146. GiB")
    assert done.stderr.count("\n") == 1


@pytest.mark.skipif(not hasattr(os, "fork") or sys.platform != "linux",
                    reason="needs os.fork and an enforced RLIMIT_AS")
def test_a_run_that_fits_gets_past_the_refusal():
    """10**8 trials hold one block of inputs and temporaries at a time, and the
    refusal asks for 2.6 MB, so they get to their first block under the cap; a
    population-sized refusal asked for 1.49 GiB and exited 2.  The planted error
    stops every fuzz check at its first block, so the run ends at once."""
    plant = ("real_mat_vec = core.mat_vec\n"
             "def mat_vec(m, c1, c2):\n"
             "    if not isinstance(c2, float):\n"
             "        raise RuntimeError('first block')\n"
             "    return real_mat_vec(m, c1, c2)\n"
             "core.mat_vec = mat_vec")
    done = _capped_verify(100_000_000, plant)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.count(" FAIL raised RuntimeError: first block\n") == 4


def _state(pid: int) -> str | None:
    """The state letter of process pid, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/stat").exists(),
                    reason="needs os.fork and /proc")
def test_a_peer_whose_caller_is_killed_leaves_before_its_next_block():
    """SIGKILL gives the calling process no chance to stop its peer; the peer finds
    its parent gone before its next block and exits.  Each of its blocks here takes
    about 0.2 s and its share of the first check about 20 s."""
    slow = ("import os, time\n"
            "real_fork, real_mat_vec = os.fork, core.mat_vec\n"
            "def fork():\n"
            "    pid = real_fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "def mat_vec(m, c1, c2):\n"
            "    if not isinstance(c2, float):\n"
            "        time.sleep(0.01)\n"
            "    return real_mat_vec(m, c1, c2)\n"
            "os.fork, core.mat_vec, verify._BLOCK = fork, mat_vec, 1000")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    caller = subprocess.Popen([sys.executable, "-c", _TWO_WORKERS.format(slow), "verify",
                               "--trials", "200000"], env=env, stdout=subprocess.PIPE,
                              text=True)
    peer = None
    try:
        peer = int(caller.stdout.readline())
        time.sleep(0.3)
        assert _state(peer) not in (None, "Z")
        caller.kill()
        caller.wait(30)
        deadline = time.monotonic() + 10
        while _state(peer) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _state(peer) in (None, "Z"), "the peer outlived its killed caller"
    finally:
        caller.kill()
        caller.wait(30)
        caller.stdout.close()
        if peer is not None and _state(peer) not in (None, "Z"):
            os.kill(peer, signal.SIGKILL)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's faults")
def test_fuzz_blocks_do_not_refault_their_temporaries():
    """A count, not a timing: the faults a fresh 400,000-trial run takes beyond a
    1-trial run, and those of a 1,600,000-trial run.  Each process's block inputs
    and temporaries fault in once, in the calling process and in its peer (about
    1,800 pages in all, at either size, and 2,600-2,700 with blocks of 2**15 trials);
    temporaries that glibc hands back to the kernel after each block, to fault them
    in again for the next one, took over 20,000 more.  While each process drew whole
    populations, 16 bytes per trial, the extra faults grew with the trial count:
    about 3,700 at 400,000 trials and 9,800 at 4,000,000.  The process ends by
    os._exit: the teardown of an interpreter that has forked writes to pages the
    fork made copy-on-write, and took about 3,300 more."""
    base = _verify_usage(1)[1]
    extra = _verify_usage(400_000)[1] - base
    assert extra < 10_000, f"{extra} more minor faults at 400,000 trials than at 1"
    more = _verify_usage(1_600_000)[1] - base
    assert abs(more - extra) < 1_000, f"{more} at 1,600,000 trials, {extra} at 400,000"


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
def test_verify_peak_memory_does_not_grow_with_trials():
    """No array grows with the trial count: each block draws its own inputs.  While
    each process drew whole populations, 16 bytes per trial, 1,600,000 trials peaked
    about 24 MB above 100,000; now both peak at about 36 MB, and at about 38 MB with
    blocks of 2**15 trials."""
    small, large = _verify_usage(100_000)[0], _verify_usage(1_600_000)[0]
    assert abs(large - small) < 2048, f"{large} KiB at 1,600,000 trials, {small} at 100,000"


def test_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        run_verification(trials=0)
