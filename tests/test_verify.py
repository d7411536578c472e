"""Verification engine behaviour."""

import numpy as np
import pytest

from bilorentz import core, verify
from bilorentz.verify import format_report, run_verification


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
    fuzz = (verify.check_interval_invariance, verify.check_light_cone_preservation,
            verify.check_causal_class_absoluteness, verify.check_measured_speed_bound)
    assert not all(check(rng, 2000).passed for check in fuzz)


def test_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        run_verification(trials=0)
