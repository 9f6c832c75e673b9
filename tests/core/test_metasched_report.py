"""Unit tests for AdaptiveReport and meta-scheduler caching."""

import pytest

from repro.core import AdaptiveMetaScheduler, AdaptiveReport, Solution
from repro.core.heuristic import ProfiledScores
from repro.runner import SweepJobRunner, default_runner
from repro.virt import SchedulerPair

from .conftest import SEARCH_PAIRS, local_runner, tiny_testbed

CC, AC, DC, NC = SEARCH_PAIRS


def fake_report(default=100.0, single=90.0, adaptive=80.0) -> AdaptiveReport:
    return AdaptiveReport(
        default_pair=CC,
        default_time=default,
        best_single_pair=AC,
        best_single_time=single,
        adaptive_solution=Solution((AC, DC)),
        adaptive_time=adaptive,
        evaluations=12,
        scores=ProfiledScores(totals={CC: default, AC: single},
                              per_phase={CC: (50, 50), AC: (45, 45)}),
    )


def test_gains_computed_correctly():
    rep = fake_report()
    assert rep.gain_vs_default == pytest.approx(0.2)
    assert rep.gain_vs_best_single == pytest.approx(1 - 80 / 90)


def test_summary_mentions_everything():
    text = fake_report().summary()
    assert "(CFQ, CFQ)" in text
    assert "(AS, CFQ)" in text
    assert "adaptive" in text
    assert "%" in text


def meta_scheduler(pairs):
    config = tiny_testbed()
    return AdaptiveMetaScheduler(config, pairs=pairs,
                                 runner=local_runner(config))


def test_meta_scheduler_defaults_to_shared_sweep_runner():
    meta = AdaptiveMetaScheduler(tiny_testbed())
    assert isinstance(meta.runner, SweepJobRunner)
    assert meta.runner.sweep is default_runner()


def test_meta_scheduler_caches_profile_and_search():
    meta = meta_scheduler(SEARCH_PAIRS[:2])
    p1 = meta.profile()
    p2 = meta.profile()
    assert p1 is p2
    s1 = meta.optimize()
    s2 = meta.optimize()
    assert s1 is s2


def test_meta_scheduler_report_consistent_with_runner():
    meta = meta_scheduler(SEARCH_PAIRS[:2])
    rep = meta.report()
    assert rep.adaptive_time <= rep.best_single_time * 1.05
    assert rep.evaluations >= len(SEARCH_PAIRS[:2])
    # The adaptive plan really evaluates to the reported time.
    assert meta.runner.score(rep.adaptive_solution) == pytest.approx(
        rep.adaptive_time
    )


def test_report_includes_default_even_outside_candidates():
    # Candidate set without (CFQ, CFQ): the default baseline must still
    # be measured for the comparison.
    meta = meta_scheduler([AC, DC])
    rep = meta.report()
    assert rep.default_pair == CC
    assert rep.default_time > 0
