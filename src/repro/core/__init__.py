"""The paper's contribution: adaptive disk-pair scheduling for MapReduce.

Public surface::

    config = TestbedConfig(cluster=ClusterConfig(), job=JobConfig(spec=SORT))
    meta = AdaptiveMetaScheduler(config)
    report = meta.report()
    print(report.summary())

Plans are evaluated only through the sweep-backed plan runners
(:class:`~repro.runner.SweepJobRunner`/:class:`~repro.runner.SweepChainRunner`,
the meta-scheduler's default); :func:`run_job`/:func:`run_chain` are
the single simulated runs behind their ``job``/``chain`` specs.
"""

from .bruteforce import BruteForceSearch, enumerate_solutions
from .chains import ChainConfig, ChainOutcome, run_chain
from .experiment import RunOutcome, TestbedConfig, run_job
from .heuristic import (
    HeuristicSearch,
    ProfiledScores,
    SearchResult,
    profile_single_pairs,
)
from .metasched import AdaptiveMetaScheduler, AdaptiveReport
from .online import OnlineController, OnlinePolicy, Regime
from .solution import Solution
from .switch_cost import SwitchCostMatrix, SwitchCostMeter, SwitchCostModel

__all__ = [
    "AdaptiveMetaScheduler",
    "AdaptiveReport",
    "BruteForceSearch",
    "ChainConfig",
    "ChainOutcome",
    "OnlineController",
    "OnlinePolicy",
    "Regime",
    "HeuristicSearch",
    "ProfiledScores",
    "RunOutcome",
    "SearchResult",
    "Solution",
    "SwitchCostMatrix",
    "SwitchCostMeter",
    "SwitchCostModel",
    "TestbedConfig",
    "enumerate_solutions",
    "profile_single_pairs",
    "run_chain",
    "run_job",
]
