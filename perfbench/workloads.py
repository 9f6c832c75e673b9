"""The benchmark's workloads: which scenarios one pass runs, from a seed.

A workload turns the benchmark's ``--seed`` into a list of
``repro.api`` scenarios plus the ``RunSpec`` seeds they run under; the
program only ever sees the generated specs.  Nothing here imports
``repro`` at module level, so ``run.py`` can list workloads without
loading the simulator.

Seed 0 of every workload is digest-pinned in ``golden.json`` (one
sha256 per simulation, in pass order).  The first ``sort_hdd`` entry is
the ``repro bench`` ``sort`` golden digest and the first ``sort_ssd``
entry is its ``ssd_sort`` golden digest: the same spec, the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

#: Largest sweep pool any workload uses: the machine's CPU count, but
#: never more than two workers, so a run fits a small sandbox.
MAX_POOL = 2

#: ``repro bench`` golden digests that seed 0 must reproduce exactly.
REPO_GOLDEN = {
    "sort_hdd": "7ddef559088cb6d537f2f842fa8a47684a107a3cd8710e473471e754059658ef",
    "sort_ssd": "1baaf7e573eee7d9963ae304753c16a51955b0c471d5c8776052039de979ab42",
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``seed -> (scenarios, run seeds)``; a pass is ``sweep(scenarios,
    #: seeds)``, i.e. every scenario under every run seed.
    build: Callable[[int], Tuple[List[object], Tuple[int, ...]]]
    #: Fan the pass out over the sweep pool (else run it inline).
    pool: bool = False
    #: Run the pass with the program's own trace capture on.
    capture: bool = False
    #: Time each simulation as a pass of its own (cycling through them)
    #: instead of the whole list as one pass.
    split: bool = False

    def jobs(self) -> int:
        if not self.pool:
            return 1
        return max(1, min(MAX_POOL, len(os.sched_getaffinity(0))))


def _run_seeds(seed: int, per_pass: int) -> Tuple[int, ...]:
    """``per_pass`` consecutive run seeds; seed 0 starts at run seed 0."""
    return tuple(range(seed * per_pass, (seed + 1) * per_pass))


def _sort_hdd(seed: int):
    from repro.api import Scenario

    # The reference sort job: 4x4 testbed, scale 0.25, stock (cfq, cfq).
    return [Scenario(workload="sort", scale=0.25)], _run_seeds(seed, 3)


def _sort_ssd(seed: int):
    from repro.api import Scenario

    sc = Scenario(workload="sort", scale=0.125, hosts=2, vms_per_host=2,
                  storage="ssd")
    return [sc], _run_seeds(seed, 3)


def _pair_sweep(seed: int):
    from repro.api import Scenario

    # The fig2 study: 16 (VMM, VM) pairs x the paper's three jobs.
    elevators = "acdn"
    scenarios = [
        Scenario(workload=job, scale=0.1, hosts=2, vms_per_host=2,
                 pair=vmm + vm)
        for job in ("sort", "wordcount", "wordcount-nocombiner")
        for vmm in elevators
        for vm in elevators
    ]
    return scenarios, (seed,)


def _control_traced(seed: int):
    from repro.api import ControlledScenario, MultiJobScenario
    from repro.workloads.arrivals import SizeClass

    # Four equal-sized sort jobs: the arrival times still vary with the
    # seed, but a heavy-tailed size mix would make the pass's work (and
    # so its wall time) swing by half from one seed to the next.
    scenarios: List[object] = [
        MultiJobScenario(workload="sort", scale=0.05, hosts=2,
                         vms_per_host=2, scheduler="fair", n_jobs=4,
                         arrival_rate=0.2, switch=("ad", "cc"),
                         size_mix=(SizeClass("sort", 1.0, 1.0),)),
    ]
    for policy in ("greedy", "hysteresis", "bandit"):
        plan = {} if policy == "bandit" else {
            "initial": "ad", "phase_pairs": ("ad", "cc")}
        scenarios.append(ControlledScenario(
            workload="sort", scale=0.1, hosts=2, vms_per_host=2,
            controller=policy, **plan))
    return scenarios, (seed,)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sort_hdd", _sort_hdd, split=True),
        Workload("sort_ssd", _sort_ssd, split=True),
        Workload("pair_sweep", _pair_sweep, pool=True),
        Workload("control_traced", _control_traced, capture=True),
    )
}


def specs(workload: Workload, seed: int) -> List[object]:
    """The pass's ``RunSpec`` list, in the order ``repro.api.sweep`` runs it."""
    scenarios, seeds = workload.build(seed)
    return [sc.to_spec(s) for sc in scenarios for s in seeds]


def groups(workload: Workload, seed: int):
    """The timed passes, as ``(first spec index, scenarios, run seeds)``."""
    scenarios, seeds = workload.build(seed)
    if not workload.split:
        return [(0, scenarios, seeds)]
    return [(i * len(seeds) + j, [sc], (s,))
            for i, sc in enumerate(scenarios) for j, s in enumerate(seeds)]


def flatten(nested: Sequence[Sequence[object]]) -> List[object]:
    return [payload for per_scenario in nested for payload in per_scenario]
