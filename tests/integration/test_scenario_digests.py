"""Golden payload digests of seven scenarios covering the simulator's hot paths.

Each scenario is a fixed list of :class:`~repro.runner.spec.RunSpec`s
with every size parameter explicit (``$REPRO_SCALE`` cannot move them).
Its digest is the sha256 of the canonical JSON of the payload list,
after the same JSON round-trip the sweep runner applies, so it covers
exactly the bytes a cache hit would return.  A change that makes the
simulator faster must leave every digest here unchanged.

* ``sysbench``         — raw two-level block I/O, no MapReduce (Fig. 1);
* ``fig2_single_pair`` — one sort job under (AS, DL), the per-pair
  profiling unit the paper's sweeps repeat 16×3 times (Fig. 2);
* ``sort``             — the reference sort job at the default 0.25
  scale (Fig. 8);
* ``faulty_job``       — sort under the LIGHT fault plan (fault
  machinery and speculative re-execution on the hot path, Fig. 9);
* ``scale_sweep``      — an 8-host × 4-VM cluster at two scales;
* ``ssd_sort``         — the sort job on the FTL SSD backend;
* ``multijob``         — a Poisson stream of three concurrent sort jobs
  over shared slots.
"""

import json
from typing import Callable, Dict, List, Tuple

import pytest

from repro.api import MultiJobScenario, scaled_cluster, scaled_testbed
from repro.core.solution import Solution
from repro.faults.presets import LIGHT
from repro.runner.kinds import execute_spec
from repro.runner.spec import RunSpec
from repro.virt.pair import DEFAULT_PAIR, SchedulerPair
from repro.workloads.profiles import SORT
from tests.integration.test_golden_digest import digest

MB = 1024 * 1024


def _job(testbed, pair=DEFAULT_PAIR) -> RunSpec:
    return RunSpec(kind="job", seed=0,
                   config=(testbed, Solution.uniform(pair, 2)))


def _sysbench() -> List[RunSpec]:
    cluster = scaled_cluster(0.125, hosts=1, vms_per_host=3, seed=0)
    return [RunSpec(kind="sysbench", seed=0,
                    config=(cluster, 128 * MB, 16, 3))]


def _fig2_single_pair() -> List[RunSpec]:
    return [_job(scaled_testbed(SORT, scale=0.125, seeds=(0,)),
                 SchedulerPair.parse("ad"))]


def _sort() -> List[RunSpec]:
    return [_job(scaled_testbed(SORT, scale=0.25, seeds=(0,)))]


def _faulty_job() -> List[RunSpec]:
    return [_job(scaled_testbed(SORT, scale=0.125, hosts=2, vms_per_host=2,
                                seeds=(0,)).with_(faults=LIGHT))]


def _scale_sweep() -> List[RunSpec]:
    return [_job(scaled_testbed(SORT, scale=scale, hosts=8, vms_per_host=4,
                                seeds=(0,)))
            for scale in (0.05, 0.1)]


def _ssd_sort() -> List[RunSpec]:
    return [_job(scaled_testbed(SORT, scale=0.125, hosts=2, vms_per_host=2,
                                seeds=(0,), storage="ssd"))]


def _multijob() -> List[RunSpec]:
    return [MultiJobScenario(
        workload="sort", scale=0.05, hosts=2, vms_per_host=2,
        scheduler="fifo", n_jobs=3, arrival_rate=0.2,
        tenants=("tenant-a", "tenant-b"),
    ).to_spec(seed=0)]


#: name -> (spec builder, sha256 of the canonical JSON payload list).
#: ``scale_sweep``'s block size is not a multiple of its reducer count,
#: so its digest moved with the exact partition-extent shuffle fix; the
#: power-of-two scenarios were bit-unchanged by it.
SCENARIOS: Dict[str, Tuple[Callable[[], List[RunSpec]], str]] = {
    "sysbench": (_sysbench, (
        "807588de7f83658619ad156497003d59"
        "414bd87718885651c16f5b98dacf483d")),
    "fig2_single_pair": (_fig2_single_pair, (
        "6782ee4b657aabb0815958e1d347173f"
        "153e20bb21acd3a8ec0c2d657e9d25ab")),
    "sort": (_sort, (
        "7ddef559088cb6d537f2f842fa8a4768"
        "4a107a3cd8710e473471e754059658ef")),
    "faulty_job": (_faulty_job, (
        "4c76ebed07454d3e3494b3baedf149a4"
        "aac941eca5d928e51d33f6d357c478eb")),
    "scale_sweep": (_scale_sweep, (
        "c06656eeb5b563a428941a9148fd4c92"
        "9786c545dc6697f3769b38584c319f04")),
    "ssd_sort": (_ssd_sort, (
        "1baaf7e573eee7d9963ae304753c16a5"
        "1955b0c471d5c8776052039de979ab42")),
    "multijob": (_multijob, (
        "61760cb1a9cbc7773a7b31b38ec707ec"
        "af828956fa5870dda612926741f4c163")),
}


def payload_digest(payloads: List[dict]) -> str:
    """Digest of a scenario's payload list after the JSON round-trip."""
    return digest(json.loads(json.dumps(payloads, sort_keys=True)))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden_digest(name):
    make_specs, expected = SCENARIOS[name]
    payloads = [execute_spec(spec) for spec in make_specs()]
    assert payload_digest(payloads) == expected
