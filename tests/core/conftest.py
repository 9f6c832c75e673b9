"""Shared helpers: a tiny testbed and a serial sweep so core tests stay fast."""

from repro.core import TestbedConfig
from repro.mapreduce import MB, JobConfig
from repro.runner import SweepJobRunner, SweepRunner
from repro.virt import ClusterConfig, PageCacheParams, SchedulerPair
from repro.workloads import SORT


def tiny_testbed(seeds=(0,), n_phases=2, **job_overrides):
    """2 hosts x 2 VMs, 32 MB per VM: a job runs in <1 s of wall time."""
    cluster = ClusterConfig(
        hosts=2,
        vms_per_host=2,
        pagecache=PageCacheParams(
            capacity_bytes=40 * MB,
            dirty_background_bytes=2 * MB,
            dirty_limit_bytes=8 * MB,
        ),
    )
    job = JobConfig(
        spec=SORT,
        bytes_per_vm=32 * MB,
        block_size=8 * MB,
        sort_buffer_bytes=8 * MB,
        shuffle_buffer_bytes=8 * MB,
        **job_overrides,
    )
    return TestbedConfig(cluster=cluster, job=job, seeds=seeds,
                         n_phases=n_phases)


def serial_sweep():
    """A private in-process sweep: no worker pool, no on-disk cache."""
    return SweepRunner(jobs=1, use_cache=False)


def local_runner(config):
    """A plan runner over its own :func:`serial_sweep`."""
    return SweepJobRunner(config, serial_sweep())


#: A small pair subset used by search tests (4 plans at P=2 -> 16).
SEARCH_PAIRS = [
    SchedulerPair("cfq", "cfq"),
    SchedulerPair("anticipatory", "cfq"),
    SchedulerPair("deadline", "cfq"),
    SchedulerPair("noop", "cfq"),
]
