"""The job-execution harness: run a MapReduce job under a phase plan.

Every run builds a fresh simulated testbed (environment, cluster,
network, HDFS) so runs are independent — the analogue of the paper's
freshly prepared cluster per measurement — and results are averaged
over the configured seeds ("average of three consecutive runs").

:func:`assemble_job` is the one place a single-job testbed is wired
(environment, cluster, network, HDFS, job, then the fault injector);
:func:`run_job` is the one single-job run path, with optional faults
and online controller carried on the :class:`TestbedConfig`.  Plans
are evaluated over seeds, and memoised, by
:class:`~repro.runner.adapter.SweepJobRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import mean
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..disk.backend import resolve_storage
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..hdfs.blocks import DEFAULT_REPLICATION
from ..hdfs.namenode import NameNode
from ..mapreduce.job import JobConfig
from ..mapreduce.jobtracker import MapReduceJob
from ..mapreduce.phases import JobResult
from ..net.topology import Topology
from ..sim.core import Environment
from ..sim.tracing import TraceBus
from ..virt.cluster import ClusterConfig, VirtualCluster
from ..workloads.sysbench import SysbenchSeqWrite
from .solution import Solution

if TYPE_CHECKING:  # pragma: no cover
    from ..ctrl.config import CtrlConfig

__all__ = [
    "TestbedConfig",
    "RunOutcome",
    "run_job",
    "JobAssembly",
    "assemble_cluster",
    "assemble_job",
]


@dataclass(frozen=True)
class TestbedConfig:
    """A complete experiment setup: cluster + job + methodology."""

    __test__ = False  # not a pytest test class despite the name

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    job: JobConfig = None  # type: ignore[assignment]
    #: Root seeds; results are averaged across them (paper: 3 runs).
    seeds: Tuple[int, ...] = (0, 1, 2)
    #: Number of phases the meta-scheduler divides the job into.  The
    #: paper uses 2 in its evaluation (Ph2 folded into Ph3 at 4 waves).
    n_phases: int = 2
    #: Fault-injection plan for every run; ``None`` keeps runs
    #: fault-free (and their payloads without a ``faults`` key).
    faults: Optional[FaultPlan] = None
    #: Online controller (:mod:`repro.ctrl`); ``None`` runs the plan
    #: as given (and the payload has no ``ctrl`` key).
    ctrl: Optional["CtrlConfig"] = None

    def __post_init__(self) -> None:
        if self.job is None:
            raise ValueError("TestbedConfig requires a job config")
        if self.n_phases not in (2, 3):
            raise ValueError("n_phases must be 2 or 3")
        if not self.seeds:
            raise ValueError("at least one seed required")

    def with_(self, **changes) -> "TestbedConfig":
        return replace(self, **changes)


@dataclass
class RunOutcome:
    """Aggregated outcome of one plan over all seeds."""

    solution: Solution
    results: List[JobResult]
    #: Per-run wall-clock stall spent inside elevator switches.
    switch_stalls: List[float] = field(default_factory=list)

    @property
    def mean_duration(self) -> float:
        return mean(r.duration for r in self.results)

    @property
    def mean_phases(self) -> Tuple[float, ...]:
        """Mean per-phase durations, folded to the plan's phase count."""
        n = len(self.solution)
        rows = [self._fold(r, n) for r in self.results]
        return tuple(mean(col) for col in zip(*rows))

    @staticmethod
    def _fold(result: JobResult, n_phases: int) -> Tuple[float, ...]:
        p = result.phases
        if n_phases == 2:
            return (p.ph1, p.ph2 + p.ph3)
        return (p.ph1, p.ph2, p.ph3)


@dataclass
class JobAssembly:
    """Everything one simulated MapReduce run is built from.

    ``env.run(until=assembly.start())`` executes the job; the other
    members stay reachable for instrumentation (per-device stats,
    controller attachment, elevator knockouts) between assembly and run.
    """

    env: Environment
    cluster: VirtualCluster
    topology: Topology
    namenode: NameNode
    job: MapReduceJob

    def start(self):
        """Launch the job, then the injector its fault plan calls for.

        Returns the job process.  The order is part of the run's
        identity: process creation order fixes the order of same-time
        events, so anything attached later (switcher, controller,
        background load) must be created after this call.
        """
        job = self.job
        proc = job.start()
        plan = job.fault_plan
        if plan is not None and plan.is_active:
            FaultInjector(self.env, self.cluster, plan, manager=job.attempts,
                          trace=job.trace, stats=job.extra_fault_stats)
        return proc


def assemble_cluster(
    cluster_config: ClusterConfig,
    seed: Optional[int] = None,
    trace=None,
    storage: Optional[str] = None,
) -> Tuple[Environment, VirtualCluster]:
    """Fresh environment + virtual cluster (the bottom half of a run).

    ``storage`` overrides the config's backend by registry name
    (hdd/ssd/hybrid); unknown names raise
    :class:`~repro.disk.backend.UnknownStorageError` listing what is
    registered.
    """
    env = Environment(trace=trace)
    if seed is not None:
        cluster_config = cluster_config.with_(seed=seed)
    if storage is not None:
        cluster_config = cluster_config.with_(storage=resolve_storage(storage))
    cluster = VirtualCluster(env, cluster_config, trace=trace)
    return env, cluster


def assemble_job(
    cluster_config: ClusterConfig,
    job_config: JobConfig,
    seed: Optional[int] = None,
    trace=None,
    fault_plan: Optional[FaultPlan] = None,
    replication: int = DEFAULT_REPLICATION,
) -> JobAssembly:
    """Wire up one MapReduce run: env, cluster, network, HDFS, job.

    The single place a single-job testbed is built;
    :meth:`JobAssembly.start` adds the fault injector.
    """
    env, cluster = assemble_cluster(cluster_config, seed=seed, trace=trace)
    topology = Topology(env)
    namenode = NameNode(cluster, block_size=job_config.block_size,
                        replication=replication)
    job = MapReduceJob(env, cluster, topology, namenode, job_config,
                       trace=trace, fault_plan=fault_plan)
    return JobAssembly(env=env, cluster=cluster, topology=topology,
                       namenode=namenode, job=job)


def _static_ctrl_report(ctrl: "CtrlConfig", n_phases: int) -> Dict:
    """The ``ctrl`` report of a run whose CtrlConfig names no policy."""
    return {
        "policy": "static",
        "initial": ctrl.initial,
        "plan": [ctrl.initial] * n_phases,
        "detections": [],
        "decisions": [],
        "switches": [],
        "n_switches": 0,
        "switch_stall": 0.0,
        "state": [],
    }


def run_job(testbed: TestbedConfig, solution: Solution, seed: int,
            trace: Optional[TraceBus] = None) -> Tuple[JobResult, float]:
    """One simulated run of ``solution``: ``(job result, switch stall)``.

    With ``testbed.ctrl`` set, the online controller (not the plan)
    switches pairs, so the plan must be the uniform plan of
    ``ctrl.initial``; its report lands in ``result.ctrl``.  ``trace``
    is the bus every component publishes to (instrumented runs).
    """
    if len(solution) != testbed.n_phases:
        raise ValueError(
            f"plan has {len(solution)} phases, testbed expects "
            f"{testbed.n_phases}"
        )
    ctrl = testbed.ctrl
    if ctrl is not None and solution != ctrl.solution(testbed.n_phases):
        raise ValueError(
            f"a controlled run takes the uniform plan of its initial "
            f"pair {ctrl.initial!r}, got [{solution}]: two switch "
            "drivers cannot act on one run"
        )
    controlled = ctrl is not None and ctrl.policy is not None
    if trace is None and controlled:
        trace = TraceBus()  # the controller's private signal bus
    parts = assemble_job(
        testbed.cluster.with_(initial_pair=solution.assignments[0]),
        testbed.job, seed=seed, trace=trace, fault_plan=testbed.faults,
        replication=testbed.job.replication,
    )
    env, cluster = parts.env, parts.cluster
    proc = parts.start()

    stall_total = [0.0]
    if solution.n_switches > 0:
        env.process(_switcher(env, cluster, parts.job, testbed.n_phases,
                              solution, stall_total))
    controller = _attach_controller(env, cluster, trace, testbed) \
        if controlled else None
    if ctrl is not None and ctrl.interference_bytes > 0:
        # Background co-tenant write stream (fig-ctrl's interference
        # condition); it may still be running when the job completes.
        SysbenchSeqWrite(env, cluster,
                         total_bytes=ctrl.interference_bytes).start()

    env.run(until=proc)
    result: JobResult = proc.value
    # Backend counters ride on the result; all-HDD clusters report
    # nothing, so their payloads stay bit-identical.
    result.storage = cluster.storage_stats()
    if controller is not None:
        controller.policy.learn(result.duration)
        result.ctrl = controller.report()
        result.ctrl["state"] = [
            list(row) for row in controller.policy.export_state()
        ]
        return result, controller.switch_stall
    if ctrl is not None:
        result.ctrl = _static_ctrl_report(ctrl, testbed.n_phases)
    return result, stall_total[0]


def _attach_controller(env, cluster, bus: TraceBus, testbed: TestbedConfig):
    """The online adaptive controller ``testbed.ctrl`` describes."""
    # Imported here: repro.ctrl imports the core package.
    from ..ctrl import SIGNAL_TOPICS, OnlineAdaptiveController, make_policy
    from ..obs.metrics import TraceMetrics

    ctrl = testbed.ctrl
    metrics = TraceMetrics()
    metrics.attach(bus, topics=SIGNAL_TOPICS)
    policy = make_policy(ctrl, rng=cluster.rng.stream("ctrl.bandit"))
    return OnlineAdaptiveController(
        env, cluster, bus, metrics.registry, policy, ctrl,
        n_phases=testbed.n_phases,
    )


def _switcher(env, cluster, job: MapReduceJob, n_phases: int,
              solution: Solution, stall_total):
    """Fires the plan's switches at the phase boundaries."""
    boundaries = [job.maps_done_event]
    if n_phases == 3:
        boundaries.append(job.shuffle_done_event)
    for boundary, assignment in zip(boundaries, solution.assignments[1:]):
        yield boundary
        if assignment is None:
            continue
        start = env.now
        yield cluster.set_pair(assignment)
        stall_total[0] += env.now - start
