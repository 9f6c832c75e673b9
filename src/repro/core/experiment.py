"""The job-execution harness: run a MapReduce job under a phase plan.

Every run builds a fresh simulated testbed (environment, cluster,
network, HDFS) so runs are independent — the analogue of the paper's
freshly prepared cluster per measurement — and results are averaged
over the configured seeds ("average of three consecutive runs").

:func:`assemble_job` is the one place a single-job testbed is wired
(environment, cluster, network, HDFS, job, then the fault injector);
:meth:`JobRunner.execute_once` is the one single-job run path, with
optional faults and online controller carried on the
:class:`TestbedConfig`.
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
from ..virt.pair import SchedulerPair
from ..workloads.sysbench import SysbenchSeqWrite
from .solution import Solution

if TYPE_CHECKING:  # pragma: no cover
    from ..ctrl.config import CtrlConfig

__all__ = [
    "TestbedConfig",
    "RunOutcome",
    "JobRunner",
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


class JobRunner:
    """Executes plans on freshly built testbeds and caches outcomes."""

    def __init__(self, config: TestbedConfig,
                 trace: Optional[TraceBus] = None):
        self.config = config
        #: Optional bus every run publishes to (instrumented runs).
        self.trace = trace
        self._cache: Dict[Solution, RunOutcome] = {}
        self.runs_executed = 0

    # -- public API ---------------------------------------------------------------
    def run_uniform(self, pair: SchedulerPair) -> RunOutcome:
        return self.run_plan(Solution.uniform(pair, self.config.n_phases))

    def run_plan(self, solution: Solution) -> RunOutcome:
        if len(solution) != self.config.n_phases:
            raise ValueError(
                f"plan has {len(solution)} phases, testbed expects "
                f"{self.config.n_phases}"
            )
        cached = self._cache.get(solution)
        if cached is not None:
            return cached
        results: List[JobResult] = []
        stalls: List[float] = []
        for seed in self.config.seeds:
            result, stall = self.execute_once(solution, seed)
            results.append(result)
            stalls.append(stall)
        outcome = RunOutcome(solution=solution, results=results,
                             switch_stalls=stalls)
        self._cache[solution] = outcome
        return outcome

    def score(self, solution: Solution) -> float:
        """The paper's ``Hadoop_time``: mean job duration for a plan."""
        return self.run_plan(solution).mean_duration

    # -- one simulated run -------------------------------------------------------------
    def execute_once(self, solution: Solution, seed: int) -> Tuple[JobResult, float]:
        """One uncached simulated run: ``(job result, switch stall)``.

        With ``config.ctrl`` set, the online controller (not the plan)
        switches pairs, so the plan must be the uniform plan of
        ``ctrl.initial``; its report lands in ``result.ctrl``.
        """
        cfg = self.config
        ctrl = cfg.ctrl
        if ctrl is not None and solution != ctrl.solution(cfg.n_phases):
            raise ValueError(
                f"a controlled run takes the uniform plan of its initial "
                f"pair {ctrl.initial!r}, got [{solution}]: two switch "
                "drivers cannot act on one run"
            )
        self.runs_executed += 1
        controlled = ctrl is not None and ctrl.policy is not None
        trace = self.trace
        if trace is None and controlled:
            trace = TraceBus()  # the controller's private signal bus
        parts = assemble_job(
            cfg.cluster.with_(initial_pair=solution.assignments[0]), cfg.job,
            seed=seed, trace=trace, fault_plan=cfg.faults,
            replication=cfg.job.replication,
        )
        env, cluster = parts.env, parts.cluster
        proc = parts.start()

        stall_total = [0.0]
        if solution.n_switches > 0:
            env.process(self._switcher(env, cluster, parts.job, solution,
                                       stall_total))
        controller = self._attach_controller(env, cluster, trace) \
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
            result.ctrl = _static_ctrl_report(ctrl, cfg.n_phases)
        return result, stall_total[0]

    def _attach_controller(self, env, cluster, bus: TraceBus):
        """The online adaptive controller ``config.ctrl`` describes."""
        # Imported here: repro.ctrl imports the core package.
        from ..ctrl import SIGNAL_TOPICS, OnlineAdaptiveController, make_policy
        from ..obs.metrics import TraceMetrics

        ctrl = self.config.ctrl
        metrics = TraceMetrics()
        metrics.attach(bus, topics=SIGNAL_TOPICS)
        policy = make_policy(ctrl, rng=cluster.rng.stream("ctrl.bandit"))
        return OnlineAdaptiveController(
            env, cluster, bus, metrics.registry, policy, ctrl,
            n_phases=self.config.n_phases,
        )

    def _switcher(self, env, cluster, job: MapReduceJob, solution: Solution,
                  stall_total):
        """Fires the plan's switches at the phase boundaries."""
        boundaries = [job.maps_done_event]
        if self.config.n_phases == 3:
            boundaries.append(job.shuffle_done_event)
        for boundary, assignment in zip(boundaries, solution.assignments[1:]):
            yield boundary
            if assignment is None:
                continue
            start = env.now
            yield cluster.set_pair(assignment)
            stall_total[0] += env.now - start
