"""The offline-optimal regret oracle — the controller's correctness spec.

Regret is defined against exhaustive enumeration: run every distinct
static per-phase plan (``enumerate_solutions`` over a pair set) through
the *same* controlled ``job`` specs a policy uses, take the best
duration as the offline optimum, and charge each policy

    ``regret(policy) = duration(policy) - duration(optimum)``.

Because static plans execute as greedy-controlled runs with identical
specs, the optimum lower-bounds every policy by construction — a
policy's trajectory for plan *P* IS the static run of *P*.  That makes
the oracle a test harness, not just a metric: any policy whose regret
goes negative has broken determinism somewhere.

This module is pure bookkeeping (no simulation, no runner imports);
experiments and tests supply the durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.bruteforce import enumerate_solutions
from ..core.solution import Solution
from ..virt.pair import SchedulerPair
from .config import CtrlConfig

__all__ = [
    "OracleResult",
    "plan_labels",
    "enumerate_static_plans",
    "static_ctrl_config",
    "payload_duration",
    "build_oracle",
]


def plan_labels(solution: Solution) -> Tuple[str, ...]:
    """A solution's effective pair labels, one per phase."""
    return tuple(pair.label for pair in solution.effective())


def enumerate_static_plans(
    pairs: Sequence[SchedulerPair], n_phases: int
) -> List[Tuple[str, ...]]:
    """Every distinct effective plan over ``pairs``, as label tuples."""
    return [plan_labels(sol) for sol in enumerate_solutions(pairs, n_phases)]


def static_ctrl_config(plan: Sequence[str],
                       base: CtrlConfig = CtrlConfig()) -> CtrlConfig:
    """A greedy config that executes ``plan`` through the controller.

    Static oracle entries run as greedy-controlled jobs (initial pair =
    phase 0, plan followed verbatim, no dwell) so their specs — and
    trajectories — are identical to what the greedy policy produces for
    the same plan.
    """
    plan = tuple(plan)
    if not plan:
        raise ValueError("plan must name at least one phase")
    return base.with_(policy="greedy", initial=plan[0], phase_pairs=plan,
                      dwell=0.0)


def payload_duration(payload: Dict) -> float:
    """Job duration from a ``job`` payload."""
    phases = payload["phases"]
    return phases["end"] - phases["start"]


@dataclass(frozen=True)
class OracleResult:
    """The enumerated static landscape and its optimum."""

    #: Enumerated plans, as label tuples, in enumeration order.
    plans: Tuple[Tuple[str, ...], ...]
    #: Mean duration per plan (same order).
    durations: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.plans) != len(self.durations) or not self.plans:
            raise ValueError("plans and durations must align and be non-empty")

    @property
    def optimum_index(self) -> int:
        """Index of the best plan (first wins ties, deterministically)."""
        best = 0
        for i, duration in enumerate(self.durations):
            if duration < self.durations[best]:
                best = i
        return best

    @property
    def optimum_plan(self) -> Tuple[str, ...]:
        return self.plans[self.optimum_index]

    @property
    def optimum_duration(self) -> float:
        return self.durations[self.optimum_index]

    def regret(self, duration: float) -> float:
        """Seconds worse than the offline optimum."""
        return duration - self.optimum_duration

    def rows(self) -> List[Dict[str, object]]:
        """JSON-able table rows: plan label, duration, regret."""
        return [
            {
                "plan": "→".join(plan),
                "duration": duration,
                "regret": self.regret(duration),
            }
            for plan, duration in zip(self.plans, self.durations)
        ]


def build_oracle(
    plans: Sequence[Tuple[str, ...]], durations: Sequence[float]
) -> OracleResult:
    """Package measured static durations into an :class:`OracleResult`."""
    return OracleResult(plans=tuple(tuple(p) for p in plans),
                        durations=tuple(float(d) for d in durations))
