"""Fig. 9 — scheduler plans under injected faults (extension).

The paper evaluates the adaptive plan on a healthy cluster.  This
extension asks how its advantage holds up when the virtualized testbed
misbehaves: per-host disk slow-downs, Xen-style VM pauses, TaskTracker
crashes, and task-attempt failures, with the JobTracker recovering via
bounded retries and speculative execution (see :mod:`repro.faults`).

Expected shape: fault injection degrades every plan (heavier plans
degrade more), the fault-free column shows zero recovery activity, and
the faulted columns show real retries/speculative attempts while every
job still completes with its full map count.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Optional, Sequence, Union

from ..core.solution import Solution
from ..faults import PRESETS
from ..metrics.summary import format_table
from ..runner import RunSpec, SweepRunner, default_runner
from ..runner.kinds import decode_job_result
from ..virt.pair import DEFAULT_PAIR, SchedulerPair
from ..workloads.profiles import SORT
from .base import ExperimentResult, ShapeCheck
from ..api import DEFAULT_SCALE, scaled_testbed

__all__ = ["run", "SOLUTIONS", "DEFAULT_PRESETS"]

#: The contenders: the Hadoop default, the paper's best static pair for
#: sort, and the adaptive 2-phase plan (map phase under (AS, DL), the
#: shuffle/reduce tail under the default).
SOLUTIONS = {
    "default (cfq, cfq)": Solution.uniform(DEFAULT_PAIR, 2),
    "static (as, dl)": Solution.uniform(
        SchedulerPair("anticipatory", "deadline"), 2
    ),
    "adaptive plan": Solution(
        (SchedulerPair("anticipatory", "deadline"), SchedulerPair("cfq", "cfq"))
    ),
}

DEFAULT_PRESETS = ("none", "light", "heavy")

#: Counters surfaced in the rendered summary.
_ACTIVITY_KEYS = ("map_retries", "reduce_retries", "map_speculative",
                  "vm_pauses", "vm_crashes", "disk_slow_episodes")


def _normalise_presets(faults) -> List[str]:
    if faults is None:
        names = list(DEFAULT_PRESETS)
    elif isinstance(faults, str):
        names = ["none", faults] if faults != "none" else ["none"]
    else:
        names = list(faults)
    for name in names:
        if name not in PRESETS:
            raise ValueError(
                f"unknown fault preset {name!r}; choose from "
                f"{sorted(PRESETS)}"
            )
    return names


def run(
    scale: float = DEFAULT_SCALE,
    seeds: Sequence[int] = (0,),
    sweep: Optional[SweepRunner] = None,
    faults: Union[None, str, Sequence[str]] = None,
) -> ExperimentResult:
    sweep = sweep if sweep is not None else default_runner()
    presets = _normalise_presets(faults)
    testbed = scaled_testbed(SORT, scale=scale, seeds=tuple(seeds))

    specs = [
        RunSpec(
            kind="job",
            seed=seed,
            config=(testbed.with_(seeds=(seed,), faults=PRESETS[preset]),
                    solution),
            label=f"fig9 {label} faults={preset} seed={seed}",
        )
        for preset in presets
        for label, solution in SOLUTIONS.items()
        for seed in seeds
    ]
    payloads = sweep.run_specs(specs)

    durations: Dict[str, Dict[str, float]] = {}
    n_maps: Dict[str, Dict[str, List[int]]] = {}
    activity: Dict[str, Dict[str, int]] = {}
    i = 0
    for preset in presets:
        activity.setdefault(preset, {key: 0 for key in _ACTIVITY_KEYS})
        for label in SOLUTIONS:
            results = []
            for _ in seeds:
                result, _stall = decode_job_result(payloads[i])
                results.append(result)
                i += 1
            durations.setdefault(label, {})[preset] = mean(
                r.duration for r in results
            )
            n_maps.setdefault(label, {})[preset] = [r.n_maps for r in results]
            for r in results:
                for key in _ACTIVITY_KEYS:
                    activity[preset][key] += r.fault_stats.get(key, 0)

    return ExperimentResult(
        experiment_id="fig9-faults",
        title="Scheduler plans under injected faults (extension)",
        data={
            "durations": durations,
            "activity": activity,
            "n_maps": n_maps,
            "presets": presets,
            "scale": scale,
            "seeds": list(seeds),
        },
        renderer=_render,
        checker=_check,
    )


def _render(result: ExperimentResult) -> str:
    durations = result.data["durations"]
    activity = result.data["activity"]
    presets = result.data["presets"]
    rows = [
        [label] + [durations[label][preset] for preset in presets]
        for label in durations
    ]
    table = format_table(
        ["plan"] + list(presets),
        rows,
        title=f"execution seconds under fault presets "
        f"(scale={result.data['scale']})",
    )
    lines = [table, "", "recovery activity (all plans, all seeds):"]
    for preset in presets:
        acts = activity[preset]
        described = ", ".join(
            f"{key}={acts[key]}" for key in _ACTIVITY_KEYS if acts[key]
        )
        lines.append(f"  {preset:<6} {described or 'clean run'}")
    return "\n".join(lines)


def _check(result: ExperimentResult) -> List[ShapeCheck]:
    durations = result.data["durations"]
    activity = result.data["activity"]
    n_maps = result.data["n_maps"]
    presets = result.data["presets"]
    checks = []

    if "none" in presets:
        clean = activity["none"]
        checks.append(
            ShapeCheck(
                "fault-free preset shows zero recovery activity",
                all(v == 0 for v in clean.values()),
                ", ".join(f"{k}={v}" for k, v in clean.items() if v)
                or "clean",
            )
        )
        for preset in presets:
            if preset == "none":
                continue
            degraded = all(
                durations[label][preset] > durations[label]["none"]
                for label in durations
            )
            checks.append(
                ShapeCheck(
                    f"{preset} faults slow every plan down",
                    degraded,
                    ", ".join(
                        f"{label}: {durations[label]['none']:.1f}s -> "
                        f"{durations[label][preset]:.1f}s"
                        for label in durations
                    ),
                )
            )

    for preset in presets:
        if preset == "none":
            continue
        acts = activity[preset]
        checks.append(
            ShapeCheck(
                f"{preset}: recovery machinery exercised (retries observed)",
                acts["map_retries"] + acts["reduce_retries"] > 0,
                f"map_retries={acts['map_retries']}, "
                f"reduce_retries={acts['reduce_retries']}",
            )
        )

    # Every run, however faulty, finished with its full complement of
    # maps — retries and speculation never lose or duplicate a task.
    counts = {
        c for by_preset in n_maps.values() for runs in by_preset.values()
        for c in runs
    }
    checks.append(
        ShapeCheck(
            "every run completes the same full map count",
            len(counts) == 1,
            f"n_maps seen: {sorted(counts)}",
        )
    )
    return checks
