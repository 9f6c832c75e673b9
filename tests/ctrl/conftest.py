"""Shared harness for the online-controller suite.

Every simulated test runs the same miniature testbed — 2 hosts x 2 VMs
at the fig2 scale factor (0.125) with 64 MB per VM — so specs repeat
across tests and the sweep cache/memo absorbs most of the cost.
"""

from repro.api import scaled_testbed
from repro.runner import RunSpec, execute_spec
from repro.workloads.ddwrite import MB
from repro.workloads.profiles import SORT

#: The fig2 single-pair scale factor (see benchmarks' fig2_single_pair).
SCALE = 0.125


def small_testbed(seed: int = 0, n_phases: int = 2):
    return scaled_testbed(
        SORT,
        scale=SCALE,
        hosts=2,
        vms_per_host=2,
        seeds=(seed,),
        bytes_per_vm=64 * MB,
        n_phases=n_phases,
    )


def controlled_spec(ctrl, seed: int = 0, n_phases: int = 2, faults=None,
                    label: str = "") -> RunSpec:
    testbed = small_testbed(seed, n_phases).with_(faults=faults, ctrl=ctrl)
    return RunSpec(
        kind="job",
        seed=seed,
        config=(testbed, ctrl.solution(n_phases)),
        label=label or f"ctrl test seed={seed}",
    )


def run_controlled(ctrl, seed: int = 0, n_phases: int = 2, faults=None):
    """Execute one controlled job in-process and return its payload."""
    return execute_spec(controlled_spec(ctrl, seed, n_phases, faults))
