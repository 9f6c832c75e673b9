"""Golden-digest regression test for simulation determinism.

One small sort job has a checked-in SHA-256 of its canonical JSON
payload.  The digest must be reproduced bit-for-bit by every execution
path the sweep runner offers — serial, parallel worker processes, and
the on-disk cache — and by a ``job`` run whose testbed carries the
inert fault plan (the fault subsystem's zero-overhead guarantee).

If a change alters simulation behaviour *intentionally*, regenerate the
digest with the snippet in ``expected_digest``'s docstring and say so in
the commit message; an unintentional digest change here means a
determinism or bit-identity regression.
"""

import hashlib
import json

from repro.core.solution import Solution
from repro.api import scaled_testbed
from repro.faults import NO_FAULTS
from repro.runner import RunSpec, SweepRunner
from repro.virt.pair import DEFAULT_PAIR
from repro.workloads.profiles import SORT

#: sha256 of the canonical JSON payload of GOLDEN_SPEC, regenerate via:
#:   PYTHONPATH=src python -c "from tests.integration.test_golden_digest \
#:       import run_and_digest; print(run_and_digest())"
#: Regenerated for the exact-partition-extent shuffle fix (v1.3.0): at
#: scale 0.05 the block size (3355443 B) is not a multiple of the 8
#: reducers, so per-reducer fetch extents legitimately shifted from
#: int-truncated uniform reads to exact offset-difference extents.
GOLDEN_DIGEST = (
    "10b4b5602f71dd082a4ad5f89a4363a91cc5f22051dbdb43ea17d0c4a01f9743"
)


def golden_config():
    # Everything explicit: the digest must not depend on environment
    # defaults like $REPRO_SCALE.
    testbed = scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2,
                             seeds=(0,))
    return testbed, Solution.uniform(DEFAULT_PAIR, 2)


def digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_and_digest(**sweep_kwargs):
    testbed, solution = golden_config()
    spec = RunSpec(kind="job", seed=0, config=(testbed, solution))
    sweep_kwargs.setdefault("use_cache", False)
    with SweepRunner(**sweep_kwargs) as sweep:
        [payload] = sweep.run_specs([spec])
    return digest(payload)


def test_serial_run_matches_golden_digest():
    assert run_and_digest(jobs=1) == GOLDEN_DIGEST


def test_parallel_run_matches_golden_digest():
    # Worker processes re-import everything; divergence here means the
    # simulation depends on interpreter state that does not survive
    # pickling/re-import.
    assert run_and_digest(jobs=2) == GOLDEN_DIGEST


def test_cached_replay_matches_golden_digest(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = run_and_digest(jobs=1, cache_dir=cache_dir, use_cache=True)
    replay = run_and_digest(jobs=1, cache_dir=cache_dir, use_cache=True)
    assert first == GOLDEN_DIGEST
    assert replay == GOLDEN_DIGEST


def test_inert_fault_plan_matches_golden_digest():
    # A NO_FAULTS testbed must produce the fault-free payload exactly,
    # plus an empty "faults" ledger: recovery machinery costs nothing
    # when disabled.
    testbed, solution = golden_config()
    spec = RunSpec(kind="job", seed=0,
                   config=(testbed.with_(faults=NO_FAULTS), solution))
    with SweepRunner(jobs=1, use_cache=False) as sweep:
        [payload] = sweep.run_specs([spec])
    assert payload.pop("faults") == {}
    assert digest(payload) == GOLDEN_DIGEST


def test_digest_is_sensitive_to_the_payload():
    # Guard the guard: a digest that ignores payload changes would make
    # every test above vacuous.
    assert digest({"a": 1}) != digest({"a": 2})


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(run_and_digest())
