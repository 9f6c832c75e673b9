"""Span reconstruction conservation laws, pinned on real traced runs.

One module-scoped fixture simulates the small sort job (and its
fault-injected variant) for three seeds each, with full-topic capture,
and every test works off those six record lists.  The two conservation
properties from DESIGN §10:

* the critical path tiles each phase window *exactly* — segments share
  endpoints and their durations sum (fsum) to the job makespan with
  zero error;
* record ownership is total and single-valued — every record maps to
  exactly one span name.
"""

import json
import math

import pytest

from repro.api import scaled_testbed
from repro.core.solution import Solution
from repro.faults.presets import LIGHT
from repro.obs import capture
from repro.obs.export import load_jsonl
from repro.obs.spans import (
    assign_records,
    blame_rows,
    blame_summary,
    build_span_tree,
    critical_path,
    critical_path_rows,
    write_span_trace,
)
from repro.runner import RunSpec
from repro.runner.kinds import execute_spec
from repro.sim.tracing import TraceRecord
from repro.virt.pair import DEFAULT_PAIR
from repro.workloads.profiles import SORT

SEEDS = (0, 1, 2)
#: ``faulty_job`` cases run the ``job`` kind under the LIGHT fault plan.
CASES = [(kind, seed) for kind in ("job", "faulty_job") for seed in SEEDS]


def _spec(kind, seed):
    testbed = scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2,
                             seeds=(seed,))
    solution = Solution.uniform(DEFAULT_PAIR, 2)
    if kind == "faulty_job":
        testbed = testbed.with_(faults=LIGHT)
    return RunSpec(kind="job", seed=seed, config=(testbed, solution))


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """``{(kind, seed): [TraceRecord, ...]}`` for all six runs."""
    runs = {}
    for kind, seed in CASES:
        out = tmp_path_factory.mktemp(f"{kind}-{seed}")
        capture.enable(out)
        try:
            execute_spec(_spec(kind, seed))
        finally:
            capture.disable()
        trace = next(out.glob("*.trace.jsonl"))
        runs[(kind, seed)] = load_jsonl(trace)
    return runs


def _makespan(records):
    start = next(r.time for r in records if r.topic == "job.start")
    end = max(r.time for r in records if r.topic == "job.done")
    return end - start


@pytest.mark.parametrize("kind,seed", CASES)
def test_critical_path_durations_sum_exactly_to_makespan(traced_runs, kind, seed):
    records = traced_runs[(kind, seed)]
    segments = critical_path(records)
    assert segments
    total = math.fsum(seg.duration for seg in segments)
    assert total == _makespan(records)  # exact, not approximate


@pytest.mark.parametrize("kind,seed", CASES)
def test_segments_tile_each_phase_exactly(traced_runs, kind, seed):
    records = traced_runs[(kind, seed)]
    segments = critical_path(records)
    by_phase = {}
    for seg in segments:
        assert seg.end > seg.start
        by_phase.setdefault(seg.phase, []).append(seg)
    assert set(by_phase) == {"map", "shuffle", "reduce"}
    for tiles in by_phase.values():
        for a, b in zip(tiles, tiles[1:]):
            assert a.end == b.start  # shared endpoints, no gaps/overlap
    # Phases chain: map ends where shuffle starts, etc.
    assert by_phase["map"][-1].end == by_phase["shuffle"][0].start
    assert by_phase["shuffle"][-1].end == by_phase["reduce"][0].start


@pytest.mark.parametrize("kind,seed", CASES)
def test_every_record_owned_by_exactly_one_span(traced_runs, kind, seed):
    records = traced_runs[(kind, seed)]
    owners = assign_records(records)
    assert len(owners) == len(records)  # total...
    assert all(isinstance(o, str) and o for o in owners)  # ...and named
    # Task-hinted records with a process id resolve to that task's span.
    for record, owner in zip(records, owners):
        if record.topic in ("fs.read", "fs.write"):
            assert owner == f"task:{record.payload['process']}"


def test_faults_reach_the_critical_path(traced_runs):
    """Across the faulty seeds, injected faults show up as blame."""
    fault_seconds = 0.0
    for seed in SEEDS:
        records = traced_runs[("faulty_job", seed)]
        summary = blame_summary(critical_path(records))
        fault_seconds += sum(
            ph["fault"] for ph in summary["phases"].values()
        )
    assert fault_seconds > 0.0


def test_fault_free_runs_have_no_fault_segments(traced_runs):
    for seed in SEEDS:
        segments = critical_path(traced_runs[("job", seed)])
        assert all(seg.kind != "fault" for seg in segments)


def test_blame_summary_partitions_the_makespan(traced_runs):
    records = traced_runs[("faulty_job", 1)]
    summary = blame_summary(critical_path(records))
    for ph in summary["phases"].values():
        split = ph["task"] + ph["fault"] + ph["switch"] + ph["idle"]
        assert split == pytest.approx(ph["duration"], abs=1e-9)
        assert ph["io_wait"] + ph["service"] <= ph["duration"] + 1e-9
    phase_total = math.fsum(
        ph["duration"] for ph in summary["phases"].values()
    )
    assert phase_total == pytest.approx(summary["makespan"], abs=1e-9)
    assert summary["top_owners"]
    assert blame_rows(summary)  # renderable
    json.dumps(summary)  # JSON-able for payload folding


def test_span_tree_shape(traced_runs):
    records = traced_runs[("job", 0)]
    root = build_span_tree(records)
    assert root.kind == "run"
    jobs = [s for s in root.children if s.kind == "job"]
    assert len(jobs) == 1
    phases = [s for s in jobs[0].children if s.kind == "phase"]
    assert {s.name for s in phases} == {
        "phase:map", "phase:shuffle", "phase:reduce"
    }
    tasks = [t for ph in phases for t in ph.children if t.kind == "task"]
    assert tasks
    requests = [r for t in tasks for r in t.children if r.kind == "request"]
    assert requests
    for task in tasks:
        assert task.end >= task.start
        for req in task.children:
            assert req.attrs["device"]


def test_critical_path_rows_match_segments(traced_runs):
    segments = critical_path(traced_runs[("job", 0)])
    rows = critical_path_rows(segments)
    assert len(rows) == len(segments)
    assert rows[0][0] == "map"


def test_write_span_trace_is_valid_chrome_json(traced_runs, tmp_path):
    records = traced_runs[("faulty_job", 1)]
    out = tmp_path / "spans.json"
    n = write_span_trace(records, out)
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert n == len(events) > 0
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert "task" in cats and "request" in cats
    assert any(c.startswith("critical-") for c in cats if c)
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] >= 0.0


def test_empty_and_markerless_records_degrade_gracefully():
    assert critical_path([]) == []
    assert build_span_tree([]).children == []
    assert assign_records([]) == []
    # Records without job marks still get a single "run" window.
    records = [
        TraceRecord(time=1.0, topic="fs.read",
                    payload={"vm": "v", "file": "f", "offset": 0,
                             "length": 1, "process": "map0@v"}),
        TraceRecord(time=3.0, topic="fs.read",
                    payload={"vm": "v", "file": "f", "offset": 1,
                             "length": 1, "process": "map0@v"}),
    ]
    segments = critical_path(records)
    assert segments
    assert {seg.phase for seg in segments} == {"run"}
    assert math.fsum(seg.duration for seg in segments) == 2.0
