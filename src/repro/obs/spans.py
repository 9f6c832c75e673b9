"""Causal span reconstruction and critical-path attribution.

Rebuilds the causal structure of a recorded run — job → phase → task
attempt → block request — purely from the trace topics the simulator
already publishes (no new instrumentation), then answers the question
the flat ``repro report`` tables cannot: *which* task, device, VM, or
fault was on the critical path of each phase, and how much of that time
was I/O wait versus device service.

Stitching keys (see DESIGN §10):

* tasks are the ``process`` ids on ``fs.read``/``fs.write``/
  ``disk.submit`` records (``map<task_id>@<vm>``, ``red<tag><idx>@<vm>``,
  ``tt@<vm>`` shuffle servers); task end times are refined by the
  ``job.map_finished``/``job.reduce_finished`` ledger records;
* block requests stitch ``disk.submit`` → ``disk.complete`` via
  ``(device, rid)`` (merged rids share the completion edge) and pick up
  their device-busy split from ``disk.service``;
* faults (``fault.vm_pause``/``fault.disk_slow``) and elevator switches
  (``disk.switched``, interval ``[t - stall, t]``) become first-class
  blame intervals of their own.

The **critical path** of a phase ``[p0, p1]`` is computed by a backward
walk: starting at ``p1``, repeatedly attribute the segment down to the
latest-starting interval active at the cursor (faults beat switches
beat tasks on ties), or an explicit ``idle`` segment when nothing was
running.  Segments share endpoints by construction, so they tile each
phase *exactly* — the sum of segment durations telescopes to the job
makespan, which is the conservation property
``tests/obs/test_spans.py`` pins on fig2 runs with and without faults.

Everything here is a pure function of the record list: same trace,
same attribution, byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from ..sim.tracing import TraceRecord
from .topics import span_hint

__all__ = [
    "Span",
    "Segment",
    "build_span_tree",
    "critical_path",
    "critical_path_rows",
    "blame_summary",
    "blame_rows",
    "assign_records",
    "write_span_trace",
]

#: Endpoint-comparison tolerance for the backward walk.  Simulated
#: times are exact floats, so this only absorbs representation noise.
_TOL = 1e-9

_PID_MAP = re.compile(r"^map(\d+)@(.+)$")
_PID_RED = re.compile(r"^red(.*?)(\d+)@(.+)$")
_PID_TT = re.compile(r"^tt@(.+)$")

#: Tie-break rank when several intervals end a phase segment together:
#: an injected fault explains a stall better than a switch, a switch
#: better than an ordinary task.
_KIND_RANK = {"fault": 3, "switch": 2, "task": 1}


@dataclass
class Span:
    """One node of the causal tree (run/job/phase/task/request/...)."""

    name: str
    kind: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Segment:
    """One tile of a phase's critical path."""

    phase: str
    owner: str
    kind: str  # task | fault | switch | idle
    start: float
    end: float
    vm: str = ""
    device: str = ""
    #: Seconds of the segment with at least one of the owner's block
    #: requests in flight, minus the device-service share.
    io_wait: float = 0.0
    #: Device service seconds of the owner's requests completing here.
    service: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Interval:
    """A blame candidate for the backward walk."""

    name: str
    kind: str  # task | fault | switch
    start: float
    end: float
    vm: str = ""
    device: str = ""


@dataclass
class _Request:
    start: float
    end: float
    device: str
    rid: int
    service: float = 0.0


class _RunModel:
    """Everything the walk needs, extracted from the records once."""

    def __init__(self) -> None:
        self.jobs: List[Tuple[str, float, float]] = []
        self.windows: List[Tuple[str, float, float]] = []
        self.intervals: List[_Interval] = []
        self.tasks: Dict[str, _Interval] = {}
        self.requests_by_pid: Dict[str, List[_Request]] = {}
        self.task_by_map_id: Dict[Any, str] = {}
        self.task_by_red_idx: Dict[Any, str] = {}
        self.t_min = math.inf
        self.t_max = -math.inf


def _pid_vm(pid: str) -> str:
    return pid.rsplit("@", 1)[1] if "@" in pid else ""


def _extract(records: Sequence[TraceRecord]) -> _RunModel:
    model = _RunModel()
    tasks = model.tasks
    submits: Dict[Tuple[str, int], Tuple[float, str]] = {}
    services: Dict[Tuple[str, int], float] = {}
    job_starts: List[Tuple[float, str]] = []
    job_ends: List[Tuple[float, str]] = []
    marks: Dict[str, float] = {}
    map_finish: Dict[Any, float] = {}
    red_finish: List[Tuple[Any, Any, float]] = []  # (reducer, job, time)

    def touch_task(pid: Any, time: float) -> None:
        pid = str(pid)
        iv = tasks.get(pid)
        if iv is None:
            tasks[pid] = _Interval(name=pid, kind="task", start=time,
                                   end=time, vm=_pid_vm(pid))
        else:
            if time < iv.start:
                iv.start = time
            if time > iv.end:
                iv.end = time

    for record in records:
        topic, p, t = record.topic, record.payload, record.time
        if t < model.t_min:
            model.t_min = t
        if t > model.t_max:
            model.t_max = t
        if topic == "fs.read" or topic == "fs.write":
            touch_task(p["process"], t)
        elif topic == "disk.submit":
            pid = str(p.get("process", ""))
            if pid:
                touch_task(pid, t)
            submits[(p["device"], p["rid"])] = (t, pid)
        elif topic == "disk.complete":
            device = p["device"]
            for rid in [p["rid"], *p.get("merged_rids", ())]:
                sub = submits.pop((device, rid), None)
                if sub is None:
                    continue
                t_sub, pid = sub
                req = _Request(start=t_sub, end=t, device=device, rid=rid,
                               service=services.pop((device, rid), 0.0))
                model.requests_by_pid.setdefault(pid, []).append(req)
                if pid in tasks and t > tasks[pid].end:
                    tasks[pid].end = t
        elif topic == "disk.service":
            # Published at the spindle just before the completion edge,
            # so the submit entry is still pending: stash the split and
            # apply it when disk.complete stitches the request.
            services[(p["device"], p["rid"])] = p["service"]
        elif topic == "disk.switched":
            stall = float(p.get("stall", 0.0))
            model.intervals.append(_Interval(
                name=f"switch:{p['device']}->{p.get('scheduler', '?')}",
                kind="switch", start=t - stall, end=t, device=p["device"],
            ))
        elif topic == "fault.vm_pause":
            model.intervals.append(_Interval(
                name=f"pause:{p['vm']}", kind="fault", start=t,
                end=t + float(p.get("duration", 0.0)), vm=p["vm"],
            ))
        elif topic == "fault.disk_slow":
            model.intervals.append(_Interval(
                name=f"disk_slow:{p['host']}", kind="fault", start=t,
                end=t + float(p.get("duration", 0.0)),
            ))
        elif topic == "job.start":
            job_starts.append((t, str(p.get("name", p.get("job", "job")))))
            marks.setdefault("start", t)
        elif topic == "job.map_finished":
            map_finish[p["task_id"]] = t
        elif topic == "job.maps_done":
            marks["maps_done"] = t
        elif topic == "job.shuffle_done":
            marks["shuffle_done"] = t
        elif topic == "job.reduce_finished":
            red_finish.append((p["reducer"], p.get("job"), t))
        elif topic == "job.done":
            job_ends.append((t, str(p.get("name", p.get("job", "job")))))
            marks["end"] = t

    # Ledger refinement: a task *finishes* at its ledger record, which
    # is later than its last I/O event (the tail is pure compute).
    for pid in tasks:
        m = _PID_MAP.match(pid)
        if m:
            model.task_by_map_id[int(m.group(1))] = pid
            continue
        m = _PID_RED.match(pid)
        if m:
            model.task_by_red_idx.setdefault(int(m.group(2)), pid)
    for task_id, t in map_finish.items():
        pid = model.task_by_map_id.get(task_id)
        if pid is not None and t > tasks[pid].end:
            tasks[pid].end = t
    for reducer, _job, t in red_finish:
        pid = model.task_by_red_idx.get(reducer)
        if pid is not None and t > tasks[pid].end:
            tasks[pid].end = t

    model.intervals.extend(tasks.values())
    model.jobs = [
        (name, t0, next((te for te, ne in job_ends if ne == name), t0))
        for t0, name in job_starts
    ]

    # Phase windows: the single-job map/shuffle/reduce split when the
    # trace holds exactly one job, otherwise one window over the whole
    # run (multi-job overlap has no global phase boundaries).
    if len(job_starts) == 1 and "start" in marks and "end" in marks:
        start, end = marks["start"], marks["end"]
        maps_done = marks.get("maps_done", end)
        shuffle_done = marks.get("shuffle_done", end)
        model.windows = [("map", start, maps_done),
                         ("shuffle", maps_done, shuffle_done),
                         ("reduce", shuffle_done, end)]
    elif job_starts and job_ends:
        model.windows = [("run", min(t for t, _ in job_starts),
                          max(t for t, _ in job_ends))]
    elif model.t_min < model.t_max:
        model.windows = [("run", model.t_min, model.t_max)]
    return model


# -- the backward walk ----------------------------------------------------------------


def _union_length(spans: List[Tuple[float, float]]) -> float:
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(spans):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _segment_for(phase: str, owner: _Interval, start: float, end: float,
                 model: _RunModel) -> Segment:
    io_wait = service = 0.0
    device = owner.device
    if owner.kind == "task":
        reqs = [r for r in model.requests_by_pid.get(owner.name, ())
                if r.end > start and r.start < end]
        busy = _union_length([(max(r.start, start), min(r.end, end))
                              for r in reqs])
        service = math.fsum(r.service for r in reqs
                            if start - _TOL <= r.end <= end + _TOL)
        io_wait = max(busy - service, 0.0)
        per_device: Dict[str, float] = {}
        for r in reqs:
            per_device[r.device] = per_device.get(r.device, 0.0) + (
                min(r.end, end) - max(r.start, start))
        if per_device:
            device = max(sorted(per_device), key=lambda d: per_device[d])
    return Segment(phase=phase, owner=owner.name, kind=owner.kind,
                   start=start, end=end, vm=owner.vm, device=device,
                   io_wait=io_wait, service=service)


def _walk_phase(phase: str, p0: float, p1: float,
                model: _RunModel) -> List[Segment]:
    ivs = [iv for iv in model.intervals
           if iv.start < p1 - _TOL and iv.end > p0 + _TOL]
    out: List[Segment] = []
    cursor = p1
    guard = 2 * len(ivs) + 64
    while cursor > p0 + _TOL and guard > 0:
        guard -= 1
        active = [iv for iv in ivs
                  if iv.start < cursor - _TOL and iv.end >= cursor - _TOL]
        if active:
            owner = max(active, key=lambda iv: (
                iv.start, _KIND_RANK.get(iv.kind, 0), iv.name))
            seg_start = max(owner.start, p0)
            out.append(_segment_for(phase, owner, seg_start, cursor, model))
        else:
            ends = [iv.end for iv in ivs if iv.end < cursor - _TOL and iv.end > p0]
            seg_start = max(ends, default=p0)
            out.append(Segment(phase=phase, owner="idle", kind="idle",
                               start=seg_start, end=cursor))
        cursor = out[-1].start
    out.reverse()
    if out and out[0].start != p0:
        # Clamp the last residual (< _TOL) so the tiles stay exact.
        out[0] = replace(out[0], start=p0)
    return out


def critical_path(records: Sequence[TraceRecord]) -> List[Segment]:
    """The weighted critical path of a recorded run.

    One :class:`Segment` list tiling every phase window exactly: the
    first segment starts at the phase start, the last ends at the phase
    end, and consecutive segments share endpoints — so durations sum to
    the run's makespan by telescoping.
    """
    model = _extract(records)
    segments: List[Segment] = []
    for phase, p0, p1 in model.windows:
        segments.extend(_walk_phase(phase, p0, p1, model))
    return segments


def critical_path_rows(segments: Sequence[Segment]) -> List[List[Any]]:
    """Table rows for the report renderer (one per segment)."""
    return [[seg.phase, seg.owner, seg.kind, seg.start, seg.end,
             seg.duration, seg.vm or "-", seg.device or "-",
             seg.io_wait, seg.service]
            for seg in segments]


# -- blame aggregation ----------------------------------------------------------------


def blame_summary(segments: Sequence[Segment]) -> Dict[str, Any]:
    """JSON-able aggregation of a critical path.

    ``makespan`` is the fsum of segment durations (== the tiled window
    lengths); ``phases``/``devices``/``vms`` split the same seconds
    three ways; ``top_owners`` names the biggest individual culprits.
    """
    phases: Dict[str, Dict[str, Any]] = {}
    devices: Dict[str, float] = {}
    vms: Dict[str, float] = {}
    owners: Dict[Tuple[str, str], float] = {}
    for seg in segments:
        ph = phases.setdefault(seg.phase, {
            "duration": 0.0, "task": 0.0, "fault": 0.0, "switch": 0.0,
            "idle": 0.0, "io_wait": 0.0, "service": 0.0,
        })
        ph["duration"] += seg.duration
        ph[seg.kind] = ph.get(seg.kind, 0.0) + seg.duration
        ph["io_wait"] += seg.io_wait
        ph["service"] += seg.service
        if seg.device:
            devices[seg.device] = devices.get(seg.device, 0.0) + seg.duration
        if seg.vm:
            vms[seg.vm] = vms.get(seg.vm, 0.0) + seg.duration
        if seg.kind != "idle":
            key = (seg.owner, seg.kind)
            owners[key] = owners.get(key, 0.0) + seg.duration
    top = sorted(owners.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    return {
        "makespan": math.fsum(seg.duration for seg in segments),
        "segments": len(segments),
        "phases": {name: phases[name] for name in sorted(phases)},
        "devices": {name: devices[name] for name in sorted(devices)},
        "vms": {name: vms[name] for name in sorted(vms)},
        "top_owners": [
            {"owner": owner, "kind": kind, "seconds": seconds}
            for (owner, kind), seconds in top
        ],
    }


def blame_rows(summary: Dict[str, Any]) -> List[List[Any]]:
    """Per-phase blame table rows from a :func:`blame_summary` dict."""
    return [[name, ph["duration"], ph["task"], ph["fault"], ph["switch"],
             ph["idle"], ph["io_wait"], ph["service"]]
            for name, ph in summary["phases"].items()]


# -- the causal tree and record ownership ---------------------------------------------


def build_span_tree(records: Sequence[TraceRecord]) -> Span:
    """The causal span tree: run → job → phase → task → request.

    Tasks hang off the phase containing their start (off the job when
    the trace has no phase split); requests hang off their submitting
    task; faults and switches hang off the run root.
    """
    model = _extract(records)
    t0 = model.t_min if model.t_min <= model.t_max else 0.0
    t1 = model.t_max if model.t_min <= model.t_max else 0.0
    root = Span(name="run", kind="run", start=t0, end=t1)

    job_spans = [Span(name=f"job:{name}", kind="job", start=s, end=e)
                 for name, s, e in model.jobs]
    root.children.extend(job_spans)
    phase_parent = job_spans[0] if len(job_spans) == 1 else root
    phase_spans = [Span(name=f"phase:{name}", kind="phase", start=s, end=e)
                   for name, s, e in model.windows]
    phase_parent.children.extend(phase_spans)

    def parent_for(start: float) -> Span:
        for ph in phase_spans:
            if ph.start - _TOL <= start < ph.end + _TOL:
                return ph
        return phase_parent

    for pid in sorted(model.tasks):
        iv = model.tasks[pid]
        task = Span(name=f"task:{pid}", kind="task", start=iv.start,
                    end=iv.end, attrs={"vm": iv.vm})
        for req in model.requests_by_pid.get(pid, ()):
            task.children.append(Span(
                name=f"request:{req.device}/{req.rid}", kind="request",
                start=req.start, end=req.end,
                attrs={"device": req.device, "service": req.service},
            ))
        parent_for(iv.start).children.append(task)
    for iv in model.intervals:
        if iv.kind in ("fault", "switch"):
            root.children.append(Span(
                name=iv.name, kind=iv.kind, start=iv.start, end=iv.end,
                attrs={"vm": iv.vm, "device": iv.device},
            ))
    return root


def assign_records(records: Sequence[TraceRecord]) -> List[str]:
    """Owner span name for every record, positionally.

    The assignment is total and single-valued — every record is owned by
    exactly one span — which is the other half of the conservation
    property the span tests pin.  Routing follows the ``span`` hints in
    :mod:`repro.obs.topics`, refined by the stitching keys.
    """
    model = _extract(records)
    owners: List[str] = []
    for record in records:
        topic, p = record.topic, record.payload
        hint = span_hint(topic)
        owner = "run"
        if hint == "request" and "rid" in p and "device" in p:
            owner = f"request:{p['device']}/{p['rid']}"
        elif hint == "switch" and "device" in p:
            owner = f"switch:{p['device']}"
        elif hint == "fault":
            owner = f"fault:{p.get('vm', p.get('host', 'cluster'))}"
        elif hint == "task":
            pid = None
            if "process" in p:
                pid = str(p["process"])
            elif topic == "job.map_finished":
                pid = model.task_by_map_id.get(p["task_id"])
            elif topic == "job.reduce_finished" or topic == "shuffle.fetch":
                pid = model.task_by_red_idx.get(p.get("reducer"))
            elif "task_id" in p:  # task.retry / task.speculative
                pid = model.task_by_map_id.get(p["task_id"])
            if pid:
                owner = f"task:{pid}"
            elif model.jobs:
                owner = f"job:{model.jobs[0][0]}"
        elif model.jobs:
            name = p.get("name", p.get("job"))
            job_names = {n for n, _, _ in model.jobs}
            owner = (f"job:{name}" if name in job_names
                     else f"job:{model.jobs[0][0]}")
        owners.append(owner)
    return owners


# -- Perfetto span export -------------------------------------------------------------

_US = 1e6


def write_span_trace(records: Sequence[TraceRecord], path: Path | str) -> int:
    """Chrome/Perfetto trace of the span tree + critical path.

    Track layout: pid 0 carries the critical-path tiles (tid 0) and the
    job/phase spans (tid 1); each VM gets its own pid with tasks packed
    onto slot tids (requests share their task's tid so they nest).
    Returns the event count.
    """
    segments = critical_path(records)
    tree = build_span_tree(records)
    events: List[Dict[str, Any]] = []

    def x_event(name, start, end, pid, tid, cat, args=None):
        events.append({
            "name": name, "ph": "X", "ts": round(start * _US, 3),
            "dur": round(max(end - start, 0.0) * _US, 3), "pid": pid,
            "tid": tid, "cat": cat, "args": args or {},
        })

    for seg in segments:
        x_event(f"{seg.kind}:{seg.owner}" if seg.kind == "idle" else seg.owner,
                seg.start, seg.end, 0, 0, f"critical-{seg.kind}",
                {"phase": seg.phase, "io_wait": seg.io_wait,
                 "service": seg.service, "device": seg.device})

    vms = sorted({span.attrs.get("vm", "") for parent in _iter_spans(tree)
                  for span in parent.children if span.kind == "task"})
    vm_pid = {vm: i for i, vm in enumerate(vms, start=1)}
    names = [("critical-path", 0)] + [(vm or "(host)", pid)
                                      for vm, pid in sorted(vm_pid.items())]
    for name, pid in names:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})

    slots: Dict[int, List[float]] = {}

    def slot_for(pid: int, start: float, end: float) -> int:
        lanes = slots.setdefault(pid, [])
        for tid, busy_until in enumerate(lanes):
            if busy_until <= start + _TOL:
                lanes[tid] = end
                return tid
        lanes.append(end)
        return len(lanes) - 1

    for parent in _iter_spans(tree):
        for span in parent.children:
            if span.kind in ("job", "phase"):
                x_event(span.name, span.start, span.end, 0, 1, span.kind)
            elif span.kind in ("fault", "switch"):
                x_event(span.name, span.start, span.end, 0, 1, span.kind,
                        dict(span.attrs))
            elif span.kind == "task":
                pid = vm_pid.get(span.attrs.get("vm", ""), 0)
                tid = slot_for(pid, span.start, span.end)
                x_event(span.name, span.start, span.end, pid, tid, "task")
                for req in span.children:
                    x_event(req.name, req.start, req.end, pid, tid,
                            "request", dict(req.attrs))

    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0), e["pid"],
                               e["tid"], e["name"]))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return len(events)


def _iter_spans(root: Span):
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))
