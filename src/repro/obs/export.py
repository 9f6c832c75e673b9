"""Trace export: JSONL streaming and Chrome trace-event (Perfetto) files.

Two formats, one source of truth (:class:`~repro.sim.tracing.TraceRecord`):

* **JSONL** — one compact, key-sorted JSON object per record.  Because
  the encoder is canonical (sorted keys, fixed separators, ``repr``
  floats), re-exporting the same records is byte-identical — the
  determinism guard the test suite leans on.
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev.  VMs and devices map to tracks; phases,
  requests, switches, and faults map to duration events; one-shot
  markers map to instants.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Sequence)

from ..sim.tracing import TraceRecord

__all__ = [
    "TopicFilter",
    "JsonlTraceWriter",
    "encode_record",
    "decode_record",
    "write_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: Chrome trace timestamps are microseconds.
_US = 1e6


class TopicFilter:
    """Topic matcher mirroring ``TraceBus.record_topic`` globs.

    Accepts exact names, ``"family.*"`` prefixes, and ``"*"``; an empty
    pattern list means "everything".
    """

    def __init__(self, topics: Optional[Sequence[str]] = None):
        topics = list(topics or ["*"])
        self.match_all = "*" in topics
        self.exact = {t for t in topics if t != "*" and not t.endswith(".*")}
        self.prefixes = [t[:-1] for t in topics if t.endswith(".*")]

    def matches(self, topic: str) -> bool:
        if self.match_all or topic in self.exact:
            return True
        return any(topic.startswith(p) for p in self.prefixes)


def _canonical_encoder() -> Callable[[Any], str]:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, built once.

    ``json.dumps`` with ``sort_keys`` constructs a fresh ``JSONEncoder``
    and a fresh C encoder on every call, which dominated the cost of
    spilling a trace.  This builds the C ``iterencode`` once with the
    same options (``ensure_ascii``, ``allow_nan``, ``default``), so the
    bytes are unchanged.  It skips the circular-reference check: records
    are trees, and a marker left behind by a failed encode would
    otherwise outlive the call.  Without the C accelerator, or if it
    cannot be built, it falls back to a cached ``JSONEncoder.encode``.
    """
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is not None:
        try:
            iterencode = make(
                None, encoder.default, json.encoder.encode_basestring_ascii,
                encoder.indent, encoder.key_separator, encoder.item_separator,
                encoder.sort_keys, encoder.skipkeys, encoder.allow_nan,
            )
        except Exception:
            pass
        else:
            return lambda obj: "".join(iterencode(obj, 0))
    return encoder.encode


_encode = _canonical_encoder()


def encode_record(record: TraceRecord) -> str:
    """Canonical one-line JSON for a record (byte-stable re-export)."""
    return _encode(
        {"time": record.time, "topic": record.topic, "payload": record.payload}
    )


def decode_record(line: str) -> TraceRecord:
    obj = json.loads(line)
    return TraceRecord(time=obj["time"], topic=obj["topic"],
                       payload=obj["payload"])


class JsonlTraceWriter:
    """Streaming JSONL sink with a topic filter and a ring-buffer cap.

    Usable as a trace-bus callback (it is callable) or fed explicitly
    via :meth:`add`.  With ``cap`` set, only the *last* ``cap`` matching
    records survive — bounding memory on long runs while keeping the
    interesting tail (the paper's diagnosis windows sit at phase
    boundaries, i.e. late in each phase).
    """

    def __init__(self, topics: Optional[Sequence[str]] = None,
                 cap: Optional[int] = None):
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive (or None for unbounded)")
        self.filter = TopicFilter(topics)
        self._ring: Deque[TraceRecord] = deque(maxlen=cap)
        self.dropped = 0

    def __call__(self, record: TraceRecord) -> None:
        self.add(record)

    def add(self, record: TraceRecord) -> None:
        if not self.filter.matches(record.topic):
            return
        if self._ring.maxlen is not None and len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.add(record)

    @property
    def records(self) -> List[TraceRecord]:
        return list(self._ring)

    def flush(self, path: Path | str) -> int:
        """Write the retained records to ``path``; returns the count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self._ring:
                fh.write(encode_record(record))
                fh.write("\n")
        return len(self._ring)


def write_jsonl(records: Iterable[TraceRecord], path: Path | str,
                topics: Optional[Sequence[str]] = None,
                cap: Optional[int] = None) -> int:
    """One-shot export: filter, (optionally) cap, write; returns count."""
    writer = JsonlTraceWriter(topics=topics, cap=cap)
    writer.extend(records)
    return writer.flush(path)


def load_jsonl(path: Path | str) -> List[TraceRecord]:
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(decode_record(line))
    return records


# -- Chrome trace-event export --------------------------------------------------------


def _track_ids(records: Sequence[TraceRecord]) -> Dict[str, int]:
    """Stable pid assignment: every device (Dom0 disk or guest vdisk)
    gets its own track, sorted by name; pid 0 is the job/control track."""
    devices = sorted({
        r.payload["device"] for r in records
        if r.topic.startswith("disk.") and "device" in r.payload
    })
    return {name: pid for pid, name in enumerate(devices, start=1)}


def to_chrome_trace(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """Chrome trace-event JSON (dict form) for a recorded run.

    Mapping:

    * job phases (``job.start``/``maps_done``/``shuffle_done``/``done``)
      → ``X`` duration events on the ``job`` track (pid 0);
    * block requests (``disk.submit`` → ``disk.complete``) → ``X``
      events on the owning device's track, one per rid (merged rids
      share the completion edge);
    * elevator switches → ``X`` events spanning the measured stall;
    * faults with durations (``fault.vm_pause``, ``fault.disk_slow``)
      → ``X`` events; one-shot faults/retries/speculation → ``i``
      instants on the control track.
    """
    pids = _track_ids(records)
    events: List[Dict[str, Any]] = []
    for name, pid in [("job", 0), *sorted(pids.items())]:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    submits: Dict[tuple, TraceRecord] = {}
    marks: Dict[str, float] = {}

    def x_event(name, ts, dur, pid, cat, args=None):
        events.append({
            "name": name, "ph": "X", "ts": round(ts * _US, 3),
            "dur": round(max(dur, 0.0) * _US, 3), "pid": pid, "tid": 0,
            "cat": cat, "args": args or {},
        })

    def instant(name, ts, pid, cat, args=None):
        events.append({
            "name": name, "ph": "i", "ts": round(ts * _US, 3), "pid": pid,
            "tid": 0, "s": "g", "cat": cat, "args": args or {},
        })

    for record in records:
        topic, p, t = record.topic, record.payload, record.time
        if topic == "disk.submit":
            submits[(p["device"], p["rid"])] = record
        elif topic == "disk.complete":
            device = p["device"]
            pid = pids.get(device, 0)
            for rid in [p["rid"], *p.get("merged_rids", ())]:
                sub = submits.pop((device, rid), None)
                if sub is None:
                    continue
                x_event(
                    f"{sub.payload.get('op', 'io')} rid={rid}",
                    sub.time, t - sub.time, pid, "io",
                    {"lba": sub.payload.get("lba"),
                     "nsectors": sub.payload.get("nsectors"),
                     "process": sub.payload.get("process")},
                )
        elif topic == "disk.switched":
            stall = p.get("stall", 0.0)
            x_event(f"elv→{p.get('scheduler', '?')}", t - stall, stall,
                    pids.get(p["device"], 0), "switch")
        elif topic == "job.start":
            marks["start"] = t
        elif topic == "job.maps_done":
            if "start" in marks:
                x_event("phase:map", marks["start"], t - marks["start"], 0,
                        "phase")
            marks["maps_done"] = t
        elif topic == "job.shuffle_done":
            if "maps_done" in marks:
                x_event("phase:shuffle", marks["maps_done"],
                        t - marks["maps_done"], 0, "phase")
            marks["shuffle_done"] = t
        elif topic == "job.done":
            tail_from = marks.get("shuffle_done", marks.get("maps_done"))
            if tail_from is not None:
                x_event("phase:reduce", tail_from, t - tail_from, 0, "phase")
            marks["done"] = t
        elif topic == "fault.vm_pause":
            x_event(f"pause {p['vm']}", t, p.get("duration", 0.0), 0, "fault")
        elif topic == "fault.disk_slow":
            x_event(f"disk_slow {p['host']}", t, p.get("duration", 0.0), 0,
                    "fault", {"factor": p.get("factor")})
        elif topic in ("fault.vm_crash", "task.retry", "task.speculative",
                       "cluster.set_pair", "job.map_finished"):
            instant(topic, t, 0, topic.split(".")[0], dict(p))

    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0), e["pid"],
                               e["name"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Sequence[TraceRecord], path: Path | str) -> int:
    """Write the Chrome trace for ``records``; returns the event count."""
    trace = to_chrome_trace(records)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, sort_keys=True), encoding="utf-8")
    return len(trace["traceEvents"])
