"""Trace export: JSONL round-trip determinism and Chrome trace shape."""

import json

import pytest

from repro.obs import export
from repro.obs.export import (
    JsonlTraceWriter,
    TopicFilter,
    decode_record,
    encode_record,
    load_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.tracing import TraceRecord


def rec(time, topic, **payload):
    return TraceRecord(time=time, topic=topic, payload=payload)


SAMPLE = [
    rec(0.0, "job.start", name="sort"),
    rec(0.0, "disk.submit", device="h0.sda", rid=1, op="read", lba=100,
        nsectors=8, process="h0v0"),
    rec(0.001, "disk.submit", device="h0.sda", rid=2, op="read", lba=108,
        nsectors=8, process="h0v0"),
    rec(0.02, "disk.complete", device="h0.sda", rid=1, merged_rids=[2],
        nbytes=8192),
    rec(0.5, "disk.switched", device="h0.sda", scheduler="NOOP", stall=0.1),
    rec(1.0, "job.maps_done"),
    rec(1.5, "job.shuffle_done"),
    rec(1.7, "fault.vm_pause", vm="h0v0", duration=0.2),
    rec(1.8, "fault.vm_crash", vm="h0v1"),
    rec(1.9, "task.retry", kind="map", task_id=3),
    rec(2.0, "job.done", name="sort"),
]


# -- topic filtering ----------------------------------------------------------------


def test_topic_filter_globs():
    f = TopicFilter(["disk.*", "job.done"])
    assert f.matches("disk.submit")
    assert f.matches("job.done")
    assert not f.matches("job.start")
    assert TopicFilter(["*"]).matches("anything")
    assert TopicFilter(None).matches("anything")


def test_writer_filters_and_caps(tmp_path):
    writer = JsonlTraceWriter(topics=["disk.*"], cap=2)
    writer.extend(SAMPLE)
    kept = writer.records
    # Only disk topics pass the filter; only the last 2 survive the cap.
    assert [r.topic for r in kept] == ["disk.complete", "disk.switched"]
    assert writer.dropped == 2
    assert writer.flush(tmp_path / "t.jsonl") == 2


def test_writer_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        JsonlTraceWriter(cap=0)


# -- JSONL round-trip (the determinism guard) ---------------------------------------


def test_encode_decode_roundtrip():
    for record in SAMPLE:
        assert decode_record(encode_record(record)) == record


EDGE_PAYLOADS = [
    {"b": 0.1 + 0.2, "a": -0.0, "c": 1e300, "d": 5e-324, "e": 2 ** 70},
    {"name": "caf\u00e9 \u2192 \U0001f600", "quote": 'a"b\\c\n'},
    {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
    {"nested": {"z": [1, 2.5, None, True, False], "a": {}}, "empty": []},
    {2: "two", 10: "ten"},
]


def test_canonical_encoder_matches_json_dumps():
    for record in SAMPLE + [rec(1.25, "x.y", **{"p": p}) for p in EDGE_PAYLOADS]:
        obj = {"time": record.time, "topic": record.topic,
               "payload": record.payload}
        assert encode_record(record) == json.dumps(
            obj, sort_keys=True, separators=(",", ":"))


def test_fallback_encoder_gives_the_same_bytes(monkeypatch):
    fast = export._canonical_encoder()
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    slow = export._canonical_encoder()
    assert isinstance(slow.__self__, json.JSONEncoder)  # the cached encode
    for payload in EDGE_PAYLOADS + [r.payload for r in SAMPLE]:
        obj = {"time": 0.5, "topic": "t", "payload": payload}
        assert fast(obj) == slow(obj)


def test_encoder_survives_an_unencodable_record():
    bad = rec(0.0, "x.y", handle=object())
    with pytest.raises(TypeError):
        encode_record(bad)
    # No state leaks from the failed call into the next one.
    assert encode_record(SAMPLE[1]) == json.dumps(
        {"time": 0.0, "topic": "disk.submit", "payload": SAMPLE[1].payload},
        sort_keys=True, separators=(",", ":"))


def test_jsonl_reexport_is_byte_identical(tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    write_jsonl(SAMPLE, first)
    # Reload and re-export: the canonical encoder must reproduce the
    # file byte for byte.
    write_jsonl(load_jsonl(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert len(load_jsonl(second)) == len(SAMPLE)


# -- Chrome trace-event export -------------------------------------------------------


def test_chrome_trace_schema():
    trace = to_chrome_trace(SAMPLE)
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    events = trace["traceEvents"]
    assert events, "expected events from the sample records"
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        assert event["ph"] in ("M", "X", "i")
        if event["ph"] != "M":
            assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0


def test_chrome_trace_maps_tracks_and_phases():
    trace = to_chrome_trace(SAMPLE)
    events = trace["traceEvents"]
    tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert tracks == {"job", "h0.sda"}
    x_names = {e["name"] for e in events if e["ph"] == "X"}
    # Phases, both rids of the merged completion, the elevator switch,
    # and the timed fault all become duration events.
    assert {"phase:map", "phase:shuffle", "phase:reduce",
            "read rid=1", "read rid=2", "elv→NOOP",
            "pause h0v0"} <= x_names
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert {"fault.vm_crash", "task.retry"} <= instants
    phase = next(e for e in events if e["name"] == "phase:map")
    assert phase["ts"] == 0.0
    assert phase["dur"] == pytest.approx(1.0 * 1e6)


def test_chrome_trace_file_is_valid_json(tmp_path):
    path = tmp_path / "trace.chrome.json"
    n = write_chrome_trace(SAMPLE, path)
    data = json.loads(path.read_text())
    assert len(data["traceEvents"]) == n
