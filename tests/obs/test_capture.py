"""Per-run capture: env plumbing, artifacts, and the bit-identity guards.

The expensive tests here run the golden-digest spec (a small sort job)
once per concern; everything is ``jobs=1`` so capture state stays in
this process.
"""

import hashlib
import json
import statistics
import time

import pytest

from repro.api import ControlledScenario
from repro.cli import main
from repro.obs import capture
from repro.obs.export import load_jsonl
from repro.runner import RunSpec
from repro.runner.kinds import execute_spec
from tests.integration.test_golden_digest import GOLDEN_DIGEST, digest, golden_config
from tests.integration.test_scenario_digests import SCENARIOS, payload_digest


@pytest.fixture
def clean_capture_env(monkeypatch):
    monkeypatch.delenv(capture.ENV_TRACE_OUT, raising=False)
    monkeypatch.delenv(capture.ENV_TRACE_TOPICS, raising=False)
    monkeypatch.delenv(capture.ENV_TRACE_CAP, raising=False)
    monkeypatch.delenv(capture.ENV_TRACE_WINDOW, raising=False)


def golden_spec():
    testbed, solution = golden_config()
    return RunSpec(kind="job", seed=0, config=(testbed, solution))


def greedy_spec():
    # A controlled run: the controller folds its own TraceMetrics on the
    # same bus as the capture's.
    return ControlledScenario(
        workload="sort", scale=0.1, hosts=2, vms_per_host=2,
        controller="greedy", initial="ad", phase_pairs=("ad", "cc"),
    ).to_spec(0)


#: sha256 of each run's captured (trace.jsonl, metrics.json).  Capture
#: speed-ups must leave every artifact byte unchanged.
ARTIFACT_DIGESTS = {
    "golden": (
        "c222381cb713e41311217f3172b96206ec8ea00f77937a3a9a3689399a354cd8",
        "61747c0fbc2d9fc18d9801affcec7711a46c82196882e7cb3cf52760487564c1",
    ),
    "greedy": (
        "a60b922a17cd884d679adef224df23d9e0fb7f1337d32ce9e02f0bb6e1f788a8",
        "adef02ef456e81765dfb61478796503b826483a248e531cd3b828acf51093de5",
    ),
}


@pytest.mark.parametrize("name,make_spec", [("golden", golden_spec),
                                            ("greedy", greedy_spec)])
def test_capture_artifact_bytes_are_pinned(clean_capture_env, tmp_path,
                                           name, make_spec):
    capture.enable(tmp_path)
    try:
        execute_spec(make_spec())
    finally:
        capture.disable()
    [trace] = sorted(tmp_path.glob("*.trace.jsonl"))
    [metrics] = sorted(tmp_path.glob("*.metrics.json"))
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (trace, metrics))
    assert got == ARTIFACT_DIGESTS[name]


def test_full_capture_keeps_a_third_of_untraced_throughput(clean_capture_env,
                                                          tmp_path):
    # Capture must stay a pure side channel and cheap enough to leave
    # on: every timed pass is digest-audited, and full-topic streaming
    # capture keeps at least x0.3 of untraced throughput (measured
    # x0.55-x0.6 on a 2-CPU host; the margin is for noisy machines).
    make_specs, expected = SCENARIOS["fig2_single_pair"]

    def median_wall():
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            payloads = [execute_spec(spec) for spec in make_specs()]
            walls.append(time.perf_counter() - t0)
            assert payload_digest(payloads) == expected
        return statistics.median(walls)

    for spec in make_specs():  # warm-up
        execute_spec(spec)
    untraced = median_wall()
    capture.enable(tmp_path)
    try:
        traced = median_wall()
    finally:
        capture.disable()
    assert list(tmp_path.glob("*.trace.jsonl"))
    # Same events on both sides, so the throughput ratio is the inverse
    # wall-time ratio.
    assert untraced / traced >= 0.3


def test_enable_resets_cap_and_window_it_is_not_given(clean_capture_env,
                                                      tmp_path):
    capture.enable(tmp_path / "a", cap=5, window=7)
    try:
        assert capture.config_from_env().cap == 5
        capture.enable(tmp_path / "b")
        assert capture.config_from_env() == capture.CaptureConfig(
            out_dir=str(tmp_path / "b"))
    finally:
        capture.disable()


def test_cli_capture_keeps_the_shell_cap(clean_capture_env, monkeypatch,
                                         tmp_path):
    monkeypatch.setenv(capture.ENV_TRACE_CAP, "5")
    code = main(["fig8", "--scale", "0.02", "--seeds", "0", "--jobs", "1",
                 "--quiet", "--no-cache", "--trace-out", str(tmp_path)])
    assert code == 0
    traces = sorted(tmp_path.glob("*.trace.jsonl"))
    assert len(traces) == 3
    assert all(len(load_jsonl(t)) == 5 for t in traces)


def test_cli_rejects_a_garbage_shell_cap(clean_capture_env, monkeypatch,
                                         capsys, tmp_path):
    for name in (capture.ENV_TRACE_CAP, capture.ENV_TRACE_WINDOW):
        for raw in ("lots", "0", "-3"):
            monkeypatch.setenv(name, raw)
            code = main(["fig8", "--scale", "0.02", "--seeds", "0", "--quiet",
                         "--no-cache", "--trace-out", str(tmp_path / "t")])
            assert code == 2
            assert f"${name} must be a positive integer" in \
                capsys.readouterr().err
            assert not (tmp_path / "t").exists()
            monkeypatch.delenv(name)


def test_config_from_env_roundtrip(clean_capture_env, tmp_path):
    assert capture.config_from_env() is None
    capture.enable(tmp_path, ("disk.*", "job.*"))
    try:
        cfg = capture.config_from_env()
        assert cfg.out_dir == str(tmp_path)
        assert cfg.topics == ("disk.*", "job.*")
    finally:
        capture.disable()
    assert capture.config_from_env() is None


def test_run_capture_scopes_current_bus(tmp_path):
    cfg = capture.CaptureConfig(out_dir=str(tmp_path))
    assert capture.current_bus() is None
    with capture.RunCapture(cfg) as cap:
        assert capture.current_bus() is cap.bus
    assert capture.current_bus() is None


def test_capture_writes_artifacts_and_keeps_payload_identical(
    clean_capture_env, tmp_path
):
    spec = golden_spec()
    plain = execute_spec(spec)

    capture.enable(tmp_path / "run1")
    try:
        traced = execute_spec(spec)
    finally:
        capture.disable()

    # Bit-identity: capture is a pure side channel, so the payload (and
    # therefore the golden digest and every cache key) is unchanged.
    assert digest(json.loads(json.dumps(traced, sort_keys=True))) == \
        digest(json.loads(json.dumps(plain, sort_keys=True)))
    assert digest(traced) == GOLDEN_DIGEST

    traces = sorted((tmp_path / "run1").glob("*.trace.jsonl"))
    metrics = sorted((tmp_path / "run1").glob("*.metrics.json"))
    assert len(traces) == 1 and len(metrics) == 1
    # Deterministic artifact naming: kind, seed, spec-key prefix.
    assert traces[0].name.startswith("job-seed0-")

    records = load_jsonl(traces[0])
    assert records, "captured trace must not be empty"
    topics = {r.topic for r in records}
    assert {"job.start", "job.done", "disk.submit", "disk.complete"} <= topics

    snapshot = json.loads(metrics[0].read_text())
    assert any(k.startswith("disk.submitted{") for k in snapshot["counters"])


def test_same_seed_runs_capture_byte_identical_traces(
    clean_capture_env, tmp_path
):
    paths = []
    for name in ("a", "b"):
        capture.enable(tmp_path / name)
        try:
            execute_spec(golden_spec())
        finally:
            capture.disable()
        [trace] = sorted((tmp_path / name).glob("*.trace.jsonl"))
        paths.append(trace)
    # The determinism guard: two same-seed runs export byte-identical
    # JSONL (same records, same canonical encoding, same file name).
    assert paths[0].name == paths[1].name
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_topic_filter_limits_captured_records(clean_capture_env, tmp_path):
    capture.enable(tmp_path, ("job.*",))
    try:
        execute_spec(golden_spec())
    finally:
        capture.disable()
    [trace] = sorted(tmp_path.glob("*.trace.jsonl"))
    topics = {r.topic for r in load_jsonl(trace)}
    assert topics
    assert all(t.startswith("job.") for t in topics)
