"""Per-run trace capture, switchable from the CLI across worker processes.

The sweep runner executes :class:`~repro.runner.spec.RunSpec`s in worker
*processes*, so the capture switch travels as environment variables
(``REPRO_TRACE_OUT`` / ``REPRO_TRACE_TOPICS`` / ``REPRO_TRACE_CAP`` /
``REPRO_TRACE_WINDOW``) that the pool's children inherit.  When active,
:func:`repro.runner.kinds.execute_spec` opens a :class:`RunCapture`
around each simulation: the run's components get a recording
:class:`~repro.sim.tracing.TraceBus`, and the records + a metrics
snapshot land in the capture directory as

    <out>/<kind>-seed<seed>-<key12>.trace.jsonl
    <out>/<kind>-seed<seed>-<key12>.metrics.json

(the 12-hex ``key12`` is the run's content-addressed spec-key prefix, so
file names are deterministic and collision-free across a sweep).

Capture is **streaming and memory-bounded**: when constructed with the
run's spec (the ``execute_spec`` path), the bus retains nothing — each
matched record flows through a :class:`~repro.obs.spill.TraceSpiller`
(windowed JSONL appends, at most ``window`` records in memory) and a
live :class:`~repro.obs.metrics.TraceMetrics` fold.  The resulting
artifacts are byte-identical to the old buffer-everything path, which
``tests/obs/test_spill.py`` pins across seeds.  Without a spec (ad-hoc
use, tests) the bus buffers as before and :meth:`RunCapture.finish`
exports in one shot.

Capture is strictly a side channel: payloads, cache keys, and cached
records are byte-identical with capture on or off — trace publication
costs no simulated time — which is what lets ``--trace-out`` coexist
with the bit-identity guarantees in ``tests/integration``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from ..sim.tracing import TraceBus
from .export import write_jsonl
from .metrics import TraceMetrics
from .spill import DEFAULT_WINDOW, TraceSpiller

__all__ = [
    "ENV_TRACE_OUT",
    "ENV_TRACE_TOPICS",
    "ENV_TRACE_CAP",
    "ENV_TRACE_WINDOW",
    "CaptureConfig",
    "config_from_env",
    "env_int",
    "enable",
    "disable",
    "RunCapture",
    "current_bus",
]

ENV_TRACE_OUT = "REPRO_TRACE_OUT"
ENV_TRACE_TOPICS = "REPRO_TRACE_TOPICS"
ENV_TRACE_CAP = "REPRO_TRACE_CAP"
ENV_TRACE_WINDOW = "REPRO_TRACE_WINDOW"


@dataclass(frozen=True)
class CaptureConfig:
    """Where to put per-run trace artifacts and which topics to keep."""

    out_dir: str
    topics: Tuple[str, ...] = ("*",)
    #: Ring-buffer cap on exported records per run (None = unbounded).
    cap: Optional[int] = None
    #: Records held in memory between streaming appends (ignored when
    #: ``cap`` is set — the ring itself is the memory bound then).
    window: int = DEFAULT_WINDOW


def env_int(name: str) -> Optional[int]:
    """Positive integer value of environment variable ``name``; ``None``
    if unset.  Raises :class:`ValueError` naming the variable otherwise,
    so a bad cap or window fails before any run starts."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ValueError(f"${name} must be a positive integer, got {raw!r}")
    return value


def config_from_env() -> Optional[CaptureConfig]:
    """The active capture config, or ``None`` when capture is off.

    Read per call (not cached) so worker processes and tests that flip
    the environment mid-process see the current state.
    """
    out_dir = os.environ.get(ENV_TRACE_OUT)
    if not out_dir:
        return None
    raw_topics = os.environ.get(ENV_TRACE_TOPICS, "*")
    topics = tuple(t.strip() for t in raw_topics.split(",") if t.strip()) or ("*",)
    cap = env_int(ENV_TRACE_CAP)
    window = env_int(ENV_TRACE_WINDOW)
    return CaptureConfig(
        out_dir=out_dir, topics=topics, cap=cap,
        window=window if window is not None else DEFAULT_WINDOW,
    )


def enable(out_dir: os.PathLike | str, topics: Tuple[str, ...] = ("*",),
           cap: Optional[int] = None, window: Optional[int] = None) -> None:
    """Turn capture on process-wide (and for future worker children).

    Every call sets the whole config: a ``cap`` or ``window`` left as
    ``None`` clears the value an earlier :func:`enable` set.  A caller
    that should honour ``$REPRO_TRACE_CAP``/``$REPRO_TRACE_WINDOW`` from
    the shell, as the CLI does, reads them with :func:`env_int` and
    passes them on.
    """
    os.environ[ENV_TRACE_OUT] = str(out_dir)
    os.environ[ENV_TRACE_TOPICS] = ",".join(topics)
    for name, value in ((ENV_TRACE_CAP, cap), (ENV_TRACE_WINDOW, window)):
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = str(value)


def disable() -> None:
    os.environ.pop(ENV_TRACE_OUT, None)
    os.environ.pop(ENV_TRACE_TOPICS, None)
    os.environ.pop(ENV_TRACE_CAP, None)
    os.environ.pop(ENV_TRACE_WINDOW, None)


#: The bus of the capture currently wrapping ``execute_spec`` in this
#: process, if any.  Kind functions consult this to thread tracing into
#: the simulations they build.
_current: Optional[TraceBus] = None


def current_bus() -> Optional[TraceBus]:
    return _current


class RunCapture:
    """One run's recording bus plus the artifact writer.

    Context-manager form keeps ``execute_spec`` tidy::

        with RunCapture(cfg, spec=spec) as cap:
            payload = fn(spec.config, spec.seed)
        cap.finish(spec)

    With ``spec`` the capture streams (bounded memory: records spill to
    ``<base>.trace.jsonl`` in windows while metrics fold live); without
    it, the bus buffers everything and :meth:`finish` exports in one
    shot — handy for ad-hoc captures that inspect ``bus.records``.
    A failed run (exception inside the ``with``) aborts the streaming
    writer, leaving no half-written ``.trace.jsonl`` behind.
    """

    def __init__(self, config: CaptureConfig, spec=None):
        self.config = config
        self.bus = TraceBus()
        for topic in config.topics:
            self.bus.record_topic(topic)
        self._spiller: Optional[TraceSpiller] = None
        self._metrics: Optional[TraceMetrics] = None
        self.trace_path: Optional[Path] = None
        self.metrics_path: Optional[Path] = None
        if spec is not None:
            out = Path(config.out_dir)
            base = self.artifact_base(spec)
            self.trace_path = out / f"{base}.trace.jsonl"
            self.metrics_path = out / f"{base}.metrics.json"
            # Sinks see the record stream the buffered bus would have
            # kept (same topic filter, same order): the spiller applies
            # the ring cap itself, the metrics fold is uncapped exactly
            # like the old replay-over-all-records path.
            self._spiller = TraceSpiller(
                self.trace_path, window=config.window, cap=config.cap
            )
            self._metrics = TraceMetrics()
            self.bus.add_sink(self._spiller.add)
            self.bus.add_sink(self._metrics.handle)
            self.bus.retain_records = False

    def __enter__(self) -> "RunCapture":
        global _current
        self._previous = _current
        _current = self.bus
        return self

    def __exit__(self, exc_type, *exc) -> None:
        global _current
        _current = self._previous
        if exc_type is not None and self._spiller is not None:
            self._spiller.abort()

    def artifact_base(self, spec) -> str:
        # Imported lazily: repro.runner imports repro.obs.capture at
        # module load (via kinds), so the reverse edge must not run at
        # import time.
        from ..runner.spec import spec_key

        return f"{spec.kind}-seed{spec.seed}-{spec_key(spec)[:12]}"

    def finish(self, spec=None) -> Tuple[Path, Path]:
        """Write the run's trace JSONL and metrics JSON; returns paths."""
        if self._spiller is not None:
            assert self.trace_path is not None and self.metrics_path is not None
            self._spiller.close()
            snapshot = self._metrics.registry.snapshot()
            trace_path, metrics_path = self.trace_path, self.metrics_path
        else:
            if spec is None:
                raise TypeError("buffered RunCapture.finish() needs the spec")
            out = Path(self.config.out_dir)
            base = self.artifact_base(spec)
            trace_path = out / f"{base}.trace.jsonl"
            metrics_path = out / f"{base}.metrics.json"
            write_jsonl(self.bus.records, trace_path, cap=self.config.cap)
            snapshot = TraceMetrics().replay(self.bus.records).registry.snapshot()
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(snapshot, sort_keys=True, indent=1), encoding="utf-8"
        )
        return trace_path, metrics_path
