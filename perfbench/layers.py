"""Per-layer host-time attribution for the traced run.

:class:`LayerProfiler` installs a ``sys.setprofile`` hook and charges
every interval between two Python call/return events to the layer that
owns the code running in it: the ``repro`` sub-package of the code
object's file (``disk/ssd.py`` is its own layer, ``disk.ssd``), or
``stdlib`` for code outside ``repro``.  Because the hook sees the
resume (``call``) and the suspend (``return``) of every generator, the
simulation kernel's processes are charged to the package that defines
them, which a wrapper around a call would miss.  C calls are not split
out: their time is charged to the Python frame that made them.

The attribution is exhaustive: every interval between ``start()`` and
``stop()`` lands in exactly one layer, so the self times sum to the
traced wall time.  The hook's own cost is charged with the event that
triggered it, so layers that make many small calls read high by
roughly the trace overhead.

:class:`Census` reads per-layer counts from the program's public state:
it keeps the device queues, page caches and trace spillers the run
constructs (seen on their ``__init__`` return), counts
``FlowNetwork.transfer`` calls, times ``ResultCache.get``/``put``, and
folds payload fields.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Optional

#: Every layer the traced run reports, in table order.
LAYERS = (
    "sim", "iosched", "disk", "disk.ssd", "virt", "net", "hdfs",
    "mapreduce", "ctrl", "obs", "runner", "other", "stdlib",
)

#: ``repro`` sub-packages reported as layers of their own; the rest of
#: ``repro`` (api, core, workloads, metrics, faults, ...) is ``other``.
_PACKAGES = frozenset(LAYERS) - {"disk.ssd", "other", "stdlib"}

Watch = Callable[[object, str, float], None]


class LayerProfiler:
    """Exhaustive self-time attribution by owning ``repro`` package."""

    def __init__(self, repro_dir: str, watches: Dict[object, Watch]):
        self._root = os.path.join(os.path.realpath(repro_dir), "")
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Code object -> callback run on each of its call/return events.
        self._watches = watches
        self._flush: Optional[Callable[[], None]] = None

    def layer_of(self, code) -> str:
        path = os.path.realpath(code.co_filename)
        if not path.startswith(self._root):
            return "stdlib"
        rel = path[len(self._root):].replace(os.sep, "/")
        if rel == "disk/ssd.py":
            return "disk.ssd"
        package = rel.split("/", 1)[0] if "/" in rel else ""
        return package if package in _PACKAGES else "other"

    def start(self) -> None:
        acc = self.self_s
        watches = self._watches
        perf = time.perf_counter
        # ``unwatched`` answers the common case in one lookup; watched
        # code objects always miss it, so their watch runs on each call.
        unwatched: Dict[object, str] = {}
        resolved: Dict[object, str] = {None: "stdlib"}

        def resolve(code) -> str:
            layer = resolved.get(code)
            if layer is None:
                layer = resolved[code] = self.layer_of(code)
            return layer

        cur = "stdlib"
        last = perf()

        def hook(frame, event, arg):
            nonlocal cur, last
            if event == "call":
                code = frame.f_code
                layer = unwatched.get(code)
                if layer is None:
                    layer = resolve(code)
                    watch = watches.get(code)
                    if watch is None:
                        unwatched[code] = layer
                    else:
                        watch(frame, event, perf())
            elif event == "return":
                watch = watches.get(frame.f_code)
                if watch is not None:
                    watch(frame, event, perf())
                back = frame.f_back
                owner = back.f_code if back is not None else None
                layer = unwatched.get(owner) or resolve(owner)
            else:  # c_call / c_return / c_exception: the caller's time
                return
            if layer != cur:
                now = perf()
                acc[cur] += now - last
                cur = layer
                last = now

        def flush() -> None:
            nonlocal last
            now = perf()
            acc[cur] += now - last
            last = now

        self._flush = flush
        sys.setprofile(hook)

    def stop(self) -> None:
        sys.setprofile(None)
        if self._flush is not None:
            self._flush()
            self._flush = None

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())


def _code(module: str, qualname: str):
    """The code object of ``module.qualname``, or ``None`` if it is gone."""
    import importlib

    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj.__code__
    except (ImportError, AttributeError) as exc:
        print(f"perfbench: census cannot watch {module}.{qualname}: {exc}",
              file=sys.stderr)
        return None


class Census:
    """Per-layer counts, harvested after each simulation."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {
            "requests": 0, "merged": 0, "device_requests": 0,
            "busy_sim_s": 0.0, "nand_programs": 0, "host_pages": 0,
            "pc_hits": 0, "pc_misses": 0, "flows": 0, "tasks": 0,
            "switches": 0, "spilled": 0, "flushes": 0,
            "cache_get_s": 0.0, "cache_put_s": 0.0,
        }
        self._queues: List[object] = []
        self._caches: List[object] = []
        self._spillers: List[object] = []
        self._started: Dict[object, List[float]] = {}

    def watches(self) -> Dict[object, Watch]:
        def keep(into: List[object]) -> Watch:
            def watch(frame, event, now):
                if event == "return":
                    into.append(frame.f_locals.get("self"))
            return watch

        def count_flow(frame, event, now):
            if event == "call":
                self.counts["flows"] += 1

        def timer(key: str) -> Watch:
            starts = self._started.setdefault(key, [])

            def watch(frame, event, now):
                if event == "call":
                    starts.append(now)
                elif starts:
                    self.counts[key] += now - starts.pop()
            return watch

        wanted = {
            ("repro.disk.device", "ElevatorQueue.__init__"): keep(self._queues),
            ("repro.virt.pagecache", "PageCache.__init__"): keep(self._caches),
            ("repro.obs.spill", "TraceSpiller.__init__"): keep(self._spillers),
            ("repro.net.flow", "FlowNetwork.transfer"): count_flow,
            ("repro.runner.cache", "ResultCache.get"): timer("cache_get_s"),
            ("repro.runner.cache", "ResultCache.put"): timer("cache_put_s"),
        }
        out: Dict[object, Watch] = {}
        for (module, qualname), watch in wanted.items():
            code = _code(module, qualname)
            if code is not None:
                out[code] = watch
        return out

    def harvest(self, payloads: List[dict]) -> None:
        """Fold the instances one simulation built, and its payloads."""
        c = self.counts
        for queue in self._queues:
            stats = getattr(queue, "stats", None)
            if stats is None:
                continue
            served = stats.read_count + stats.write_count
            c["requests"] += served + stats.merged_count
            c["merged"] += stats.merged_count
            if not type(queue).__module__.startswith("repro.virt"):
                c["device_requests"] += served + stats.merged_count
                c["busy_sim_s"] += stats.busy_time
            c["nand_programs"] += getattr(queue, "nand_programs", 0)
            c["host_pages"] += getattr(queue, "host_pages", 0)
        for cache in self._caches:
            c["pc_hits"] += cache.hits
            c["pc_misses"] += cache.misses
        for spiller in self._spillers:
            c["spilled"] += spiller.spilled
            c["flushes"] += spiller.flushes
        self._queues.clear()
        self._caches.clear()
        self._spillers.clear()
        for payload in payloads:
            for job in payload.get("jobs", [payload]):
                c["tasks"] += job.get("n_maps", 0) + job.get("n_reducers", 0)
            c["switches"] += payload.get("ctrl", {}).get("n_switches", 0)

    def metrics(self) -> Dict[str, float]:
        c = self.counts
        return {
            "iosched.merge_ratio": _ratio(c["merged"], c["requests"]),
            "disk.requests": c["device_requests"],
            "disk.busy_sim_s": c["busy_sim_s"],
            "disk.ssd.nand_programs": c["nand_programs"],
            "disk.ssd.write_amp": _ratio(c["nand_programs"], c["host_pages"]),
            "virt.pagecache_hit_ratio": _ratio(
                c["pc_hits"], c["pc_hits"] + c["pc_misses"]),
            "net.flows": c["flows"],
            "mapreduce.tasks": c["tasks"],
            "ctrl.switches": c["switches"],
            "obs.spilled": c["spilled"],
            "obs.flushes": c["flushes"],
            "runner.cache_get_s": c["cache_get_s"],
            "runner.cache_put_s": c["cache_put_s"],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
