"""One measurement in a fresh interpreter; ``run.py`` starts it.

Usage: ``python3 perfbench/child.py MODE WORKLOAD SEED [ARGS...]`` with
``src`` on ``PYTHONPATH``.  The last line of standard output is a JSON
object with the mode's results.

Modes:

* ``setup W SEED`` — import ``repro`` and build the workload's specs.
* ``pass W SEED GROUP JOBS CACHE`` — run one pass (``GROUP`` is a pass
  index, or ``all`` for every simulation) through ``repro.api.sweep``
  with a ``JOBS``-worker pool and the result cache in ``CACHE``.
  Reports the pass's wall time, payload digests, how many simulations
  it executed (0 when the cache served them all), and the peak resident
  set of this process and its pool workers.
* ``trace W SEED SECONDS TMP`` — the per-layer run (see :func:`trace`).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple

from fence import Fence
from workloads import WORKLOADS, Workload, flatten, groups, specs


def payload_digest(payload) -> str:
    """sha256 of one payload, shaped like ``repro bench``'s list digest."""
    blob = json.dumps([payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@contextmanager
def captured(workload: Workload, cache: Path):
    """The program's own trace capture, on for ``control_traced`` only.

    Artifacts go next to the pass's cache directory and are deleted
    afterwards: the capture is the workload's input, not a result.
    """
    if not workload.capture:
        yield
        return
    from repro.obs import capture

    out = cache.with_name(cache.name + "-capture")
    capture.enable(out)
    try:
        yield
    finally:
        capture.disable()
        shutil.rmtree(out, ignore_errors=True)


def run_pass(workload: Workload, scenarios, seeds, jobs: int, cache: Path):
    """One pass through ``repro.api.sweep``; returns (digests, wall, runner)."""
    from repro.api import sweep
    from repro.runner.sweep import SweepRunner

    with captured(workload, cache):
        t0 = time.perf_counter()
        with SweepRunner(jobs=jobs, cache_dir=cache) as runner:
            payloads = flatten(sweep(scenarios, seeds=seeds, runner=runner))
        wall = time.perf_counter() - t0
    return [payload_digest(p) for p in payloads], wall, runner


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def one_pass(workload: Workload, seed: int, group: str, jobs: int,
             cache: Path) -> Dict:
    passes = groups(workload, seed)
    if group == "all":
        scenarios, seeds = workload.build(seed)
        start = 0
    else:
        start, scenarios, seeds = passes[int(group)]
    out: Dict = {"start": start, "count": len(scenarios) * len(seeds),
                 "specs": len(specs(workload, seed)), "passes": len(passes)}
    try:
        digests, wall, runner = run_pass(workload, scenarios, seeds, jobs,
                                         cache)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out["error"] = True
        return out
    out.update(digests=digests, wall=wall, executed=runner.stats.executed,
               peak_rss_mb=peak_rss_mb())
    return out


def trace(workload: Workload, seed: int, seconds: float, tmp: Path) -> Dict:
    """The per-layer run.

    1. an untraced cold pass at the workload's pool size (pool use);
    2. untraced inline passes for a third of SECONDS (the reference wall);
    3. one inline cold pass under the layer profiler and census;
    4. one inline warm pass against step 3's cache (cache reads).
    """
    import repro
    from repro.api import sweep
    from repro.runner.sweep import SweepRunner
    from repro.sim.core import finish_event_census, start_event_census

    from layers import LAYERS, Census, LayerProfiler

    fence = Fence(workload.name, seed, len(specs(workload, seed)))
    jobs = workload.jobs()
    scenarios, seeds = workload.build(seed)

    def untraced(tag: str, pass_jobs: int) -> Tuple[float, object]:
        digests, wall, runner = run_pass(workload, scenarios, seeds,
                                         pass_jobs, tmp / tag)
        fence.check(0, digests)
        shutil.rmtree(tmp / tag, ignore_errors=True)
        return wall, runner

    wall, runner = untraced("pool", jobs)
    pool_busy = runner.profiler.worker_utilization()
    inline_walls = [wall] if jobs == 1 else []
    started = time.perf_counter()
    while not inline_walls or time.perf_counter() - started < seconds / 3:
        inline_walls.append(untraced(f"inline{len(inline_walls)}", 1)[0])

    census = Census()
    watches = census.watches()
    repro_dir = os.path.dirname(repro.__file__)
    profiler = LayerProfiler(repro_dir, watches)
    cache = tmp / "traced"
    traced_wall = 0.0
    digests: List[str] = []
    with captured(workload, cache):
        cold = SweepRunner(jobs=1, cache_dir=cache)
        start_event_census()
        for scenario in scenarios:
            for run_seed in seeds:
                t0 = time.perf_counter()
                profiler.start()
                payloads = flatten(sweep([scenario], seeds=(run_seed,),
                                         runner=cold))
                profiler.stop()
                traced_wall += time.perf_counter() - t0
                census.harvest(payloads)
                digests.extend(payload_digest(p) for p in payloads)
        events = finish_event_census()
        cold.close()
        fence.check(0, digests)

        warm_profiler = LayerProfiler(repro_dir, watches)
        warm_profiler.start()
        with SweepRunner(jobs=1, cache_dir=cache) as hot:
            payloads = flatten(sweep(scenarios, seeds=seeds, runner=hot))
        warm_profiler.stop()
        fence.check(0, [payload_digest(p) for p in payloads])

    attributed = profiler.total_s / traced_wall
    if not 0.98 <= attributed <= 1.02:
        raise SystemExit(
            f"perfbench: layer self times sum to {profiler.total_s:.3f}s, "
            f"traced wall {traced_wall:.3f}s (outside the 2% tolerance)")
    untraced_wall = statistics.median(inline_walls)
    metrics: Dict[str, float] = {
        f"{layer}.self_s": profiler.self_s[layer] for layer in LAYERS
    }
    metrics.update(census.metrics())
    metrics.update({
        "sim.events": events,
        "runner.cache_hits": hot.cache.hits,
        "runner.cache_misses": cold.cache.misses,
        "runner.pool_busy_frac": pool_busy,
        "bench.traced_wall_s": traced_wall,
        "bench.untraced_wall_s": untraced_wall,
        "bench.trace_overhead": traced_wall / untraced_wall,
        "bench.attributed_frac": attributed,
    })
    return {"metrics": metrics, "attempted": fence.attempted,
            "failed": fence.failed}


def main(argv: List[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        out: Dict = {"specs": len(specs(workload, seed))}
    elif mode == "pass":
        out = one_pass(workload, seed, argv[3], int(argv[4]), Path(argv[5]))
    elif mode == "trace":
        out = trace(workload, seed, float(argv[3]), Path(argv[4]))
    else:
        raise SystemExit(f"perfbench: unknown child mode {mode!r}")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
