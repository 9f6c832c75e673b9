"""The repository benchmark: host time of the simulator on four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sort_hdd --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``warm_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` runs the separate traced
run and prints the per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; a table of the same numbers goes to standard error.
See ``perfbench/README.md`` for what each workload and metric means.

Every measurement runs in a fresh child interpreter (``child.py``), one
at a time, with the checkout's ``src`` on ``PYTHONPATH``; scratch files
go to ``.perfbench_tmp/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from fence import Fence
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {"wall_s": "s", "warm_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def child(args: List[str], timeout: float) -> Dict:
    """Run ``child.py ARGS`` to completion; returns its JSON result.

    The child gets its own process group, so a timeout takes its sweep
    pool workers down with it; it is always waited for.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"child {args[0]} printed no result")
    return json.loads(lines[-1])


def timed_child(args: List[str], timeout: float):
    t0 = time.perf_counter()
    out = child(args, timeout)
    return time.perf_counter() - t0, out


def end_to_end(name: str, seed: int, seconds: int, tmp: Path) -> Dict:
    """Rounds of (cold pass, set-up sample, warm rerun) for SECONDS.

    Interleaving spreads every metric's samples over the whole run, so
    a slow spell on the machine touches all of them alike.  Round ``i``
    runs pass ``i`` (modulo the number of passes) cold, in a fresh child
    with an empty cache; round 0's cache is kept and every warm rerun
    reads it.  A pooled workload ends with one ``jobs=1`` pass, whose
    payloads must equal the pooled ones.
    """
    jobs = str(WORKLOADS[name].jobs())
    walls: List[float] = []
    setups: List[float] = []
    warms: List[float] = []
    peaks: List[float] = []
    fence: Optional[Fence] = None

    def record(out: Dict) -> bool:
        if out.get("error"):
            fence.fail(out["count"], out["count"])
            return False
        fence.check(out["start"], out["digests"])
        return True

    n_passes = 1
    started = time.perf_counter()
    i = 0
    while i < n_passes or time.perf_counter() - started < seconds:
        cache = tmp / f"cold{i}"
        out = child(["pass", name, str(seed), str(i % n_passes), jobs,
                     str(cache)], 150)
        if fence is None:
            fence = Fence(name, seed, out["specs"])
            n_passes = out["passes"]
        if record(out):
            walls.append(out["wall"])
            peaks.append(out["peak_rss_mb"])
        if i:
            shutil.rmtree(cache, ignore_errors=True)
        setups.append(timed_child(["setup", name, str(seed)], 60)[0])
        wall, out = timed_child(["pass", name, str(seed), "0", jobs,
                                 str(tmp / "cold0")], 60)
        if out.get("executed"):  # a warm rerun must be served from the cache
            fence.fail(out["count"], out["count"])
        elif record(out):
            warms.append(wall)
        i += 1
    if jobs != "1":
        record(child(["pass", name, str(seed), "all", "1",
                      str(tmp / "inline")], 150))
    if not walls or not warms:
        raise ChildFailed("no cold pass or warm rerun completed")
    for label, samples in (("wall_s", walls), ("warm_s", warms),
                           ("setup_s", setups)):
        print(f"perfbench: {label} samples "
              f"{' '.join(f'{s:.4f}' for s in samples)}", file=sys.stderr)
    return {
        "attempted": fence.attempted,
        "failed": fence.failed,
        "metrics": {
            "wall_s": statistics.median(walls),
            "warm_s": statistics.median(warms),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(peaks),
        },
        "units": END_TO_END_UNITS,
    }


def per_layer(name: str, seed: int, seconds: int, tmp: Path) -> Dict:
    out = child(["trace", name, str(seed), str(seconds), str(tmp)], 170)
    out["units"] = {key: _layer_unit(key) for key in out["metrics"]}
    return out


def _layer_unit(key: str) -> str:
    if key.endswith("_sim_s"):
        return "sim_s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_frac", "_amp", "overhead")):
        return "ratio"
    return "count"


def print_table(name: str, result: Dict) -> None:
    err = sys.stderr
    metrics, units = result["metrics"], result["units"]
    print(f"perfbench {name}:", file=err)
    total = metrics.get("bench.traced_wall_s")
    for key in sorted(metrics):
        value, unit = metrics[key], units[key]
        share = ""
        if total and key.endswith(".self_s"):
            share = f"  {100 * value / total:5.1f}%"
        print(f"  {key:28s} {value:14.6g} {unit}{share}", file=err)
    rate = result["failed"] / result["attempted"]
    print(f"  {'failure_rate':28s} {rate:14.6g} ratio "
          f"({result['failed']}/{result['attempted']} simulations)", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        result = measure(args.workload, args.seed, args.seconds, tmp)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print_table(args.workload, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": value, "unit": result["units"][key]}
            for key, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
