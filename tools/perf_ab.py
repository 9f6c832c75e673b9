"""Same-machine A/B of the repository benchmark: a base revision vs this checkout.

Usage (from the root of a checkout)::

    python3 tools/perf_ab.py --base HEAD~1 --pairs 10 --seed 11
    python3 tools/perf_ab.py --workloads control_traced --pairs 3

The base revision is exported with ``git archive``, and the checkout
this script sits in (uncommitted edits included, ignored files left
out) is copied as the change, each into a fresh temporary directory:
neither side then has compiled bytecode or caches the other lacks, and
the repository's own metadata is left alone.  For each workload in
``BENCHMARK.json`` the script runs ``perfbench/run.py --trace 0`` in
both trees for the benchmark's own ``run_seconds``, one after the
other, for ``--pairs`` pairs, swapping which tree goes first on every
other pair so that a slow spell on the machine does not always land on
the same side.

It prints, per workload and end-to-end metric, the median and the
interquartile range (IQR) of each side, the change/base ratio of the
medians, and how many pairs the change won, judged against the metric's
``BENCHMARK.json`` bound:

* ``worse`` — the change's median is worse than the base's by more
  than the bound (a relative fraction);
* ``gain`` — over at least ten pairs, the change won nine in ten and
  its median is better by more than the base's IQR;
* ``unresolved`` — the base's IQR is wider than the bound, so the runs
  cannot show a change of that size (unless every change run beat
  every base run, which reads ``same``);
* ``same`` — none of these.

Exit status is 1 if any metric is ``worse`` or any run reports a failed
simulation, 0 otherwise.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    data = sorted(samples)
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    """Verdict on one metric from paired samples (``base[i]`` ran
    next to ``change[i]``).

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the largest
    tolerated relative worsening of the median.
    """
    if not base or len(base) != len(change):
        raise ValueError("need the same non-zero number of base and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    ratio = c_med / b_med if b_med else float("inf")
    # Positive = the change's median is better than the base's.
    gain = sign * (b_med - c_med)
    if -gain > bound * abs(b_med):
        verdict = "worse"
    elif len(base) >= 10 and 10 * wins >= 9 * len(base) and gain > b3 - b1:
        verdict = "gain"
    elif (b3 - b1 > bound * abs(b_med)
          and not all(sign * (b - c) > 0 for b in base for c in change)):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "base_median": b_med, "base_iqr": b3 - b1,
        "change_median": c_med, "change_iqr": c3 - c1,
        "ratio": ratio, "wins": wins, "pairs": len(base),
        "verdict": verdict,
    }


def export_base(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_checkout(dest: Path) -> None:
    """Copy this checkout's tracked and untracked, not ignored, files."""
    listing = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        check=True, stdout=subprocess.PIPE,
    ).stdout.decode()
    for rel in listing.split("\0"):
        src = ROOT / rel
        if rel and src.is_file():  # tracked files may be deleted
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def run_bench(tree: Path, workload: str, seed: int,
              seconds: int) -> Tuple[Dict[str, float], int]:
    """One ``perfbench/run.py --trace 0`` run; (metric values, failed)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} in {tree} exited "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, result["failed"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="git revision to compare against (HEAD~1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset of " + ",".join(names))
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(names))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown
                     else "--pairs must be >= 1")

    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    failed = 0
    worse = 0
    scratch = Path(tempfile.mkdtemp(prefix="perf_ab-"))
    try:
        base_tree, change_tree = scratch / "base", scratch / "change"
        export_base(args.base, base_tree)
        copy_checkout(change_tree)
        for workload in workloads:
            samples: Dict[str, List[Dict[str, float]]] = {"base": [],
                                                          "change": []}
            for i in range(args.pairs):
                order = [("base", base_tree), ("change", change_tree)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    values, n_failed = run_bench(tree, workload, args.seed,
                                                 seconds)
                    samples[side].append(values)
                    failed += n_failed
                print(f"perf_ab: {workload} pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
            print(f"\n{workload} (seed {args.seed}, {args.pairs} pairs of "
                  f"{seconds} s, base {args.base})")
            print(f"  {'metric':12s} {'base':>10s} {'iqr':>8s} "
                  f"{'change':>10s} {'iqr':>8s} {'ratio':>7s} {'wins':>6s}"
                  f"  verdict (bound)")
            for m in metrics:
                name = m["name"]
                row = compare([s[name] for s in samples["base"]],
                              [s[name] for s in samples["change"]],
                              m["better"], m["bound"])
                worse += row["verdict"] == "worse"
                print(f"  {name:12s} {row['base_median']:10.4f} "
                      f"{row['base_iqr']:8.4f} {row['change_median']:10.4f} "
                      f"{row['change_iqr']:8.4f} {row['ratio']:7.3f} "
                      f"{row['wins']:>3d}/{row['pairs']:<2d}  "
                      f"{row['verdict']} ({m['bound']})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"\nfailed simulations: {failed}")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
