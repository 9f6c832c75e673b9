"""Print every benchmark metric, by name and unit, for every workload.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--seed 0] [--seconds 20]

Runs ``run.py`` for each workload, untraced (end-to-end metrics) and
traced (per-layer metrics), and prints one line per metric.  Exits 1 if
any run fails or reports a payload that misses its reference digest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    ok = True
    print(f"{'workload':16s} {'metric':28s} {'value':>16s} unit")
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name:16s} run failed (trace {trace})")
                ok = False
                continue
            result = json.loads(lines[-1])
            for key, metric in result["metrics"].items():
                print(f"{name:16s} {key:28s} {metric['value']:16.6g} "
                      f"{metric['unit']}")
            rate = result["failed"] / result["attempted"]
            print(f"{name:16s} {'failure_rate':28s} {rate:16.6g} ratio")
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
