"""The correctness fence: every payload must match its reference digest.

Seed 0 is checked against the digests pinned in ``golden.json`` (one
per simulation, in ``repro.api.sweep`` order).  Any other seed is
checked against the first run of each simulation, so every later run of
it (cold, warm, ``jobs=1``, traced) must reproduce it byte for byte.  A
simulation that raises, misses its reference, or is re-simulated where
the cache should have served it counts as failed, never as a timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

from workloads import REPO_GOLDEN

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class Fence:
    def __init__(self, name: str, seed: int, n_specs: int):
        self.ref: List[Optional[str]] = [None] * n_specs
        if seed == 0:
            self.ref = json.loads(GOLDEN_PATH.read_text())[name]
            pinned = REPO_GOLDEN.get(name, self.ref[0])
            if self.ref[0] != pinned or len(self.ref) != n_specs:
                raise SystemExit(f"perfbench: golden.json does not match "
                                 f"the {name} workload")
        self.attempted = 0
        self.failed = 0

    def check(self, start: int, digests: List[str]) -> None:
        bad = 0
        for i, digest in enumerate(digests, start):
            if self.ref[i] is None:
                self.ref[i] = digest
            elif self.ref[i] != digest:
                bad += 1
        self.fail(len(digests), bad)
        if bad:
            print(f"perfbench: {bad} payload(s) differ from the reference",
                  file=sys.stderr)

    def fail(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
