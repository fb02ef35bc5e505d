"""Rewrite pins.json from the current sources.

For seeds 0-31 and every scenario of every workload, it stores the SHA-256
of the report JSON and the validation counts (lost pairs and matching
violations).  Only re-pin when a change is meant to alter model output, and
say so in the change.  It takes about a quarter of an hour on two CPUs.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import (OUT_DIR, PINS, WORKLOADS, HashCheck, provenance, simulate_traced,
                 use_source_tree, write_specs)
from spans import Tracer

SEEDS = range(32)
PINNED_KEYS = ("sha256", "lost_pairs", "violations")


def pin_one(workload: str, seed: int) -> dict:
    check = HashCheck({})
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for path in write_specs(workload, seed, Path(tmp)).values():
            simulate_traced(path, check, tracer)
    if check.failed:
        raise RuntimeError(f"{workload} seed {seed}: {check.failed} scenarios failed")
    return {name: {k: seen[k] for k in PINNED_KEYS} for name, seen in check.seen.items()}


def main() -> int:
    if not use_source_tree():
        print("pin: no mpxlab sources found", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    pins = {str(seed): {workload: pin_one(workload, seed) for workload in WORKLOADS}
            for seed in SEEDS}
    prov = provenance(seed=None)
    PINS.write_text(json.dumps({
        "pinned_at": {k: prov[k] for k in ("commit", "src_sha256", "python")},
        "seeds": pins,
    }, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(SEEDS)} seeds x {len(WORKLOADS)} workloads into {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
