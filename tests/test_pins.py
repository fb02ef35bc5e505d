"""The benchmark's pinned reports, checked by ``mpxlab simulate`` itself.

``perfbench/pins.json`` holds the SHA-256 of every benchmark scenario's
report; the benchmark counts a mismatch as a failed call.  Here every
scenario runs once on seed 0, and the wildcard workload, whose generators
consume the seed, on two more seeds.
"""

import hashlib
import json

import pytest

from mpxlab.cli import main

from test_size_guard import perfbench

PERFBENCH = perfbench()
CASES = ([(workload, 0) for workload in PERFBENCH.WORKLOADS]
         + [("wildcard-irregular", 1), ("wildcard-irregular", 2)])


@pytest.mark.parametrize("workload,seed", CASES)
def test_reports_match_the_benchmark_pins(tmp_path, workload, seed):
    pins = json.loads(PERFBENCH.PINS.read_text())["seeds"][str(seed)][workload]
    specs = PERFBENCH.write_specs(workload, seed, tmp_path / "specs")
    out = tmp_path / "reports"
    assert main(["simulate", "--spec", *map(str, specs.values()),
                 "--out", str(out), "--format", "json"]) == 0
    got = {name: hashlib.sha256(
               (out / f"{path.stem}.report.json").read_bytes()).hexdigest()
           for name, path in specs.items()}
    assert got == {name: pins[name]["sha256"] for name in specs}
