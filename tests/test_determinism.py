"""`mpxlab simulate` writes the same bytes under every string-hash seed.

Each interpreter salts ``str`` hashes by ``PYTHONHASHSEED`` and places
objects at its own addresses, so any report that depended on the iteration
order of a set, or on how an enum or a string hashes, would differ between
the two runs below.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one small spec per mechanism; the irregular kinds bring in wildcard
# receives, the polling step and one-sided windows
SPECS = {
    "communicators": {"kind": "stencil-3d-27pt", "process_grid": [2, 2, 2],
                      "thread_grid": [2, 2, 2]},
    "communicators-naive": {"kind": "legion-polling", "process_grid": [3],
                            "thread_grid": [4], "iterations": 2},
    "tags": {"kind": "stencil-2d-9pt", "process_grid": [2, 2],
             "thread_grid": [3, 3]},
    "endpoints": {"kind": "dynamic-graph", "process_grid": [3],
                  "thread_grid": [3], "iterations": 2},
    "partitioned": {"kind": "stencil-2d-5pt", "process_grid": [3, 2],
                    "thread_grid": [2, 3], "iterations": 3},
    "windows": {"kind": "bspmm-rma", "process_grid": [2], "thread_grid": [3]},
}


def simulate(tmp_path: Path, hash_seed: str) -> dict[str, bytes]:
    specs = []
    for mechanism, spec in SPECS.items():
        path = tmp_path / f"{mechanism}.json"
        path.write_text(json.dumps({**spec, "mechanism": mechanism, "seed": 3}))
        specs.append(str(path))
    out = tmp_path / f"hashseed{hash_seed}"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mpxlab.cli", "simulate", "--spec", *specs,
         "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    first = simulate(tmp_path, "0")
    assert len(first) == 2 * len(SPECS)  # a JSON and a CSV report per spec
    assert simulate(tmp_path, "1") == first
