"""``tools/bench_pairs.py`` writes alternating benchmark pairs of two
commits in the layout of the committed ``BENCH_*.json`` files.  One pair on
one workload at one second, on two exports of the same commit, checks the
layout and that both sides hash the same ``src/``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEAD = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                      capture_output=True, text=True)


@pytest.mark.skipif(HEAD.returncode != 0, reason="needs a git checkout")
def test_one_pair_of_the_same_commit(tmp_path):
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "HEAD", "HEAD",
         "--pairs", "matching-storm=1", "--seconds", "1", "--out", str(out),
         "--scratch", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    provenance = record["provenance"]
    head = HEAD.stdout.strip()
    assert provenance["parent_commit"] == provenance["change_commit"] == head
    hashes = provenance["src_sha256"]
    assert hashes["parent"] == hashes["change"] and len(hashes["parent"]) == 64
    assert {"python", "nproc", "utc"} <= set(provenance)
    e2e = record["end_to_end"]
    assert {"command", "pairs", "quartiles", "change_wins"} <= set(e2e)
    entry = e2e["workloads"]["matching-storm"]
    assert entry["seeds"] == [1]
    assert entry["failed_calls"] == {"parent": 0, "change": 0}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        got = entry[metric["name"]]
        assert (got["unit"], got["better"], got["bound"]) == \
            (metric["unit"], metric["better"], metric["bound"])
        for side in ("parent", "change"):
            runs = got[side]["runs"]
            assert len(runs) == 1
            assert got[side]["median"] == got[side]["q1"] == got[side]["q3"] \
                == runs[0]
        assert got["change_wins"] + got["ties"] <= 1
    assert entry["ok_frac"]["parent"]["runs"] == [1.0]
    assert list(tmp_path.iterdir()) == [out]  # every export removed
