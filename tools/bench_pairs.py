"""Alternating benchmark pairs of two commits, written as a BENCH_<n>.json.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT [CHANGE] --out BENCH_29.json \\
        --pairs stencil-ladder=60-69 --pairs matching-storm=60-64 \\
        --pairs wildcard-irregular=60-64 --seconds 35

``PARENT`` and ``CHANGE`` (default ``HEAD``) are commits of this
repository.  Each ``--pairs WORKLOAD=SEEDS`` names the seeds of one
workload, as ``A-B`` or ``A,B,...``; each seed is one pair: one run of
``perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0``
on each side, the parent first on odd seeds and the change first on even
ones.  Every run is made in a fresh ``git archive`` export of its side's
commit under ``--scratch`` (default: a temporary directory), one run at a
time, and the export is removed after it.

The output holds, per workload and per end-to-end metric that
``BENCHMARK.json`` declares (read from the change's export), each side's
runs, median and quartiles (``statistics.quantiles(runs, n=4,
method='inclusive')``), the pairs in which the change read better than the
parent in the metric's direction (``change_wins``) and the ties, and each
side's failed calls.  Its provenance gives both commits, the SHA-256 of
each side's ``src/`` (over each ``src/**/*.py`` in sorted path order: its
relative path, a NUL byte, its bytes), the Python version and the CPU
count.  A run that prints no result line counts as one failed call and
adds no metric.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(commit: str, into: Path) -> Path:
    """A fresh copy of ``commit``'s files in a new directory under ``into``."""
    out = Path(tempfile.mkdtemp(dir=into))
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(out)
    return out


def src_sha256(tree: Path) -> str:
    src, digest = tree / "src", hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run in ``tree``, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def workload_entry(seeds, results, declared) -> dict:
    """``results[side]``: one result line (or None) per seed."""
    entry = {"seeds": seeds, "failed_calls": {
        side: sum(1 if r is None else r["failed"] for r in results[side])
        for side in SIDES}}
    for metric in declared:
        name, better = metric["name"], metric["better"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"])
                 if p is not None and c is not None]
        if not pairs:
            continue
        sign = 1 if better == "higher" else -1
        entry[name] = {
            "unit": metric["unit"], "better": better, "bound": metric["bound"],
            **{side: summary([pair[i] for pair in pairs])
               for i, side in enumerate(SIDES)},
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "ties": sum(c == p for p, c in pairs),
        }
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD=SEEDS")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scratch", type=Path)
    args = parser.parse_args(argv)
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
               for side, ref in zip(SIDES, (args.parent, args.change))}
    plan = []
    for item in args.pairs:
        workload, _, seeds = item.partition("=")
        if not seeds:
            parser.error(f"--pairs {item!r} is not WORKLOAD=SEEDS")
        plan.append((workload, parse_seeds(seeds)))

    scratch = Path(tempfile.mkdtemp(dir=args.scratch))
    try:
        probe = {side: export(commits[side], scratch) for side in SIDES}
        hashes = {side: src_sha256(tree) for side, tree in probe.items()}
        declared = json.loads((probe["change"] / "BENCHMARK.json")
                              .read_text())["end_to_end"]
        for tree in probe.values():
            shutil.rmtree(tree)
        workloads = {}
        for workload, seeds in plan:
            results = {side: [] for side in SIDES}
            for seed in seeds:
                for side in (SIDES if seed % 2 else SIDES[::-1]):
                    tree = export(commits[side], scratch)
                    try:
                        results[side].append(
                            run_once(tree, workload, seed, args.seconds))
                    finally:
                        shutil.rmtree(tree)
                    print(f"{workload} seed {seed} {side}: "
                          f"{'failed' if results[side][-1] is None else 'done'}",
                          flush=True)
            workloads[workload] = workload_entry(seeds, results, declared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "what": "End-to-end metrics of perfbench/run.py on the parent commit "
                "and on the change, from alternating pairs, one pair per seed.",
        "provenance": {
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "src_sha256": {
                "how": "SHA-256 over each src/**/*.py in sorted path order: "
                       "its relative path, a NUL byte, its bytes",
                **hashes},
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
        "end_to_end": {
            "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                       f"--seconds {args.seconds:g} --trace 0",
            "pairs": "one pair per seed: " + "; ".join(
                f"{w} seeds {', '.join(map(str, s))}" for w, s in plan)
                + "; the parent ran first on odd seeds, the change on even "
                  "ones; each run in a fresh export of its side's commit, "
                  "one run at a time",
            "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
            "change_wins": "pairs in which the change read better than the "
                           "parent, in the metric's direction",
            "workloads": workloads,
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
