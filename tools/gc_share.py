"""Time spent in cyclic garbage collections during `mpxlab simulate` calls.

Run from the repository root, on one or more scenario spec files:

    python3 tools/gc_share.py --repeat 3 spec1.json spec2.json
    python3 tools/gc_share.py --src other/checkout/src spec1.json
    python3 tools/gc_share.py --stages --repeat 5 spec1.json
    python3 tools/gc_share.py --stages --json stages.json spec1.json

Each spec is simulated ``--repeat`` times in-process, two ways:

- ``cli``: ``mpxlab.cli.main(["simulate", ...])``, as a user runs it;
- ``library``: ``build_pattern``, ``build_assignment``, ``run`` and
  ``to_json`` called in turn with the collector on, as a library caller
  (and the benchmark's traced pass) runs them.

Every collection is timed through ``gc.callbacks``.  Per spec and way, the
script prints the median wall time, the collections run per generation,
and the median share of the wall time spent collecting.

With ``--stages`` the script instead prints, per spec, the median wall time
of each library stage of one call: ``build_pattern`` (generate),
``build_assignment`` (assign), ``run`` (without events, as ``simulate``
calls it) and ``to_json``, with the collector on, and their sum; a last
row sums each stage over the specs.  Each call's seconds are scaled to the
benchmark's reference host speed by ``perfbench/run.py``'s ``HostSpeed``,
whose loop is timed between every two calls, so that two runs compare the
code rather than the host's drift; the ``factor`` column is the median
scale of a spec's calls.  One more call per spec, untimed, runs under
``tracemalloc`` with the collector paused, as ``mpxlab simulate`` runs:
the ``MiB`` columns give each stage's traced peak above what was traced
as the stage began, and the last row their largest over the specs.
``--json PATH`` also writes the raw and scaled medians and the peaks to
PATH: ``{"repeat": N, "reference_s": seconds, "specs": {name: {"factor":
f, "raw": {stage: seconds}, "scaled": {stage: seconds}, "peak_mib":
{stage: MiB}}}, "sum": {"raw": {stage: seconds}, "scaled": {stage:
seconds}, "peak_mib": {stage: MiB}}}``, the last the largest over the
specs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


class CollectionClock:
    """Sums the seconds and counts the runs of the cyclic collector."""

    def __init__(self):
        self.seconds = 0.0
        self.runs = [0, 0, 0]
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
        elif self._start is not None:
            self.seconds += perf_counter() - self._start
            self.runs[info["generation"]] += 1
            self._start = None

    @contextlib.contextmanager
    def counting(self):
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


def simulate_cli(spec: Path, out: Path):
    from mpxlab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--spec", str(spec), "--out", str(out),
                         "--format", "json"])
    if code != 0:
        raise SystemExit(f"{spec}: mpxlab simulate exited {code}")


STAGES = ("generate", "assign", "run", "to_json")


def simulate_library(spec: Path, out: Path, mark=perf_counter) -> list:
    """One library call; ``mark()`` read before its first stage and after
    each."""
    from mpxlab.patterns.specfile import load_scenario
    from mpxlab.simulator import run

    scenario = load_scenario(spec)
    marks = [mark()]
    pattern = scenario.build_pattern()
    marks.append(mark())
    assignment = scenario.build_assignment(pattern)
    marks.append(mark())
    report = run(pattern, assignment, pool=scenario.build_pool(),
                 policy=scenario.build_policy(), seed=scenario.seed,
                 events=False)
    marks.append(mark())
    text = report.to_json()
    marks.append(mark())
    (out / f"{spec.stem}.report.json").write_text(text)
    return marks


def stage_seconds(spec: Path, out: Path) -> dict[str, float]:
    """One library call; the wall seconds of each of its stages."""
    marks = simulate_library(spec, out)
    return {stage: b - a for stage, a, b in zip(STAGES, marks, marks[1:])}


def _traced_mark() -> tuple[int, int]:
    """The traced bytes now and at their peak since the last mark."""
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    return current, peak


def stage_peaks(spec: Path, out: Path) -> dict[str, float]:
    """One library call under ``tracemalloc``, with the collector paused as
    ``mpxlab simulate`` pauses it; the traced peak of each of its stages
    above what was traced as it began, in MiB."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        marks = simulate_library(spec, out, _traced_mark)
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    return {stage: (peak - start) / 2**20
            for stage, (start, _), (_, peak) in zip(STAGES, marks, marks[1:])}


def print_stages(specs: list[Path], out: Path, repeat: int) -> dict:
    """Print the scaled stage medians of each spec; return the raw and
    scaled medians as ``--json`` writes them."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import REFERENCE_S, HostSpeed  # perfbench/run.py

    def row(name, medians):
        seconds = [medians["scaled"][s] for s in STAGES]
        print(f"{name:24s} " + " ".join(f"{s:10.4f}" for s in seconds)
              + f" {sum(seconds):10.4f} {medians['factor']:7.3f} "
              + " ".join(f"{medians['peak_mib'][s]:9.2f}" for s in STAGES))

    print(f"{'spec':24s} " + " ".join(f"{s + ' s':>10s}" for s in STAGES)
          + f" {'total s':>10s} {'factor':>7s} "
          + " ".join(f"{s[:5] + ' MiB':>9s}" for s in STAGES))
    speed = HostSpeed()
    per_spec = {}
    for spec in specs:
        calls = []
        for _ in range(repeat):
            gc.collect()
            seconds = stage_seconds(spec, out)
            calls.append((seconds, speed.factor()))
        per_spec[spec.stem] = {
            "factor": statistics.median(f for _, f in calls),
            "raw": {s: statistics.median(c[s] for c, _ in calls)
                    for s in STAGES},
            "scaled": {s: statistics.median(c[s] * f for c, f in calls)
                       for s in STAGES},
            "peak_mib": stage_peaks(spec, out),
        }
        row(spec.stem, per_spec[spec.stem])
    total = {way: {s: sum(m[way][s] for m in per_spec.values()) for s in STAGES}
             for way in ("raw", "scaled")}
    total["peak_mib"] = {s: max(m["peak_mib"][s] for m in per_spec.values())
                         for s in STAGES}
    if len(specs) > 1:
        row("(sum; largest MiB)", {**total, "factor": statistics.median(
            m["factor"] for m in per_spec.values())})
    print(f"seconds scaled to a host whose reference loop takes "
          f"{REFERENCE_S * 1e3:g} ms; factor = that over the loop's time "
          f"around each call")
    return {"repeat": repeat, "reference_s": REFERENCE_S, "specs": per_spec,
            "sum": total}


def measure(call, spec: Path, out: Path, repeat: int) -> dict:
    walls, shares, runs = [], [], [0, 0, 0]
    for _ in range(repeat):
        gc.collect()
        with CollectionClock().counting() as clock:
            start = perf_counter()
            call(spec, out)
            wall = perf_counter() - start
        walls.append(wall)
        shares.append(clock.seconds / wall)
        runs = [a + b for a, b in zip(runs, clock.runs)]
    return {"wall_s": statistics.median(walls),
            "share": statistics.median(shares),
            "runs": [n / repeat for n in runs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("specs", nargs="+", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the mpxlab sources to import (default: ./src)")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--stages", action="store_true",
                        help="print the median seconds of each library stage "
                             "instead of the collector's share")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="with --stages, also write the medians to PATH")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.json and not args.stages:
        parser.error("--json needs --stages")
    if len({spec.stem for spec in args.specs}) < len(args.specs):
        parser.error("specs are named by file stem: give each a distinct one")
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        if args.stages:
            stages = print_stages(args.specs, Path(tmp), args.repeat)
            if args.json:
                args.json.write_text(json.dumps(stages, indent=1) + "\n")
            return 0
        print(f"{'spec':24s} {'way':8s} {'wall s':>8s} {'gc share':>9s} "
              f"{'runs per call (gen 0/1/2)':>26s}")
        for spec in args.specs:
            for way, call in (("cli", simulate_cli), ("library", simulate_library)):
                m = measure(call, spec, Path(tmp), args.repeat)
                runs = "/".join(f"{n:g}" for n in m["runs"])
                print(f"{spec.stem:24s} {way:8s} {m['wall_s']:8.3f} "
                      f"{m['share']:9.1%} {runs:>26s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
