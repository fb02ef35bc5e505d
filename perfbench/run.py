"""mpxlab benchmark: host throughput of `mpxlab simulate` with pinned reports.

Run from the repository root:

    python3 perfbench/run.py --workload stencil-ladder --seed 1 --seconds 35 --trace 0

``--trace 0`` calls ``mpxlab.cli.main(["simulate", ...])`` in-process, one
spec per call, and reports the end-to-end metrics.  ``--trace 1`` calls each
layer's public functions in turn with a span around each call, reports the
per-layer metrics and writes a Chrome trace-event file.  ``--workload all``
runs every workload in its own process and prints all of their metrics.

Every report is hashed and compared with the pin for its (seed, scenario) in
``pins.json``; a mismatch, an exception or a nonzero exit code counts as a
failed call and makes the command exit 1.  Host times are scaled to a
reference host speed (see ``HostSpeed``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from spans import Tracer, self_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"

_STENCIL = {"kind": "stencil-3d-27pt", "thread_grid": [4, 4, 4], "channel_pool": 160}


def _fan_in(senders, mechanism, **hints):
    return {"kind": "fan-in", "process_grid": [2], "thread_grid": [senders],
            "mechanism": mechanism, "hints": hints}


def _irregular(kind, mechanism):
    return {"kind": kind, "process_grid": [32], "thread_grid": [8],
            "iterations": 32, "mechanism": mechanism}


# Why each workload (see README.md for the predictions it supports):
# - stencil-ladder: large op counts, so generation, assignment and engine
#   scheduling do the work while matching stays cheap; process grid [2,2,2]
#   is the paper's 808-communicators-vs-56-channels case, and [4,2,2] shows
#   which stages grow with the grid.
# - matching-storm: the quadratic shared-queue matching stressor; endpoints
#   keep the queue scans but skip the validation cost, per-thread contexts
#   skip both, so each optimisation has a scenario predicted not to move.
# - wildcard-irregular: the only workload that runs the polling loop, probe
#   loops and wildcard context buckets; its generators consume the seed.
WORKLOADS = {
    "stencil-ladder": {
        f"s{''.join(map(str, grid))}-{mech}": {**_STENCIL, "process_grid": grid,
                                               "mechanism": mech}
        for grid in ([2, 2, 2], [4, 2, 2])
        for mech in ("communicators", "tags", "endpoints", "partitioned")
    },
    "matching-storm": {
        "fanin512-naive": _fan_in(512, "communicators-naive"),
        "fanin512-naive-overtaking": _fan_in(512, "communicators-naive",
                                             allow_overtaking=True),
        "fanin256-naive": _fan_in(256, "communicators-naive"),
        "fanin512-endpoints": _fan_in(512, "endpoints"),
        "fanin512-per-thread-comms": _fan_in(512, "communicators"),
    },
    "wildcard-irregular": {
        f"{short}32-{label}": _irregular(kind, mech)
        for short, kind in (("legion", "legion-polling"), ("dyngraph", "dynamic-graph"))
        for label, mech in (("naive", "communicators-naive"), ("endpoints", "endpoints"))
    },
}


def declared() -> dict:
    """BENCHMARK.json: the run length, workloads and metrics declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in declared()[section]}


# Per-scenario counts that the traced pass reads from the model; summed over
# a workload except the maximum, which is taken over its scenarios.
_SUMMED_COUNTS = {
    "patterns.ops": "ops",
    "patterns.objects": "objects",
    "semantics.lost_pairs": "lost_pairs",
    "semantics.violations": "violations",
    "channels.instances_used": "channel_instances",
    "channels.busy_ticks": "busy_ticks",
    "simulator.events": "events",
    "simulator.match_attempts": "match_attempts",
    "simulator.matches": "matches",
    "simulator.makespan_ticks": "makespan",
    "simulator.probes": "probes",
    "simulator.sync_waits": "sync_waits",
}

SETUP_REPEATS = 11
MIN_SAMPLES = 3
# Time of reference_loop() on the 2-CPU host the benchmark was defined on.
REFERENCE_S = 0.012
_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mpxlab; "
    "from mpxlab.patterns.specfile import load_scenario; "
    "[load_scenario(p) for p in sys.argv[2:]]"
)


def use_source_tree() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    if not (SRC / "mpxlab" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def write_specs(workload: str, seed: int, spec_dir: Path) -> dict[str, Path]:
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, spec in WORKLOADS[workload].items():
        path = spec_dir / f"{name}.json"
        path.write_text(json.dumps({**spec, "seed": seed}, sort_keys=True))
        paths[name] = path
    return paths


class HashCheck:
    """Counts simulate calls and the ones whose report is wrong.

    A report is wrong when its SHA-256 or its validation counts differ from
    the pin for its scenario, or from the first report of that scenario in
    this run, so a seed without pins is still checked for repeatability.
    """

    def __init__(self, pins: dict):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.seen: dict[str, dict] = {}

    def record(self, name: str, report: bytes | None, counts: dict | None = None) -> bool:
        self.attempted += 1
        ok = report is not None
        if ok:
            got = {"sha256": hashlib.sha256(report).hexdigest(), **(counts or {})}
            expected = {**self.seen.get(name, {}), **self.pins.get(name, {})}
            mismatched = sorted(k for k in got.keys() & expected.keys()
                                if got[k] != expected[k])
            for key, value in got.items():
                self.seen.setdefault(name, {}).setdefault(key, value)
            if mismatched:
                print(f"perfbench: {name}: {', '.join(mismatched)} differ from the "
                      f"{'pin' if name in self.pins else 'first report'}",
                      file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1
        return ok


def simulate_cli(path: Path, report_dir: Path, check: HashCheck) -> float:
    """One in-process ``mpxlab simulate`` call; its host seconds."""
    from mpxlab import cli

    report = report_dir / f"{path.stem}.report.json"
    with contextlib.suppress(FileNotFoundError):
        report.unlink()
    argv = ["simulate", "--spec", str(path), "--out", str(report_dir),
            "--format", "json"]
    gc.collect()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    seconds = perf_counter() - start
    check.record(path.stem, report.read_bytes() if code == 0 and report.exists() else None)
    return seconds


def simulate_traced(path: Path, check: HashCheck, tracer: Tracer) -> dict | None:
    """Each layer's public calls in turn, one span per call; the model's counts."""
    from mpxlab.patterns.specfile import load_scenario
    from mpxlab.semantics import validate_assignment
    from mpxlab.simulator import run

    name = path.stem
    gc.collect()
    try:
        with tracer.span(f"scenario {name}", "perfbench", scenario=name):
            with tracer.span("load_scenario", "mpxlab.patterns"):
                scenario = load_scenario(path)
            with tracer.span("build_pattern", "mpxlab.patterns"):
                pattern = scenario.build_pattern()
            with tracer.span("build_assignment", "mpxlab.patterns"):
                assignment = scenario.build_assignment(pattern)
            with tracer.span("validate_assignment", "mpxlab.semantics"):
                validation = validate_assignment(pattern, assignment)
            pool, policy = scenario.build_pool(), scenario.build_policy()
            with tracer.span("run", "mpxlab.simulator"):
                report = run(pattern, assignment, pool=pool, policy=policy,
                             seed=scenario.seed)
            with tracer.span("to_json", "mpxlab.simulator"):
                text = report.to_json()
            busy = report.channel_occupancy.values()
            counts = {
                "lost_pairs": len(validation.lost_parallelism),
                "violations": len(validation.matching_violations),
                "ops": len(pattern.ops) * pattern.iterations,
                "objects": report.objects_total,
                "channel_instances": len(busy),
                "busy_ticks": sum(busy),
                "max_busy_ticks": max(busy, default=0),
                "events": len(report.events),
                "match_attempts": report.match_attempts_total,
                "matches": report.matches_total,
                "makespan": report.makespan,
                "probes": report.probe_iterations,
                "sync_waits": report.sync_wait_events,
            }
            # Free the model inside the scenario span, as the untraced call
            # frees it inside its timing, so teardown is in both wall times.
            del pattern, assignment, validation, report, busy
    except Exception:
        traceback.print_exc()
        check.record(name, None)
        return None
    check.record(name, text.encode(), counts)
    return counts


class HostSpeed:
    """Rescales host seconds to a reference host.

    On a shared machine the host's speed drifts by up to 2x within minutes,
    more than a run's median can absorb.  So a fixed pure-Python loop is
    timed between every two timed calls.  Each call's seconds are scaled by
    ``REFERENCE_S`` over the mean of the loop times just before and just
    after it.  Host-time metrics then read as seconds on a host where the
    loop takes ``REFERENCE_S``.
    """

    def __init__(self):
        self.loop_s = [reference_loop()]

    def factor(self) -> float:
        """The scale for the call that has just ended."""
        self.loop_s.append(reference_loop())
        return 2 * REFERENCE_S / (self.loop_s[-2] + self.loop_s[-1])


@dataclass(frozen=True)
class _Item:
    key: int
    value: int


def reference_loop() -> float:
    """Host seconds of a fixed loop shaped like the simulator's inner loops:
    frozen dataclasses, tuple-keyed dict inserts and a keyed sort."""
    gc.collect()
    start = perf_counter()
    table = {}
    for i in range(10_000):
        table[(i, i & 7)] = _Item(i, i >> 3)
    total = 0
    for key in sorted(table, key=lambda k: (k[1], k[0])):
        total += table[key].value
    return perf_counter() - start


def repeat_calls(names: list[str], seconds: float, call,
                 speed: HostSpeed) -> dict[str, list[tuple]]:
    """Call each scenario MIN_SAMPLES times, round by round and slowest first,
    so the largest scenarios get their samples; then call whichever has
    taken the least time so far, host-speed timing included, so cheap
    scenarios gather more.  Stop before a call that would end after
    ``seconds`` if it took its mean time so far; every scenario runs at
    least once.  Each sample is the call's result with its host-speed
    factor."""
    results: dict[str, list] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)

    def priority(name):
        done = len(results[name])
        if done < MIN_SAMPLES:
            return 0, done, -spent[name] / max(done, 1)
        return 1, 0, spent[name]

    start = perf_counter()
    while True:
        name = min(names, key=priority)
        if results[name] and perf_counter() - start + spent[name] / len(results[name]) > seconds:
            return results
        begun = perf_counter()
        value = call(name)
        factor = speed.factor()
        spent[name] += perf_counter() - begun
        results[name].append((value, factor))


def setup_samples(specs: dict[str, Path], speed: HostSpeed) -> list[float]:
    """Host seconds from interpreter start through ``import mpxlab`` and
    ``load_scenario`` of every spec, in fresh processes, scaled by host
    speed.  One untimed start first writes the bytecode cache, as any
    installed copy would have it."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC), *map(str, specs.values())]
    subprocess.run(cmd, check=True)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, check=True)
        took = perf_counter() - start
        samples.append(took * speed.factor())
    return samples


def op_instances(specs: dict[str, Path]) -> dict[str, int]:
    """Simulated op instances per scenario: len(pattern.ops) x iterations."""
    from mpxlab.patterns.specfile import load_scenario

    by_pattern: dict[tuple, int] = {}
    out = {}
    for name, path in specs.items():
        s = load_scenario(path)
        key = (s.kind, s.process_grid, s.thread_grid, s.iterations,
               s.payload_bytes, s.seed)
        if key not in by_pattern:
            pattern = s.build_pattern()
            by_pattern[key] = len(pattern.ops) * pattern.iterations
        out[name] = by_pattern[key]
    return out


def peak_rss_mb() -> float:
    """High-water RSS of this process's own memory image (``VmHWM``).

    ``getrusage``'s ``ru_maxrss`` survives ``execve`` and takes in the
    memory of the process that started this one; ``VmHWM`` starts afresh at
    exec, so only the benchmark's own memory counts.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def end_to_end_metrics(times: dict[str, list[tuple]], ops: dict[str, int],
                       setup: list[float], check: HashCheck) -> dict[str, float]:
    """The untraced run's metrics, from per-scenario medians of scaled times.

    - ``ops_per_s``: simulated op instances over the sum of the medians.
    - ``scenario_s.p50`` and ``.max``: median and largest of the medians.
    - ``peak_rss_mb``: see ``peak_rss_mb()``.
    - ``setup_s``: median of ``setup_samples()``.
    - ``ok_frac``: 1 - failed_frac.  A metric judged by its share of a
      median must never be 0, and failed_frac is 0 on a correct commit.
    """
    per_scenario = {n: statistics.median(t * f for t, f in samples)
                    for n, samples in times.items()}
    return {
        "ops_per_s": sum(ops.values()) / sum(per_scenario.values()),
        "scenario_s.p50": statistics.median(per_scenario.values()),
        "scenario_s.max": max(per_scenario.values()),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup),
        "ok_frac": 1 - check.failed / check.attempted,
    }


def per_layer_metrics(samples: dict[str, list[tuple]]) -> dict[str, float]:
    """Per scenario, the median over its ((untraced seconds, counts, spans),
    host-speed factor) samples; then summed over scenarios, except
    ``channels.max_busy_ticks``, a maximum.

    Times are those of the spans: ``patterns.generate_s`` is
    ``build_pattern``, ``patterns.assign_s`` ``build_assignment``,
    ``semantics.validate_s`` a standalone ``validate_assignment``,
    ``simulator.run_s`` ``run`` and ``simulator.report_s`` ``to_json``.
    ``simulator.engine_s`` is ``run_s - validate_s``, because ``run()``
    validates again.  A layer's ``self_s`` is the time of its spans not
    covered by child spans.  ``cli.trace_overhead_s`` is the traced call's
    wall time, less its extra ``validate_assignment``, minus the untraced
    call's.  ``trace.uncovered_s`` is the time in scenario spans that no
    layer span covers (the benchmark's own glue), and
    ``trace.uncovered_frac`` that as a share of the traced wall time.  The
    rest are the model's counts, read from the pattern, the validation and
    the report; they must not change without a declared model change.
    """
    totals: dict[str, float] = defaultdict(int)
    max_busy = 0
    for reps in samples.values():
        timed: dict[str, list[float]] = {}
        for (untraced, counts, spans), scale in reps:
            if counts is None:
                continue
            call_s: dict[str, float] = {}
            for s in spans:
                call_s[s.name] = call_s.get(s.name, 0.0) + s.seconds
            own = self_seconds(spans)
            wall = sum(s.seconds for s in spans if s.parent is None)
            for metric, value in {
                "patterns.generate_s": call_s["build_pattern"],
                "patterns.assign_s": call_s["build_assignment"],
                "patterns.self_s": own["mpxlab.patterns"],
                "semantics.validate_s": call_s["validate_assignment"],
                "semantics.self_s": own["mpxlab.semantics"],
                "simulator.run_s": call_s["run"],
                "simulator.report_s": call_s["to_json"],
                "simulator.self_s": own["mpxlab.simulator"],
                # The traced call validates once more than simulate does.
                "cli.trace_overhead_s": (wall - call_s["validate_assignment"]
                                         - untraced),
                "trace.uncovered_s": own["perfbench"],
                "trace.wall_s": wall,
            }.items():
                timed.setdefault(metric, []).append(value * scale)
        for metric, values in timed.items():
            totals[metric] += statistics.median(values)
        counts = next((c for (_, c, _), _ in reps if c is not None), None)
        if counts is not None:
            for metric, key in _SUMMED_COUNTS.items():
                totals[metric] += counts[key]
            max_busy = max(max_busy, counts["max_busy_ticks"])
    totals["channels.max_busy_ticks"] = max_busy
    totals["simulator.engine_s"] = totals["simulator.run_s"] - totals["semantics.validate_s"]
    ops, attempts = totals["patterns.ops"], totals["simulator.match_attempts"]
    wall = totals["trace.wall_s"]
    totals["simulator.engine_us_per_op"] = totals["simulator.engine_s"] / ops * 1e6 if ops else 0.0
    totals["simulator.match_yield"] = totals["simulator.matches"] / attempts if attempts else 0.0
    totals["trace.uncovered_frac"] = totals["trace.uncovered_s"] / wall if wall else 0.0
    del totals["trace.wall_s"]
    return dict(totals)


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, HashCheck]:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    check = HashCheck(pins.get("seeds", {}).get(str(seed), {}).get(workload, {}))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        specs = write_specs(workload, seed, Path(tmp) / "specs")
        report_dir = Path(tmp) / "reports"
        speed = HostSpeed()
        if trace:
            tracer = Tracer()
            calls = itertools.count()

            def call(name):
                # Alternate which call goes first, so neither always runs warm.
                mark = len(tracer.spans)
                if next(calls) % 2 == 0:
                    untraced = simulate_cli(specs[name], report_dir, check)
                    counts = simulate_traced(specs[name], check, tracer)
                else:
                    counts = simulate_traced(specs[name], check, tracer)
                    untraced = simulate_cli(specs[name], report_dir, check)
                return untraced, counts, tracer.spans[mark:]

            samples = repeat_calls(list(specs), seconds, call, speed)
            metrics = per_layer_metrics(samples)
            trace_path = OUT_DIR / f"{workload}-seed{seed}.trace.json"
            tracer.write_chrome_trace(trace_path)
            print(f"trace: {trace_path} ({len(tracer.spans)} spans)")
        else:
            setup = setup_samples(specs, speed)
            samples = repeat_calls(
                list(specs), seconds,
                lambda name: simulate_cli(specs[name], report_dir, check), speed)
            metrics = end_to_end_metrics(samples, op_instances(specs), setup, check)
            print(f"samples: {sum(map(len, samples.values()))} simulate calls over "
                  f"{len(specs)} scenarios (at least {min(map(len, samples.values()))} "
                  f"each); scenario_s.p50 and .max are the median and maximum of "
                  f"per-scenario medians; setup_s is the median of {len(setup)} starts")
    print(f"host speed: reference loop median "
          f"{statistics.median(speed.loop_s) * 1e3:.3f} ms over {len(speed.loop_s)} "
          f"timings; host times are scaled to {REFERENCE_S * 1e3:g} ms")
    return metrics, check


def _result(metrics: dict, units: dict, check: HashCheck) -> dict:
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def run_all(args) -> int:
    """Every workload in a fresh process of its own; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not use_source_tree():
        print(f"perfbench: no mpxlab sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    metrics, check = run_workload(args.workload, args.seed, args.seconds, args.trace)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    result = _result(metrics, units, check)
    for metric, entry in result["metrics"].items():
        print(f"{args.workload}  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    print(f"calls: {check.attempted} attempted, {check.failed} failed "
          f"(failed_frac {check.failed / check.attempted:.6g})")
    if not check.pins:
        print(f"seed {args.seed} has no pins; report hashes:")
        for name, seen in check.seen.items():
            print(f"  {name} {seen['sha256']}")
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed),
              "hashes": {n: s["sha256"] for n, s in check.seen.items()},
              "result": result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
