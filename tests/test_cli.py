"""Command-line behavior: output lines, file emission, exit codes."""

import concurrent.futures
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import pytest

import mpxlab.cli as cli
import mpxlab.semantics as semantics
import mpxlab.simulator as simulator
from mpxlab.channels import ChannelPool, collisions
from mpxlab.cli import main
from mpxlab.patterns import build_assignment
from mpxlab.patterns.specfile import load_scenario, scenario_from_dict
from mpxlab.semantics import Reason
from mpxlab.simulator import Event, channel_policy, run


def write_spec(tmp_path, name="spec.json", **overrides):
    spec = {
        "kind": "stencil-2d-9pt",
        "process_grid": [2, 2],
        "thread_grid": [3, 3],
    }
    spec.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


# one spec per non-stencil kind on the digest sweep's even grid, and one
# whose hints forbid the polling pattern's wildcard receives
ANALYZE_CASES = [
    ("legion-polling", ([2], [4]), {}),
    ("dynamic-graph", ([4], [2]), {}),
    ("fan-in", ([2], [8]), {}),
    ("bspmm-rma", ([2], [2]), {}),
    ("multithreaded-allreduce", ([2], [4]), {}),
    ("legion-polling", ([2], [4]), {"no_any_source": True}),
]
ANALYZE_OUT = {
    ("legion-polling", False): """\
kind: legion-polling
process_grid: [2]
thread_grid: [4]
communicators: communicators=4
communicators-naive: communicators=4
tags: unsupported (tag-bit parallelism forbids wildcards, which this \
pattern relies on)
endpoints: communicators=1, endpoints_per_process=3, endpoints_total=6
partitioned: unsupported (partitioned unsupported: wildcard pattern \
(persistent requests cannot match wildcard receives))
windows: unsupported (windows do not express two-sided traffic)
""",
    ("dynamic-graph", False): """\
kind: dynamic-graph
process_grid: [4]
thread_grid: [2]
communicators: communicators=2
communicators-naive: communicators=2
tags: unsupported (tag-bit parallelism forbids wildcards, which this \
pattern relies on)
endpoints: communicators=1, endpoints_per_process=2, endpoints_total=8
partitioned: unsupported (partitioned unsupported: wildcard pattern \
(persistent requests cannot match wildcard receives))
windows: unsupported (windows do not express two-sided traffic)
""",
    ("fan-in", False): """\
kind: fan-in
process_grid: [2]
thread_grid: [8]
communicators: communicators=8
communicators-naive: communicators=1
tags: unsupported (tag-bit parallelism forbids wildcards, which this \
pattern relies on)
endpoints: communicators=1, endpoints_per_process=8, endpoints_total=9
partitioned: unsupported (partitioned unsupported: wildcard pattern \
(persistent requests cannot match wildcard receives))
windows: unsupported (windows do not express two-sided traffic)
""",
    ("bspmm-rma", False): """\
kind: bspmm-rma
process_grid: [2]
thread_grid: [2]
communicators: unsupported (one-sided tile updates are expressed with \
windows or endpoints, not communicators)
communicators-naive: unsupported (one-sided tile updates are expressed \
with windows or endpoints, not communicators)
tags: unsupported (one-sided tile updates are expressed with windows or \
endpoints, not tags)
endpoints: endpoints_per_process=2, endpoints_total=4, windows=1
partitioned: unsupported (one-sided tile updates are expressed with \
windows or endpoints, not partitioned)
windows: windows=1
""",
    ("multithreaded-allreduce", False): """\
kind: multithreaded-allreduce
process_grid: [2]
thread_grid: [4]
communicators: communicators=4
communicators-naive: communicators=4
tags: unsupported (allreduce is not expressed with tags)
endpoints: communicators=1, endpoints_per_process=4, endpoints_total=8
partitioned: communicators=1, requests=4
windows: unsupported (allreduce is not expressed with windows)
""",
    ("legion-polling", True): """\
kind: legion-polling
process_grid: [2]
thread_grid: [4]
communicators: unsupported (the spec's hints forbid a wildcard this \
pattern uses: ANY_SOURCE receive under a no_any_source context)
communicators-naive: unsupported (the spec's hints forbid a wildcard this \
pattern uses: ANY_SOURCE receive under a no_any_source context)
tags: unsupported (tag-bit parallelism forbids wildcards, which this \
pattern relies on)
endpoints: unsupported (the spec's hints forbid a wildcard this pattern \
uses: ANY_SOURCE receive under a no_any_source context)
partitioned: unsupported (partitioned unsupported: wildcard pattern \
(persistent requests cannot match wildcard receives))
windows: unsupported (windows do not express two-sided traffic)
""",
}


class TestAnalyze:
    def test_reference_lines_3d(self, tmp_path, capsys):
        spec = write_spec(tmp_path, kind="stencil-3d-27pt",
                          process_grid=[2, 2, 2], thread_grid=[4, 4, 4],
                          channel_pool=160)
        assert main(["analyze", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "communicators_ideal: 808" in out
        assert "endpoints: 56" in out
        assert "min_channels: 56" in out

    @pytest.mark.parametrize("pool,pairs", [(16, 76), (160, 0)])
    def test_endpoint_pairs_are_those_process_0_binds(self, tmp_path, capsys,
                                                      pool, pairs):
        # process 0 binds its 56 boundary threads' endpoints, ranks 0..63
        # less the 8 interior ones; on 16 channels they collide in 76 pairs
        # (the ranks 0..55 would collide in 72), and 160 channels fit them
        spec = write_spec(tmp_path, kind="stencil-3d-27pt",
                          process_grid=[2, 2, 2], thread_grid=[4, 4, 4],
                          channel_pool=pool)
        assert main(["analyze", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"endpoint_serialized_pairs: {pairs}"

    def test_collisions_are_counted_not_listed(self, tmp_path, capsys):
        spec = write_spec(tmp_path, kind="stencil-3d-27pt",
                          process_grid=[1, 1, 1], thread_grid=[16, 8, 8])
        assert main(["analyze", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "ideal_comm_max_per_channel: 352\n" in out
        assert "ideal_comm_serialized_pairs: 985608\n" in out

    def test_collision_step_allocates_no_pair_list(self):
        # 5,624 communicators on 16 channels share them in 985,608 pairs; a
        # list of them alone would take tens of MB
        scenario = scenario_from_dict({"kind": "stencil-3d-27pt",
                                       "process_grid": [1, 1, 1],
                                       "thread_grid": [16, 8, 8]})
        ideal = build_assignment(scenario.build_pattern(), "communicators")
        pool = ChannelPool(16)
        policy = channel_policy(None, ideal, pool)
        contexts = [c.context_id for c in ideal.comms[1:]]
        tracemalloc.start()
        try:
            count = collisions(policy, contexts, pool).serialized_pairs
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 985_608
        assert peak < 1 << 20

    @pytest.mark.parametrize("policy", ["tag-bits", "endpoint-identity",
                                        "partition-index"])
    def test_a_stencil_counts_collisions_under_communicator_policies_only(
            self, tmp_path, capsys, policy):
        # the ideal map creates no tag layout, endpoints or requests
        spec = write_spec(tmp_path, kind="stencil-3d-27pt",
                          process_grid=[2, 2, 2], thread_grid=[4, 4, 4])
        assert main(["analyze", "--spec", str(spec), "--policy", policy]) == 4
        assert f"policy {policy} needs" in capsys.readouterr().err

    def test_reference_lines_2d(self, tmp_path, capsys):
        spec = write_spec(tmp_path, kind="stencil-2d-5pt")
        assert main(["analyze", "--spec", str(spec)]) == 0
        assert "communicators_ideal: 12" in capsys.readouterr().out

    def test_degenerate_3d_grid_is_a_domain_error(self, tmp_path):
        spec = write_spec(tmp_path, kind="stencil-3d-27pt",
                          process_grid=[2, 2, 2], thread_grid=[1, 4, 4])
        assert main(["analyze", "--spec", str(spec)]) == 3

    def test_malformed_spec(self, tmp_path):
        spec = write_spec(tmp_path, bogus=1)
        assert main(["analyze", "--spec", str(spec)]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        assert main(["analyze", "--spec", str(broken)]) == 2
        # JSON booleans are not integers, and hint values must be booleans
        for bad in ({"process_grid": [True, 2], "iterations": True,
                     "hints": {"allow_overtaking": "no"}},
                    {"process_grid": [True, 2]}, {"thread_grid": [3, False]},
                    {"iterations": True}, {"payload_bytes": True},
                    {"channel_pool": True}, {"seed": False},
                    {"hints": {"allow_overtaking": "no"}},
                    {"hints": {"no_any_tag": 1}},
                    # grids the kind does not read
                    {"kind": "stencil-2d-5pt", "process_grid": [2, 2, 2]},
                    {"kind": "legion-polling", "process_grid": [4, 3],
                     "thread_grid": [4, 2]},
                    {"kind": "fan-in", "process_grid": [7], "thread_grid": [8]},
                    # iterations on a kind that runs once
                    {"kind": "fan-in", "process_grid": [2],
                     "thread_grid": [8], "iterations": 2},
                    {"kind": "bspmm-rma", "process_grid": [2],
                     "thread_grid": [3], "iterations": 2},
                    {"kind": "multithreaded-allreduce", "process_grid": [3],
                     "thread_grid": [4], "iterations": 7},
                    # a poller without a task thread, and a payload that is
                    # not whole 8-byte elements
                    {"kind": "legion-polling", "process_grid": [2],
                     "thread_grid": [1]},
                    {"kind": "multithreaded-allreduce", "process_grid": [2],
                     "thread_grid": [4], "payload_bytes": 12}):
            spec = write_spec(tmp_path, **bad)
            assert main(["analyze", "--spec", str(spec)]) == 2, bad
            assert main(["assign", "--spec", str(spec), "--emit-spec"]) == 2, bad
        # a size the pattern generator rejects
        spec = write_spec(tmp_path, kind="legion-polling", process_grid=[1],
                          thread_grid=[4])
        assert main(["analyze", "--spec", str(spec)]) == 2
        assert main(["assign", "--spec", str(spec), "--emit-spec"]) == 2

    def test_fan_in_is_its_own_kind(self, tmp_path, capsys):
        spec = write_spec(tmp_path, kind="fan-in", process_grid=[2],
                          thread_grid=[8])
        assert main(["analyze", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "kind: fan-in" in out
        assert "communicators-naive: communicators=1" in out

    @pytest.mark.parametrize("kind,grids,hints", ANALYZE_CASES,
                             ids=[f"{k}{'-no-any-source' if h else ''}"
                                  for k, _, h in ANALYZE_CASES])
    def test_irregular_output_is_pinned(self, tmp_path, capsys, kind, grids,
                                        hints):
        spec = write_spec(tmp_path, kind=kind, process_grid=grids[0],
                          thread_grid=grids[1], hints=hints)
        assert main(["analyze", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out == ANALYZE_OUT[kind, bool(hints)]

    def test_policy_override_changes_collision_lines(self, tmp_path, capsys):
        spec = write_spec(tmp_path, channel_pool=30)

        def ideal_lines(*extra):
            assert main(["analyze", "--spec", str(spec), *extra]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("ideal_comm_")]

        round_robin = ideal_lines()
        assert ideal_lines("--policy", "round-robin-comm") == round_robin
        assert round_robin[-1] == "ideal_comm_serialized_pairs: 0"
        hashed = ideal_lines("--policy", "hash-comm")
        assert hashed == ["ideal_comm_channels_used: 20",
                          "ideal_comm_max_per_channel: 2",
                          "ideal_comm_serialized_pairs: 4"]


class TestSimulate:
    def test_writes_reports_and_is_deterministic(self, tmp_path, capsys):
        spec = write_spec(tmp_path, mechanism="endpoints")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--spec", str(spec), "--out", str(out1)]) == 0
        assert main(["simulate", "--spec", str(spec), "--out", str(out2)]) == 0
        j1 = (out1 / "spec.report.json").read_bytes()
        j2 = (out2 / "spec.report.json").read_bytes()
        assert j1 == j2
        csv_text = (out1 / "spec.report.csv").read_text()
        assert csv_text.splitlines()[1].startswith("endpoints,")

    @pytest.mark.parametrize("kind,mechanism,grids", [
        ("stencil-2d-9pt", "partitioned", ([2, 2], [3, 3])),
        ("stencil-3d-27pt", "communicators", ([2, 2, 2], [2, 2, 3])),
        ("legion-polling", "communicators-naive", ([3], [4])),
    ])
    def test_json_report_is_the_library_report_without_events(
            self, tmp_path, monkeypatch, kind, mechanism, grids):
        spec = write_spec(tmp_path, kind=kind, mechanism=mechanism,
                          process_grid=grids[0], thread_grid=grids[1])
        scenario = load_scenario(spec)
        pattern = scenario.build_pattern()
        expected = run(pattern, scenario.build_assignment(pattern),
                       pool=scenario.build_pool(),
                       policy=scenario.build_policy(), seed=scenario.seed)
        built = []

        def counted_event(*args, **kwargs):
            built.append(args)
            return Event(*args, **kwargs)

        monkeypatch.setattr(simulator, "Event", counted_event)
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path),
                     "--format", "json"]) == 0
        assert (tmp_path / "spec.report.json").read_text() == expected.to_json()
        assert built == []  # no report format carries events

    def test_unsupported_combination_exit_code(self, tmp_path):
        spec = write_spec(tmp_path, kind="legion-polling", process_grid=[2],
                          thread_grid=[5], mechanism="partitioned")
        assert main(["simulate", "--spec", str(spec),
                     "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("command", [["simulate", "--out"], ["assign"]])
    def test_tag_space_overflow_exits_4(self, tmp_path, capsys, command):
        # 1,024 threads need two 10-bit thread ids beside 5 app bits
        spec = write_spec(tmp_path, kind="stencil-3d-27pt",
                          process_grid=[1, 1, 1], thread_grid=[16, 8, 8],
                          mechanism="tags")
        argv = [command[0], "--spec", str(spec), *command[1:]]
        if command[0] == "simulate":
            argv.append(str(tmp_path))
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "unsupported: two 10-bit thread ids plus 5 app bits need 25 "
            "bits; the tag has 23\n")

    @pytest.mark.parametrize("mechanism", [
        "communicators", "communicators-naive", "tags", "endpoints",
        "partitioned"])
    @pytest.mark.parametrize("policy", [
        None, "round-robin-comm", "hash-comm", "tag-bits",
        "endpoint-identity", "partition-index"])
    def test_policy_matrix_exit_codes(self, tmp_path, mechanism, policy):
        # the communicator policies map every op; the others need the object
        # they key on, and a mismatch is an unsupported combination
        own_policy = {"tags": "tag-bits", "endpoints": "endpoint-identity",
                      "partitioned": "partition-index"}
        fits = (policy in (None, "round-robin-comm", "hash-comm")
                or own_policy.get(mechanism) == policy)
        spec = write_spec(tmp_path, mechanism=mechanism)
        argv = ["simulate", "--spec", str(spec), "--out", str(tmp_path)]
        if policy:
            argv += ["--policy", policy]
        assert main(argv) == (0 if fits else 4)

    @pytest.mark.parametrize("kind,mechanism,hints", [
        ("legion-polling", "communicators-naive",
         {"no_any_tag": True, "no_any_source": True}),
        ("dynamic-graph", "endpoints", {"no_any_tag": True}),
    ])
    def test_hints_forbidding_used_wildcards_exit_4(self, tmp_path, capsys,
                                                    kind, mechanism, hints):
        spec = write_spec(tmp_path, kind=kind, process_grid=[4],
                          thread_grid=[3], mechanism=mechanism, hints=hints)
        assert main(["simulate", "--spec", str(spec),
                     "--out", str(tmp_path)]) == 4
        assert "no_any_tag" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, mechanism="endpoints")
        monkeypatch.setenv("MPXLAB_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--spec", str(spec)]) == 0
        assert (tmp_path / "envout" / "spec.report.json").exists()

    def test_mechanism_override(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path),
                     "--mechanism", "partitioned"]) == 0
        report = json.loads((tmp_path / "spec.report.json").read_text())
        assert report["mechanism"] == "partitioned"

    def test_channels_and_seed_overrides_equal_the_spec_fields(self, tmp_path):
        spec = write_spec(tmp_path)
        by_flags, by_spec, plain = (tmp_path / d for d in ("f", "s", "p"))
        assert main(["simulate", "--spec", str(spec), "--out", str(by_flags),
                     "--channels", "8", "--seed", "5"]) == 0
        assert main(["simulate", "--spec", str(spec), "--out", str(plain)]) == 0
        spec = write_spec(tmp_path, channel_pool=8, seed=5)
        assert main(["simulate", "--spec", str(spec), "--out", str(by_spec)]) == 0
        report = (by_flags / "spec.report.json").read_bytes()
        assert report == (by_spec / "spec.report.json").read_bytes()
        assert report != (plain / "spec.report.json").read_bytes()
        assert json.loads(report)["seed"] == 5

    def test_parallel_jobs_keep_outputs_isolated(self, tmp_path):
        a = write_spec(tmp_path, "a.json", mechanism="endpoints")
        b = write_spec(tmp_path, "b.json", mechanism="partitioned")
        out = tmp_path / "par"
        assert main(["simulate", "--spec", str(a), str(b), "--jobs", "2",
                     "--out", str(out)]) == 0
        ra = json.loads((out / "a.report.json").read_text())
        rb = json.loads((out / "b.report.json").read_text())
        assert ra["mechanism"] == "endpoints"
        assert rb["mechanism"] == "partitioned"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_specs_sharing_a_file_stem_are_refused(self, tmp_path, capsys,
                                                   jobs):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = write_spec(tmp_path / "a", "s.json", mechanism="endpoints")
        b = write_spec(tmp_path / "b", "s.json", mechanism="partitioned")
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(a), str(b), "--jobs", jobs,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(a) in captured.err and str(b) in captured.err
        assert not out.exists() or not any(out.iterdir())
        # the same file named twice would race with itself under --jobs
        assert main(["simulate", "--spec", str(a), str(a), "--jobs", jobs,
                     "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_jobs_capped_by_specs_and_cpus(self, tmp_path, monkeypatch):
        a = write_spec(tmp_path, "a.json", mechanism="endpoints")
        b = write_spec(tmp_path, "b.json", mechanism="partitioned")
        workers = []

        class InlinePool:
            """Records its worker count and runs each job in this process."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        argv = ["simulate", "--spec", str(a), str(b), "--jobs", "64",
                "--out", str(tmp_path)]
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert main(argv) == 0
        assert workers == [2]  # one per spec
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(argv) == 0
        assert workers == [2]  # one CPU: no pool at all
        assert (tmp_path / "b.report.json").exists()

    def test_the_cli_imports_no_process_pool_until_jobs_asks_for_one(self):
        # a fresh interpreter: this one may hold the module already
        src = Path(cli.__file__).resolve().parent.parent
        probe = ("import sys, mpxlab.cli; "
                 "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout == "False\n"

    # the overriding flags take what the spec loader takes for their field
    # (channel_pool >= 1, seed >= 0); the --jobs ids keep their names
    @pytest.mark.parametrize("flag,value", [
        ("--jobs", "0"), ("--jobs", "-3"), ("--jobs", "two"),
        ("--channels", "0"), ("--channels", "-3"), ("--seed", "-1"),
    ], ids=["0", "-3", "two", "channels-0", "channels--3", "seed--1"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, flag, value):
        spec = write_spec(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(spec), "--out", str(tmp_path),
                  flag, value])
        assert exc.value.code == 2


class TestAssign:
    def test_corner_thread_reuses_one_communicator(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["assign", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        rows = [line.split("\t") for line in out.splitlines()
                if line and line[0].isdigit()]
        corner = [r for r in rows if r[0] == "0"
                  and r[1] in ("e", "n", "ne")]
        assert len(corner) == 6  # send + recv for each corner-partner direction
        assert len({r[3].split()[0] for r in corner}) == 1

    def test_partitioned_bindings_show_partition_indexes(self, tmp_path, capsys):
        spec = write_spec(tmp_path, kind="stencil-2d-5pt",
                          mechanism="partitioned")
        assert main(["assign", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        north_rows = [line for line in out.splitlines()
                      if line.startswith("1\tn\tsend")]
        assert north_rows and "part:1" in north_rows[0]

    def test_endpoint_targets_printed(self, tmp_path, capsys):
        spec = write_spec(tmp_path, mechanism="endpoints")
        assert main(["assign", "--spec", str(spec)]) == 0
        assert "ep:" in capsys.readouterr().out

    def test_3d_directions_print_axis_labels(self, tmp_path, capsys):
        spec = write_spec(tmp_path, kind="stencil-3d-27pt",
                          process_grid=[2, 2, 2], thread_grid=[2, 2, 2])
        assert main(["assign", "--spec", str(spec)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()
                if line and line[0].isdigit()]
        labels = {"".join(axis + ("-" if c < 0 else "+")
                          for axis, c in zip("xyz", d) if c)
                  for d in itertools.product((-1, 0, 1), repeat=3) if any(d)}
        assert len(labels) == 26 and "x-y+" in labels
        assert {r[1] for r in rows} == labels

    def test_window_bindings_show_target_locations(self, tmp_path, capsys):
        spec = write_spec(tmp_path, kind="bspmm-rma", process_grid=[2],
                          thread_grid=[2], mechanism="windows")
        assert main(["assign", "--spec", str(spec)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()
                if line and line[0].isdigit()]
        assert rows
        assert all(re.fullmatch(r"win:\d+ loc:\d+", r[3]) for r in rows)

    @pytest.mark.parametrize("process", [0, 1])
    def test_endpoint_window_bindings_show_the_endpoint(self, tmp_path,
                                                        capsys, process):
        spec = write_spec(tmp_path, kind="bspmm-rma", process_grid=[2],
                          thread_grid=[2], mechanism="endpoints")
        assert main(["assign", "--spec", str(spec),
                     "--process", str(process)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()
                if line and line[0].isdigit()]
        assert {int(r[0]) for r in rows} == {0, 1}
        # thread t of process p issues at endpoint rank p * T + t
        assert all(re.fullmatch(rf"win:\d+ loc:\d+ ep:{process * 2 + int(r[0])}",
                                r[3]) for r in rows)

    @pytest.mark.parametrize("process", ["99", "4", "-1"])
    def test_process_out_of_range_is_a_usage_error(self, tmp_path, capsys,
                                                   process):
        spec = write_spec(tmp_path, kind="stencil-2d-5pt")  # 4 processes
        assert main(["assign", "--spec", str(spec), "--process", process]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0..3" in captured.err

    def test_last_process_is_in_range(self, tmp_path, capsys):
        spec = write_spec(tmp_path, kind="stencil-2d-5pt")
        assert main(["assign", "--spec", str(spec), "--process", "3"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line and line[0].isdigit()]
        assert rows

    def test_emit_spec_round_trips(self, tmp_path, capsys):
        spec = write_spec(tmp_path, mechanism="endpoints", seed=9)
        assert main(["assign", "--spec", str(spec), "--emit-spec"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        path2 = tmp_path / "again.json"
        path2.write_text(json.dumps(emitted))
        assert main(["assign", "--spec", str(path2), "--emit-spec"]) == 0
        assert json.loads(capsys.readouterr().out) == emitted


class TestFlagScope:
    # only simulate writes files, and analyze reports every mechanism
    @pytest.mark.parametrize("command,flag", [
        ("analyze", "--out"), ("analyze", "--mechanism"), ("assign", "--out"),
    ])
    def test_a_flag_the_command_would_ignore_is_a_usage_error(
            self, tmp_path, capsys, command, flag):
        spec = write_spec(tmp_path)
        value = "endpoints" if flag == "--mechanism" else str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", str(spec), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_assign_takes_the_mechanism_override(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["assign", "--spec", str(spec),
                     "--mechanism", "endpoints"]) == 0
        assert "# mechanism=endpoints " in capsys.readouterr().out


class TestOracleCheck:
    def test_pass(self, capsys):
        assert main(["oracle-check", "--bound", "6"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bound_too_large(self):
        assert main(["oracle-check", "--bound", "13"]) == 3

    @pytest.mark.parametrize("bound", ["1", "0", "-2"])
    def test_bound_below_a_pair_is_a_bound_error(self, capsys, bound):
        # a bound with no pair to compare would pass vacuously
        assert main(["oracle-check", "--bound", bound]) == 3
        assert "PASS" not in capsys.readouterr().out

    def test_smallest_bound_compares(self, capsys):
        assert main(["oracle-check", "--bound", "2"]) == 0
        assert "PASS (16 comparisons)" in capsys.readouterr().out

    def test_injected_classifier_bug_is_caught(self, capsys, monkeypatch):
        real = semantics.logically_parallel

        def flipped(a, b, hints):
            reason = real(a, b, hints)
            if reason is Reason.DIFFERENT_COMMUNICATORS:
                return Reason.WILDCARD_RISK
            return reason

        monkeypatch.setattr(semantics, "logically_parallel", flipped)
        assert main(["oracle-check", "--bound", "12"]) == 1
        assert "counterexample" in capsys.readouterr().out
