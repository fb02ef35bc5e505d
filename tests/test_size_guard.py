"""Specs too large to simulate are refused before any op is built.

``Scenario.build_pattern`` bounds the ops a pattern issues over all its
iterations, ``len(pattern.ops) * pattern.iterations``, from the spec alone
and refuses a spec whose bound exceeds ``MAX_OPS``; the CLI then exits 3.
A kind that reads no ``iterations`` takes only 1.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from mpxlab.cli import main
from mpxlab.errors import DomainError, SpecFileError
from mpxlab.patterns.specfile import KINDS, MAX_OPS, OPS_PER_THREAD, scenario_from_dict

import test_determinism
import test_reports

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the demos build their patterns from the generators; these are the same
# patterns as specs, the largest of each kind
DEMO_SPECS = [
    {"kind": "stencil-3d-27pt", "process_grid": [2, 2, 2], "thread_grid": [4, 4, 4]},
    {"kind": "stencil-2d-9pt", "process_grid": [2, 2], "thread_grid": [3, 3]},
    {"kind": "stencil-2d-5pt", "process_grid": [2, 2], "thread_grid": [16, 1],
     "iterations": 2},
    {"kind": "fan-in", "process_grid": [2], "thread_grid": [32]},
    {"kind": "legion-polling", "process_grid": [2], "thread_grid": [5],
     "iterations": 2},
    {"kind": "bspmm-rma", "process_grid": [2], "thread_grid": [3]},
    {"kind": "multithreaded-allreduce", "process_grid": [2], "thread_grid": [4]},
]


def bound(spec: dict) -> int:
    return scenario_from_dict(spec).ops_bound()


def perfbench():
    """The benchmark script ``perfbench/run.py``, imported as a module."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
    return run


def benchmark_specs() -> list[dict]:
    return [spec for workload in perfbench().WORKLOADS.values()
            for spec in workload.values()]


def test_every_kind_has_a_bound():
    assert set(OPS_PER_THREAD) <= set(KINDS)


@pytest.mark.parametrize("name", sorted(test_reports.SPECS))
def test_the_bound_holds(name):
    spec = test_reports.SPECS[name]
    pattern = scenario_from_dict(spec).build_pattern()
    assert len(pattern.ops) * pattern.iterations <= bound(spec)


def test_every_demo_test_and_benchmark_spec_is_under_the_cap():
    specs = (DEMO_SPECS + list(test_reports.SPECS.values())
             + list(test_determinism.SPECS.values()) + benchmark_specs())
    assert len(specs) > 50
    assert max(map(bound, specs)) <= MAX_OPS


def refused_within_a_second(tmp_path, capsys, command, body, ops):
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(body))
    start = time.perf_counter()
    out = ["--out", str(tmp_path)] if command == "simulate" else []
    code = main([command, "--spec", str(spec), *out])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert f"{ops} ops" in err and f"cap of {MAX_OPS}" in err


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_an_oversized_spec_exits_3_within_a_second(tmp_path, capsys, command):
    refused_within_a_second(
        tmp_path, capsys, command,
        {"kind": "stencil-3d-27pt", "process_grid": [1000, 1000, 1000],
         "thread_grid": [4, 4, 4]}, 3328000000000)


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_a_spec_with_too_many_iterations_exits_3_within_a_second(
        tmp_path, capsys, command):
    # 72 ops per iteration: the grids alone pass the cap
    refused_within_a_second(
        tmp_path, capsys, command,
        {"kind": "stencil-2d-5pt", "process_grid": [2, 2],
         "thread_grid": [3, 3], "iterations": 1_000_000_000}, 288000000000)


@pytest.mark.parametrize("iterations", [1, 40_000, 1_000_000_000])
def test_a_kind_that_runs_once_counts_one_iteration(iterations):
    # fan-in reads no iterations: it takes 1, and builds 16 ops
    spec = {"kind": "fan-in", "process_grid": [2], "thread_grid": [8],
            "iterations": iterations}
    if iterations != 1:
        with pytest.raises(SpecFileError, match="fan-in runs once"):
            scenario_from_dict(spec)
        return
    scenario = scenario_from_dict(spec)
    assert scenario.ops_bound() == 32
    pattern = scenario.build_pattern()
    assert len(pattern.ops) == 16 and pattern.iterations == 1


def test_build_pattern_refuses_over_the_cap():
    # fan-in builds two ops per sender; its bound allows four
    over = scenario_from_dict({"kind": "fan-in", "process_grid": [2],
                               "thread_grid": [MAX_OPS // 4 + 1]})
    assert over.ops_bound() > MAX_OPS
    with pytest.raises(DomainError, match="above the cap"):
        over.build_pattern()
