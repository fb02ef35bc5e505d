"""The benchmark's own check: a report with one byte changed counts as failed.

    python3 -m pytest perfbench/test_hashcheck.py
"""

import json

import pytest

import run

SEED = 0
WORKLOAD = "matching-storm"
SCENARIO = "fanin512-per-thread-comms"  # the cheapest pinned scenario


@pytest.fixture(scope="module")
def pins():
    return json.loads(run.PINS.read_text())["seeds"][str(SEED)][WORKLOAD]


@pytest.fixture(scope="module")
def report(tmp_path_factory, pins):
    assert run.use_source_tree()
    tmp = tmp_path_factory.mktemp("perfbench")
    spec = run.write_specs(WORKLOAD, SEED, tmp / "specs")[SCENARIO]
    check = run.HashCheck(pins)
    run.simulate_cli(spec, tmp / "reports", check)
    assert (check.attempted, check.failed) == (1, 0)
    return (tmp / "reports" / f"{SCENARIO}.report.json").read_bytes()


def _one_byte_changed(data: bytes) -> bytes:
    i = data.index(b'"makespan": ') + len(b'"makespan": ')
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def test_pinned_report_passes(report, pins):
    check = run.HashCheck(pins)
    assert check.record(SCENARIO, report)
    assert (check.attempted, check.failed) == (1, 0)


def test_perturbed_report_fails_against_pin(report, pins):
    check = run.HashCheck(pins)
    perturbed = _one_byte_changed(report)
    assert len(perturbed) == len(report) and perturbed != report
    assert not check.record(SCENARIO, perturbed)
    assert (check.attempted, check.failed) == (1, 1)


def test_perturbed_report_fails_repeatability_without_pin(report):
    check = run.HashCheck({})
    assert check.record(SCENARIO, report)
    assert not check.record(SCENARIO, _one_byte_changed(report))
    assert (check.attempted, check.failed) == (2, 1)


def test_changed_validation_count_fails_against_pin(report, pins):
    check = run.HashCheck(pins)
    counts = {"lost_pairs": pins[SCENARIO]["lost_pairs"] + 1, "violations": 0}
    assert not check.record(SCENARIO, report, counts)
    assert check.failed == 1
