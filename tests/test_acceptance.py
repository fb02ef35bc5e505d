"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line when its assertions hold; a failing criterion
shows up as a normal pytest failure.  All tolerances are pinned here; nothing
is deferred to later calibration.
"""

import json
import math
from statistics import linear_regression

import pytest

import mpxlab as m
from mpxlab.simulator import EventKind


def _report(line):
    print(f"PASS {line}")


def test_criterion_01_formula_fidelity():
    comms = m.min_communicators_3d(4, 4, 4)
    channels = m.min_channels_3d(4, 4, 4)
    assert comms == 808
    assert channels == 56
    assert comms / channels >= 14.4
    _report("criterion 1: min_communicators_3d(4,4,4)=808, "
            "min_channels_3d(4,4,4)=56, ratio >= 14.4")


def test_criterion_02_constructive_realization():
    pattern = m.gen_stencil(3, 27, [2, 2, 2], [4, 4, 4])
    ideal = m.assign_communicators_ideal(pattern)
    assert ideal.objects_created["communicators"] == 808
    report = m.validate_assignment(pattern, ideal)
    assert report.matching_violations == []
    assert report.lost_parallelism == []
    endpoints = m.assign_endpoints(pattern)
    assert endpoints.objects_created["endpoints_per_process"] == 56
    _report("criterion 2: ideal map creates exactly 808 communicators, "
            "validates clean; endpoints bind exactly 56 per process")


@pytest.mark.parametrize("t", [3, 4, 5])
def test_criterion_03_half_parallelism(t):
    pattern = m.gen_stencil(2, 9, [2, 2], [t, t])
    pool = m.ChannelPool(1 << 16)  # unconstrained
    ideal = m.run(pattern, m.assign_communicators_ideal(pattern), pool=pool)
    naive = m.run(pattern, m.assign_communicators_naive(pattern), pool=pool)
    for phase, value in ideal.phase_concurrency.items():
        assert value == 2 * naive.phase_concurrency[phase]
    _report(f"criterion 3: tx=ty={t}: ideal phase concurrency exactly "
            f"2x naive on every exchange phase")


def test_criterion_04_matching_complexity():
    sizes = [2, 4, 8, 16]
    attempts = []
    for n in sizes:
        pattern = m.gen_fan_in(n)
        shared = m.run(pattern, m.assign_communicators_naive(pattern,
                                                             num_comms=1))
        attempts.append(shared.match_attempts_total)
    exponent = linear_regression([math.log(n) for n in sizes],
                                 [math.log(a) for a in attempts]).slope
    assert exponent >= 1.8

    per_message = set()
    for parts in range(1, 17):
        pattern = m.gen_stencil(2, 5, [2, 2], [parts, 1], iterations=2)
        report = m.run(pattern, m.assign_partitioned(pattern))
        per_message.add(report.match_attempts_total / report.matches_total)
    assert per_message == {1.0}
    _report(f"criterion 4: shared-communicator attempts fit exponent "
            f"{exponent:.2f} >= 1.8; partitioned attempts/message constant "
            f"(+-0) for 1..16 partitions")


def test_criterion_05_oracle_equivalence():
    comparisons, mismatches = m.semantics.oracle_equivalence_check(12)
    assert mismatches == []
    _report(f"criterion 5: classifier == brute-force oracle on the "
            f"exhaustive family ({comparisons} comparisons, all 8 hint "
            f"combinations, zero mismatches)")


def test_criterion_06_collision_modeling():
    pool = m.ChannelPool(m.OMNI_PATH_HFI_CONTEXTS)
    for kind in (m.PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR,
                 m.PolicyKind.HASH_COMMUNICATOR):
        policy = m.MappingPolicy(kind)
        entities = m.map_communicators(range(808), policy, pool)
        report = m.collision_report(entities, pool)
        assert report.max_entities_per_channel >= 6
        assert report.serialized_pairs
    ep_report = m.collision_report(m.map_endpoints(range(56), pool), pool)
    assert ep_report.serialized_pairs == []
    _report("criterion 6: 808 entities on 160 channels collide "
            "(max/channel >= 6) under every policy; 56 endpoints do not")


def test_criterion_07_legion_probing():
    pattern = m.gen_legion(2, 4, 16, seed=3)
    events = 16
    ks = [1, 2, 4, 8]
    comm_rate, ep_rate = [], []
    for k in ks:
        comm = m.run(pattern, m.assign_communicators_naive(pattern,
                                                           num_comms=k))
        comm_rate.append(comm.probe_iterations / events)
        ep = m.run(pattern, m.assign_endpoints(pattern))
        ep_rate.append(ep.probe_iterations / events)
    comm_slope = linear_regression(ks, comm_rate).slope
    ep_slope = abs(linear_regression(ks, ep_rate).slope)
    assert comm_slope > 0.9
    assert ep_slope < 0.05
    _report(f"criterion 7: probe cost grows {comm_slope:.2f} per "
            f"communicator per event (> 0.9) and stays flat under endpoints "
            f"(slope {ep_slope:.3f} < 0.05)")


def test_criterion_08_partitioned_synchronization():
    iterations = 3
    pattern = m.gen_stencil(2, 5, [2, 2], [3, 3], iterations=iterations)
    T = pattern.threads_per_process
    partitioned = m.run(pattern, m.assign_partitioned(pattern))
    blocks, barriers = {}, {}
    for ev in partitioned.events:
        if ev.kind is EventKind.WAIT_BLOCK:
            blocks[ev.iteration] = blocks.get(ev.iteration, 0) + 1
        elif ev.kind is EventKind.BARRIER:
            barriers[ev.iteration] = barriers.get(ev.iteration, 0) + 1
    for it in range(iterations):
        assert blocks[it] >= T - 1
        assert barriers[it] == 1
    for other in (m.assign_endpoints(pattern),
                  m.assign_communicators_ideal(pattern)):
        report = m.run(pattern, other)
        assert report.sync_wait_events == 0
        assert report.barriers_total == 0
    _report(f"criterion 8: partitioned stencil emits >= {T - 1} wait-blocks "
            f"and exactly 1 barrier per iteration; endpoints and "
            f"communicators emit none")


def test_criterion_09_collective_accounting():
    expected = {
        m.Mechanism.COMMUNICATORS: (2, 1024),
        m.Mechanism.ENDPOINTS: (1, 4 * 1024),
        m.Mechanism.PARTITIONED: (1, 1024),
    }
    for mechanism, value in expected.items():
        assert m.collective_footprint(mechanism, 4, 1024) == value
    _report("criterion 9: collective steps (2,1,1) and result bytes "
            "(B, T*B, B) at T=4, B=1024")


def test_criterion_10_determinism(tmp_path):
    from mpxlab.cli import main

    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps({
        "kind": "stencil-2d-9pt",
        "process_grid": [2, 2],
        "thread_grid": [4, 4],
        "iterations": 2,
        "mechanism": "partitioned",
        "seed": 11,
    }))
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
        outs.append((out / "scenario.report.json").read_bytes())
    assert outs[0] == outs[1]
    _report("criterion 10: equal seeds produce byte-identical JSON reports")
