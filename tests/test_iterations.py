"""The engine simulates one iteration and derives the others.

Every phase ends with all clocks at its end and the matching queues start
empty each iteration, so iteration ``i`` is the first shifted by ``i``
makespans.  ``full_loop`` is the reference: it runs the one-iteration body
``n`` times on one engine, carrying clocks and channel state across, and
must give the same report and event trace as ``run()``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpxlab.errors import InvalidArgumentError
from mpxlab.patterns.specfile import scenario_from_dict
from mpxlab.simulator import (TRANSFER_TICKS, EventKind, _Engine,
                              _max_overlap, channel_policy, run)

from test_reports import _MECHANISMS

# (even, odd) grids of each kind; fan-in runs on two processes
_GRIDS = {
    "stencil-2d-5pt": (([2, 2], [2, 2]), ([3, 3], [3, 1])),
    "stencil-2d-9pt": (([2, 2], [2, 2]), ([3, 3], [3, 3])),
    "stencil-3d-27pt": (([2, 2, 2], [2, 2, 1]), ([3, 1, 1], [1, 3, 1])),
    "legion-polling": (([2], [4]), ([3], [3])),
    "dynamic-graph": (([4], [2]), ([3], [3])),
    "fan-in": (([2], [8]), ([2], [7])),
    "bspmm-rma": (([2], [2]), ([3], [3])),
    "multithreaded-allreduce": (([2], [4]), ([3], [3])),
}
CASES = [(kind, mechanism) for kind in _GRIDS for mechanism in _MECHANISMS[kind]]


def scenario(kind, mechanism, odd, policy=None, seed=3, channels=8):
    process_grid, thread_grid = _GRIDS[kind][odd]
    spec = {"kind": kind, "process_grid": process_grid,
            "thread_grid": thread_grid, "payload_bytes": 1024,
            "mechanism": mechanism, "channel_pool": channels, "seed": seed}
    if policy is not None:
        spec["policy"] = policy
    return scenario_from_dict(spec)


def full_loop(pattern, assignment, pool, policy, seed):
    """The report of ``pattern.iterations`` runs of the one-iteration body
    on one engine, each run's events labelled with its iteration."""
    engine = _Engine(replace(pattern, iterations=1), assignment, pool,
                     channel_policy(policy, assignment, pool), seed)
    for i in range(pattern.iterations):
        mark = len(engine.events)
        engine._iteration()
        engine.events[mark:] = [ev._replace(iteration=i)
                                for ev in engine.events[mark:]]
    return engine._report()


def trace(report):
    return [(ev.time, ev.kind, ev.op_id, ev.channel, ev.iteration)
            for ev in report.events]


@pytest.mark.parametrize("kind,mechanism", CASES,
                         ids=[f"{k}/{m}" for k, m in CASES])
@settings(max_examples=4, deadline=None)
@given(odd=st.booleans(), policy=st.sampled_from([None, "hash-comm"]),
       n=st.integers(1, 5), seed=st.integers(0, 3))
def test_run_matches_the_full_loop(kind, mechanism, odd, policy, n, seed):
    sc = scenario(kind, mechanism, odd, policy, seed)
    pattern = replace(sc.build_pattern(), iterations=n)
    derived = run(pattern, sc.build_assignment(pattern), pool=sc.build_pool(),
                  policy=sc.build_policy(), seed=seed)
    looped = full_loop(pattern, sc.build_assignment(pattern), sc.build_pool(),
                       sc.build_policy(), seed)
    assert derived.to_json() == looped.to_json()
    assert trace(derived) == trace(looped)


@pytest.mark.parametrize("mechanism", ["tags", "partitioned",
                                       "communicators-naive"])
def test_the_engine_work_does_not_grow_with_iterations(mechanism):
    sc = scenario("stencil-2d-9pt", mechanism, odd=True)
    reports, busy = {}, {}
    for n in (1, 50):
        pattern = replace(sc.build_pattern(), iterations=n)
        assignment, pool = sc.build_assignment(pattern), sc.build_pool()
        engine = _Engine(pattern, assignment, pool,
                         channel_policy(None, assignment, pool), sc.seed,
                         events=False)
        reports[n] = engine.run()
        busy[n] = engine.channel_busy
    assert busy[50] == busy[1] and sum(busy[1].values()) > 0
    assert (reports[50].max_concurrent_transfers
            == reports[1].max_concurrent_transfers)
    assert reports[50].phase_concurrency == reports[1].phase_concurrency
    assert reports[50].makespan == 50 * reports[1].makespan


@pytest.mark.parametrize("kind,mechanism", CASES,
                         ids=[f"{k}/{m}" for k, m in CASES])
@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("channels", [1, 2, 16])
def test_concurrency_is_the_largest_phase_concurrency(kind, mechanism, odd,
                                                      channels):
    """``_report`` takes the run's concurrency from the phases.  A phase
    ends once all its transfers have ended, and the next phase starts no
    earlier, so no ``TRANSFER_TICKS`` window spans two phases: a process's
    most transfers in flight over the whole run are those of one phase.
    Here the per-process count is taken over every transfer start."""
    sc = scenario(kind, mechanism, odd, channels=channels)
    pattern = sc.build_pattern()
    assignment, pool = sc.build_assignment(pattern), sc.build_pool()
    report = run(pattern, assignment, pool=pool, seed=sc.seed)
    # the first iteration's transfers: (start, end, owner processes, phase);
    # a transfer is owned by its op's process and, when it has one, its peer
    # process, which a partition op takes from its request
    transfers = []
    op_of = {op.op_id: op for op in pattern.ops}
    for ev in report.events:
        if ev.kind is EventKind.TRANSFER and ev.iteration == 0:
            op = op_of[ev.op_id]
            peer, partition = op.peer_process, assignment.bindings[op.op_id].partition
            if peer is None and partition is not None:
                peer = assignment.requests[partition[0]].peer
            owners = {op.process} | ({peer} if peer is not None else set())
            transfers.append((ev.time, ev.time + TRANSFER_TICKS, owners, op.phase))
    assert transfers
    # the transfers in run order: each phase's starts follow every earlier end
    ended = None
    for ph in sorted({ph for _, _, _, ph in transfers}):
        spans = [(s, e) for s, e, _, p in transfers if p == ph]
        if ended is not None:
            assert min(s for s, _ in spans) >= ended
        ended = max(e for _, e in spans)
    starts_of = {}
    for s, _, owners, _ in transfers:
        for p in owners:
            if p < pattern.num_processes:
                starts_of.setdefault(p, []).append(s)
    whole_run = max(map(_max_overlap, starts_of.values()))
    assert report.max_concurrent_transfers == whole_run
    assert whole_run == max(report.phase_concurrency.values())


@pytest.mark.parametrize("iterations", [0, -1])
def test_a_pattern_without_iterations_is_refused(iterations):
    pattern = scenario("stencil-2d-5pt", "tags", odd=False).build_pattern()
    with pytest.raises(InvalidArgumentError):
        replace(pattern, iterations=iterations)
