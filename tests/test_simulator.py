"""Engine behavior: determinism, matching cost, sync events, concurrency."""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpxlab.channels import (ChannelPool, MappingPolicy, PolicyKind,
                             communicator_key)
from mpxlab.errors import (
    DoubleReadyError,
    InvalidArgumentError,
    InvalidAssignmentError,
    InvalidTransitionError,
    MpxlabError,
)
from mpxlab.model import (
    ContextFamily,
    Direction,
    IdAllocator,
    MatchContextId,
    OpKind,
    PartitionedRequest,
    Tag,
    dup_communicator,
    world_communicator,
)
from mpxlab.patterns import (
    Mechanism,
    assign_allreduce,
    assign_communicators_ideal,
    assign_communicators_naive,
    assign_endpoints,
    assign_partitioned,
    assign_tags_with_hints,
    gen_allreduce,
    gen_fan_in,
    gen_legion,
    gen_stencil,
)
from mpxlab.patterns.specfile import scenario_from_dict
from mpxlab.semantics import requests_match
import mpxlab.simulator as simulator
from mpxlab.simulator import (
    SYNC_WAIT_TICKS,
    TRANSFER_TICKS,
    EventKind,
    _max_overlap,
    _pair_requests,
    channel_policy,
    run,
)

from test_reports import SPECS


class TestBasics:
    def test_two_process_ping(self):
        p = gen_fan_in(1)
        report = run(p, assign_communicators_naive(p, num_comms=1))
        assert report.matches_total == 1
        assert report.match_attempts_total == 1

    def test_determinism_bytes(self):
        p = gen_stencil(2, 9, [2, 2], [3, 3], iterations=2)
        a = assign_endpoints(p)
        r1 = run(p, a, seed=5)
        r2 = run(p, assign_endpoints(p), seed=5)
        assert r1.to_json() == r2.to_json()

    def test_conservation_and_queue_drain(self):
        p = gen_stencil(2, 9, [2, 2], [3, 3], iterations=3)
        sends = sum(1 for op in p.ops if op.kind is OpKind.SEND)
        report = run(p, assign_communicators_ideal(p))
        assert report.matches_total == sends * 3

    def test_concurrency_bounded_by_pool(self):
        p = gen_stencil(2, 9, [2, 2], [4, 4])
        pool = ChannelPool(2)
        report = run(p, assign_endpoints(p), pool=pool)
        assert report.max_concurrent_transfers <= 2

    def test_refuses_mismatched_assignment(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_endpoints(p)
        bad = next(op.op_id for op in p.ops if op.kind is OpKind.RECV)
        desc = a.bindings[bad]
        # a stamped pattern's bindings are read-only: rebind in a copy
        a.bindings = dict(a.bindings)
        a.bindings[bad] = type(desc)(
            kind=desc.kind, source=desc.source, program_index=desc.program_index,
            context=MatchContextId(ContextFamily.ENDPOINT, desc.context.key),
            target=desc.target, tag=Tag(999), endpoint=desc.endpoint,
        )
        with pytest.raises(InvalidAssignmentError):
            run(p, a)

    def test_event_log_invariants(self):
        p = gen_stencil(2, 9, [2, 2], [3, 3], iterations=2)
        report = run(p, assign_communicators_naive(p))
        times = [ev.time for ev in report.events]
        assert times == sorted(times)
        attempted = set()
        for ev in report.events:
            if ev.kind is EventKind.MATCH_ATTEMPT:
                attempted.add(ev.op_id)
            elif ev.kind is EventKind.MATCH_SUCCESS and ev.op_id is not None:
                assert ev.op_id in attempted


class TestMatchingCost:
    def test_shared_comm_fan_in_is_quadratic(self):
        totals = {}
        for n in (2, 4, 8, 16):
            p = gen_fan_in(n)
            report = run(p, assign_communicators_naive(p, num_comms=1))
            totals[n] = report.match_attempts_total
        assert totals == {2: 3, 4: 10, 8: 36, 16: 136}  # n(n+1)/2

    def test_per_thread_contexts_are_linear(self):
        for n in (2, 8):
            p = gen_fan_in(n)
            report = run(p, assign_communicators_naive(p))
            assert report.match_attempts_total == n

    def test_partitioned_matches_once_per_message(self):
        for parts in (1, 4, 16):
            p = gen_stencil(2, 5, [2, 2], [parts, 1], iterations=2)
            report = run(p, assign_partitioned(p))
            assert report.match_attempts_total == report.matches_total


class TestPartitionedSync:
    def test_waitblocks_and_barrier_per_iteration(self):
        iterations = 3
        p = gen_stencil(2, 5, [2, 2], [3, 3], iterations=iterations)
        report = run(p, assign_partitioned(p))
        T = p.threads_per_process
        per_iter_blocks = {}
        per_iter_barriers = {}
        for ev in report.events:
            if ev.kind is EventKind.WAIT_BLOCK:
                per_iter_blocks[ev.iteration] = per_iter_blocks.get(ev.iteration, 0) + 1
            if ev.kind is EventKind.BARRIER:
                per_iter_barriers[ev.iteration] = per_iter_barriers.get(ev.iteration, 0) + 1
        for it in range(iterations):
            assert per_iter_blocks[it] >= T - 1
            assert per_iter_barriers[it] == 1
        assert report.barriers_total == iterations

    def test_other_mechanisms_never_block(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3], iterations=2)
        for a in (assign_communicators_ideal(p), assign_endpoints(p)):
            report = run(p, a)
            assert report.sync_wait_events == 0
            assert report.barriers_total == 0


def rebind(assignment, op_id, partition):
    desc = assignment.bindings[op_id]
    return replace(assignment, bindings={**assignment.bindings,
                                         op_id: desc._replace(partition=partition)})


def readies(assignment):
    """(op id, (request id, index)) of every pready op, in op id order."""
    return [(op_id, desc.partition)
            for op_id, desc in sorted(assignment.bindings.items())
            if desc.kind is OpKind.PARTITION_READY]


class TestPartitionedRefusals:
    """Each partitioned check refuses the same way on every run: the engine
    keeps a run's partition flags itself, so a refused run leaves nothing
    behind for the next."""

    @staticmethod
    def refused_twice(pattern, assignment, error, **options):
        messages = []
        for _ in range(2):
            with pytest.raises(error) as refused:
                run(pattern, assignment, **options)
            assert type(refused.value) is error
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        return messages[0]

    def test_a_partition_readied_twice(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_partitioned(p)
        ready = readies(a)
        op_id, (rid, idx) = ready[0]
        sibling = next(part for _, part in ready
                       if part[0] == rid and part[1] != idx)
        a = rebind(a, op_id, sibling)
        assert self.refused_twice(p, a, DoubleReadyError) \
            == f"partition {sibling[1]} already marked ready"

    def test_pready_on_a_receive_request(self):
        # the allreduce ops name no partner, so no pair check comes first
        p = gen_allreduce(2, 4, 128)
        a = assign_allreduce(p, Mechanism.PARTITIONED)
        op_id, (_, idx) = readies(a)[0]
        owner = a.bindings[op_id].process
        recv = next(r for r in a.requests.values()
                    if r.direction is Direction.RECV and r.owner == owner)
        a = rebind(a, op_id, (recv.request_id, idx))
        assert self.refused_twice(p, a, InvalidTransitionError) \
            == "pready on a receive request"

    def test_a_partition_out_of_range(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_partitioned(p)
        op_id, (rid, _) = readies(a)[0]
        n = a.requests[rid].num_partitions
        a = rebind(a, op_id, (rid, n))
        assert self.refused_twice(p, a, InvalidArgumentError) \
            == f"partition {n} out of range 0..{n - 1}"

    def test_an_incomplete_request(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_partitioned(p)
        rid, request = next((rid, r) for rid, r in sorted(a.requests.items())
                            if r.direction is Direction.SEND)
        a = replace(a, requests={**a.requests, rid: replace(
            request, num_partitions=request.num_partitions + 1)})
        assert self.refused_twice(p, a, MpxlabError) \
            == f"request {rid} incomplete at iteration end"

    def test_pready_outside_a_partitioned_run(self):
        # only a partitioned run starts its requests
        p = gen_allreduce(2, 4, 128)
        a = replace(assign_allreduce(p, Mechanism.PARTITIONED),
                    mechanism=Mechanism.ENDPOINTS)
        assert self.refused_twice(p, a, InvalidTransitionError,
                                  policy=PolicyKind.PARTITION_INDEX) \
            == "pready while inactive"


def inputs(pattern, assignment):
    """Every field of the pattern, the assignment and each request."""
    return copy.deepcopy((vars(pattern), vars(assignment), {
        rid: vars(r) for rid, r in assignment.requests.items()}))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_run_never_writes_its_inputs(name):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    assignment = scenario.build_assignment(pattern)
    before = inputs(pattern, assignment)
    reports = [run(pattern, assignment, pool=scenario.build_pool(),
                   policy=scenario.build_policy(), seed=scenario.seed)
               for _ in range(2)]
    assert inputs(pattern, assignment) == before
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[0].events == reports[1].events


def per_binding_allocations(assignment, pool):
    """Round-robin allocations as a walk over every binding registers them:
    the assignment's communicators in creation order, then each binding's
    key in binding order."""
    policy = MappingPolicy(PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR)
    for comm in assignment.comms:
        policy.register_communicator(comm.context_id, pool)
    for desc in assignment.bindings.values():
        policy.register_communicator(communicator_key(policy, desc), pool)
    return list(policy.allocations.items())


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("channels", [1, 3, 16])
def test_round_robin_registers_as_the_per_binding_walk(name, channels):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    assignment = scenario.build_assignment(pattern)
    pool = ChannelPool(channels)
    policy = channel_policy(PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR,
                            assignment, pool)
    assert list(policy.allocations.items()) == per_binding_allocations(
        assignment, pool)


class TestConcurrencyRatios:
    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_ideal_doubles_naive_phase_concurrency(self, t):
        p = gen_stencil(2, 9, [2, 2], [t, t])
        pool = ChannelPool(4096)
        ideal = run(p, assign_communicators_ideal(p), pool=pool)
        naive = run(p, assign_communicators_naive(p), pool=pool)
        for phase, value in ideal.phase_concurrency.items():
            assert value == 2 * naive.phase_concurrency[phase]


class TestLegionProbing:
    def test_probes_scale_with_contexts(self):
        p = gen_legion(2, 4, 16, seed=3)
        probes = {}
        for k in (1, 2, 4, 8):
            report = run(p, assign_communicators_naive(p, num_comms=k))
            probes[k] = report.probe_iterations
        assert probes[2] == 2 * probes[1]
        assert probes[8] == 8 * probes[1]
        ep_report = run(p, assign_endpoints(p))
        assert ep_report.probe_iterations == probes[1]


class TestHintMonotonicity:
    def test_tag_relaxation_never_slows_the_stencil(self):
        # one shared communicator without hints vs the tag-bit mechanism
        # (same single context, wildcards excluded, per-thread channels)
        for t in (3, 4):
            p = gen_stencil(2, 9, [2, 2], [t, t])
            shared = run(p, assign_communicators_naive(p, num_comms=1))
            tagged = run(p, assign_tags_with_hints(p))
            assert tagged.makespan <= shared.makespan


class TestAllreduce:
    def test_footprint_reflects_duplication(self):
        p = gen_allreduce(2, 4, 128)  # 1024-byte buffers
        comm = run(p, assign_allreduce(p, Mechanism.COMMUNICATORS))
        eps = run(p, assign_allreduce(p, Mechanism.ENDPOINTS))
        part = run(p, assign_allreduce(p, Mechanism.PARTITIONED))
        assert eps.memory_footprint_bytes > comm.memory_footprint_bytes
        assert part.memory_footprint_bytes <= comm.memory_footprint_bytes

    def test_intranode_steps_follow_collective_footprint(self, monkeypatch):
        """Each step past the first that ``collective_footprint`` states
        adds one ``SYNC_WAIT_TICKS``; the engine keeps no rule of its own."""
        p = gen_allreduce(3, 4, 128)
        mechanisms = (Mechanism.COMMUNICATORS, Mechanism.ENDPOINTS,
                      Mechanism.PARTITIONED)
        before = {m: run(p, assign_allreduce(p, m)).makespan for m in mechanisms}
        real = simulator.collective_footprint

        def three_steps_for_communicators(mechanism, threads, buffer_bytes):
            steps, result = real(mechanism, threads, buffer_bytes)
            return (3 if mechanism is Mechanism.COMMUNICATORS else steps), result

        monkeypatch.setattr(simulator, "collective_footprint",
                            three_steps_for_communicators)
        after = {m: run(p, assign_allreduce(p, m)).makespan for m in mechanisms}
        assert after == {**before, Mechanism.COMMUNICATORS:
                         before[Mechanism.COMMUNICATORS] + SYNC_WAIT_TICKS}


STENCIL_ASSIGNERS = [assign_communicators_ideal, assign_communicators_naive,
                     assign_tags_with_hints, assign_endpoints, assign_partitioned]


class TestEventsOptOut:
    @pytest.mark.parametrize("assign", STENCIL_ASSIGNERS,
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("pattern", [
        lambda: gen_stencil(2, 9, [2, 2], [3, 3], iterations=2),
        lambda: gen_stencil(3, 27, [2, 2, 2], [2, 2, 3]),
    ], ids=["2d", "3d"])
    def test_stencil_report_is_the_same_without_events(self, assign, pattern):
        p = pattern()
        full = run(p, assign(p))
        bare = run(p, assign(p), events=False)
        assert full.events
        assert bare.events == []
        assert bare.to_json() == full.to_json()

    @pytest.mark.parametrize("assign", [
        lambda p: assign_communicators_naive(p, num_comms=3), assign_endpoints,
    ], ids=["naive", "endpoints"])
    def test_polling_report_is_the_same_without_events(self, assign):
        p = gen_legion(3, 4, 16, seed=5)
        full = run(p, assign(p))
        bare = run(p, assign(p), events=False)
        assert full.probe_iterations > 0
        assert bare.events == []
        assert bare.to_json() == full.to_json()


def first_fit_pairs(requests):
    """Reference pairing: each send, in id order, takes the first untaken
    receive in id order that ``requests_match`` accepts."""
    by_id = sorted(requests, key=lambda r: r.request_id)
    taken, pairs = set(), {}
    for s in by_id:
        for r in by_id:
            if r.request_id not in taken and requests_match(s, r):
                pairs[s.request_id] = r.request_id
                taken.add(r.request_id)
                break
    return pairs


@st.composite
def request_sets(draw):
    # two processes, two tags and two contexts: keys repeat within a set
    ids = IdAllocator()
    world = world_communicator(2, ids)
    comms = [world, dup_communicator(world, ids)]
    n = draw(st.integers(0, 30))
    request_ids = draw(st.permutations(range(n)))
    return [
        PartitionedRequest(
            request_id=rid,
            direction=draw(st.sampled_from(list(Direction))),
            num_partitions=1, partition_size=1,
            peer=draw(st.integers(0, 1)), tag=Tag(draw(st.integers(0, 1))),
            comm=draw(st.sampled_from(comms)), owner=draw(st.integers(0, 1)),
        )
        for rid in request_ids
    ]


@settings(max_examples=200, deadline=None)
@given(request_sets())
def test_request_pairing_matches_first_fit(requests):
    assert _pair_requests(requests) == first_fit_pairs(requests)


def endpoint_sweep(intervals):
    """Reference overlap: sort every (start, +1) and (end, -1) endpoint and
    sweep; an end sorts before a start at the same tick."""
    points = sorted([(s, 1) for s, _ in intervals]
                    + [(e, -1) for _, e in intervals])
    best = cur = 0
    for _, delta in points:
        cur += delta
        best = max(best, cur)
    return best


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=60))
def test_windowed_overlap_matches_endpoint_sweep(starts):
    intervals = [(s, s + TRANSFER_TICKS) for s in starts]
    assert _max_overlap(starts) == endpoint_sweep(intervals)


@st.composite
def process_starts(draw):
    """A process count and (start tick, process) pairs of its processes."""
    P = draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(0, 40), st.integers(0, P - 1))
    return P, draw(st.lists(pairs, max_size=60))


@settings(max_examples=300, deadline=None)
@given(process_starts())
def test_keyed_overlap_is_the_largest_per_process_overlap(case):
    """One tally of ``start * P + process`` keys gives the most transfers in
    flight on any one process, as each process's own starts do."""
    P, starts = case
    per_process = {}
    for start, q in starts:
        per_process.setdefault(q, []).append(start)
    assert _max_overlap([start * P + q for start, q in starts], P) \
        == max(map(_max_overlap, per_process.values()), default=0)


def test_a_peer_outside_the_processes_adds_no_transfers():
    """A hand-built send whose peer process lies outside ``range(P)``, below
    it or above it, counts in the concurrency tally on its own process only;
    no generator makes one."""
    p = gen_stencil(2, 9, [2, 2], [3, 3])
    p = replace(p, ops=tuple(p.ops), stamp=0)
    a, P = assign_endpoints(p), p.num_processes

    def concurrency(peer):
        ops = tuple(op._replace(peer_process=peer) if op.kind is OpKind.SEND
                    else op for op in p.ops)
        return run(replace(p, ops=ops), a).phase_concurrency

    assert concurrency(-1) == concurrency(-P - 3) == concurrency(P) \
        == concurrency(P + 2)
