"""Pattern generators, assignment constructors, and resource formulas."""

import importlib.util
import random
from dataclasses import replace
from pathlib import Path

import pytest

from mpxlab.errors import (
    DomainError,
    IncompleteAssignmentError,
    InvalidArgumentError,
    UnsupportedPatternError,
)
from mpxlab.model import ANY_SOURCE, IdAllocator, OpKind, create_endpoints_comm, \
    world_communicator
from mpxlab.patterns import (
    Mechanism,
    PatternKind,
    StencilGeometry,
    assign_allreduce,
    assign_bspmm_endpoints,
    assign_bspmm_windows,
    assign_communicators_ideal,
    assign_communicators_naive,
    assign_endpoints,
    assign_partitioned,
    assign_tags_with_hints,
    build_assignment,
    collective_footprint,
    gen_allreduce,
    gen_bspmm,
    gen_dynamic_graph,
    gen_fan_in,
    gen_legion,
    gen_stencil,
    min_channels_2d,
    min_channels_3d,
    min_communicators_3d,
)
from mpxlab.patterns.base import STENCIL_KINDS, _program_indexes
from mpxlab.patterns.specfile import RUNS_ONCE, Scenario, scenario_from_dict
from mpxlab.semantics import Reason, logically_parallel, validate_assignment
from mpxlab.simulator import run
from mpxlab.errors import SpecFileError

import test_reports


class TestFormulas:
    def test_reference_point(self):
        assert min_communicators_3d(4, 4, 4) == 808
        assert min_channels_3d(4, 4, 4) == 56
        assert min_communicators_3d(4, 4, 4) / min_channels_3d(4, 4, 4) >= 14.4

    def test_small_cube(self):
        assert min_communicators_3d(2, 2, 2) == 184
        assert min_channels_3d(2, 2, 2) == 8
        assert min_channels_3d(3, 3, 3) == 26

    def test_domain(self):
        with pytest.raises(DomainError):
            min_communicators_3d(1, 4, 4)
        with pytest.raises(DomainError):
            min_channels_3d(4, 1, 4)

    def test_comms_dominate_channels(self):
        for x in range(2, 9):
            for y in range(2, 9):
                for z in range(2, 9):
                    assert min_communicators_3d(x, y, z) > min_channels_3d(x, y, z)
        assert min_communicators_3d(4, 4, 4) / min_channels_3d(4, 4, 4) > 14


class TestGenStencil:
    def test_boundary_threads_2d(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        assert len(p.communicating_threads) == 8  # all but the center
        geo = StencilGeometry([2, 2], [3, 3])
        edge = [t for t in p.communicating_threads
                if not geo.is_corner(geo.thread_coords(t))]
        for t in edge:
            dirs = {op.direction for op in p.ops
                    if op.process == 0 and op.thread == t}
            assert len(dirs) == 1

    def test_nine_point_adds_diagonals(self):
        p5 = gen_stencil(2, 5, [2, 2], [3, 3])
        p9 = gen_stencil(2, 9, [2, 2], [3, 3])
        dirs5 = {op.direction for op in p5.ops if op.thread == 0}
        dirs9 = {op.direction for op in p9.ops if op.thread == 0}
        assert dirs5 < dirs9
        assert any(all(c != 0 for c in d) for d in dirs9)

    def test_3d_communicating_count(self):
        p = gen_stencil(3, 27, [2, 2, 2], [4, 4, 4])
        assert len(p.communicating_threads) == 56

    def test_matched_pairs_are_mutual(self):
        p = gen_stencil(2, 9, [2, 2], [3, 3])
        by_id = {op.op_id: op for op in p.ops}
        for send_id, recv_id in p.pairs:
            send, recv = by_id[send_id], by_id[recv_id]
            assert send.kind is OpKind.SEND and recv.kind is OpKind.RECV
            assert (recv.peer_process, recv.peer_thread) == (send.process,
                                                             send.thread)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            gen_stencil(3, 27, [2, 2], [4, 4])
        with pytest.raises(InvalidArgumentError):
            gen_stencil(2, 27, [2, 2], [3, 3])


class TestNaiveAssignment:
    def test_object_count_is_thread_count(self):
        p = gen_stencil(2, 9, [2, 2], [3, 3])
        a = assign_communicators_naive(p)
        assert a.objects_created == {"communicators": 9}

    def test_opposite_edge_reuse_is_lost(self):
        # the north-edge middle thread's send shares its communicator with
        # the south-edge middle thread's receive from the facing process
        p = gen_stencil(2, 9, [2, 2], [3, 3])
        a = assign_communicators_naive(p)
        report = validate_assignment(p, a)
        assert not report.matching_violations
        send_n = next(op for op in p.ops
                      if op.process == 0 and op.thread == 1
                      and op.kind is OpKind.SEND and op.direction == (0, -1))
        recv_s = next(op for op in p.ops
                      if op.process == 0 and op.thread == 7
                      and op.kind is OpKind.RECV and op.direction == (0, 1))
        assert a.entity(a.bindings[send_n.op_id]) \
            == a.entity(a.bindings[recv_s.op_id])
        pair = (min(send_n.op_id, recv_s.op_id), max(send_n.op_id, recv_s.op_id))
        assert pair in report.lost_parallelism

    def test_every_opposite_edge_reuse_pair_is_lost(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_communicators_naive(p)
        lost = set(validate_assignment(p, a).lost_parallelism)
        by_id = {op.op_id: op for op in p.ops}
        for send_id, _ in p.pairs:
            send = by_id[send_id]
            if send.process != 0:
                continue
            for op in p.ops:
                if (op.process == 0 and op.kind is OpKind.RECV
                        and op.thread != send.thread
                        and a.entity(a.bindings[op.op_id])
                        == a.entity(a.bindings[send_id])):
                    pair = (min(send_id, op.op_id), max(send_id, op.op_id))
                    assert pair in lost

    def test_single_thread_grid_has_nothing_to_lose(self):
        p = gen_stencil(2, 5, [2, 2], [1, 1])
        report = validate_assignment(p, assign_communicators_naive(p))
        assert report.lost_parallelism == []

    def test_naive_loses_half_of_opposite_edge_exchange(self):
        # of each opposite-edge (send, recv) couple, the ideal map exposes
        # both sides while the naive map serializes one: half the concurrency
        p = gen_stencil(2, 9, [2, 2], [3, 3])
        naive = validate_assignment(p, assign_communicators_naive(p))
        ideal = validate_assignment(p, assign_communicators_ideal(p))
        assert ideal.lost_parallelism == []
        by_id = {op.op_id: op for op in p.ops}
        cross_thread_pairs = [
            (x, y) for x, y in naive.lost_parallelism
            if by_id[x].thread != by_id[y].thread
        ]
        assert cross_thread_pairs


class TestIdealAssignment:
    @pytest.mark.parametrize("dims,points,pgrid,tgrid", [
        (2, 5, [2, 2], [2, 2]),
        (2, 5, [2, 2], [3, 3]),
        (2, 5, [2, 2], [4, 4]),
        (2, 9, [2, 2], [2, 2]),
        (2, 9, [2, 2], [3, 3]),
        (2, 9, [2, 2], [4, 4]),
        (2, 9, [2, 2], [4, 3]),
        (3, 27, [2, 2, 2], [2, 2, 2]),
        (3, 27, [2, 2, 2], [3, 3, 3]),
        (3, 27, [2, 2, 2], [4, 4, 4]),
    ])
    def test_clean_for_all_small_grids(self, dims, points, pgrid, tgrid):
        p = gen_stencil(dims, points, pgrid, tgrid)
        a = assign_communicators_ideal(p)
        report = validate_assignment(p, a)
        assert report.matching_violations == []
        assert report.lost_parallelism == []

    def test_listing_style_2d_count(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_communicators_ideal(p)
        assert a.objects_created["communicators"] == 12  # 2*tx + 2*ty

    def test_3d_count_realizes_the_formula(self):
        for t in (2, 3, 4):
            p = gen_stencil(3, 27, [2, 2, 2], [t, t, t])
            a = assign_communicators_ideal(p)
            assert (a.objects_created["communicators"]
                    == min_communicators_3d(t, t, t))

    def test_mirrored_parity(self):
        # same thread, same direction, adjacent processes: different comms
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_communicators_ideal(p)

        def north_send_ctx(proc):
            op = next(o for o in p.ops if o.process == proc and o.thread == 1
                      and o.kind is OpKind.SEND and o.direction == (0, -1))
            return a.bindings[op.op_id].context

        assert north_send_ctx(0) != north_send_ctx(2)

    def test_mirror_matching_property(self):
        p = gen_stencil(2, 9, [2, 2], [3, 3])
        a = assign_communicators_ideal(p)
        for send_id, recv_id in p.pairs:
            assert (a.bindings[send_id].context == a.bindings[recv_id].context)

    def test_corner_threads_reuse_one_comm_for_corner_partners(self):
        p = gen_stencil(2, 9, [2, 2], [3, 3])
        a = assign_communicators_ideal(p)
        corner_dirs = {(-1, 0), (0, -1), (-1, -1)}  # thread 0's corner partners
        ctxs = {a.bindings[op.op_id].context
                for op in p.ops
                if op.process == 0 and op.thread == 0
                and op.direction in corner_dirs}
        assert len(ctxs) == 1


class TestEndpointAssignment:
    def test_target_rank_closed_forms(self):
        # uniform counts: endpoint rank = process * threads + thread
        ids = IdAllocator()
        world = world_communicator(6, ids)
        ep = create_endpoints_comm(world, 9, ids)
        assert ep.endpoint_rank(5, 2 * 3 + 1) == 5 * 9 + 3 * (3 - 1) + 1 == 52
        assert ep.endpoint_rank(4, 0 * 3 + 0) == 4 * 9 + 0 * 3 + 0 == 36

    def test_assignment_targets_follow_the_forms(self):
        p = gen_stencil(2, 5, [2, 3], [3, 3])
        a = assign_endpoints(p)
        epc = a.endpoints_comm
        # process (1,0) = rank 1; its northern neighbor wraps to rank 5
        op = next(o for o in p.ops if o.process == 1 and o.thread == 1
                  and o.kind is OpKind.SEND and o.direction == (0, -1))
        assert op.peer_process == 5
        assert a.bindings[op.op_id].target == epc.endpoint_rank(5, 7) == 52

    def test_per_process_count_matches_channel_need(self):
        for t in (2, 3, 4):
            p = gen_stencil(3, 27, [2, 2, 2], [t, t, t])
            a = assign_endpoints(p)
            assert (a.objects_created["endpoints_per_process"]
                    == min_channels_3d(t, t, t))

    def test_wildcards_ride_on_endpoints(self):
        p = gen_legion(2, 3, 6, seed=1)
        a = assign_endpoints(p)
        recvs = [a.bindings[op.op_id] for op in p.ops if op.kind is OpKind.RECV]
        assert all(d.target == ANY_SOURCE and d.tag.is_wildcard for d in recvs)
        assert validate_assignment(p, a).matching_violations == []


class TestPartitionedAssignment:
    def test_request_structure_2d(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_partitioned(p)
        assert a.objects_created["requests_per_process"] == 8  # 4 send + 4 recv
        north = [r for r in a.requests.values()
                 if r.owner == 0 and r.direction.value == "send"]
        assert sorted(r.num_partitions for r in north) == [3, 3, 3, 3]

    def test_partition_index_is_position_on_the_face(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_partitioned(p)
        op = next(o for o in p.ops if o.process == 0 and o.thread == 1
                  and o.kind is OpKind.SEND and o.direction == (0, -1))
        rid, index = a.bindings[op.op_id].partition
        assert index == 1  # tid_x of thread (1, 0)

    def test_wildcard_patterns_unsupported(self):
        with pytest.raises(UnsupportedPatternError):
            assign_partitioned(gen_legion(2, 2, 4))
        with pytest.raises(UnsupportedPatternError):
            assign_partitioned(gen_dynamic_graph(2, 2))

    def test_requests_pair_up(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_partitioned(p)
        assert validate_assignment(p, a).matching_violations == []


class TestTagAssignment:
    def test_single_comm_with_layout(self):
        p = gen_stencil(2, 9, [2, 2], [3, 3])
        a = assign_tags_with_hints(p)
        assert a.objects_created == {"communicators": 1}
        assert a.hints.no_any_tag and a.hints.no_any_source
        assert a.hints.tag_vci_bits is not None
        report = validate_assignment(p, a)
        assert report.matching_violations == []
        assert report.lost_parallelism == []


class TestIrregularPatterns:
    def test_legion_conserves_messages(self):
        p = gen_legion(2, 4, 8, seed=0)
        sends = [op for op in p.ops if op.kind is OpKind.SEND]
        recvs = [op for op in p.ops if op.kind is OpKind.RECV]
        assert len(sends) == len(recvs) == 8
        assert all(op.thread == 0 for op in recvs)  # the polling thread

    def test_bspmm_window_verdicts(self):
        p = gen_bspmm(2, 3, tiles=4, seed=2)
        a = assign_bspmm_windows(p)
        accums = [op for op in p.ops
                  if op.kind is OpKind.ACCUMULATE and op.process == 0]
        by_loc = {}
        for op in accums:
            by_loc.setdefault((op.peer_process, op.location), []).append(op)
        shared = next(ops for ops in by_loc.values()
                      if len({o.thread for o in ops}) > 1)
        x, y = shared[0], shared[1]
        v = logically_parallel(a.bindings[x.op_id], a.bindings[y.op_id], a.hints)
        assert not v.parallel and v is Reason.ATOMIC_SAME_LOCATION

    def test_bspmm_endpoints_expose_the_atomics(self):
        p = gen_bspmm(2, 3, tiles=4, seed=2)
        a = assign_bspmm_endpoints(p)
        accums = [op for op in p.ops
                  if op.kind is OpKind.ACCUMULATE and op.process == 0]
        pairs = [(x, y) for x in accums for y in accums
                 if x.op_id < y.op_id and x.thread != y.thread]
        for x, y in pairs:
            v = logically_parallel(a.bindings[x.op_id], a.bindings[y.op_id],
                                   a.hints)
            assert v.parallel

    def test_allreduce_mechanisms(self):
        p = gen_allreduce(2, 4, 128)
        comm = assign_allreduce(p, Mechanism.COMMUNICATORS)
        assert comm.objects_created["communicators"] == 4
        eps = assign_allreduce(p, Mechanism.ENDPOINTS)
        assert eps.objects_created["endpoints_per_process"] == 4
        part = assign_allreduce(p, Mechanism.PARTITIONED)
        assert part.objects_created["requests"] == 4  # send + recv per process
        with pytest.raises(UnsupportedPatternError):
            assign_allreduce(p, Mechanism.WINDOWS)

    def test_fan_in_posts_receives_in_reverse(self):
        p = gen_fan_in(4)
        recvs = [op for op in p.ops if op.kind is OpKind.RECV]
        assert [op.tag_key for op in recvs] == [3, 2, 1, 0]


class TestCollectiveFootprint:
    def test_reference_values(self):
        assert collective_footprint(Mechanism.COMMUNICATORS, 4, 1024) == (2, 1024)
        assert collective_footprint(Mechanism.ENDPOINTS, 4, 1024) == (1, 4096)
        assert collective_footprint(Mechanism.PARTITIONED, 4, 1024) == (1, 1024)

    def test_single_thread_never_duplicates(self):
        for mech in (Mechanism.COMMUNICATORS, Mechanism.ENDPOINTS,
                     Mechanism.PARTITIONED):
            _, result = collective_footprint(mech, 1, 512)
            assert result == 512

    def test_unsupported_mechanism(self):
        with pytest.raises(UnsupportedPatternError):
            collective_footprint(Mechanism.WINDOWS, 4, 1024)


class TestDispatcher:
    def test_stencil_routes(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = build_assignment(p, "communicators-naive")
        assert a.variant == "naive"
        with pytest.raises(UnsupportedPatternError):
            build_assignment(p, "windows")

    def test_fan_in_naive_shares_one_communicator(self):
        p = gen_fan_in(8)
        a = build_assignment(p, "communicators-naive")
        assert a.objects_created["communicators"] == 1
        spec = scenario_from_dict({"kind": "fan-in", "process_grid": [2],
                                   "thread_grid": [8],
                                   "mechanism": "communicators-naive"})
        assert a.bindings == spec.build_assignment(spec.build_pattern()).bindings

    def test_incomplete_assignment_detected(self):
        p = gen_stencil(2, 5, [2, 2], [3, 3])
        a = assign_endpoints(p)
        # the bindings are read-only: drop the op from a copy
        bindings = dict(a.bindings)
        bindings.pop(p.ops[0].op_id)
        a = replace(a, bindings=bindings)
        with pytest.raises(IncompleteAssignmentError):
            validate_assignment(p, a)


class TestSpecFile:
    def test_round_trip(self):
        scenario = Scenario(kind="stencil-2d-9pt", process_grid=(2, 2),
                            thread_grid=(3, 3), mechanism="endpoints",
                            channel_pool=32, seed=7)
        again = scenario_from_dict(
            __import__("json").loads(scenario.to_json()))
        assert again == scenario

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecFileError):
            scenario_from_dict({"kind": "stencil-2d-5pt",
                                "process_grid": [2, 2],
                                "thread_grid": [3, 3], "oops": 1})

    def test_field_diagnostics(self):
        with pytest.raises(SpecFileError, match="mechanism"):
            scenario_from_dict({"kind": "stencil-2d-5pt",
                                "process_grid": [2, 2],
                                "thread_grid": [3, 3],
                                "mechanism": "smoke-signals"})
        with pytest.raises(SpecFileError, match="thread_grid"):
            scenario_from_dict({"kind": "stencil-2d-5pt",
                                "process_grid": [2, 2],
                                "thread_grid": [0, 3]})

    def test_scenario_builds(self):
        scenario = scenario_from_dict({
            "kind": "stencil-2d-5pt", "process_grid": [2, 2],
            "thread_grid": [3, 3], "mechanism": "partitioned",
        })
        pattern = scenario.build_pattern()
        assignment = scenario.build_assignment(pattern)
        assert assignment.mechanism is Mechanism.PARTITIONED

    def test_scenario_hint_overrides_relax_the_assignment(self):
        scenario = scenario_from_dict({
            "kind": "stencil-2d-5pt", "process_grid": [2, 2],
            "thread_grid": [3, 3], "mechanism": "communicators-naive",
            "hints": {"no_any_tag": True, "no_any_source": True},
        })
        pattern = scenario.build_pattern()
        assignment = scenario.build_assignment(pattern)
        assert assignment.hints.no_any_tag and assignment.hints.no_any_source
        assert validate_assignment(pattern, assignment).matching_violations == []

    def test_spec_hint_relaxes_window_accumulate_ordering(self):
        scenario = scenario_from_dict({
            "kind": "bspmm-rma", "process_grid": [2], "thread_grid": [3],
            "mechanism": "windows",
            "hints": {"accumulate_ordering_none": True},
        })
        assignment = scenario.build_assignment(scenario.build_pattern())
        assert assignment.hints.accumulate_ordering_none is True


# --------------------------------------------------------------------------
# issue order


def reference_program_indexes(pattern):
    """The issue-order rule with one Python sort key per op: within each
    thread, receives first, then the rest, each in (phase, op id) order."""
    out, by_thread = {}, {}
    for op in pattern.ops:
        by_thread.setdefault((op.process, op.thread), []).append(op)
    for ops in by_thread.values():
        ops.sort(key=lambda o: (0 if o.kind is OpKind.RECV else 1, o.phase, o.op_id))
        for i, op in enumerate(ops):
            out[op.op_id] = i
    return out


ISSUE_ORDER_SPECS = {
    spec["kind"]: spec for spec in test_reports.SPECS.values()
} | {"stencil-3d-27pt odd": {"kind": "stencil-3d-27pt",
                             "process_grid": [3, 1, 2], "thread_grid": [2, 3, 2],
                             "iterations": 1}}


@pytest.mark.parametrize("name", sorted(ISSUE_ORDER_SPECS))
def test_issue_order_follows_the_keyed_rule(name):
    pattern = scenario_from_dict(ISSUE_ORDER_SPECS[name]).build_pattern()
    expected = reference_program_indexes(pattern)
    # a stencil's ops are a stamped view, any other kind's one block
    assert (pattern.ops.columns is not None) == (pattern.kind in STENCIL_KINDS)
    # a pattern maps its template's ops, the ones assigners read
    assert _program_indexes(pattern) == {
        op.op_id: expected[op.op_id] for op in pattern.template}
    # the same ops as one block map every op
    assert _program_indexes(replace(pattern, ops=tuple(pattern.ops))) == expected


UNSTAMPED_SPECS = {name: spec for name, spec in test_reports.SPECS.items()
                   if not name.startswith("stencil-")}


@pytest.mark.parametrize("name", sorted(UNSTAMPED_SPECS))
def test_op_list_order_does_not_matter(name):
    # CommPattern takes its ops in any order: the same ops in a seeded
    # permutation, ids kept, are normalised to op-id order and give the
    # same issue order and the same report
    scenario = scenario_from_dict(UNSTAMPED_SPECS[name])
    pattern = scenario.build_pattern()
    ops = list(pattern.ops)
    random.Random(7).shuffle(ops)
    assert ops != list(pattern.ops)
    shuffled = replace(pattern, ops=tuple(ops))
    assert shuffled.ops == pattern.ops
    assert _program_indexes(shuffled) == reference_program_indexes(shuffled)
    reports = []
    for p in (pattern, shuffled):
        report = run(p, scenario.build_assignment(p), pool=scenario.build_pool(),
                     policy=scenario.build_policy(), seed=scenario.seed)
        reports.append((report.to_json(), report.events))
    assert reports[0] == reports[1]


# --------------------------------------------------------------------------
# the engine's matching precondition


def _sweep_grids():
    """The (even, odd) grids of each kind in ``tools/digest_sweep.py``."""
    path = Path(__file__).resolve().parent.parent / "tools" / "digest_sweep.py"
    spec = importlib.util.spec_from_file_location("digest_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GRIDS


SWEEP_GRIDS = _sweep_grids()


@pytest.mark.parametrize("kind", sorted(SWEEP_GRIDS))
def test_every_send_pairs_with_a_receive_of_its_phase(kind):
    # the engine posts a phase's receives before its sends and keeps no
    # unexpected-message queue: a send whose receive posts in a later phase
    # finds no receive and the run is refused
    for process_grid, thread_grid in SWEEP_GRIDS[kind]:
        for seed in range(5):
            pattern = scenario_from_dict({
                "kind": kind, "process_grid": process_grid,
                "thread_grid": thread_grid, "seed": seed,
                "iterations": 1 if kind in RUNS_ONCE else 3,
            }).build_pattern()
            ops = {op.op_id: op for op in pattern.ops}
            sends = sum(op.kind is OpKind.SEND for op in pattern.ops)
            assert len(pattern.pairs) == sends
            for s, r in pattern.pairs:
                assert ops[r].kind is OpKind.RECV
                assert ops[r].phase == ops[s].phase
