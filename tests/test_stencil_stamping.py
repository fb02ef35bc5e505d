"""The stamped stencil generator and assigners against per-op references
kept here.

``gen_stencil`` builds process 0's ops once and stamps them for every
process.  Each stencil assigner computes the fields every copy of an op
shares once, over ``CommPattern.template``, and fills in per op only what
depends on the process; ``assign_communicators_ideal`` keys once per
(thread, direction, boundary parity).  The references below recompute every
coordinate, torus neighbor, key, tag, endpoint rank and request per op, the
way the generator and the assigners did before they were stamped.  Every
assigner binds through ``patterns.base.bind``, which checks the addressing
rule once per kind and builds the descriptors unchecked, so every
descriptor of every assigner is checked again here.  The engine indexes a
stamped pattern's phases once per template op; its runs are compared with
those of the same ops as one block, whose template is every op.
"""

from dataclasses import replace
from functools import partial
from math import ceil, log2, prod

import pytest

from mpxlab.channels import ChannelPool, PolicyKind
from mpxlab.errors import MpxlabError
from mpxlab.model import (
    ANY_SOURCE,
    ANY_TAG,
    ContextFamily,
    Direction,
    IdAllocator,
    InfoHints,
    MatchContextId,
    OpDescriptor,
    OpKind,
    Purpose,
    PartitionedRequest,
    Tag,
    TagBitLayout,
    create_endpoints_comm,
    dup_communicator,
    encode_tag,
    world_communicator,
)
from mpxlab.patterns import (
    Assignment,
    CommPattern,
    Mechanism,
    PatternKind,
    PatternOp,
    StencilGeometry,
    assign_allreduce,
    assign_bspmm_endpoints,
    assign_bspmm_windows,
    assign_communicators_ideal,
    assign_communicators_naive,
    assign_endpoints,
    assign_partitioned,
    assign_tags_with_hints,
    gen_allreduce,
    gen_bspmm,
    gen_dynamic_graph,
    gen_fan_in,
    gen_legion,
    gen_stencil,
    stencil_directions,
)
from mpxlab.patterns.specfile import MECHANISMS, scenario_from_dict
from mpxlab.patterns.stencil import _full_slot_space, _neg, _positive_rep
from mpxlab.simulator import _Engine, channel_policy

from test_patterns import reference_program_indexes

_KINDS = {
    (2, 5): PatternKind.STENCIL_2D_5PT,
    (2, 9): PatternKind.STENCIL_2D_9PT,
    (3, 27): PatternKind.STENCIL_3D_27PT,
}


def neighbor(geo, pc, tc, d):
    """Torus neighbor of a thread patch, from its global coordinates:
    (peer process coords, peer thread coords)."""
    ppc, ptc = [], []
    for i in range(geo.dims):
        g = (pc[i] * geo.T[i] + tc[i] + d[i]) % (geo.P[i] * geo.T[i])
        ppc.append(g // geo.T[i])
        ptc.append(g % geo.T[i])
    return tuple(ppc), tuple(ptc)


def reference_gen_stencil(dims, points, process_grid, thread_grid,
                          iterations=1, payload=8192):
    """Every op of every process, with its torus neighbor computed and its
    partner looked up per op."""
    geo = StencilGeometry(process_grid, thread_grid)
    dirs = stencil_directions(dims, points)
    dir_index = {d: i for i, d in enumerate(dirs)}
    threads = [geo.thread_coords(t) for t in range(prod(geo.T))]
    crossings = [[d for d in dirs if geo.crossing(tc, d)] for tc in threads]
    rows, locate = [], {}
    for p in range(prod(geo.P)):
        pc = geo.proc_coords(p)
        for t, tc in enumerate(threads):
            for d in crossings[t]:
                ppc, ptc = neighbor(geo, pc, tc, d)
                peer_p, peer_t = geo.proc_flat(ppc), geo.thread_flat(ptc)
                for op_kind in (OpKind.RECV, OpKind.SEND):
                    locate[(p, t, d, op_kind)] = len(rows)
                    rows.append((p, t, op_kind, d, peer_p, peer_t))
    ops = []
    for op_id, (p, t, op_kind, d, peer_p, peer_t) in enumerate(rows):
        if op_kind is OpKind.SEND:
            traffic, wanted = dir_index[d], OpKind.RECV
        else:
            traffic, wanted = dir_index[_neg(d)], OpKind.SEND
        ops.append(PatternOp(
            op_id=op_id, process=p, thread=t, kind=op_kind, direction=d,
            peer_process=peer_p, peer_thread=peer_t,
            partner=locate[(peer_p, peer_t, _neg(d), wanted)],
            phase=traffic, tag_key=traffic,
        ))
    return CommPattern(
        kind=_KINDS[(dims, points)],
        process_grid=tuple(process_grid),
        thread_grid=tuple(thread_grid),
        iterations=iterations,
        payload_bytes=payload,
        ops=tuple(ops),
        communicating_threads=frozenset(t for t, ds in enumerate(crossings) if ds),
        corner_threads=frozenset(t for t, tc in enumerate(threads)
                                 if geo.is_corner(tc)),
    )


def reference_pair_key(geo, op):
    """Key of the exchange pair of one op, from its sender's coordinates."""
    d = op.direction
    rep = _positive_rep(d)
    pc = geo.proc_coords(op.process)
    tc = geo.thread_coords(op.thread)
    if d == rep:
        s_pc, s_tc = pc, tc
    else:
        s_pc, s_tc = neighbor(geo, pc, tc, d)
    cross_pos = {c: (geo.T[c] - 1 if rep[c] > 0 else 0)
                 for c in range(geo.dims) if rep[c] != 0}
    c0 = min(c for c, pos in cross_pos.items() if s_tc[c] == pos)
    boundary = (s_pc[c0] + 1) % geo.P[c0] if rep[c0] > 0 else s_pc[c0]
    nonzero = sum(1 for c in rep if c != 0)
    if nonzero == 1:
        axis = next(c for c in range(geo.dims) if rep[c] != 0)
        slot = ("perp",) + tuple(v for i, v in enumerate(s_tc) if i != axis)
    elif geo.dims == 3 and nonzero == 3:
        if s_tc[2] == cross_pos[2]:
            slot = ("z", s_tc[0], s_tc[1])
        elif s_tc[1] == cross_pos[1]:
            slot = ("y", s_tc[0], s_tc[2])
        else:
            slot = ("x", s_tc[1], s_tc[2])
    else:
        slot = ("full",) + s_tc
    return ("pair", rep, boundary % 2, slot)


def reference_ideal_key(geo, pattern, op):
    if pattern.kind is PatternKind.STENCIL_2D_9PT:
        tc = geo.thread_coords(op.thread)
        d = op.direction
        pc = geo.proc_coords(op.process)
        _, ptc = neighbor(geo, pc, tc, d)
        crossed = [not 0 <= tc[i] + d[i] < geo.T[i] for i in range(geo.dims)]
        aligned = all(c or tc[i] == ptc[i] for i, c in enumerate(crossed))
        if geo.is_corner(tc) and geo.is_corner(ptc) and aligned:
            return ("corner", tuple(
                (pc[i] + (1 if tc[i] == geo.T[i] - 1 else 0)) % geo.P[i]
                for i in range(geo.dims)))
    return reference_pair_key(geo, op)


def reference_ideal(pattern):
    """The ideal communicator map with every key computed per op."""
    geo = StencilGeometry(pattern.process_grid, pattern.thread_grid)
    if pattern.kind is PatternKind.STENCIL_3D_27PT:
        keys = _full_slot_space(geo, stencil_directions(3, 27))
    else:
        keys = {reference_ideal_key(geo, pattern, op) for op in pattern.ops}
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    comm_of_key, comms = {}, [world]
    for key in sorted(keys, key=repr):
        comm = dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
        comm_of_key[key] = comm
        comms.append(comm)
    prog = reference_program_indexes(pattern)
    bindings = {
        op.op_id: OpDescriptor(
            kind=op.kind, source=(op.process, op.thread),
            program_index=prog[op.op_id],
            context=MatchContextId(
                ContextFamily.COMM,
                comm_of_key[reference_ideal_key(geo, pattern, op)].context_id),
            target=op.peer_process, tag=Tag(op.tag_key),
        )
        for op in pattern.ops
    }
    return Assignment(mechanism=Mechanism.COMMUNICATORS, variant="ideal",
                      hints=InfoHints(), bindings=bindings,
                      objects_created={"communicators": len(comm_of_key)},
                      comms=comms)


def reference_naive(pattern, num_comms=None):
    """Per-thread communicators, every field computed per op."""
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    K = num_comms if num_comms is not None else pattern.threads_per_process
    comms = [dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
             for _ in range(K)]
    prog = reference_program_indexes(pattern)
    bindings = {}
    for op in pattern.ops:
        comm = comms[(op.thread if op.kind is OpKind.SEND else op.peer_thread) % K]
        wild = op.is_wildcard_recv
        bindings[op.op_id] = OpDescriptor(
            kind=op.kind, source=(op.process, op.thread),
            program_index=prog[op.op_id],
            context=MatchContextId(ContextFamily.COMM, comm.context_id),
            target=ANY_SOURCE if wild else op.peer_process,
            tag=ANY_TAG if wild else Tag(op.tag_key),
        )
    return Assignment(mechanism=Mechanism.COMMUNICATORS, variant="naive",
                      hints=InfoHints(), bindings=bindings,
                      objects_created={"communicators": K},
                      comms=[world] + comms)


def reference_tags(pattern):
    """Tag bits with hints, every tag encoded per op."""
    T = pattern.threads_per_process
    tid_bits = max(1, ceil(log2(T))) if T > 1 else 1
    app_bits = max(1, max(op.tag_key for op in pattern.ops).bit_length())
    layout = TagBitLayout(num_vcis=min(T, 1 << tid_bits), num_tid_bits=tid_bits,
                          num_app_bits=app_bits)
    hints = InfoHints(no_any_tag=True, no_any_source=True, tag_vci_bits=layout)
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    comm = dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
    prog = reference_program_indexes(pattern)
    bindings = {}
    for op in pattern.ops:
        send = op.kind is OpKind.SEND
        bindings[op.op_id] = OpDescriptor(
            kind=op.kind, source=(op.process, op.thread),
            program_index=prog[op.op_id],
            context=MatchContextId(ContextFamily.COMM, comm.context_id),
            target=op.peer_process,
            tag=encode_tag(op.thread if send else op.peer_thread,
                           op.peer_thread if send else op.thread,
                           op.tag_key, layout),
        )
    return Assignment(mechanism=Mechanism.TAGS_WITH_HINTS, hints=hints,
                      bindings=bindings, objects_created={"communicators": 1},
                      comms=[world, comm])


def reference_endpoints(pattern):
    """One endpoint per thread, every rank looked up per op."""
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    epcomm = create_endpoints_comm(world, pattern.threads_per_process, ids)
    prog = reference_program_indexes(pattern)
    bindings = {}
    for op in pattern.ops:
        wild = op.is_wildcard_recv
        bindings[op.op_id] = OpDescriptor(
            kind=op.kind, source=(op.process, op.thread),
            program_index=prog[op.op_id],
            context=MatchContextId(ContextFamily.ENDPOINT, epcomm.context_id),
            target=(ANY_SOURCE if wild
                    else epcomm.endpoint_rank(op.peer_process, op.peer_thread)),
            tag=ANY_TAG if wild else Tag(op.tag_key),
            endpoint=epcomm.endpoint_rank(op.process, op.thread),
        )
    return Assignment(
        mechanism=Mechanism.ENDPOINTS, hints=InfoHints(), bindings=bindings,
        objects_created={
            "communicators": 1,
            "endpoints_per_process": len({op.thread for op in pattern.ops
                                          if op.process == 0}),
            "endpoints_total": len({(op.process, op.thread)
                                    for op in pattern.ops}),
        },
        comms=[world], endpoints_comm=epcomm)


def reference_partitioned(pattern):
    """One request per (process, kind, direction, peer process) of all ops,
    ids given in the repr order of those keys."""
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    prog = reference_program_indexes(pattern)
    groups = {}
    for op in pattern.ops:
        groups.setdefault((op.process, op.kind, op.direction, op.peer_process),
                          []).append(op)
    requests, slot = {}, {}
    for key in sorted(groups, key=repr):
        process, kind, _, peer = key
        members = sorted(groups[key], key=lambda o: o.thread)
        req = PartitionedRequest(
            ids.fresh_request(),
            Direction.SEND if kind is OpKind.SEND else Direction.RECV,
            len(members), pattern.payload_bytes, peer,
            Tag(members[0].tag_key), world, process)
        requests[req.request_id] = req
        for index, op in enumerate(members):
            slot[op.op_id] = (req.request_id, index)
    bindings = {
        op.op_id: OpDescriptor(
            kind=(OpKind.PARTITION_READY if op.kind is OpKind.SEND
                  else OpKind.PARTITION_ARRIVED_TEST),
            source=(op.process, op.thread), program_index=prog[op.op_id],
            partition=slot[op.op_id])
        for op in pattern.ops
    }
    return Assignment(
        mechanism=Mechanism.PARTITIONED, hints=InfoHints(), bindings=bindings,
        objects_created={"communicators": 1, "requests": len(requests),
                         "requests_per_process":
                             len(requests) // pattern.num_processes},
        comms=[world], requests=requests)


def request_fields(assignment):
    return [(rid, r.request_id, r.direction, r.num_partitions, r.peer, r.tag,
             r.owner) for rid, r in assignment.requests.items()]


def assert_same_assignment(got, expected):
    assert got.mechanism is expected.mechanism
    assert got.variant == expected.variant
    assert got.hints == expected.hints
    assert list(got.bindings.items()) == list(expected.bindings.items())
    assert got.objects_created == expected.objects_created
    assert got.comms == expected.comms
    assert got.endpoints_comm == expected.endpoints_comm
    assert request_fields(got) == request_fields(expected)


# process dims of 1, 3 and even sizes; thread dims of 1 and 2
GRIDS = [
    (2, 5, [1, 3], [2, 1]),
    (2, 5, [3, 2], [2, 2]),
    (2, 5, [4, 1], [3, 2]),
    (2, 9, [1, 2], [2, 1]),
    (2, 9, [3, 3], [2, 2]),
    (2, 9, [2, 4], [3, 3]),
    (2, 9, [3, 1], [1, 3]),
    (3, 27, [1, 2, 3], [2, 1, 2]),
    (3, 27, [2, 2, 2], [2, 2, 2]),
    (3, 27, [3, 1, 2], [2, 3, 2]),
]
IDS = [f"{dims}d{points}-p{'x'.join(map(str, pg))}-t{'x'.join(map(str, tg))}"
       for dims, points, pg, tg in GRIDS]


@pytest.mark.parametrize("dims,points,pgrid,tgrid", GRIDS, ids=IDS)
def test_stamped_ops_equal_the_per_op_generator(dims, points, pgrid, tgrid):
    stamped = gen_stencil(dims, points, pgrid, tgrid, iterations=2, payload=64)
    reference = reference_gen_stencil(dims, points, pgrid, tgrid,
                                      iterations=2, payload=64)
    assert stamped.ops == reference.ops
    assert stamped == reference


@pytest.mark.parametrize("dims,points,pgrid,tgrid", GRIDS, ids=IDS)
def test_memoised_ideal_keys_equal_per_op_keys(dims, points, pgrid, tgrid):
    pattern = gen_stencil(dims, points, pgrid, tgrid)
    memoised = assign_communicators_ideal(pattern)
    assert_same_assignment(memoised, reference_ideal(pattern))
    # the same ops as one block: every op is in the template
    assert_same_assignment(
        assign_communicators_ideal(replace(pattern, ops=tuple(pattern.ops))), memoised)


@pytest.mark.parametrize("dims,points,pgrid,tgrid", GRIDS, ids=IDS)
def test_tags_equal_per_op_encoding(dims, points, pgrid, tgrid):
    pattern = gen_stencil(dims, points, pgrid, tgrid)
    assignment = assign_tags_with_hints(pattern)
    layout = assignment.hints.tag_vci_bits
    for op in pattern.ops:
        if op.kind is OpKind.SEND:
            tag = encode_tag(op.thread, op.peer_thread, op.tag_key, layout)
        else:
            tag = encode_tag(op.peer_thread, op.thread, op.tag_key, layout)
        assert assignment.bindings[op.op_id].tag == tag


@pytest.mark.parametrize("assign", [assign_communicators_ideal,
                                    assign_communicators_naive,
                                    assign_tags_with_hints, assign_endpoints])
def test_assignments_share_one_object_per_value(assign):
    pattern = gen_stencil(3, 27, [2, 1, 3], [2, 2, 2])
    descs = assign(pattern).bindings.values()
    for field in ("tag", "context"):
        values = [getattr(d, field) for d in descs]
        assert len({id(v) for v in values}) == len(set(values)), field


# the ideal map has its own test above
ASSIGNERS = {
    "naive": (assign_communicators_naive, reference_naive),
    "tags": (assign_tags_with_hints, reference_tags),
    "endpoints": (assign_endpoints, reference_endpoints),
    "partitioned": (assign_partitioned, reference_partitioned),
}


@pytest.mark.parametrize("dims,points,pgrid,tgrid", GRIDS, ids=IDS)
@pytest.mark.parametrize("name", sorted(ASSIGNERS))
def test_stamped_assigners_equal_per_op_references(name, dims, points, pgrid,
                                                   tgrid):
    assign, reference = ASSIGNERS[name]
    pattern = gen_stencil(dims, points, pgrid, tgrid, payload=64)
    stamped = assign(pattern)
    assert_same_assignment(stamped, reference(pattern))
    # the same ops as one block: every op is in the template
    assert_same_assignment(assign(replace(pattern, ops=tuple(pattern.ops))), stamped)


# the non-stencil callers of the shared assigners: one-block patterns
IRREGULAR = {
    "legion-polling": lambda: gen_legion(4, 3, 40, seed=5),
    "dynamic-graph": lambda: gen_dynamic_graph(4, 3, rounds=3, seed=2),
    "fan-in": lambda: gen_fan_in(9),
}


@pytest.mark.parametrize("kind", sorted(IRREGULAR))
@pytest.mark.parametrize("name", ["naive", "endpoints"])
def test_unstamped_callers_equal_per_op_references(name, kind):
    assign, reference = ASSIGNERS[name]
    pattern = IRREGULAR[kind]()
    assert pattern.ops.columns is None  # one block
    assert_same_assignment(assign(pattern), reference(pattern))
    if name == "naive":
        assert_same_assignment(assign(pattern, num_comms=2),
                               reference(pattern, num_comms=2))


# every assigner with a pattern it binds: the stencil assigners on every
# grid, the shared two-sided assigners on the unstamped kinds, and the
# window and allreduce assigners
CHECKED = [
    *(pytest.param(assign, partial(gen_stencil, *grid, payload=64),
                   id=f"{assign.__name__}-{grid_id}")
      for grid, grid_id in zip(GRIDS, IDS)
      for assign in (assign_communicators_ideal, assign_communicators_naive,
                     assign_tags_with_hints, assign_endpoints,
                     assign_partitioned)),
    *(pytest.param(ASSIGNERS[name][0], IRREGULAR[kind],
                   id=f"{ASSIGNERS[name][0].__name__}-{kind}")
      for kind in sorted(IRREGULAR) for name in ("naive", "endpoints")),
    pytest.param(assign_bspmm_windows, lambda: gen_bspmm(3, 2, 5, seed=1),
                 id="assign_bspmm_windows"),
    pytest.param(assign_bspmm_endpoints, lambda: gen_bspmm(3, 2, 5, seed=1),
                 id="assign_bspmm_endpoints"),
    *(pytest.param(partial(assign_allreduce, mechanism=mechanism),
                   lambda: gen_allreduce(3, 4, 64),
                   id=f"assign_allreduce-{mechanism.value}")
      for mechanism in (Mechanism.COMMUNICATORS, Mechanism.ENDPOINTS,
                        Mechanism.PARTITIONED)),
]


@pytest.mark.parametrize("assign,build", CHECKED)
def test_stamped_descriptors_are_the_checked_ones(assign, build):
    # every assigner checks the addressing rule once per kind and builds the
    # descriptors unchecked; here every descriptor goes through it
    pattern = build()
    for desc in assign(pattern).bindings.values():
        assert type(desc) is OpDescriptor
        assert OpDescriptor._make(desc) == desc


# the even and odd grids of tools/digest_sweep.py
ENGINE_GRIDS = {
    "stencil-2d-5pt": (([2, 2], [2, 2]), ([3, 3], [3, 1])),
    "stencil-2d-9pt": (([2, 2], [2, 2]), ([3, 3], [3, 3])),
    "stencil-3d-27pt": (([2, 2, 2], [2, 2, 1]), ([3, 1, 1], [1, 3, 1])),
}
ENGINE_CASES = [(kind, grids, mechanism)
                for kind in sorted(ENGINE_GRIDS)
                for grids in ENGINE_GRIDS[kind]
                for mechanism in sorted(MECHANISMS)]


def simulated(scenario, pattern):
    """What the engine makes of ``pattern`` under the scenario's assignment,
    per channel policy (the default and each named one) and pool of 1, 2
    and 16 channels: its report JSON, event trace, decided violations and
    message count, or the refusal raised."""
    try:
        assignment = scenario.build_assignment(pattern)
    except MpxlabError as exc:
        return f"{type(exc).__name__}: {exc}"
    out = []
    for policy in [None, *PolicyKind]:
        for channels in (1, 2, 16):
            pool = ChannelPool(channels)
            try:
                engine = _Engine(pattern, assignment, pool,
                                 channel_policy(policy, assignment, pool),
                                 seed=3)
                report = engine.run()
            except MpxlabError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
                continue
            out.append((report.to_json(), report.events, engine.violations,
                        engine.messages))
    return out


@pytest.mark.parametrize("kind,grids,mechanism", ENGINE_CASES,
                         ids=[f"{k}-{'x'.join(map(str, g[0]))}-{m}"
                              for k, g, m in ENGINE_CASES])
def test_the_engine_plans_a_stamped_pattern_as_its_unstamped_copy(
        kind, grids, mechanism):
    scenario = scenario_from_dict({
        "kind": kind, "process_grid": grids[0], "thread_grid": grids[1],
        "payload_bytes": 1024, "iterations": 2, "mechanism": mechanism})
    pattern = scenario.build_pattern()
    assert pattern.ops.columns is not None  # stamped
    # the one-block copy is assigned afresh and walked in its issue order
    assert simulated(scenario, pattern) \
        == simulated(scenario, replace(pattern, ops=tuple(pattern.ops)))
