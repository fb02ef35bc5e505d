"""Irregular and collective communication patterns.

These generators cover the workloads where mechanism choice bites hardest:
event-driven polling with wildcard receives, get-compute-update RMA over a
shared window, thread-partitioned allreduce, and a neighborhood that changes
every iteration.
"""

from __future__ import annotations

import random

from ..errors import InvalidArgumentError, UnsupportedPatternError
from ..model import (
    ContextFamily,
    Direction,
    IdAllocator,
    InfoHints,
    MatchContextId,
    OpKind,
    PartitionedRequest,
    Purpose,
    Tag,
    create_endpoints_comm,
    dup_communicator,
    world_communicator,
)
from .base import (
    Assignment,
    CommPattern,
    Mechanism,
    PatternKind,
    PatternOp,
    REFUSALS,
    _rank_columns,
    bind,
    refuse_unsupported,
)


# PatternOp by position: (op id, process, thread, kind, direction, peer
# process, peer thread, partner, phase, tag key, location, wildcard receive);
# a module global costs far less than an enum member read
_op = PatternOp._make
_SEND, _RECV = OpKind.SEND, OpKind.RECV


def gen_legion(nodes: int, task_threads: int, events: int, seed: int = 0,
               payload: int = 8192) -> CommPattern:
    """Event-driven runtime traffic: task threads fire active messages at
    random remote nodes; one polling thread per node consumes them through
    fully wildcard receives."""
    if nodes < 2:
        raise InvalidArgumentError("need at least two nodes")
    if task_threads < 1 or events < 1:
        raise InvalidArgumentError("need at least one task thread and one event")
    rng = random.Random(seed)
    ops: list[PatternOp] = []
    for e in range(events):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes - 1)
        if dst >= src:
            dst += 1
        src_thread = 1 + rng.randrange(task_threads)
        send_id, recv_id = 2 * e, 2 * e + 1
        ops += (_op((send_id, src, src_thread, _SEND, None, dst, 0, recv_id,
                     0, e, None, False)),
                _op((recv_id, dst, 0, _RECV, None, src, src_thread, send_id,
                     0, e, None, True)))
    return CommPattern(
        kind=PatternKind.LEGION_POLLING,
        process_grid=(nodes,),
        thread_grid=(task_threads + 1,),
        iterations=1,
        payload_bytes=payload,
        ops=tuple(ops),
    )


def gen_bspmm(procs: int, threads: int, tiles: int, seed: int = 0,
              payload: int = 8192) -> CommPattern:
    """Get-compute-update tile multiplication: each thread runs two work
    units, each of two gets and one atomic update against a single shared
    window; some units update the same destination tile."""
    if procs < 1 or threads < 1 or tiles < 1:
        raise InvalidArgumentError("counts must be positive")
    rng = random.Random(seed)
    ops: list[PatternOp] = []
    for p in range(procs):
        for t in range(threads):
            for _ in range(2):
                a, b, c = (rng.randrange(tiles) for _ in range(3))
                for kind, tile in ((OpKind.GET, a), (OpKind.GET, b),
                                   (OpKind.ACCUMULATE, c)):
                    ops.append(_op((len(ops), p, t, kind, None, tile % procs,
                                    None, None, 0, 0, tile, False)))
    return CommPattern(
        kind=PatternKind.BSPMM_RMA,
        process_grid=(procs,),
        thread_grid=(threads,),
        iterations=1,
        payload_bytes=payload,
        ops=tuple(ops),
    )


def gen_allreduce(procs: int, threads: int, buffer_elems: int) -> CommPattern:
    """Thread-partitioned allreduce: every thread drives the internode
    reduction of its own segment of the process buffer."""
    if procs < 1 or threads < 1 or buffer_elems < 1:
        raise InvalidArgumentError("counts must be positive")
    ops = [_op((p * threads + t, p, t, OpKind.COLLECTIVE, None, (p + 1) % procs,
                None, None, 0, t, None, False))
           for p in range(procs) for t in range(threads)]
    return CommPattern(
        kind=PatternKind.MULTITHREADED_ALLREDUCE,
        process_grid=(procs,),
        thread_grid=(threads,),
        iterations=1,
        payload_bytes=8 * buffer_elems,
        ops=tuple(ops),
    )


def gen_dynamic_graph(procs: int, threads: int, rounds: int = 2,
                      seed: int = 0, payload: int = 8192) -> CommPattern:
    """A neighborhood that is redrawn every round from a seeded generator;
    receivers cannot know their peers ahead of time, so receives are
    wildcards."""
    if procs < 2 or threads < 1 or rounds < 1:
        raise InvalidArgumentError("need >= 2 procs, >= 1 threads and rounds")
    rng = random.Random(seed)
    ops: list[PatternOp] = []
    for r in range(rounds):
        for p in range(procs):
            for t in range(threads):
                q = rng.randrange(procs - 1)
                if q >= p:
                    q += 1
                u = rng.randrange(threads)
                send_id, recv_id = len(ops), len(ops) + 1
                ops += (_op((send_id, p, t, _SEND, None, q, u, recv_id, r, r,
                             None, False)),
                        _op((recv_id, q, u, _RECV, None, p, t, send_id, r, r,
                             None, True)))
    return CommPattern(
        kind=PatternKind.DYNAMIC_GRAPH,
        process_grid=(procs,),
        thread_grid=(threads,),
        iterations=1,
        payload_bytes=payload,
        ops=tuple(ops),
    )


def gen_fan_in(senders: int, payload: int = 8192) -> CommPattern:
    """Worst-case shared matching: ``senders`` threads send distinct tags to
    one receiver thread that posts its receives in reverse tag order."""
    if senders < 1:
        raise InvalidArgumentError("need at least one sender")
    last = 2 * senders - 1
    ops = [_op((i, 0, i, _SEND, None, 1, 0, last - i, 0, i, None, False))
           for i in range(senders)]
    # posted in reverse tag order: receive j takes tag senders - 1 - j
    ops += [_op((senders + j, 1, 0, _RECV, None, 0, tag, tag, 0, tag,
                 None, False))
            for j, tag in enumerate(range(senders - 1, -1, -1))]
    return CommPattern(
        kind=PatternKind.FAN_IN,
        process_grid=(2,),
        thread_grid=(senders,),
        iterations=1,
        payload_bytes=payload,
        ops=tuple(ops),
    )


def collective_footprint(mechanism: Mechanism, threads: int,
                         buffer_bytes: int) -> tuple[int, int]:
    """(steps, result bytes per process) for one collective of ``buffer_bytes``.

    Existing mechanisms need a second, user-driven intranode step but land the
    result in a single buffer.  Endpoints do it in one step at the cost of one
    result buffer per endpoint.  Partitions do it in one step with one buffer.
    """
    if threads < 1 or buffer_bytes < 1:
        raise InvalidArgumentError("threads and buffer_bytes must be positive")
    if mechanism is Mechanism.COMMUNICATORS:
        return 2, buffer_bytes
    if mechanism is Mechanism.ENDPOINTS:
        return 1, threads * buffer_bytes
    if mechanism is Mechanism.PARTITIONED:
        return 1, buffer_bytes
    raise UnsupportedPatternError(
        REFUSALS[PatternKind.MULTITHREADED_ALLREDUCE][mechanism.value])


# --------------------------------------------------------------------------
# assignments for the irregular patterns


def assign_bspmm_windows(pattern: CommPattern) -> Assignment:
    """All gets and atomic updates on one shared window.

    Relaxing accumulate ordering (the ``accumulate_ordering_none`` hint) is
    the only lever this mechanism has; the window itself stays a single
    matching entity, so spreading its traffic is left to whatever the channel
    policy hashes."""
    refuse_unsupported(pattern, "windows")  # every other kind has a reason
    window = IdAllocator().fresh_window()
    P = pattern.num_processes
    peers, nones = list(range(P)), [None] * P
    return Assignment(
        mechanism=Mechanism.WINDOWS,
        hints=InfoHints(),
        bindings=bind(pattern, lambda op: (
            op.kind, nones, peers, None, nones, window, op.location, nones)),
        objects_created={"windows": 1},
    )


def assign_bspmm_endpoints(pattern: CommPattern) -> Assignment:
    """Same single window, but every thread issues through its own endpoint:
    distinct origin ranks keep atomicity per location while exposing the
    streams as independent."""
    if pattern.kind is not PatternKind.BSPMM_RMA:
        raise UnsupportedPatternError("endpoint-window assignment expects the RMA pattern")
    P = pattern.num_processes
    ids = IdAllocator()
    world = world_communicator(P, ids)
    epcomm = create_endpoints_comm(world, pattern.threads_per_process, ids)
    window = ids.fresh_window()
    peers, nones, ranks = list(range(P)), [None] * P, _rank_columns(epcomm)
    return Assignment(
        mechanism=Mechanism.ENDPOINTS,
        hints=InfoHints(),
        bindings=bind(pattern, lambda op: (
            op.kind, nones, peers, None, ranks[op.thread], window, op.location,
            nones)),
        objects_created={"windows": 1,
                         "endpoints_per_process": pattern.threads_per_process,
                         "endpoints_total": epcomm.total_endpoints},
        comms=[world],
        endpoints_comm=epcomm,
    )


def assign_allreduce(pattern: CommPattern, mechanism: Mechanism) -> Assignment:
    """Bind the per-thread collective segments per mechanism.

    Communicators: one communicator per segment plus a user intranode step.
    Endpoints: all threads join one collective through their endpoints.
    Partitioned: threads contribute buffer partitions of one request pair.
    """
    if pattern.kind is not PatternKind.MULTITHREADED_ALLREDUCE:
        raise UnsupportedPatternError("expects the multithreaded allreduce pattern")
    T, P = pattern.threads_per_process, pattern.num_processes
    ids = IdAllocator()
    world = world_communicator(P, ids)
    comms, epcomm, requests = [world], None, {}
    peers, nones = list(range(P)), [None] * P
    if mechanism is Mechanism.COMMUNICATORS:
        comms += [dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
                  for _ in range(T)]
        contexts = [[MatchContextId(ContextFamily.COMM, c.context_id)] * P
                    for c in comms[1:]]
        objects = {"communicators": T}

        def shared(op):
            return (op.kind, contexts[op.thread], peers, Tag(op.tag_key),
                    nones, None, None, nones)
    elif mechanism is Mechanism.ENDPOINTS:
        epcomm = create_endpoints_comm(world, T, ids)
        context = [MatchContextId(ContextFamily.ENDPOINT, epcomm.context_id)] * P
        ranks = _rank_columns(epcomm)
        objects = {"communicators": 1, "endpoints_per_process": T,
                   "endpoints_total": epcomm.total_endpoints}

        def shared(op):
            return (op.kind, context, peers, Tag(op.tag_key), ranks[op.thread],
                    None, None, nones)
    elif mechanism is Mechanism.PARTITIONED:
        for p in range(P):
            for direction, peer in ((Direction.SEND, (p + 1) % P),
                                    (Direction.RECV, (p - 1) % P)):
                req = PartitionedRequest(
                    request_id=ids.fresh_request(), direction=direction,
                    num_partitions=T, partition_size=pattern.payload_bytes // T or 1,
                    peer=peer, tag=Tag(0), comm=world, owner=p)
                requests[req.request_id] = req
        send_of = {r.owner: r.request_id for r in requests.values()
                   if r.direction is Direction.SEND}
        objects = {"communicators": 1, "requests": len(requests)}

        def shared(op):
            # every thread readies its partition of its process's send request
            return (OpKind.PARTITION_READY, nones, nones, None, nones, None,
                    None, [(send_of[p], op.thread) for p in range(P)])
    else:
        raise UnsupportedPatternError(REFUSALS[pattern.kind][mechanism.value])
    return Assignment(
        mechanism=mechanism, hints=InfoHints(),
        bindings=bind(pattern, shared), objects_created=objects,
        comms=comms, endpoints_comm=epcomm, requests=requests,
    )
