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
    OpDescriptor,
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
    _program_indexes,
    _sources,
    refuse_unsupported,
)


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
        send_id, recv_id = len(ops), len(ops) + 1
        ops.append(PatternOp(
            op_id=send_id, process=src, thread=src_thread, kind=OpKind.SEND,
            peer_process=dst, peer_thread=0, partner=recv_id, tag_key=e,
        ))
        ops.append(PatternOp(
            op_id=recv_id, process=dst, thread=0, kind=OpKind.RECV,
            peer_process=src, peer_thread=src_thread, partner=send_id,
            tag_key=e, is_wildcard_recv=True,
        ))
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
                    ops.append(PatternOp(
                        op_id=len(ops), process=p, thread=t, kind=kind,
                        peer_process=tile % procs, location=tile,
                    ))
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
    ops = []
    for p in range(procs):
        for t in range(threads):
            ops.append(PatternOp(
                op_id=len(ops), process=p, thread=t, kind=OpKind.COLLECTIVE,
                peer_process=(p + 1) % procs, tag_key=t,
            ))
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
                ops.append(PatternOp(
                    op_id=send_id, process=p, thread=t, kind=OpKind.SEND,
                    peer_process=q, peer_thread=u, partner=recv_id,
                    phase=r, tag_key=r,
                ))
                ops.append(PatternOp(
                    op_id=recv_id, process=q, thread=u, kind=OpKind.RECV,
                    peer_process=p, peer_thread=t, partner=send_id,
                    phase=r, tag_key=r, is_wildcard_recv=True,
                ))
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
    ops: list[PatternOp] = []
    for i in range(senders):
        ops.append(PatternOp(
            op_id=i, process=0, thread=i, kind=OpKind.SEND,
            peer_process=1, peer_thread=0, partner=senders + (senders - 1 - i),
            tag_key=i,
        ))
    for j in range(senders):
        tag = senders - 1 - j  # posted in reverse tag order
        ops.append(PatternOp(
            op_id=senders + j, process=1, thread=0, kind=OpKind.RECV,
            peer_process=0, peer_thread=tag, partner=tag, tag_key=tag,
        ))
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
    prog = _program_indexes(pattern)
    source_of = _sources(pattern)
    bindings = {}
    for op in pattern.ops:
        bindings[op.op_id] = OpDescriptor(
            kind=op.kind,
            source=source_of[op.process][op.thread],
            program_index=prog[op.op_id],
            window=window,
            target=op.peer_process,
            target_location=op.location,
        )
    return Assignment(
        mechanism=Mechanism.WINDOWS,
        hints=InfoHints(),
        bindings=bindings,
        objects_created={"windows": 1},
    )


def assign_bspmm_endpoints(pattern: CommPattern) -> Assignment:
    """Same single window, but every thread issues through its own endpoint:
    distinct origin ranks keep atomicity per location while exposing the
    streams as independent."""
    if pattern.kind is not PatternKind.BSPMM_RMA:
        raise UnsupportedPatternError("endpoint-window assignment expects the RMA pattern")
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    epcomm = create_endpoints_comm(world, pattern.threads_per_process, ids)
    bindings = {
        op_id: desc._replace(endpoint=epcomm.endpoint_rank(*desc.source))
        for op_id, desc in assign_bspmm_windows(pattern).bindings.items()
    }
    return Assignment(
        mechanism=Mechanism.ENDPOINTS,
        hints=InfoHints(),
        bindings=bindings,
        objects_created={
            "windows": 1,
            "endpoints_per_process": pattern.threads_per_process,
            "endpoints_total": epcomm.total_endpoints,
        },
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
    T = pattern.threads_per_process
    P = pattern.num_processes
    ids = IdAllocator()
    world = world_communicator(P, ids)
    prog = _program_indexes(pattern)
    source_of = _sources(pattern)
    bindings = {}

    if mechanism is Mechanism.COMMUNICATORS:
        comms = [dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
                 for _ in range(T)]
        for op in pattern.ops:
            comm = comms[op.thread]
            bindings[op.op_id] = OpDescriptor(
                kind=OpKind.COLLECTIVE,
                source=source_of[op.process][op.thread],
                program_index=prog[op.op_id],
                context=MatchContextId(ContextFamily.COMM, comm.context_id),
                target=op.peer_process,
                tag=Tag(op.tag_key),
            )
        return Assignment(
            mechanism=mechanism, hints=InfoHints(), bindings=bindings,
            objects_created={"communicators": T},
            comms=[world] + comms,
        )

    if mechanism is Mechanism.ENDPOINTS:
        epcomm = create_endpoints_comm(world, T, ids)
        ctx = MatchContextId(ContextFamily.ENDPOINT, epcomm.context_id)
        for op in pattern.ops:
            ep = epcomm.endpoint_rank(op.process, op.thread)
            bindings[op.op_id] = OpDescriptor(
                kind=OpKind.COLLECTIVE,
                source=source_of[op.process][op.thread],
                program_index=prog[op.op_id],
                context=ctx,
                target=op.peer_process,
                tag=Tag(op.tag_key),
                endpoint=ep,
            )
        return Assignment(
            mechanism=mechanism, hints=InfoHints(), bindings=bindings,
            objects_created={
                "communicators": 1,
                "endpoints_per_process": T,
                "endpoints_total": epcomm.total_endpoints,
            },
            comms=[world], endpoints_comm=epcomm,
        )

    if mechanism is Mechanism.PARTITIONED:
        requests: dict[int, PartitionedRequest] = {}
        send_req_of_process = {}
        for p in range(P):
            sreq = PartitionedRequest(
                request_id=ids.fresh_request(), direction=Direction.SEND,
                num_partitions=T, partition_size=pattern.payload_bytes // T or 1,
                peer=(p + 1) % P, tag=Tag(0), comm=world, owner=p,
            )
            rreq = PartitionedRequest(
                request_id=ids.fresh_request(), direction=Direction.RECV,
                num_partitions=T, partition_size=pattern.payload_bytes // T or 1,
                peer=(p - 1) % P, tag=Tag(0), comm=world, owner=p,
            )
            requests[sreq.request_id] = sreq
            requests[rreq.request_id] = rreq
            send_req_of_process[p] = sreq.request_id
        for op in pattern.ops:
            rid = send_req_of_process[op.process]
            bindings[op.op_id] = OpDescriptor(
                kind=OpKind.PARTITION_READY,
                source=source_of[op.process][op.thread],
                program_index=prog[op.op_id],
                partition=(rid, op.thread),
            )
        return Assignment(
            mechanism=mechanism, hints=InfoHints(), bindings=bindings,
            objects_created={"communicators": 1, "requests": len(requests)},
            comms=[world], requests=requests,
        )

    raise UnsupportedPatternError(REFUSALS[pattern.kind][mechanism.value])
