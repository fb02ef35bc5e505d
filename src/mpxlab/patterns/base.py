"""Shared pattern and assignment types plus the closed-form resource formulas."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import count
from math import prod
from operator import attrgetter
from typing import NamedTuple

from ..errors import DomainError, InvalidArgumentError, UnsupportedPatternError
from ..model import (
    Communicator,
    EndpointsComm,
    InfoHints,
    OpDescriptor,
    OpKind,
    PartitionedRequest,
)
from ..semantics import can_match, requests_match


class PatternKind(Enum):
    STENCIL_2D_5PT = "stencil-2d-5pt"
    STENCIL_2D_9PT = "stencil-2d-9pt"
    STENCIL_3D_27PT = "stencil-3d-27pt"
    LEGION_POLLING = "legion-polling"
    BSPMM_RMA = "bspmm-rma"
    MULTITHREADED_ALLREDUCE = "multithreaded-allreduce"
    DYNAMIC_GRAPH = "dynamic-graph"
    FAN_IN = "fan-in"

    __hash__ = object.__hash__  # see model.OpKind


STENCIL_KINDS = frozenset({
    PatternKind.STENCIL_2D_5PT,
    PatternKind.STENCIL_2D_9PT,
    PatternKind.STENCIL_3D_27PT,
})


# the spec's mechanism labels, in the order `mpxlab analyze` lists them
MECHANISMS = ("communicators", "communicators-naive", "tags", "endpoints",
              "partitioned", "windows")

_WILDCARD_REFUSALS = {
    "tags": "tag-bit parallelism forbids wildcards, which this pattern "
            "relies on",
    "partitioned": "partitioned unsupported: wildcard pattern (persistent "
                   "requests cannot match wildcard receives)",
    "windows": "windows do not express two-sided traffic",
}
# kind -> mechanism label -> why that mechanism cannot express the kind: the
# refusals of ``patterns.SUPPORT``, which the assigners raise when called
# directly on such a kind
REFUSALS: dict[PatternKind, dict[str, str]] = {
    **dict.fromkeys(STENCIL_KINDS, {
        "windows": "windows do not express two-sided halo exchange"}),
    PatternKind.LEGION_POLLING: _WILDCARD_REFUSALS,
    PatternKind.DYNAMIC_GRAPH: _WILDCARD_REFUSALS,
    PatternKind.FAN_IN: _WILDCARD_REFUSALS,
    # a refusal names the mechanism, which both communicator labels share
    PatternKind.BSPMM_RMA: {
        label: "one-sided tile updates are expressed with windows or "
               f"endpoints, not {label.removesuffix('-naive')}"
        for label in ("communicators", "communicators-naive", "tags",
                      "partitioned")},
    PatternKind.MULTITHREADED_ALLREDUCE: {
        label: f"allreduce is not expressed with {label}"
        for label in ("tags", "windows")},
}


def refuse_unsupported(pattern: CommPattern, label: str):
    """Raise :class:`UnsupportedPatternError` with the ``REFUSALS`` reason
    of ``label`` on the pattern's kind, if it has one."""
    reason = REFUSALS[pattern.kind].get(label)
    if reason is not None:
        raise UnsupportedPatternError(reason)


class Mechanism(Enum):
    COMMUNICATORS = "communicators"
    TAGS_WITH_HINTS = "tags"
    ENDPOINTS = "endpoints"
    PARTITIONED = "partitioned"
    WINDOWS = "windows"

    __hash__ = object.__hash__  # see model.OpKind


class PatternOp(NamedTuple):
    """One per-iteration operation of a communication pattern.

    ``direction`` is the neighbor offset for stencils; ``partner`` names the
    remote pattern op this one matches; ``phase`` groups ops that travel
    together (per traffic direction for stencils).  ``tag_key`` is the
    application-level tag value before any mechanism-specific encoding.
    A tuple, like every record built once per op (see :mod:`mpxlab.model`);
    hot loops unpack it by field position.
    """

    op_id: int
    process: int
    thread: int
    kind: OpKind
    direction: tuple[int, ...] | None = None
    peer_process: int | None = None
    peer_thread: int | None = None
    partner: int | None = None
    phase: int = 0
    tag_key: int = 0
    location: int | None = None
    is_wildcard_recv: bool = False


@dataclass
class CommPattern:
    """A set of processes x threads x per-iteration operations.

    Stencil patterns are torus-wrapped, so every process carries the same
    thread-level structure; concurrency intent is therefore evaluated on a
    representative process.  Intended-concurrency holds for operation pairs
    of distinct communicating threads, and for distinct-direction pairs of a
    single non-corner thread (a corner thread's directions proceed serially
    from its one issue stream).

    ``ops`` is the only per-op record; ``pairs`` is derived from it on each
    use.  A nonzero ``stamp`` declares every process's ops a copy of
    process 0's: op ``i`` of process ``p`` is ``ops[p * stamp + i]``, with
    that op id.  It shares the thread, kind, phase, direction, peer thread,
    tag key and wildcard flag of op ``i``, and its peer process is ``p``
    moved by the same torus offset that takes 0 to op ``i``'s peer.  The
    template lists its ops by thread, so the ops are in (process, thread,
    op id) order.  The assigners compute those shared fields once, over
    :attr:`template`, and the engine reads them once per template op.
    """

    kind: PatternKind
    process_grid: tuple[int, ...]
    thread_grid: tuple[int, ...]
    iterations: int
    payload_bytes: int
    ops: tuple[PatternOp, ...]
    communicating_threads: frozenset[int] = frozenset()
    corner_threads: frozenset[int] = frozenset()
    stamp: int = field(default=0, compare=False)

    def __post_init__(self):
        # the engine derives every iteration from the first
        if self.iterations < 1:
            raise InvalidArgumentError("iterations must be positive")

    @property
    def template(self) -> tuple[PatternOp, ...]:
        """The ops every op copies: process 0's when stamped, else all of
        them.  Op ``j`` copies ``template[j % len(template)]``."""
        return self.ops[:self.stamp or None]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(send id, receive id) of every send that names its partner, in op
        order."""
        return tuple((op.op_id, op.partner) for op in self.ops
                     if op.kind is OpKind.SEND and op.partner is not None)

    @property
    def num_processes(self) -> int:
        return prod(self.process_grid)

    @property
    def threads_per_process(self) -> int:
        return prod(self.thread_grid)

    @property
    def representative_process(self) -> int:
        return 0

    def intended_concurrent(self, a: PatternOp, b: PatternOp) -> bool:
        if a.op_id == b.op_id or a.process != b.process:
            return False
        thread = a.thread
        if thread != b.thread:
            if self.kind in STENCIL_KINDS:
                return (thread in self.communicating_threads
                        and b.thread in self.communicating_threads)
            return True
        if self.kind in STENCIL_KINDS:
            return (
                thread not in self.corner_threads
                and a.direction is not None
                and b.direction is not None
                and a.direction != b.direction
            )
        return False


@dataclass
class Assignment:
    """A mechanism-specific binding of every pattern operation.

    ``bindings`` maps op ids to fully addressed descriptors and is the only
    per-op record.  ``entity_of`` is derived from it on first use: it maps op
    ids to the matching entity a channel policy would key on (the thread's
    tag bits under tags with hints, otherwise the endpoint, the partition,
    the window or the communicator, in that order); distinct-thread ops
    sharing an entity serialize on its channel.
    """

    mechanism: Mechanism
    hints: InfoHints
    bindings: dict[int, OpDescriptor]
    objects_created: dict[str, int]
    variant: str = ""
    comms: list[Communicator] = field(default_factory=list)
    endpoints_comm: EndpointsComm | None = None
    requests: dict[int, PartitionedRequest] = field(default_factory=dict)

    @cached_property
    def entity_of(self) -> dict[int, tuple]:
        tags = self.mechanism is Mechanism.TAGS_WITH_HINTS
        out = {}
        for op_id, desc in self.bindings.items():
            if tags:
                out[op_id] = ("tag", desc.context.key, desc.source[1])
            elif desc.endpoint is not None:
                out[op_id] = ("ep", desc.endpoint)
            elif desc.partition is not None:
                out[op_id] = ("part",) + desc.partition
            elif desc.window is not None:
                out[op_id] = ("win", desc.window)
            else:
                out[op_id] = ("comm", desc.context.key)
        return out

    def pair_matches(self, send_id: int, recv_id: int) -> bool:
        send, recv = self.bindings[send_id], self.bindings[recv_id]
        if self.mechanism is Mechanism.PARTITIONED:
            return requests_match(self.requests[send.partition[0]],
                                  self.requests[recv.partition[0]])
        if send.kind is OpKind.SEND and recv.kind is OpKind.RECV:
            return can_match(send, recv)
        return True  # RMA and collectives have no pairwise matching rule

    def describe_objects(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(self.objects_created.items()))


def _program_indexes(pattern: CommPattern) -> dict[int, int]:
    """Issue order within each thread: post all receives, then all other ops,
    each in (phase, op id) order (the usual nonblocking halo-exchange shape).

    A stamped pattern maps only its template's ops: every copy of template
    op ``j`` issues at op ``j``'s index.
    """
    ops = pattern.template
    in_order, op_id = attrgetter("phase", "op_id"), attrgetter("op_id")
    # per thread: its receives, then the rest
    by_thread: dict[tuple[int, int], tuple[list, list]] = defaultdict(
        lambda: ([], []))
    for op in ops:
        by_thread[op.process, op.thread][op.kind is not OpKind.RECV].append(op)
    out: dict[int, int] = {}
    for recvs, rest in by_thread.values():
        recvs.sort(key=in_order)
        rest.sort(key=in_order)
        out.update(zip(map(op_id, recvs + rest), count()))
    return out


def _sources(pattern: CommPattern) -> list[list[tuple[int, int]]]:
    """``[p][t]`` is the (process, thread) tuple every descriptor that thread
    issues shares as its ``source``: one tuple per thread, not per op."""
    T = pattern.threads_per_process
    return [[(p, t) for t in range(T)] for p in range(pattern.num_processes)]


# --------------------------------------------------------------------------
# closed-form resource formulas for the 3D box-neighborhood exchange


def _check_3d_domain(x: int, y: int, z: int):
    if min(x, y, z) < 2:
        raise DomainError(
            f"formula holds for thread dims >= 2 per axis, got {(x, y, z)}"
        )


def min_communicators_3d(x: int, y: int, z: int) -> int:
    """Least number of communicators exposing all concurrency of a 3D
    box-neighborhood exchange over an [x, y, z] thread arrangement.

    Face terms, the eight corner diagonals, and the edge diagonals sum up
    separately; each term sizes one family of mirrored communicator sets.
    """
    _check_3d_domain(x, y, z)
    faces = 2 * x * y + 2 * y * z + 2 * x * z
    corner_diagonals = 8 * (x * y + y * z + x * z - 1)
    edge_diagonals = (
        4 * (x * z + y * z - z)
        + 4 * (x * y + y * z - y)
        + 4 * (x * y + x * z - x)
    )
    return faces + corner_diagonals + edge_diagonals


def min_channels_3d(x: int, y: int, z: int) -> int:
    """Parallel channels the same pattern actually needs: the count of
    threads whose patch touches the process boundary."""
    _check_3d_domain(x, y, z)
    return x * y * z - (x - 2) * (y - 2) * (z - 2)


def min_channels_2d(x: int, y: int) -> int:
    if min(x, y) < 2:
        raise DomainError(f"thread dims must be >= 2 per axis, got {(x, y)}")
    return x * y - (x - 2) * (y - 2)


def boundary_thread_count(thread_grid: tuple[int, ...]) -> int:
    if len(thread_grid) == 2:
        return min_channels_2d(*thread_grid)
    if len(thread_grid) == 3:
        return min_channels_3d(*thread_grid)
    raise InvalidArgumentError("thread grids are 2- or 3-dimensional")
