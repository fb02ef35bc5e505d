"""Shared pattern and assignment types, the one binding statement of every
assigner, the two-sided assigners that every kind with two-sided ops shares,
and the closed-form resource formulas."""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, Sequence, ValuesView
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from itertools import chain, count, repeat
from math import prod
from operator import index as _index, itemgetter
from typing import NamedTuple

from ..errors import DomainError, InvalidArgumentError, UnsupportedPatternError
from ..model import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    ContextFamily,
    EndpointsComm,
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
from ..semantics import pair_meets


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


# stencil kind -> (dimensions, points of its neighborhood)
STENCIL_SHAPES = {
    PatternKind.STENCIL_2D_5PT: (2, 5),
    PatternKind.STENCIL_2D_9PT: (2, 9),
    PatternKind.STENCIL_3D_27PT: (3, 27),
}
STENCIL_KINDS = frozenset(STENCIL_SHAPES)


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


_new = tuple.__new__


class StampedOps(Sequence):
    """The ops of a stamped pattern, as a read-only sequence equal to the
    tuple of all of them: op ``j`` is derived on access from template op
    ``j % n`` at process ``p = j // n``.  It keeps the template's thread,
    kind, direction, peer thread, phase, tag key, location and wildcard
    flag; its peer process is ``columns[j % n][p]`` and its partner is that
    process's copy of the template op's partner.  :meth:`at` is the one
    statement that derives a copy.
    """

    __slots__ = ("template", "columns", "_n", "_len")

    def __init__(self, template: tuple[PatternOp, ...], columns: list[list[int]],
                 processes: int):
        self.template, self.columns = template, columns
        self._n, self._len = len(template), len(template) * processes

    def at(self, p: int, indexes) -> list[tuple]:
        """The fields of the copies at process ``p`` of the template ops
        ``indexes``, in :class:`PatternOp` order, as plain tuples: the
        engine reads them by position, and the sequence makes them ops."""
        template, columns, n = self.template, self.columns, self._n
        base = p * n
        return [(base + i, p, t, kind, d, q, peer_t, q * n + partner % n,
                 phase, tag, location, wild)
                for i in indexes
                for _, _, t, kind, d, _, peer_t, partner, phase, tag, location, wild
                in (template[i],)
                for q in (columns[i][p],)]

    def __len__(self):
        return self._len

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self[k] for k in range(*j.indices(self._len)))
        j = _index(j)
        if not -self._len <= j < self._len:
            raise IndexError("tuple index out of range")
        p, i = divmod(j % self._len, self._n)
        return _new(PatternOp, self.at(p, (i,))[0])

    def __iter__(self):
        every = range(self._n)
        for p in range(self._len // (self._n or 1)):
            yield from map(_new, repeat(PatternOp), self.at(p, every))

    def __eq__(self, other):
        if isinstance(other, (tuple, StampedOps)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self):
        return repr(tuple(self))


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
    use.  Op ids, not positions in ``ops``, name the ops, and they issue in
    (process, thread, op id) order whatever the order of ``ops``.  A
    nonzero ``stamp`` declares every process's ops a copy of process 0's:
    ``ops`` is then a :class:`StampedOps` of ``stamp`` template ops, and op
    ``i`` of process ``p`` is ``ops[p * stamp + i]``, with that op id.  It
    shares the thread, kind, phase, direction, peer thread, tag key and
    wildcard flag of op ``i``, and its peer process is ``p`` moved by the
    same torus offset that takes 0 to op ``i``'s peer.  The template lists
    its ops by thread, so a stamped pattern's ops are in issue order.  The
    assigners compute those shared fields once, over :attr:`template`, and
    the engine orders its walk by them once, over the template's phases
    and kinds, deriving each copy as it issues.
    """

    kind: PatternKind
    process_grid: tuple[int, ...]
    thread_grid: tuple[int, ...]
    iterations: int
    payload_bytes: int
    ops: tuple[PatternOp, ...] | StampedOps
    communicating_threads: frozenset[int] = frozenset()
    corner_threads: frozenset[int] = frozenset()
    stamp: int = field(default=0, compare=False)

    def __post_init__(self):
        # the engine derives every iteration from the first
        if self.iterations < 1:
            raise InvalidArgumentError("iterations must be positive")

    @property
    def template(self) -> tuple[PatternOp, ...] | StampedOps:
        """The ops every op copies: process 0's when stamped, else all of
        them.  Op ``j`` copies ``template[j % len(template)]``."""
        return self.ops.template if self.stamp else self.ops

    @cached_property
    def issue_slots(self) -> list[list[PatternOp]]:
        """The template's ops in issue order: grouped by (process, thread)
        slot, slots in that order, each slot's ops in op-id order, whatever
        the order of ``ops``.  One pass groups them; only the slot keys and
        the slots that hold more than one op are sorted, so the cost grows
        with the op count, not with the count of (process, thread) slots.
        Computed once per pattern, for the assigners and the engine."""
        T = self.threads_per_process
        slots: dict[int, list[PatternOp]] = {}
        for op in self.template:
            slot = op[1] * T + op[2]
            if slot in slots:
                slots[slot].append(op)
            else:
                slots[slot] = [op]
        out = [slots[slot] for slot in sorted(slots)]
        for ops in out:
            if len(ops) > 1:
                ops.sort(key=_OP_ID)
        return out

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

    @property
    def pair_requests(self) -> dict[int, PartitionedRequest] | None:
        """The requests the pair rule reads: the partitioned requests under
        partitioned, else None."""
        return self.requests if self.mechanism is Mechanism.PARTITIONED else None

    def pair_matches(self, send_id: int, recv_id: int) -> bool:
        """Can the bound send ``send_id`` meet its intended receive
        ``recv_id``, by :func:`mpxlab.semantics.pair_meets`: their requests
        pair under partitioned, and otherwise two-sided ops meet
        :func:`mpxlab.semantics.can_match`."""
        return pair_meets(self.bindings[send_id], self.bindings[recv_id],
                          self.pair_requests)

    def describe_objects(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(self.objects_created.items()))


_OP_ID, _PHASE = itemgetter(0), itemgetter(8)
_ADDRESS = itemgetter(0, 1, 5)  # (op id, process, peer process)


def _program_indexes(pattern: CommPattern) -> dict[int, int]:
    """Issue order within each thread: post all receives, then all other ops,
    each in (phase, op id) order (the usual nonblocking halo-exchange shape),
    whatever the order of ``ops``.

    A stamped pattern maps only its template's ops: every copy of template
    op ``j`` issues at op ``j``'s index.
    """
    out: dict[int, int] = {}
    RECV = OpKind.RECV
    for ops in pattern.issue_slots:
        if len(ops) == 1:  # a thread's only op issues first
            out[ops[0][0]] = 0
            continue
        recvs, rest = [], []
        for op in ops:
            (recvs if op[3] is RECV else rest).append(op)
        # stable: each keeps op-id order within a phase
        recvs.sort(key=_PHASE)
        rest.sort(key=_PHASE)
        out.update(zip(map(_OP_ID, recvs + rest), count()))
    return out


class StampedBindings(Mapping):
    """The bindings of a stamped pattern, as a read-only mapping equal to
    the dict of every op's descriptor, in op-id order: op ``j``'s descriptor
    is derived on access from the row of template op ``j % n`` at process
    ``p = j // n``.  A row holds the template op's kind, its thread's
    ``sources``, its issue index, its shared part and its ``peers``, the
    peer process of each copy (:attr:`StampedOps.columns`).  :meth:`at` is
    the one statement that derives a descriptor, as a plain tuple; only the
    mapping surface (indexing, ``values()`` and ``items()``) makes it an
    :class:`OpDescriptor`.
    """

    __slots__ = ("rows", "_n", "_len")

    def __init__(self, rows: list[tuple], processes: int):
        self.rows = rows
        self._n, self._len = len(rows), len(rows) * processes

    def at(self, p: int, indexes) -> list[tuple]:
        """The fields of the descriptors of the copies at process ``p`` of
        the template ops ``indexes``, in :class:`OpDescriptor` order, as
        plain tuples: building a tuple subclass copies the tuple it is
        given, and the interpreter's fast paths for unpacking and indexing
        take only exact tuples."""
        rows = self.rows
        return [(kind, sources[p], index, contexts[p], targets[peers[p]], tag,
                 endpoints[p], window, location, partitions[p])
                for i in indexes
                for kind, sources, index, contexts, targets, tag, endpoints, \
                window, location, partitions, peers in (rows[i],)]

    def __len__(self):
        return self._len

    def __iter__(self):
        return iter(range(self._len))

    def __contains__(self, j):
        return isinstance(j, int) and 0 <= j < self._len

    def __getitem__(self, j):
        if isinstance(j, int) and 0 <= j < self._len:
            p, i = divmod(j, self._n)
            return _new(OpDescriptor, self.at(p, (i,))[0])
        raise KeyError(j)

    def tuples(self):
        """Every descriptor as a plain tuple, in op-id order, a process's
        block at a time."""
        every = range(self._n)
        return chain.from_iterable(
            self.at(p, every) for p in range(self._len // (self._n or 1)))

    def _values(self):
        return map(_new, repeat(OpDescriptor), self.tuples())

    def values(self):
        return _Values(self)

    def items(self):
        return _Items(self)

    def __repr__(self):
        return repr(dict(self.items()))


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):  # a process's descriptors at a time, not op by op
        return self._mapping._values()


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(count(), self._mapping._values())


def bind(pattern: CommPattern, shared) -> dict[int, OpDescriptor] | StampedBindings:
    """Every op's descriptor: the binding step of every assigner.

    ``shared(op)`` gives the fields that every op of ``op``'s shape shares:
    ``(kind, contexts, targets, tag, endpoints, window, target location,
    partitions)``.  An op's shape is its thread, kind, direction, peer
    thread, location and tag key; a wildcard receive takes any tag, so its
    key is left out.  ``shared`` is called once per template op of a
    stamped pattern and once per shape of an unstamped pattern, whose ops
    repeat shapes.  The fields that may depend on the op's process are
    columns, lists of one value per process: ``contexts``, ``endpoints``
    and ``partitions`` are indexed by the op's process and ``targets`` by
    its peer process.  Per op, the statement adds only its column entries,
    its thread's ``source`` tuple and its issue index.  A stamped pattern
    gets a :class:`StampedBindings` over one row per template op, which
    derives each descriptor on access; an unstamped one gets a dict.

    The addressing rule of the :class:`OpDescriptor` constructor reads an
    op's kind, its context's family and whether it has a context, endpoint,
    window or partition.  Every entry of a column has the shape of its
    first, and within one assigner every op of a kind has the same such
    shape, so each kind is checked once and the descriptors are built
    unchecked.
    """
    T, P = pattern.threads_per_process, pattern.num_processes
    # [t][p]: the source of thread t of process p, one tuple per thread
    sources = list(zip(*([(p, t) for t in range(T)] for p in range(P))))
    template, stamp = pattern.template, pattern.stamp
    by_shape, checked, parts = {}, set(), []
    for i, op in enumerate(template):
        shape = i if stamp else (
            op[2], op[3], op[4], op[6], op[10], None if op[11] else op[9])
        part = by_shape.get(shape)
        if part is None:
            part = by_shape[shape] = (sources[op[2]],) + shared(op)
            if part[1] not in checked:
                _, kind, contexts, _, tag, endpoints, window, location, \
                    partitions = part
                OpDescriptor(kind, (0, 0), 0, contexts[0], None, tag,
                             endpoints[0], window, location, partitions[0])
                checked.add(kind)
        parts.append(part)
    del by_shape  # its keys are not needed while the descriptors are built
    indexes = map(_program_indexes(pattern).__getitem__, map(_OP_ID, template))
    if stamp:
        return StampedBindings([
            (kind, sources, index, contexts, targets, tag, endpoints, window,
             location, partitions, peers)
            for index, (sources, kind, contexts, targets, tag, endpoints,
                        window, location, partitions), peers
            in zip(indexes, parts, pattern.ops.columns)], P)
    return {
        op_id: _new(OpDescriptor, (
            kind, sources[p], index, contexts[p], targets[peer], tag,
            endpoints[p], window, location, partitions[p]))
        for (op_id, p, peer), index, (sources, kind, contexts, targets, tag,
                                      endpoints, window, location, partitions)
        in zip(map(_ADDRESS, template), indexes, parts)}


def _rank_columns(epcomm: EndpointsComm) -> list[list[int]]:
    """``[t][p]``: the global rank of endpoint ``t`` of process ``p``, a
    column of :func:`bind` per endpoint."""
    n = epcomm.endpoints_per_process
    return [list(range(epcomm.endpoint_rank(0, t), epcomm.total_endpoints, n))
            for t in range(n)]


def _require_two_sided(pattern: CommPattern, what: str):
    """Refuse the kinds without two-sided ops, naming the assigner that
    binds each."""
    binder = {PatternKind.BSPMM_RMA: "assign_bspmm_endpoints binds the RMA pattern",
              PatternKind.MULTITHREADED_ALLREDUCE:
                  "assign_allreduce binds the allreduce"}.get(pattern.kind)
    if binder is not None:
        raise UnsupportedPatternError(f"{what} assignment needs two-sided ops; {binder}")


# --------------------------------------------------------------------------
# the two-sided assigners every kind with two-sided ops shares


def assign_communicators_naive(pattern: CommPattern,
                               num_comms: int | None = None) -> Assignment:
    """Per-thread communicators: thread i sends on communicator i and
    receives on the communicator of the remote sending thread.

    Matching is correct, but opposite-boundary threads reuse each other's
    communicators, so half of the boundary concurrency funnels through shared
    contexts.  It needs two-sided ops.
    """
    refuse_unsupported(pattern, "communicators-naive")
    _require_two_sided(pattern, "per-thread communicator")
    P = pattern.num_processes
    ids = IdAllocator()
    world = world_communicator(P, ids)
    K = num_comms if num_comms is not None else pattern.threads_per_process
    if K < 1:
        raise InvalidArgumentError("need at least one communicator")
    comms = [
        dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
        for _ in range(K)
    ]
    contexts = [[MatchContextId(ContextFamily.COMM, c.context_id)] * P
                for c in comms]
    peers, anywhere, nones = list(range(P)), [ANY_SOURCE] * P, [None] * P
    tag_of = cache(Tag)

    def shared(op):
        wild = op.is_wildcard_recv
        owner = op.thread if op.kind is OpKind.SEND else op.peer_thread
        return (op.kind, contexts[owner % K], anywhere if wild else peers,
                ANY_TAG if wild else tag_of(op.tag_key), nones, None, None,
                nones)

    return Assignment(
        mechanism=Mechanism.COMMUNICATORS,
        variant="naive",
        hints=InfoHints(),
        bindings=bind(pattern, shared),
        objects_created={"communicators": K},
        comms=[world] + comms,
    )


def assign_endpoints(pattern: CommPattern) -> Assignment:
    """One endpoints communicator; every thread owns the endpoint matching
    its thread id, and targets are global endpoint ranks of facing threads.

    The communicator hands out one handle per thread (rank = process * T +
    thread), but only the communicating threads' endpoints are ever bound,
    and that bound count is what the object tally reports.
    """
    _require_two_sided(pattern, "endpoint")
    T, P = pattern.threads_per_process, pattern.num_processes
    ids = IdAllocator()
    world = world_communicator(P, ids)
    epcomm = create_endpoints_comm(world, T, ids)
    context = [MatchContextId(ContextFamily.ENDPOINT, epcomm.context_id)] * P
    ranks, anywhere, nones = _rank_columns(epcomm), [ANY_SOURCE] * P, [None] * P
    tag_of = cache(Tag)

    def shared(op):
        # a wildcard receive has no peer thread and the tag ANY_TAG
        if op.is_wildcard_recv:
            return (op.kind, context, anywhere, ANY_TAG, ranks[op.thread],
                    None, None, nones)
        return (op.kind, context, ranks[op.peer_thread], tag_of(op.tag_key),
                ranks[op.thread], None, None, nones)

    # the bound endpoints: every (process, thread) slot that issues an op
    slots = {op[1] * T + op[2] for op in pattern.template}
    return Assignment(
        mechanism=Mechanism.ENDPOINTS,
        hints=InfoHints(),
        bindings=bind(pattern, shared),
        objects_created={
            "communicators": 1,
            "endpoints_per_process": sum(slot < T for slot in slots),
            "endpoints_total": len(slots) * (P if pattern.stamp else 1),
        },
        comms=[world],
        endpoints_comm=epcomm,
    )


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
