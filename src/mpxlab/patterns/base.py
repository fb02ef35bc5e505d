"""Shared pattern and assignment types, the one binding statement of every
assigner, the two-sided assigners that every kind with two-sided ops shares,
and the closed-form resource formulas."""

from __future__ import annotations

from collections.abc import Mapping, Sequence, ValuesView
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, partial
from itertools import chain, count, repeat
from math import prod
from operator import eq, itemgetter
from typing import NamedTuple

from ..errors import (
    DomainError,
    IncompleteAssignmentError,
    InvalidArgumentError,
    UnsupportedPatternError,
)
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
_OP_ID, _PEER, _PHASE = itemgetter(0), itemgetter(5), itemgetter(8)


def _listed(rows, base: int, indexes) -> list:
    """``rows[base + i]`` for each ``i`` of ``indexes``: a one-block ``at``."""
    return list(map(rows.__getitem__, map(base.__add__, indexes)))


def _copies(template, columns, base: int, indexes) -> list[tuple]:
    """The copies at process ``p = base // n`` of the template ops
    ``indexes``, as plain tuples: a stamped :class:`StampedOps`' ``at``."""
    n = len(template)
    p = base // n
    return [(base + i, p, t, kind, d, q, peer_t, q * n + partner % n,
             phase, tag, location, wild)
            for i in indexes
            for _, _, t, kind, d, _, peer_t, partner, phase, tag, location, wild
            in (template[i],)
            for q in (columns[i][p],)]


def _own_peers(rows, indexes):
    """Each op's own peer as a 1-tuple column: a one-block ``peers``."""
    return zip(map(_PEER, map(rows.__getitem__, indexes)))


def _derived(rows, base: int, indexes) -> list[tuple]:
    """The descriptors of the copies at process ``p = base // n`` of the
    template ops ``indexes``, as plain tuples of their fields: a stamped
    :class:`StampedBindings`' ``at``."""
    p = base // len(rows)
    return [(kind, sources[p], index, contexts[p], targets[peers[p]], tag,
             endpoints[p], window, location, partitions[p])
            for i in indexes
            for kind, sources, index, contexts, targets, tag, endpoints, \
            window, location, partitions, peers in (rows[i],)]


class StampedOps:
    """The ops of a pattern, iterable in op-id order and equal to the tuple
    of all of them, in blocks that copy one template of ``n`` ops: op ``j``
    is op ``j % n`` of the block whose first op id, one of :attr:`bases`,
    is ``j - j % n``.  :meth:`at` is the one statement that reads ops
    ``base + i`` of a block; the constructor picks its body once.

    A one-block view (no ``columns``) holds every op as its template.  A
    stamped view holds process 0's ops, and block ``p`` is process ``p``'s
    copy: its op ``i`` keeps all of template op ``i`` but the peer process,
    ``columns[i][p]``, and the partner, that process's copy of the
    template op's partner.  So in both forms op ``i`` of block ``b`` is at
    process ``template[i].process + b`` (a one-block view has only block
    0), with peer ``c[b]`` of its peer column ``c`` and, past block 0,
    partner ``template[i].partner + (c[b] - c[0]) * n``.  ``peers(indexes)``
    iterates their columns: a stamped view's, or one-block peers as 1-tuples.
    """

    __slots__ = ("template", "columns", "bases", "_n", "_len", "at", "peers")

    def __init__(self, template: Sequence[PatternOp],
                 columns: list[list[int]] | None = None, processes: int = 1):
        self.template, self.columns = template, columns
        self._n, self._len = len(template), len(template) * processes
        self.bases = range(0, self._len, self._n or 1)
        # a partial, not a bound method: the view holds no reference cycle
        self.at = partial(_listed, template) if columns is None \
            else partial(_copies, template, columns)
        self.peers = partial(_own_peers, template) if columns is None \
            else partial(map, columns.__getitem__)

    def __len__(self):
        return self._len

    def __iter__(self):
        every = range(self._n)
        for base in self.bases:
            yield from map(_new, repeat(PatternOp), self.at(base, every))

    def __eq__(self, other):
        return tuple(self) == tuple(other) \
            if isinstance(other, (tuple, StampedOps)) else NotImplemented

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

    ``ops`` is the only per-op record, a :class:`StampedOps`.  Op ``j`` has
    op id ``j``, and ops issue in (process, thread, op id) order.  A
    stencil's ops are stamped, copies of process 0's, so the assigners and
    the engine's walk read the shared fields once, over :attr:`template`.
    Any other sequence of ops is normalised to one block, in op-id order;
    its ids must be ``0..len - 1``.
    """

    kind: PatternKind
    process_grid: tuple[int, ...]
    thread_grid: tuple[int, ...]
    iterations: int
    payload_bytes: int
    ops: StampedOps
    communicating_threads: frozenset[int] = frozenset()
    corner_threads: frozenset[int] = frozenset()

    def __post_init__(self):
        # the engine derives every iteration from the first
        if self.iterations < 1:
            raise InvalidArgumentError("iterations must be positive")
        if not isinstance(self.ops, StampedOps):
            ops = tuple(self.ops)
            if not all(map(eq, map(_OP_ID, ops), count())):
                ops = sorted(ops, key=_OP_ID)
                for j, op in enumerate(ops):
                    if op[0] != j:
                        raise InvalidArgumentError(
                            f"op ids must number the ops 0..{len(ops) - 1}; "
                            f"first bad id: {op[0]}")
            self.ops = StampedOps(ops)

    @property
    def template(self) -> Sequence[PatternOp]:
        """The ops every block copies: process 0's when stamped, else all of
        them.  Op ``j`` copies ``template[j % len(template)]``."""
        return self.ops.template

    @cached_property
    def issue_slots(self) -> list[list[PatternOp]]:
        """The template's ops in issue order: grouped by (process, thread)
        slot, slots in that order, each slot's ops in op-id order, the
        template's.  One pass groups them; only the slot keys are sorted,
        so the cost grows with the op count, not with the count of
        (process, thread) slots.  Computed once per pattern, for the
        assigners and the engine."""
        T = self.threads_per_process
        slots: dict[int, list[PatternOp]] = {}
        for op in self.template:
            slot = op[1] * T + op[2]
            if slot in slots:
                slots[slot].append(op)
            else:
                slots[slot] = [op]
        return [slots[slot] for slot in sorted(slots)]

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

    ``bindings`` is the only per-op record, a :class:`StampedBindings` that
    maps op ids to fully addressed descriptors, in the blocks of the
    pattern's :class:`StampedOps`; a dict of descriptors by op id is
    normalised to a one-block view, and refused unless its keys are the op
    ids ``0..len - 1``.  :meth:`entity` gives the matching entity a channel
    policy would key on for one descriptor; distinct-thread ops sharing an
    entity serialize on its channel.
    """

    mechanism: Mechanism
    hints: InfoHints
    bindings: StampedBindings
    objects_created: dict[str, int]
    variant: str = ""
    comms: list[Communicator] = field(default_factory=list)
    endpoints_comm: EndpointsComm | None = None
    requests: dict[int, PartitionedRequest] = field(default_factory=dict)

    def __post_init__(self):
        bindings = self.bindings
        if not isinstance(bindings, StampedBindings):  # a dict by op id
            descs = list(map(bindings.get, range(len(bindings))))
            if None in descs:
                raise IncompleteAssignmentError(
                    f"bindings must bind op ids 0..{len(descs) - 1}; "
                    f"first unbound: {descs.index(None)}")
            self.bindings = StampedBindings(descs)

    def entity(self, desc: OpDescriptor) -> tuple:
        """The matching entity of a bound descriptor: the thread's tag bits
        under tags with hints, otherwise its endpoint, partition, window or
        communicator, the first it has in that order."""
        if self.mechanism is Mechanism.TAGS_WITH_HINTS:
            return ("tag", desc.context.key, desc.source[1])
        if desc.endpoint is not None:
            return ("ep", desc.endpoint)
        if desc.partition is not None:
            return ("part",) + desc.partition
        if desc.window is not None:
            return ("win", desc.window)
        return ("comm", desc.context.key)

    @property
    def pair_requests(self) -> dict[int, PartitionedRequest] | None:
        """The requests the pair rule reads: the partitioned requests under
        partitioned, else None."""
        return self.requests if self.mechanism is Mechanism.PARTITIONED else None

    def describe_objects(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(self.objects_created.items()))


def bound_ops(pattern: CommPattern, assignment: Assignment,
              process: int) -> list[tuple[PatternOp, OpDescriptor]]:
    """(op, descriptor) of every op of ``process``, in op-id order, read
    from the block that holds them: block ``process`` when stamped, else
    the one block, filtered."""
    bases, every = pattern.ops.bases, range(len(pattern.template))
    base = bases[process % len(bases)]
    return [(_new(PatternOp, op), _new(OpDescriptor, desc))
            for op, desc in zip(pattern.ops.at(base, every),
                                assignment.bindings.at(base, every))
            if op[1] == process]


_ADDRESS, _TAG_KEY = itemgetter(1, 5, 9), itemgetter(9)  # process, peer, tag key


def _program_indexes(pattern: CommPattern) -> dict[int, int]:
    """Issue order within each thread: post all receives, then all other ops,
    each in (phase, op id) order (the usual nonblocking halo-exchange shape).

    It maps only the template's ops: every copy of template op ``j`` issues
    at op ``j``'s index.
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
    """The bindings of a pattern, as a read-only mapping equal to the dict
    of every op's descriptor, in op-id order, in the blocks of
    :class:`StampedOps`.  :meth:`at` is the one statement that reads the
    descriptors of ops ``base + i`` of a block; the constructor picks its
    body once.  Only the mapping surface makes them :class:`OpDescriptor`\\ s.

    A one-block view holds every descriptor, so it binds a pattern of any
    block length.  A stamped view (``processes`` given) holds one row per
    template op: its kind, its thread's ``sources``, its issue index, its
    shared part and the peer process of each copy
    (:attr:`StampedOps.columns`).
    """

    __slots__ = ("rows", "_n", "_len", "at")

    def __init__(self, rows: list, processes: int | None = None):
        self.rows = rows
        self._n, self._len = len(rows), len(rows) * (processes or 1)
        self.at = partial(_listed if processes is None else _derived, rows)

    @classmethod
    def bound(cls, ops: StampedOps, parts: list[tuple], indexes) -> StampedBindings:
        """The view binding ``ops`` from each template op's part and issue
        index, the part's tag rule applied to the op's tag key: one row per
        template op of a stamped view, else one descriptor per op."""
        if ops.columns is not None:
            return cls([
                (kind, sources, index, contexts, targets, tags(key), endpoints,
                 window, location, partitions, peers)
                for index, key, (sources, kind, contexts, targets, tags,
                                 endpoints, window, location, partitions), peers
                in zip(indexes, map(_TAG_KEY, ops.template), parts, ops.columns)],
                len(ops.bases))
        return cls([
            _new(OpDescriptor, (
                kind, sources[p], index, contexts[p], targets[peer], tags(key),
                endpoints[p], window, location, partitions[p]))
            for (p, peer, key), index, (sources, kind, contexts, targets, tags,
                                        endpoints, window, location, partitions)
            in zip(map(_ADDRESS, ops.template), indexes, parts)])

    def __len__(self):
        return self._len

    def __iter__(self):
        return iter(range(self._len))

    def __getitem__(self, j):
        if isinstance(j, int) and 0 <= j < self._len:
            i = j % self._n
            return _new(OpDescriptor, self.at(j - i, (i,))[0])
        raise KeyError(j)

    def tuples(self):
        """Every descriptor, in op-id order, a block at a time: the plain
        tuples of a stamped view, the descriptors of a one-block view."""
        every = range(self._n)
        return chain.from_iterable(
            map(self.at, range(0, self._len, self._n or 1), repeat(every)))

    def values(self):
        return _Values(self)


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):  # a block's descriptors at a time, not op by op
        return map(_new, repeat(OpDescriptor), self._mapping.tuples())


_SHAPE = itemgetter(2, 3, 4, 6, 10, 11)  # see bind
# tag rules of shapes whose ops all take one tag: next(repeat(tag), key) is tag
ANY_TAG_RULE, NO_TAG_RULE = (partial(next, repeat(tag)) for tag in (ANY_TAG, None))


def bind(pattern: CommPattern, shared) -> StampedBindings:
    """Every op's descriptor: the binding step of every assigner.

    ``shared(op)`` gives the fields that every op of ``op``'s shape shares:
    ``(kind, contexts, targets, tags, endpoints, window, target location,
    partitions)``.  An op's shape is its thread, kind, direction, peer
    thread, location and whether it is a wildcard receive (which binds
    unlike a named one), not its tag key; ``shared`` is called once per
    shape of the template.  The fields that may depend on the op's process
    are columns, lists of one value per process: ``contexts``, ``endpoints``
    and ``partitions`` are indexed by the op's process and ``targets`` by
    its peer process.  ``tags``, the shape's tag rule, is a callable of the
    op's tag key, such as ``cache(Tag)`` or ``ANY_TAG_RULE``.  Per op, bind
    adds its tag, column entries, ``source`` and issue index in
    :meth:`StampedBindings.bound`; a stamped view derives them on access.

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
    template = pattern.template
    by_shape, checked, parts = {}, set(), []
    for op in template:
        shape = _SHAPE(op)
        part = by_shape.get(shape)
        if part is None:
            part = by_shape[shape] = (sources[op[2]],) + shared(op)
            if part[1] not in checked:
                _, kind, contexts, _, _, endpoints, window, location, \
                    partitions = part
                OpDescriptor(kind, (0, 0), 0, contexts[0], None, None,
                             endpoints[0], window, location, partitions[0])
                checked.add(kind)
        parts.append(part)
    del by_shape  # its keys are not needed while the descriptors are built
    indexes = map(_program_indexes(pattern).__getitem__, map(_OP_ID, template))
    return StampedBindings.bound(pattern.ops, parts, indexes)


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
                ANY_TAG_RULE if wild else tag_of, nones, None, None, nones)

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
        # a wildcard receive has no peer thread and takes any tag
        wild = op.is_wildcard_recv
        return (op.kind, context, anywhere if wild else ranks[op.peer_thread],
                ANY_TAG_RULE if wild else tag_of, ranks[op.thread], None, None,
                nones)

    # the bound endpoints: every (process, thread) slot of the template that
    # issues an op, in each block
    slots = {op[1] * T + op[2] for op in pattern.template}
    return Assignment(
        mechanism=Mechanism.ENDPOINTS,
        hints=InfoHints(),
        bindings=bind(pattern, shared),
        objects_created={
            "communicators": 1,
            "endpoints_per_process": sum(slot < T for slot in slots),
            "endpoints_total": len(slots) * len(pattern.ops.bases),
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
