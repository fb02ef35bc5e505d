"""Halo-exchange pattern generation and per-mechanism context assignments.

Patterns are torus-wrapped: every process sees the full neighbor set, so the
per-process structure is uniform and mirrored context maps close around the
torus.  Thread and process coordinates are row-major with x fastest; "north"
is the negative-y side (row 0), so a process's northern partner row is its
neighbor's row ty-1.

The ideal communicator map follows the neighbor-pair scheme: each exchange
pair of threads across a boundary owns one communicator, selected by a
parity bit of the boundary it crosses so that the map mirrors from process
to process.  Communicator sets are sized by the closed-form terms of
``min_communicators_3d``; for the corner diagonals that allocation is
sheet-structured and deliberately leaves a few slots idle.
"""

from __future__ import annotations

import itertools
from functools import cache, partial
from math import ceil, log2, prod
from operator import itemgetter

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
    TagBitLayout,
    dup_communicator,
    encode_tag,
    world_communicator,
)
from .base import (
    Assignment,
    CommPattern,
    Mechanism,
    NO_TAG_RULE,
    PatternKind,
    PatternOp,
    STENCIL_KINDS,
    STENCIL_SHAPES,
    StampedOps,
    _TAG_KEY,
    _new,
    bind,
    refuse_unsupported,
)


def stencil_directions(dims: int, points: int) -> list[tuple[int, ...]]:
    """Sorted neighbor offsets of a ``STENCIL_SHAPES`` exchange: every
    nonzero offset for a full neighborhood, else the unit offsets."""
    if (dims, points) not in STENCIL_SHAPES.values():
        raise InvalidArgumentError(
            f"no {points}-point neighborhood in {dims} dimensions"
        )
    full = points == 3 ** dims
    return [d for d in itertools.product((-1, 0, 1), repeat=dims)
            if (any(d) if full else sum(map(abs, d)) == 1)]


def _neg(d):
    return tuple(-c for c in d)


class StencilGeometry:
    """Coordinate arithmetic for a process grid x thread grid torus."""

    def __init__(self, process_grid, thread_grid):
        if len(process_grid) != len(thread_grid):
            raise InvalidArgumentError("process and thread grids must agree in rank")
        if any(n < 1 for n in process_grid + thread_grid):
            raise InvalidArgumentError("grid dims must be positive")
        self.P = tuple(process_grid)
        self.T = tuple(thread_grid)
        self.dims = len(self.P)

    def thread_coords(self, flat: int) -> tuple[int, ...]:
        out = []
        for n in self.T:
            out.append(flat % n)
            flat //= n
        return tuple(out)

    def thread_flat(self, coords) -> int:
        flat = 0
        for c, n in zip(reversed(coords), reversed(self.T)):
            flat = flat * n + c
        return flat

    def proc_coords(self, flat: int) -> tuple[int, ...]:
        out = []
        for n in self.P:
            out.append(flat % n)
            flat //= n
        return tuple(out)

    def proc_flat(self, coords) -> int:
        flat = 0
        for c, n in zip(reversed(coords), reversed(self.P)):
            flat = flat * n + c
        return flat

    def crossing(self, tc, d) -> bool:
        return any(not 0 <= tc[i] + d[i] < self.T[i] for i in range(self.dims))

    def is_corner(self, tc) -> bool:
        return all(c in (0, n - 1) for c, n in zip(tc, self.T))


def gen_stencil(dims: int, points: int, process_grid, thread_grid,
                iterations: int = 1, payload: int = 8192) -> CommPattern:
    """Generate the per-iteration halo exchange of a stencil decomposition.

    Every boundary thread sends to and receives from each neighbor direction
    its patch borders across the process boundary.  Ops carry a per-direction
    tag and a phase index so the simulator can drive one traffic direction at
    a time.

    The torus makes every process's ops a translate of process 0's, so only
    the ops of process 0 are built, as a template, with the column of peer
    processes each one's carry leads to from every process: op ``i`` of the
    template stands for op ``p * len(template) + i`` of process ``p``, whose
    peer process is ``p`` moved by the template's process carry along each
    crossed axis.  :class:`StampedOps` derives each such op on access.

    The template comes from per-axis ``(carry, wrapped)`` tables by
    (coordinate, offset).  Threads of one boundary class (per axis: at
    either end, both or neither) cross the same directions with the same
    carries and flat peer-thread distances, decided once per class.
    """
    geo = StencilGeometry(process_grid, thread_grid)
    if geo.dims != dims:
        raise InvalidArgumentError(f"grids are {geo.dims}-dimensional, dims={dims}")
    dirs = stencil_directions(dims, points)
    traffic = {d: i for i, d in enumerate(dirs)}
    neg = {d: _neg(d) for d in dirs}
    kind = {shape: k for k, shape in STENCIL_SHAPES.items()}[(dims, points)]

    tables = [{(c, o): divmod(c + o, n) for c in range(n) for o in (-1, 0, 1)}
              for n in geo.T]
    threads = [geo.thread_coords(t) for t in range(prod(geo.T))]
    # boundary class -> a row per direction it crosses, as unpacked below
    classes: dict[tuple, list[tuple]] = {}
    pairs = []  # (thread, direction row): a receive and a send each
    for t, tc in enumerate(threads):
        cls = tuple((c == 0, c == n - 1) for c, n in zip(tc, geo.T))
        if cls not in classes:
            moved = (zip(*map(dict.__getitem__, tables, zip(tc, d))) for d in dirs)
            classes[cls] = [(d, neg[d], carry, geo.thread_flat(wrapped) - t,
                             traffic[neg[d]], traffic[d])
                            for d, (carry, wrapped) in zip(dirs, moved)
                            if geo.crossing(tc, d)]
        pairs += zip(itertools.repeat(t), classes[cls])

    # the process each carry leads to, from every process: per axis and
    # offset, each process's wrapped coordinate times the axis stride, summed
    procs = [geo.proc_coords(p) for p in range(prod(geo.P))]
    shifted = [{o: [(pc[k] + o) % n * prod(geo.P[:k]) for pc in procs]
                for o in (-1, 0, 1)} for k, n in enumerate(geo.P)]
    moves = {carry: list(map(sum, zip(*map(dict.__getitem__, shifted, carry))))
             for carry in {row[2] for rows in classes.values() for row in rows}}

    # process 0's ops, and each one's peer process at every process; the
    # partner of a (thread, direction) op is the peer's (peer thread, negation)
    first = {(t, row[0]): 2 * i for i, (t, row) in enumerate(pairs)}
    n0, ops, columns = 2 * len(pairs), [], []
    for i, (t, (d, nd, carry, distance, into, out)) in enumerate(pairs):
        to = moves[carry]
        peer, peer_t = to[0], t + distance
        mate = peer * n0 + first[peer_t, nd]
        ops += (_new(PatternOp, (2 * i, 0, t, OpKind.RECV, d, peer, peer_t,
                                 mate + 1, into, into, None, False)),
                _new(PatternOp, (2 * i + 1, 0, t, OpKind.SEND, d, peer, peer_t,
                                 mate, out, out, None, False)))
        columns += (to, to)

    communicating = frozenset(t for t, _ in pairs)
    corners = frozenset(t for t, tc in enumerate(threads) if geo.is_corner(tc))
    return CommPattern(
        kind=kind,
        process_grid=tuple(process_grid),
        thread_grid=tuple(thread_grid),
        iterations=iterations,
        payload_bytes=payload,
        ops=StampedOps(tuple(ops), columns, len(procs)),
        communicating_threads=communicating,
        corner_threads=corners,
    )


# (thread, kind, direction): where an op sits among the partitioned requests
_PLACE = itemgetter(2, 3, 4)


def _require_stencil(pattern: CommPattern, label: str, what: str):
    """Refuse a pattern that is not a stencil, with the ``REFUSALS`` reason
    of ``label`` on its kind when it has one."""
    refuse_unsupported(pattern, label)
    if pattern.kind not in STENCIL_KINDS:
        raise UnsupportedPatternError(f"{what} assignment needs a stencil pattern")


# --------------------------------------------------------------------------
# ideal mirrored communicator map


def _positive_rep(d):
    return d if d > tuple([0] * len(d)) else _neg(d)


def _ideal_key_rule(geo: StencilGeometry, kind: PatternKind, tc, d):
    """How the ideal communicator key of an op at thread coords ``tc`` in
    direction ``d`` depends on its process coordinates ``pc``.

    Returns ``(axis, shift, keys)``.  An exchange pair is keyed by its
    positive-direction sender and by the parity bit of the first boundary
    that sender crosses; the bit alternates between adjacent pairs of one
    chain, which is exactly the mirroring that keeps facing processes on the
    same communicator and same-process neighbors apart.  That boundary is
    ``(pc[axis] + shift) % P[axis]``, so the key is ``keys[boundary % 2]``
    on every grid, odd process dims included.  A 2D 9-point corner-to-corner
    exchange whose uncrossed coordinates align folds into one communicator
    per four-corner orbit instead; then ``axis`` and ``keys`` are None and
    the key is ``("corner", (pc + shift) % P)``, anchored at the process
    owning the orbit's all-minimum corner.
    """
    moved = [c + o for c, o in zip(tc, d)]
    ptc = tuple(m % n for m, n in zip(moved, geo.T))
    if kind is PatternKind.STENCIL_2D_9PT:
        crossed = [not 0 <= m < n for m, n in zip(moved, geo.T)]
        aligned = all(c or tc[i] == ptc[i] for i, c in enumerate(crossed))
        if geo.is_corner(tc) and geo.is_corner(ptc) and aligned:
            return None, tuple(int(c == n - 1) for c, n in zip(tc, geo.T)), None

    rep = _positive_rep(d)
    # the positive-direction sender is this op's thread or its peer
    s_tc = tc if d == rep else ptc
    cross_pos = {
        c: (geo.T[c] - 1 if rep[c] > 0 else 0)
        for c in range(geo.dims) if rep[c] != 0
    }
    c0 = min(c for c, pos in cross_pos.items() if s_tc[c] == pos)
    carry = 0 if d == rep else moved[c0] // geo.T[c0]
    shift = carry + (1 if rep[c0] > 0 else 0)

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
    return c0, shift, tuple(("pair", rep, bit, slot) for bit in (0, 1))


def _full_slot_space(geo: StencilGeometry, dirs) -> list:
    """Every communicator key the closed-form allocation provisions.

    Axis and edge-diagonal sets are exactly the keys the binding uses; the
    corner-diagonal sets allocate three full coordinate sheets minus one
    fixed redundant slot, a superset of the bound keys.
    """
    keys = []
    reps = sorted({_positive_rep(d) for d in dirs})
    for rep in reps:
        nonzero = [c for c in range(geo.dims) if rep[c] != 0]
        cross_pos = {c: (geo.T[c] - 1 if rep[c] > 0 else 0) for c in nonzero}
        for bit in (0, 1):
            if len(nonzero) == 1:
                axis = nonzero[0]
                perp = [range(geo.T[i]) for i in range(geo.dims) if i != axis]
                for coords in itertools.product(*perp):
                    keys.append(("pair", rep, bit, ("perp",) + coords))
            elif geo.dims == 3 and len(nonzero) == 3:
                for i, j in itertools.product(range(geo.T[0]), range(geo.T[1])):
                    keys.append(("pair", rep, bit, ("z", i, j)))
                for i, k in itertools.product(range(geo.T[0]), range(geo.T[2])):
                    keys.append(("pair", rep, bit, ("y", i, k)))
                for j, k in itertools.product(range(geo.T[1]), range(geo.T[2])):
                    if (j, k) == (cross_pos[1], cross_pos[2]):
                        continue  # redundant: its only claimant binds via the z sheet
                    keys.append(("pair", rep, bit, ("x", j, k)))
            else:
                # edge diagonals: one slot per crossing positive-side sender
                for t in range(prod(geo.T)):
                    tc = geo.thread_coords(t)
                    if any(tc[c] == cross_pos[c] for c in nonzero):
                        keys.append(("pair", rep, bit, ("full",) + tc))
    return keys


def assign_communicators_ideal(pattern: CommPattern) -> Assignment:
    """Minimal mirrored communicator map for a stencil pattern.

    Every cross-boundary exchange pair of threads gets one communicator,
    mirrored by boundary parity, so matching closes around the torus and no
    two threads of one process share a context.  For the 2D 9-point case,
    corner-to-corner exchanges collapse onto one communicator per corner
    orbit; for the 3D case the per-family set sizes equal the closed-form
    communicator count term by term.
    """
    _require_stencil(pattern, "communicators", "ideal communicator")
    geo = StencilGeometry(pattern.process_grid, pattern.thread_grid)
    dirs = stencil_directions(geo.dims, STENCIL_SHAPES[pattern.kind][1])
    P = pattern.num_processes

    procs = [geo.proc_coords(p) for p in range(P)]
    corner_keys = tuple(("corner", pc) for pc in procs)
    # per (thread, direction): (selector, keys); the op of process p takes
    # keys[selector[p]], its boundary parity bit or its corner orbit's anchor
    rules: dict[tuple, tuple[list, tuple]] = {}
    selectors: dict[tuple, list] = {}
    for op in pattern.template:
        if (op.thread, op.direction) not in rules:
            axis, shift, by_bit = _ideal_key_rule(
                geo, pattern.kind, geo.thread_coords(op.thread), op.direction)
            selector = selectors.get((axis, shift))
            if selector is None:
                selector = selectors[(axis, shift)] = [
                    geo.proc_flat([(c + s) % n for c, s, n in zip(pc, shift, geo.P)])
                    if by_bit is None else (pc[axis] + shift) % geo.P[axis] % 2
                    for pc in procs]
            rules[(op.thread, op.direction)] = (
                selector, corner_keys if by_bit is None else by_bit)

    if pattern.kind is PatternKind.STENCIL_3D_27PT:
        keys = _full_slot_space(geo, dirs)
    else:
        keys = {by[i] for sel, by in rules.values() for i in set(sel)}

    ids = IdAllocator()
    world = world_communicator(P, ids)
    ctx_of_key = {}
    comms = [world]
    for key in sorted(keys, key=repr):
        comm = dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
        ctx_of_key[key] = MatchContextId(ContextFamily.COMM, comm.context_id)
        comms.append(comm)

    # a key no process takes has no communicator and is never selected
    contexts = {by: [ctx_of_key.get(key) for key in by] for _, by in rules.values()}
    # (thread, direction) -> the context of its ops at each process
    columns = {td: list(map(contexts[by].__getitem__, selector))
               for td, (selector, by) in rules.items()}
    peers, nones = list(range(P)), [None] * P
    tag_of = cache(Tag)

    def shared(op):
        return (op.kind, columns[op.thread, op.direction], peers, tag_of,
                nones, None, None, nones)

    return Assignment(
        mechanism=Mechanism.COMMUNICATORS,
        variant="ideal",
        hints=InfoHints(),
        bindings=bind(pattern, shared),
        objects_created={"communicators": len(ctx_of_key)},
        comms=comms,
    )


# --------------------------------------------------------------------------
# tags with hints


def assign_tags_with_hints(pattern: CommPattern) -> Assignment:
    """One duplicated communicator with wildcard-excluding hints; thread ids
    ride in the tag bits so the library can split matching per thread pair."""
    _require_stencil(pattern, "tags", "tag-bit")
    T = pattern.threads_per_process
    tid_bits = max(1, ceil(log2(T))) if T > 1 else 1
    max_app = max(map(_TAG_KEY, pattern.template), default=0)
    app_bits = max(1, max_app.bit_length())
    layout = TagBitLayout(num_vcis=min(T, 1 << tid_bits), num_tid_bits=tid_bits,
                          num_app_bits=app_bits)
    hints = InfoHints(no_any_tag=True, no_any_source=True, tag_vci_bits=layout)

    P = pattern.num_processes
    ids = IdAllocator()
    world = world_communicator(P, ids)
    comm = dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
    context = [MatchContextId(ContextFamily.COMM, comm.context_id)] * P
    peers, nones = list(range(P)), [None] * P
    # a send and its receive share a thread pair's rule and each key's tag
    tag_of = cache(lambda src, dst, key: encode_tag(src, dst, key, layout))
    rule_of = cache(partial)

    def shared(op):
        rule = (rule_of(tag_of, op.thread, op.peer_thread) if op.kind is OpKind.SEND
                else rule_of(tag_of, op.peer_thread, op.thread))
        return (op.kind, context, peers, rule, nones, None, None, nones)

    return Assignment(
        mechanism=Mechanism.TAGS_WITH_HINTS,
        hints=hints,
        bindings=bind(pattern, shared),
        objects_created={"communicators": 1},
        comms=[world, comm],
    )


# --------------------------------------------------------------------------
# partitioned


def assign_partitioned(pattern: CommPattern) -> Assignment:
    """One persistent request per (direction, neighbor) with one partition
    per contributing thread; threads contribute partitions and one thread per
    process completes the shared requests each iteration.

    Wildcard-driven patterns cannot use this mechanism: the requests are
    persistent by definition and a partitioned receive names its peer.
    """
    _require_stencil(pattern, "partitioned", "partitioned")
    P = pattern.num_processes
    ids = IdAllocator()
    world = world_communicator(P, ids)
    template = pattern.template

    # requests of the template: its ops by (process, kind, direction, peer
    # process), each group ordered by thread.  A stamped copy moves every
    # peer by the same torus offset, so two ops share a peer in one copy
    # exactly when they do in every copy: every block has the same groups,
    # each named by the (thread, kind, direction) of its first op.
    groups: dict[tuple, list[int]] = {}
    for i, op in enumerate(template):
        key = (op.process, op.kind, op.direction, op.peer_process)
        groups.setdefault(key, []).append(i)
    members = []  # (name, template ops by thread)
    place = {}  # (thread, kind, direction) -> (its group's name, partition)
    for group in groups.values():
        group.sort(key=lambda i: template[i].thread)
        name = _PLACE(template[group[0]])
        members.append((name, group))
        for index, i in enumerate(group):
            place[_PLACE(template[i])] = (name, index)

    # every copy's request key (process, kind, direction, peer process) and
    # group, ids going in the repr order of keys.  The first op of each
    # group is read in each block; a key's repr is written out, with the
    # repr of its kind and direction taken once per group.
    firsts = [group[0] for _, group in members]
    middles = [f", {template[i].kind!r}, {template[i].direction!r}, "
               for i in firsts]
    copies = map(pattern.ops.at, pattern.ops.bases, itertools.repeat(firsts))
    keyed = sorted(
        (f"({process}{middle}{peer})", process, kind, peer, member)
        for ops in copies
        for (_, process, _, kind, _, peer, *_), middle, member
        in zip(ops, middles, members))
    requests: dict[int, PartitionedRequest] = {}
    request_of = {}  # group name -> its request id at each process
    tag_of = cache(Tag)
    for _, process, kind, peer, (name, group) in keyed:
        req = PartitionedRequest(
            request_id=ids.fresh_request(),
            direction=Direction.SEND if kind is OpKind.SEND else Direction.RECV,
            num_partitions=len(group),
            partition_size=pattern.payload_bytes,
            peer=peer,
            tag=tag_of(template[group[0]].tag_key),
            comm=world,
            owner=process,
        )
        requests[req.request_id] = req
        request_of.setdefault(name, [0] * P)[process] = req.request_id

    nones = [None] * P

    def shared(op):
        name, index = place[_PLACE(op)]
        return (OpKind.PARTITION_READY if op.kind is OpKind.SEND
                else OpKind.PARTITION_ARRIVED_TEST, nones, nones, NO_TAG_RULE,
                nones, None, None, [(rid, index) for rid in request_of[name]])

    return Assignment(
        mechanism=Mechanism.PARTITIONED,
        hints=InfoHints(),
        bindings=bind(pattern, shared),
        objects_created={
            "communicators": 1,
            "requests": len(requests),
            "requests_per_process": len(requests) // P,
        },
        comms=[world],
        requests=requests,
    )
