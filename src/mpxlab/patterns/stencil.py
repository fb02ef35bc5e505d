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
from functools import cache
from math import ceil, log2, prod

from ..errors import InvalidArgumentError, UnsupportedPatternError
from ..model import (
    ANY_SOURCE,
    ANY_TAG,
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
    TagBitLayout,
    create_endpoints_comm,
    dup_communicator,
    encode_tag,
    world_communicator,
)
from .base import (
    Assignment,
    CommPattern,
    Mechanism,
    PatternKind,
    PatternOp,
    STENCIL_KINDS,
    STENCIL_SHAPES,
    _program_indexes,
    _sources,
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

    The torus makes every process's ops a translate of process 0's, so the
    ops of process 0 are built once as a template and stamped for every
    process: op ``i`` of the template becomes op ``p * len(template) + i`` of
    process ``p``, and its peer process is ``p`` moved by the template's
    process carry along each crossed axis.
    """
    geo = StencilGeometry(process_grid, thread_grid)
    if geo.dims != dims:
        raise InvalidArgumentError(f"grids are {geo.dims}-dimensional, dims={dims}")
    dirs = stencil_directions(dims, points)
    dir_index = {d: i for i, d in enumerate(dirs)}
    kind = {shape: k for k, shape in STENCIL_SHAPES.items()}[(dims, points)]

    threads = [geo.thread_coords(t) for t in range(prod(geo.T))]
    # the directions a thread's halo crosses do not depend on its process
    crossings = [[d for d in dirs if geo.crossing(tc, d)] for tc in threads]
    template = []  # (thread, kind, direction, peer thread, carry, phase)
    slot: dict[tuple, int] = {}
    for t, tc in enumerate(threads):
        for d in crossings[t]:
            moved = [c + o for c, o in zip(tc, d)]
            carry = tuple(m // n for m, n in zip(moved, geo.T))
            peer_t = geo.thread_flat([m % n for m, n in zip(moved, geo.T)])
            for op_kind in (OpKind.RECV, OpKind.SEND):
                slot[(t, d, op_kind)] = len(template)
                traffic = dir_index[d if op_kind is OpKind.SEND else _neg(d)]
                template.append((t, op_kind, d, peer_t, carry, traffic))

    # the process each carry leads to, from every process
    procs = [geo.proc_coords(p) for p in range(prod(geo.P))]
    moves = {
        carry: [geo.proc_flat([(c + k) % n for c, k, n in zip(pc, carry, geo.P)])
                for pc in procs]
        for carry in {row[4] for row in template}
    }
    rows = [
        (t, op_kind, d, peer_t, moves[carry], traffic,
         slot[(peer_t, _neg(d),
               OpKind.SEND if op_kind is OpKind.RECV else OpKind.RECV)])
        for t, op_kind, d, peer_t, carry, traffic in template
    ]
    n0 = len(rows)
    # positional: (op id, process, thread, kind, direction, peer process,
    # peer thread, partner, phase, tag key, location, wildcard receive)
    make = PatternOp._make
    ops = [
        make((p * n0 + i, p, t, op_kind, d, to[p], peer_t,
              to[p] * n0 + partner_slot, traffic, traffic, None, False))
        for p in range(len(procs))
        for i, (t, op_kind, d, peer_t, to, traffic, partner_slot) in enumerate(rows)
    ]

    communicating = frozenset(t for t, ds in enumerate(crossings) if ds)
    corners = frozenset(t for t, tc in enumerate(threads) if geo.is_corner(tc))
    return CommPattern(
        kind=kind,
        process_grid=tuple(process_grid),
        thread_grid=tuple(thread_grid),
        iterations=iterations,
        payload_bytes=payload,
        ops=tuple(ops),
        communicating_threads=communicating,
        corner_threads=corners,
        stamp=n0,
    )


def _stamped(pattern: CommPattern, rows):
    """Each op with the row its assigner built for the template op it
    copies.  A row holds the fields every copy shares; the loop over these
    pairs fills in what depends on the process.  ``rows`` yields one row per
    template op: a stamped pattern's are kept and reused by every process,
    an unstamped pattern's are used as they come, so it gets no per-op
    table."""
    return zip(pattern.ops, itertools.cycle(rows) if pattern.stamp else rows)


def _kind_check():
    """A check of the first row of each kind against the addressing rule
    of the :class:`OpDescriptor` constructor.  The rule reads an op's kind,
    its context's family and whether it has a context, endpoint, window or
    partition.  Within one assigner every row of a kind has the same such
    shape, and a copy differs from its row only in its source, target and
    the value of its context, endpoint or partition, so each kind is
    checked once and the descriptors are built unchecked with
    ``_new(OpDescriptor, fields)``."""
    checked = set()

    def check(kind, context=None, endpoint=None, partition=None):
        if kind not in checked:
            OpDescriptor(kind, (0, 0), 0, context, None, None, endpoint,
                         None, None, partition)
            checked.add(kind)
    return check


_new = tuple.__new__


def _require_stencil(pattern: CommPattern, label: str, what: str):
    """Refuse a pattern that is not a stencil, with the ``REFUSALS`` reason
    of ``label`` on its kind when it has one."""
    refuse_unsupported(pattern, label)
    if pattern.kind not in STENCIL_KINDS:
        raise UnsupportedPatternError(f"{what} assignment needs a stencil pattern")


def _require_two_sided(pattern: CommPattern, what: str):
    """Refuse the kinds without two-sided ops, naming the assigner that
    binds each."""
    binder = {PatternKind.BSPMM_RMA: "assign_bspmm_endpoints binds the RMA pattern",
              PatternKind.MULTITHREADED_ALLREDUCE:
                  "assign_allreduce binds the allreduce"}.get(pattern.kind)
    if binder is not None:
        raise UnsupportedPatternError(f"{what} assignment needs two-sided ops; {binder}")


# --------------------------------------------------------------------------
# naive per-thread communicator map


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
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    K = num_comms if num_comms is not None else pattern.threads_per_process
    if K < 1:
        raise InvalidArgumentError("need at least one communicator")
    comms = [
        dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
        for _ in range(K)
    ]
    contexts = [MatchContextId(ContextFamily.COMM, c.context_id) for c in comms]
    prog = _program_indexes(pattern)
    tag_of = cache(Tag)
    check = _kind_check()

    def row(op):
        """(kind, thread, program index, context, tag, wildcard)"""
        ctx = contexts[(op.thread if op.kind is OpKind.SEND else op.peer_thread) % K]
        tag = tag_of(op.tag_key)  # a wildcard's key too: Tag refuses an oversized one
        wild = op.is_wildcard_recv
        check(op.kind, ctx)
        return (op.kind, op.thread, prog[op.op_id], ctx,
                ANY_TAG if wild else tag, wild)

    source_of = _sources(pattern)
    bindings = {}
    for (op_id, p, _, _, _, peer, _, _, _, _, _, _), (
            kind, t, index, ctx, tag, wild) in _stamped(
                pattern, map(row, pattern.template)):
        bindings[op_id] = _new(OpDescriptor, (
            kind, source_of[p][t], index, ctx, ANY_SOURCE if wild else peer,
            tag, None, None, None, None))
    return Assignment(
        mechanism=Mechanism.COMMUNICATORS,
        variant="naive",
        hints=InfoHints(),
        bindings=bindings,
        objects_created={"communicators": K},
        comms=[world] + comms,
    )


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
    prog = _program_indexes(pattern)
    tag_of = cache(Tag)

    procs = [geo.proc_coords(p) for p in range(pattern.num_processes)]
    corner_keys = tuple(("corner", pc) for pc in procs)
    # per (thread, direction): (selector, keys); the op of process p takes
    # keys[selector[p]], its boundary parity bit or its corner orbit's anchor
    rules: dict[tuple, tuple[list, tuple]] = {}
    selectors: dict[tuple, list] = {}
    rows = []
    for op in pattern.template:
        rule = rules.get((op.thread, op.direction))
        if rule is None:
            axis, shift, by_bit = _ideal_key_rule(
                geo, pattern.kind, geo.thread_coords(op.thread), op.direction)
            selector = selectors.get((axis, shift))
            if selector is None:
                selector = selectors[(axis, shift)] = [
                    geo.proc_flat([(c + s) % n for c, s, n in zip(pc, shift, geo.P)])
                    if by_bit is None else (pc[axis] + shift) % geo.P[axis] % 2
                    for pc in procs]
            rule = rules[(op.thread, op.direction)] = (
                selector, corner_keys if by_bit is None else by_bit)
        rows.append((op.kind, op.thread, prog[op.op_id], rule, tag_of(op.tag_key)))

    if pattern.kind is PatternKind.STENCIL_3D_27PT:
        keys = _full_slot_space(geo, dirs)
    else:
        keys = {by[i] for sel, by in rules.values() for i in set(sel)}

    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    ctx_of_key = {}
    comms = [world]
    for key in sorted(keys, key=repr):
        comm = dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
        ctx_of_key[key] = MatchContextId(ContextFamily.COMM, comm.context_id)
        comms.append(comm)

    # a key no process takes has no communicator and is never selected
    contexts = {by: [ctx_of_key.get(key) for key in by] for _, by in rules.values()}
    check = _kind_check()
    template = []
    for kind, t, index, (selector, by), tag in rows:
        ctxs = contexts[by]
        check(kind, ctxs[selector[0]])
        template.append((kind, t, index, selector, ctxs, tag))
    source_of = _sources(pattern)
    bindings = {}
    for (op_id, p, _, _, _, peer, _, _, _, _, _, _), (
            kind, t, index, selector, ctxs, tag) in _stamped(pattern, template):
        bindings[op_id] = _new(OpDescriptor, (
            kind, source_of[p][t], index, ctxs[selector[p]], peer, tag,
            None, None, None, None))
    return Assignment(
        mechanism=Mechanism.COMMUNICATORS,
        variant="ideal",
        hints=InfoHints(),
        bindings=bindings,
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
    max_app = max((op.tag_key for op in pattern.template), default=0)
    app_bits = max(1, max_app.bit_length())
    layout = TagBitLayout(num_vcis=min(T, 1 << tid_bits), num_tid_bits=tid_bits,
                          num_app_bits=app_bits)
    hints = InfoHints(no_any_tag=True, no_any_source=True, tag_vci_bits=layout)

    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    comm = dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
    ctx = MatchContextId(ContextFamily.COMM, comm.context_id)
    prog = _program_indexes(pattern)
    tags: dict[tuple[int, int, int], Tag] = {}
    check = _kind_check()
    template = []  # (kind, thread, program index, tag)
    for op in pattern.template:
        if op.kind is OpKind.SEND:
            fields = (op.thread, op.peer_thread, op.tag_key)
        else:
            fields = (op.peer_thread, op.thread, op.tag_key)
        tag = tags.get(fields)
        if tag is None:
            tag = tags[fields] = encode_tag(*fields, layout)
        check(op.kind, ctx)
        template.append((op.kind, op.thread, prog[op.op_id], tag))
    source_of = _sources(pattern)
    bindings = {}
    for (op_id, p, _, _, _, peer, _, _, _, _, _, _), (
            kind, t, index, tag) in _stamped(pattern, template):
        bindings[op_id] = _new(OpDescriptor, (kind, source_of[p][t], index,
                                              ctx, peer, tag, None, None, None,
                                              None))
    return Assignment(
        mechanism=Mechanism.TAGS_WITH_HINTS,
        hints=hints,
        bindings=bindings,
        objects_created={"communicators": 1},
        comms=[world, comm],
    )


# --------------------------------------------------------------------------
# endpoints


def assign_endpoints(pattern: CommPattern) -> Assignment:
    """One endpoints communicator; every thread owns the endpoint matching
    its thread id, and targets are global endpoint ranks of facing threads.

    The communicator hands out one handle per thread (rank = process * T +
    thread), but only the communicating threads' endpoints are ever bound,
    and that bound count is what the object tally reports.
    """
    _require_two_sided(pattern, "endpoint")
    T = pattern.threads_per_process
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    epcomm = create_endpoints_comm(world, T, ids)
    ctx = MatchContextId(ContextFamily.ENDPOINT, epcomm.context_id)
    prog = _program_indexes(pattern)
    tag_of = cache(Tag)
    check = _kind_check()

    def row(op):
        """(kind, thread, program index, peer thread, tag); a wildcard
        receive has no peer thread and the tag ANY_TAG"""
        check(op.kind, ctx, endpoint=op.process * T + op.thread)
        if op.is_wildcard_recv:
            return (op.kind, op.thread, prog[op.op_id], None, ANY_TAG)
        return (op.kind, op.thread, prog[op.op_id], op.peer_thread,
                tag_of(op.tag_key))

    source_of = _sources(pattern)
    bindings = {}
    used_endpoints = set()
    for (op_id, p, _, _, _, peer, _, _, _, _, _, _), (
            kind, t, index, peer_t, tag) in _stamped(
                pattern, map(row, pattern.template)):
        ep = p * T + t
        used_endpoints.add(ep)
        bindings[op_id] = _new(OpDescriptor, (
            kind, source_of[p][t], index, ctx,
            ANY_SOURCE if peer_t is None else peer * T + peer_t, tag, ep,
            None, None, None))
    per_process = len({op.thread for op in pattern.template if op.process == 0})
    return Assignment(
        mechanism=Mechanism.ENDPOINTS,
        hints=InfoHints(),
        bindings=bindings,
        objects_created={
            "communicators": 1,
            "endpoints_per_process": per_process,
            "endpoints_total": len(used_endpoints),
        },
        comms=[world],
        endpoints_comm=epcomm,
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
    ids = IdAllocator()
    world = world_communicator(pattern.num_processes, ids)
    prog = _program_indexes(pattern)
    ops, template = pattern.ops, pattern.template
    n0 = len(template)

    # requests of the template: its ops by (process, kind, direction, peer
    # process), each group ordered by thread.  A stamped copy moves every
    # peer by the same torus offset, so two ops share a peer in one copy
    # exactly when they do in every copy: the groups hold at every process.
    groups: dict[tuple, list[int]] = {}
    for i, op in enumerate(template):
        key = (op.process, op.kind, op.direction, op.peer_process)
        groups.setdefault(key, []).append(i)
    members = [sorted(group, key=lambda i: template[i].thread)
               for group in groups.values()]
    slot = [(0, 0)] * n0  # template op -> (group, partition index)
    for g, group in enumerate(members):
        for index, i in enumerate(group):
            slot[i] = (g, index)

    # every copy's (request key, group), ids going in the repr order of keys
    keyed = []
    for base in range(0, len(ops), n0 or 1):
        for g, group in enumerate(members):
            op = ops[base + group[0]]
            keyed.append(((op.process, op.kind, op.direction, op.peer_process),
                          g))
    keyed.sort(key=lambda item: repr(item[0]))
    requests: dict[int, PartitionedRequest] = {}
    # [p][g]: the id of group g's request at process p
    request_of = [[0] * len(members) for _ in range(pattern.num_processes)]
    tag_of = cache(Tag)
    for (process, kind, _, peer), g in keyed:
        req = PartitionedRequest(
            request_id=ids.fresh_request(),
            direction=Direction.SEND if kind is OpKind.SEND else Direction.RECV,
            num_partitions=len(members[g]),
            partition_size=pattern.payload_bytes,
            peer=peer,
            tag=tag_of(template[members[g][0]].tag_key),
            comm=world,
            owner=process,
        )
        requests[req.request_id] = req
        request_of[process][g] = req.request_id

    rows = [(OpKind.PARTITION_READY if op.kind is OpKind.SEND
             else OpKind.PARTITION_ARRIVED_TEST, op.thread, prog[op.op_id])
            + slot[i] for i, op in enumerate(template)]
    check = _kind_check()
    for (kind, _, _, g, part), op in zip(rows, template):
        check(kind, partition=(request_of[op.process][g], part))
    source_of = _sources(pattern)
    bindings = {}
    for (op_id, p, _, _, _, _, _, _, _, _, _, _), (
            kind, t, index, g, part) in _stamped(pattern, rows):
        bindings[op_id] = _new(OpDescriptor, (
            kind, source_of[p][t], index, None, None, None, None, None, None,
            (request_of[p][g], part)))
    return Assignment(
        mechanism=Mechanism.PARTITIONED,
        hints=InfoHints(),
        bindings=bindings,
        objects_created={
            "communicators": 1,
            "requests": len(requests),
            "requests_per_process": len(requests) // pattern.num_processes,
        },
        comms=[world],
        requests=requests,
    )
