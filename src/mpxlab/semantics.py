"""Matching, ordering, and the logical-parallelism classifier.

Two operations are logically parallel when no semantic order relation links
them in either direction and no shared potential matching target can force
the library to serialize them under the active hints.  The classifier
evaluates closed-form rules per mechanism; :func:`oracle_logically_parallel`
answers the same question by brute-force enumeration over a small operation
universe and is kept independent of the rule code so the two can check each
other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .errors import (
    IncompleteAssignmentError,
    InvalidArgumentError,
    OracleBoundError,
)
from .model import (
    ANY_SOURCE,
    ANY_TAG,
    ContextFamily,
    InfoHints,
    MatchContextId,
    OpDescriptor,
    OpKind,
    PartitionedRequest,
    Direction,
    PARTITION_KINDS,
    RMA_KINDS,
    TWO_SIDED,
    Tag,
)

if TYPE_CHECKING:
    from .patterns.base import Assignment, CommPattern

ORACLE_MAX_OPS = 12


def _tags_equal(a: Tag | None, b: Tag | None) -> bool:
    return a is not None and b is not None and not a.is_wildcard \
        and not b.is_wildcard and a.raw == b.raw


# read once: a module global costs far less than an enum member read
_ENDPOINT, _SEND, _RECV = ContextFamily.ENDPOINT, OpKind.SEND, OpKind.RECV
_ANY_TAG = ANY_TAG.raw

# why an intended pair is refused
CANNOT_MATCH = "bound contexts cannot match"


def match_keys(desc: OpDescriptor):
    """MPI's matching triplet of a two-sided op as (scope, bucket), the
    scope being (context family, context key, receiving rank).  An op's own
    rank is its endpoint under an endpoint context, else its process.  A
    receive is posted at its own rank and selects a (source, tag), either
    part possibly a wildcard; a send is addressed to its target and carries
    (its own rank, tag).  An op without a tag has bucket None: no match."""
    kind, source, _, context, peer, tag, endpoint, _, _, _ = desc
    family = context.family
    home = endpoint if family is _ENDPOINT else source[0]
    if kind is _SEND:  # homed at its target, sent from its own rank
        home, peer = peer, home
    return (family, context.key, home), None if tag is None else (peer, tag.raw)


def send_covers(bucket):
    """The receive buckets that can take a send from ``bucket``: its exact
    (source, tag) and the three wildcard combinations."""
    if bucket is None:
        return ()
    src, tag = bucket
    return (bucket, (ANY_SOURCE, tag), (src, _ANY_TAG), (ANY_SOURCE, _ANY_TAG))


def is_wildcard_bucket(bucket) -> bool:
    """Does a receive posted to ``bucket`` select ANY_SOURCE or ANY_TAG, so
    that sends from other buckets than its own cover it?"""
    return bucket[0] == ANY_SOURCE or bucket[1] == _ANY_TAG


def can_match(send: OpDescriptor, recv: OpDescriptor) -> bool:
    """Does MPI's triplet rule pair this send with this receive?

    Same context, the receive posted at the send's destination, the receive's
    source selector naming the send's origin rank (or ANY_SOURCE), and equal
    tags (or ANY_TAG): one scope, and the receive's bucket among those the
    send's covers.  Under an endpoint context both ranks are global endpoint
    ranks.  It reads fields by position, so it answers the same on a
    descriptor and on the plain tuple of its fields.
    """
    if send[0] is not _SEND or recv[0] is not _RECV \
            or send[3] is None or recv[3] is None:  # kind, context
        return False
    send_scope, send_bucket = match_keys(send)
    recv_scope, recv_bucket = match_keys(recv)
    return send_scope == recv_scope and recv_bucket in send_covers(send_bucket)


def requests_match(send_req: PartitionedRequest, recv_req: PartitionedRequest) -> bool:
    """Partitioned matching happens once per request pair, not per partition."""
    return (
        send_req.direction is Direction.SEND
        and recv_req.direction is Direction.RECV
        and send_req.comm.context_id == recv_req.comm.context_id
        and send_req.peer == recv_req.owner
        and recv_req.peer == send_req.owner
        and send_req.tag.raw == recv_req.tag.raw
    )


def pair_meets(send: OpDescriptor, recv: OpDescriptor, requests=None) -> bool:
    """Can the bound send ``send`` meet its intended receive ``recv``, two
    descriptors or the plain tuples of their fields: under partitioned,
    whose ``requests`` by id are given, their requests pair; otherwise
    two-sided ops meet :func:`can_match`, and RMA and collective ops, which
    have no pairwise matching rule, pass."""
    if requests is not None:
        # an op bound off every request cannot meet its partner's
        send, recv = send[9], recv[9]  # their (request id, partition)
        return send is not None and recv is not None \
            and requests_match(requests[send[0]], requests[recv[0]])
    return send[0] is not _SEND or recv[0] is not _RECV or can_match(send, recv)


def _thread_order(a: OpDescriptor, b: OpDescriptor) -> bool:
    """Deterministic precedence for constraint pairs: program order within a
    thread, (thread, index) lexicographic across threads."""
    return (a.source[1], a.program_index) < (b.source[1], b.program_index)


def ordered_before(a: OpDescriptor, b: OpDescriptor, hints: InfoHints) -> bool:
    """True iff MPI semantics impose matching/completion order of ``a`` before
    ``b``.

    Covers: same-thread sends on one context whose triplets could compete for
    a common receive while overtaking is not relaxed; the mirror rule for
    posted receives; atomic updates to the same window, target and location
    without the accumulate-ordering relaxation; and collectives issued on the
    same communicator.
    """
    # the fields by position: one unpack per record, no property calls
    ak, (ap, at), ai, actx, atarget, atag, aep, awin, aloc, _ = a
    bk, (bp, bt), bi, bctx, btarget, btag, bep, bwin, bloc, _ = b
    if ap != bp:
        return False

    if ak is OpKind.ACCUMULATE and bk is OpKind.ACCUMULATE:
        if (
            awin == bwin
            and atarget == btarget
            and aep == bep  # distinct endpoints: distinct origins
            and aloc is not None
            and aloc == bloc
            and not hints.accumulate_ordering_none
        ):
            return _thread_order(a, b)
        return False

    if ak is OpKind.COLLECTIVE and bk is OpKind.COLLECTIVE:
        if actx == bctx:
            return _thread_order(a, b)
        return False

    if ak in TWO_SIDED and bk in TWO_SIDED:
        if ak is not bk:
            return False  # a send is never ordered against a receive
        if at != bt or ai >= bi:
            return False
        if actx != bctx or hints.allow_overtaking:
            return False
        if ak is OpKind.SEND:
            # one process, one context: the origin ranks differ only as
            # endpoints do
            if actx.family is ContextFamily.ENDPOINT and aep != bep:
                return False
            if atarget != btarget:
                return False
            # nonovertaking binds the pair when one receive could match both
            return _tags_equal(atag, btag) or not hints.no_any_tag
        # two posted receives: ordered when one message could match both
        if aep != bep:
            return False  # distinct endpoints are distinct ranks
        tags_overlap = (
            atag.is_wildcard or btag.is_wildcard or atag.raw == btag.raw
        )
        srcs_overlap = (
            atarget == ANY_SOURCE or btarget == ANY_SOURCE or atarget == btarget
        )
        return tags_overlap and srcs_overlap

    return False


class Reason(Enum):
    """Decisive rule behind a classifier answer."""

    DIFFERENT_COMMUNICATORS = "different-communicators"
    DIFFERENT_ENDPOINTS = "different-endpoints"
    DIFFERENT_WINDOWS = "different-windows"
    TAG_RELAXED_NO_WILDCARDS = "tag-relaxed-no-wildcards"
    OVERTAKING_SENDS_ONLY = "overtaking-sends-only"
    PARTITION_SAME_REQUEST = "partition-same-request"
    ORDERED_SAME_TRIPLET = "ordered-same-triplet"
    WILDCARD_RISK = "wildcard-risk"
    ATOMIC_SAME_LOCATION = "atomic-same-location"
    COLLECTIVE_SERIAL_ON_COMM = "collective-serial-on-comm"
    RMA_UNORDERED = "rma-unordered"
    DISJOINT_TARGETS = "disjoint-targets"

    __hash__ = object.__hash__  # see model.OpKind

    @property
    def parallel(self) -> bool:
        return self in PARALLEL_REASONS


PARALLEL_REASONS = frozenset({
    Reason.DIFFERENT_COMMUNICATORS,
    Reason.DIFFERENT_ENDPOINTS,
    Reason.DIFFERENT_WINDOWS,
    Reason.TAG_RELAXED_NO_WILDCARDS,
    Reason.OVERTAKING_SENDS_ONLY,
    Reason.PARTITION_SAME_REQUEST,
    Reason.RMA_UNORDERED,
    Reason.DISJOINT_TARGETS,
})


def logically_parallel(a: OpDescriptor, b: OpDescriptor,
                       hints: InfoHints) -> Reason:
    """Classify whether two operations of one process may proceed on distinct
    channels without violating matching or ordering semantics, answering with
    the decisive rule; its ``parallel`` property gives the verdict.

    Send pairs sharing a communicator are judged by whether a common receive
    could capture both under the active hints; any pair of receives sharing a
    communicator stays conservatively serial while wildcards remain possible,
    because the posted queue must stay one structure that a wildcard could
    scan.  Two contributions to one partitioned request transfer in parallel
    but are flagged as sharing that request's completion.
    """
    if a == b:
        raise InvalidArgumentError("need two distinct operations")
    if a.source[0] != b.source[0]:
        raise InvalidArgumentError("classifier compares ops of one process")

    ak, bk = a.kind, b.kind
    if ak is OpKind.COLLECTIVE and bk is OpKind.COLLECTIVE:
        if a.context == b.context:
            return Reason.COLLECTIVE_SERIAL_ON_COMM
        return Reason.DIFFERENT_COMMUNICATORS

    if ordered_before(a, b, hints) or ordered_before(b, a, hints):
        if ak is OpKind.ACCUMULATE:
            return Reason.ATOMIC_SAME_LOCATION
        # the one edge left: two-sided program order on one triplet
        return Reason.ORDERED_SAME_TRIPLET

    if ak in PARTITION_KINDS and bk in PARTITION_KINDS:
        if a.partition[0] == b.partition[0]:
            return Reason.PARTITION_SAME_REQUEST
        return Reason.DIFFERENT_COMMUNICATORS

    if ak in RMA_KINDS and bk in RMA_KINDS:
        if a.window != b.window:
            return Reason.DIFFERENT_WINDOWS
        if a.endpoint is not None and b.endpoint is not None \
                and a.endpoint != b.endpoint:
            return Reason.DIFFERENT_ENDPOINTS
        return Reason.RMA_UNORDERED

    if ak not in TWO_SIDED or bk not in TWO_SIDED:
        # mixed families never share a matching domain
        return Reason.DISJOINT_TARGETS
    if a.context != b.context:
        return Reason.DIFFERENT_COMMUNICATORS
    if a.context.family is ContextFamily.ENDPOINT and a.endpoint != b.endpoint:
        return Reason.DIFFERENT_ENDPOINTS

    if ak is not bk:
        # one send, one receive: their potential match sets never intersect
        # (a receive only pairs with remote traffic addressed to it)
        return Reason.DISJOINT_TARGETS

    if ak is OpKind.SEND:
        if a.target != b.target:
            return Reason.DISJOINT_TARGETS
        same_tag = _tags_equal(a.tag, b.tag)
        if not same_tag and hints.no_any_tag:
            return Reason.TAG_RELAXED_NO_WILDCARDS
        if hints.allow_overtaking:
            return Reason.OVERTAKING_SENDS_ONLY
        if same_tag:
            return Reason.ORDERED_SAME_TRIPLET
        return Reason.WILDCARD_RISK

    # two receives
    tags_overlap = (
        a.tag.is_wildcard or b.tag.is_wildcard or a.tag.raw == b.tag.raw
        or not hints.no_any_tag
    )
    srcs_overlap = (
        a.target == ANY_SOURCE or b.target == ANY_SOURCE
        or a.target == b.target or not hints.no_any_source
    )
    if not (tags_overlap and srcs_overlap):
        return Reason.TAG_RELAXED_NO_WILDCARDS
    if not hints.wildcards_possible:
        return Reason.ORDERED_SAME_TRIPLET
    return Reason.WILDCARD_RISK


# --------------------------------------------------------------------------
# brute-force oracle


_SYNTH_THREAD_BASE = 10_000


def _complete_universe(ops: list[OpDescriptor], hints: InfoHints) -> list[OpDescriptor]:
    """Extend a universe with every potential counterpart the hints permit.

    For each send the exactly-matching receive, for each receive the exactly
    matching send, and for every (context, destination) the wildcard receives
    that remain legal.  These hypothetical ops realize the worst case the
    active hints allow, which is what a library must provision for.
    """
    extra: dict[tuple, OpDescriptor] = {}
    synth = itertools.count(_SYNTH_THREAD_BASE)
    two_sided = [op for op in ops if op.kind in TWO_SIDED]

    def add_recv(ctx, home, src, tag):
        key = ("r", ctx, home, src, None if tag.is_wildcard else tag.raw)
        if key in extra:
            return
        if ctx.family is ContextFamily.ENDPOINT:
            source, ep = (10_000 + home, next(synth)), home
        else:
            source, ep = (home, next(synth)), None
        extra[key] = OpDescriptor(
            kind=OpKind.RECV,
            source=source,
            program_index=0,
            context=ctx,
            target=src,
            tag=tag,
            endpoint=ep,
        )

    def add_send(ctx, origin, dest, tag):
        key = ("s", ctx, origin, dest, tag.raw)
        if key in extra:
            return
        if ctx.family is ContextFamily.ENDPOINT:
            source = (20_000 + origin, next(synth))
            ep = origin
        else:
            source = (origin, next(synth))
            ep = None
        extra[key] = OpDescriptor(
            kind=OpKind.SEND,
            source=source,
            program_index=0,
            context=ctx,
            target=dest,
            tag=tag,
            endpoint=ep,
        )

    homes: set[tuple[MatchContextId, int]] = set()
    srcs_by_ctx: dict[MatchContextId, set[int]] = {}
    tags_by_ctx: dict[MatchContextId, set[int]] = {}
    for o in two_sided:
        # where the receives competing with ``o`` are posted
        ctx, home = o.context, match_keys(o)[0][2]
        homes.add((ctx, home))
        srcs = srcs_by_ctx.setdefault(ctx, set())
        tags = tags_by_ctx.setdefault(ctx, set())
        if o.kind is OpKind.SEND:
            srcs.add(o.origin_rank)
            tags.add(o.tag.raw)
            add_recv(ctx, o.target, o.origin_rank, o.tag)
        else:
            if o.target != ANY_SOURCE:
                srcs.add(o.target)
            if not o.tag.is_wildcard:
                tags.add(o.tag.raw)
            src = o.target if o.target != ANY_SOURCE else 30_000
            tag = o.tag if not o.tag.is_wildcard else Tag(0)
            add_send(ctx, src, home, tag)

    for ctx, home in homes:
        if not hints.no_any_tag and not hints.no_any_source:
            add_recv(ctx, home, ANY_SOURCE, ANY_TAG)
        elif not hints.no_any_tag:
            for src in srcs_by_ctx.get(ctx, ()):
                add_recv(ctx, home, src, ANY_TAG)
        elif not hints.no_any_source:
            for raw in tags_by_ctx.get(ctx, ()):
                add_recv(ctx, home, ANY_SOURCE, Tag(raw))

    return ops + list(extra.values())


def _oracle_components(universe: list[OpDescriptor], hints: InfoHints):
    """Union-find over serialization edges harvested by enumeration."""
    aug = _complete_universe(universe, hints)
    index = {id(op): i for i, op in enumerate(aug)}
    parent = list(range(len(aug)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(x, y):
        rx, ry = find(index[id(x)]), find(index[id(y)])
        if rx != ry:
            parent[rx] = ry

    sends = [o for o in aug if o.kind is OpKind.SEND]
    recvs = [o for o in aug if o.kind is OpKind.RECV]

    if not hints.allow_overtaking:
        # nonovertaking binds only same-origin sends; messages from distinct
        # ranks (or endpoints) may legally match a shared receive in any order
        for x, y in itertools.combinations(sends, 2):
            if x.origin_rank != y.origin_rank:
                continue
            if any(can_match(x, r) and can_match(y, r) for r in recvs):
                union(x, y)
    for x, y in itertools.combinations(recvs, 2):
        if any(can_match(s, x) and can_match(s, y) for s in sends):
            union(x, y)

    real = universe
    for x, y in itertools.combinations(real, 2):
        if x.process != y.process:
            continue
        if ordered_before(x, y, hints) or ordered_before(y, x, hints):
            union(x, y)
        if (
            x.kind is OpKind.COLLECTIVE
            and y.kind is OpKind.COLLECTIVE
            and x.context == y.context
        ):
            union(x, y)

    return aug, index, find


def oracle_logically_parallel(a: OpDescriptor, b: OpDescriptor,
                              universe: Iterable[OpDescriptor],
                              hints: InfoHints = InfoHints()) -> bool:
    """Brute-force reference for :func:`logically_parallel`.

    The universe (at most 12 operations) is completed with every counterpart
    and wildcard receive the hints permit; the oracle then enumerates, over
    all operation pairs, which ones can compete for a common matching target
    or are linked by an ordering constraint, and declares ``a`` and ``b``
    parallel exactly when no chain of such links connects them.
    """
    ops = list(universe)
    for extra_op in (a, b):
        if not any(extra_op == o for o in ops):
            ops.append(extra_op)
    if len(ops) > ORACLE_MAX_OPS:
        raise OracleBoundError(
            f"universe of {len(ops)} ops exceeds the enumeration bound "
            f"{ORACLE_MAX_OPS}"
        )
    aug, index, find = _oracle_components(ops, hints)
    ia = next(i for i, o in enumerate(aug) if o == a)
    ib = next(i for i, o in enumerate(aug) if o == b)
    return find(ia) != find(ib)


# --------------------------------------------------------------------------
# classifier/oracle equivalence sweep


def equivalence_scenarios(max_ops: int = 12):
    """Yield (name, universe, hints) families for the classifier/oracle check.

    Covers matched send/receive batches over one or two contexts with tag and
    destination variations, wildcard receives wherever the hints permit them,
    endpoint-scoped ops, RMA sets over one or two windows, collectives, and
    partitioned contributions; at most 2 processes, 3 threads per process,
    and ``max_ops`` operations per universe.
    """
    c1 = MatchContextId(ContextFamily.COMM, 1)
    c2 = MatchContextId(ContextFamily.COMM, 2)
    e1 = MatchContextId(ContextFamily.ENDPOINT, 3)

    def send(ctx, thr, idx, dst, tag, ep=None):
        return OpDescriptor(OpKind.SEND, (0, thr), idx, context=ctx,
                            target=dst, tag=Tag(tag), endpoint=ep)

    def recv(ctx, thr, idx, src, tag, ep=None):
        return OpDescriptor(OpKind.RECV, (1, thr), idx, context=ctx,
                            target=src, tag=tag, endpoint=ep)

    def local_recv(ctx, thr, idx, src, tag):
        return OpDescriptor(OpKind.RECV, (0, thr), idx, context=ctx,
                            target=src, tag=tag)

    def rma(kind, thr, idx, win, loc, target=1, ep=None):
        return OpDescriptor(kind, (0, thr), idx, window=win, target=target,
                            target_location=loc, endpoint=ep)

    for flags in itertools.product((False, True), repeat=3):
        hints = InfoHints(*flags)  # overtaking, no ANY_TAG, no ANY_SOURCE
        wild_tag = not hints.no_any_tag
        wild_src = not hints.no_any_source

        batches = {
            "sends-two-comms": [send(c1, 0, 0, 1, 3), send(c2, 1, 0, 1, 3),
                                recv(c1, 0, 0, 0, Tag(3)),
                                recv(c2, 1, 0, 0, Tag(3))],
            "sends-one-comm-tags": [send(c1, 0, 0, 1, 3), send(c1, 1, 0, 1, 4),
                                    recv(c1, 0, 0, 0, Tag(3)),
                                    recv(c1, 1, 0, 0, Tag(4))],
            "sends-one-comm-same-triplet": [
                send(c1, 0, 0, 1, 7), send(c1, 1, 0, 1, 7),
                recv(c1, 0, 0, 0, Tag(7)), recv(c1, 1, 0, 0, Tag(7))],
            "sends-same-thread": [send(c1, 0, 0, 1, 3), send(c1, 0, 1, 1, 4),
                                  recv(c1, 0, 0, 0, Tag(3)),
                                  recv(c1, 1, 0, 0, Tag(4))],
            "sends-different-dests": [
                send(c1, 0, 0, 1, 3),
                OpDescriptor(OpKind.SEND, (0, 1), 0, context=c1, target=2,
                             tag=Tag(4)),
                recv(c1, 0, 0, 0, Tag(3))],
            "recv-pair-local": [local_recv(c1, 0, 0, 1, Tag(3)),
                                local_recv(c1, 1, 0, 1, Tag(4))],
            "recv-same-thread": [local_recv(c1, 0, 0, 1, Tag(3)),
                                 local_recv(c1, 0, 1, 1, Tag(3))],
            "mixed-send-recv": [send(c1, 0, 0, 1, 3),
                                local_recv(c1, 1, 0, 1, Tag(5)),
                                recv(c1, 2, 0, 0, Tag(3))],
            "endpoints-distinct": [
                send(e1, 0, 0, 9, 3, ep=0), send(e1, 1, 0, 9, 3, ep=1),
                recv(e1, 0, 0, 0, Tag(3), ep=9), recv(e1, 0, 1, 1, Tag(3), ep=9)],
            "endpoints-same-ep": [
                send(e1, 0, 0, 9, 3, ep=0), send(e1, 1, 1, 9, 4, ep=0),
                recv(e1, 0, 0, ANY_SOURCE if wild_src else 0,
                     ANY_TAG if wild_tag else Tag(3), ep=9),
                recv(e1, 0, 1, 0 if hints.no_any_source else ANY_SOURCE,
                     Tag(4), ep=9)],
            "rma-windows": [rma(OpKind.PUT, 0, 0, 1, 10),
                            rma(OpKind.PUT, 1, 0, 2, 10),
                            rma(OpKind.ACCUMULATE, 0, 1, 1, 10),
                            rma(OpKind.ACCUMULATE, 1, 1, 1, 10),
                            rma(OpKind.ACCUMULATE, 2, 0, 1, 11)],
            "collectives": [
                OpDescriptor(OpKind.COLLECTIVE, (0, 0), 0, context=c1),
                OpDescriptor(OpKind.COLLECTIVE, (0, 1), 0, context=c1),
                OpDescriptor(OpKind.COLLECTIVE, (0, 2), 0, context=c2)],
            "partitioned": [
                OpDescriptor(OpKind.PARTITION_READY, (0, 0), 0, partition=(1, 0)),
                OpDescriptor(OpKind.PARTITION_READY, (0, 1), 0, partition=(1, 1)),
                OpDescriptor(OpKind.PARTITION_READY, (0, 2), 0, partition=(2, 0))],
        }
        if wild_tag or wild_src:
            batches["wildcard-recv"] = [
                send(c1, 0, 0, 1, 3), send(c1, 1, 0, 1, 4),
                recv(c1, 0, 0,
                     ANY_SOURCE if wild_src else 0,
                     ANY_TAG if wild_tag else Tag(3)),
                recv(c1, 1, 1, 0, Tag(4))]
        for name, universe in batches.items():
            if len(universe) <= max_ops:
                yield name, universe, hints


def oracle_equivalence_check(max_ops: int = 12):
    """Compare classifier and oracle over the generated families.

    Returns (comparisons, mismatches) where each mismatch records the family
    name, the two descriptors, the hints, the classifier's :class:`Reason`
    and the oracle's verdict.
    """
    if max_ops > ORACLE_MAX_OPS:
        raise OracleBoundError(
            f"bound {max_ops} exceeds the enumeration limit {ORACLE_MAX_OPS}"
        )
    if max_ops < 2:
        # no universe holds a pair to compare: the sweep would pass vacuously
        raise OracleBoundError(f"bound {max_ops} is below 2, the smallest pair")
    comparisons = 0
    mismatches = []
    for name, universe, hints in equivalence_scenarios(max_ops):
        for a, b in itertools.combinations(universe, 2):
            if a.process != b.process or a == b:
                continue
            reason = logically_parallel(a, b, hints)
            reference = oracle_logically_parallel(a, b, universe, hints)
            comparisons += 1
            if reason.parallel != reference:
                mismatches.append((name, a, b, hints, reason, reference))
    return comparisons, mismatches


# --------------------------------------------------------------------------
# assignment validation


@dataclass
class ValidationReport:
    """Outcome of checking an assignment against its pattern."""

    matching_violations: list = field(default_factory=list)
    lost_parallelism: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.matching_violations and not self.lost_parallelism


def _serial_bucket_key(op: OpDescriptor, hints: InfoHints):
    """The bucket key under which this op could be classifier-serial with
    peers, or None when no peer can be.

    Only ops sharing a bucket can yield a non-parallel verdict, which keeps
    validation near-linear instead of quadratic in the pattern size.
    """
    kind, context = op.kind, op.context
    if kind in TWO_SIDED:
        # the context as its (family, key) pair: a plain tuple hashes in C
        ctx = (context.family, context.key)
        if hints.wildcards_possible:
            scope = op.endpoint if ctx[0] is ContextFamily.ENDPOINT else None
            return ("ctx", ctx, scope)
        tag = op.tag
        return ("s" if kind is OpKind.SEND else "r", ctx, op.endpoint,
                op.target, tag.raw if tag else None)
    if kind is OpKind.COLLECTIVE:
        return ("coll", context.family, context.key)
    if kind is OpKind.ACCUMULATE and not hints.accumulate_ordering_none:
        return ("atomic", op.window, op.target, op.target_location)
    return None


def check_bound(pattern: "CommPattern", assignment: "Assignment"):
    """Raise :class:`IncompleteAssignmentError` when an op is left unbound.
    A stamped pattern's op ids are its op positions, so no op is read, and
    a :class:`~mpxlab.patterns.base.StampedBindings` binds positions: when
    both are positions, the unbound ones are those past the bound count."""
    from .patterns.base import StampedBindings

    ids = range(len(pattern.ops)) if pattern.stamp else [op[0] for op in pattern.ops]
    bound = assignment.bindings
    if type(bound) is StampedBindings:
        bound = range(len(bound))
    if type(ids) is range and type(bound) is range:
        missing = ids[len(bound):]
    else:
        missing = list(itertools.filterfalse(bound.__contains__, ids))
    if missing:
        raise IncompleteAssignmentError(
            f"assignment leaves {len(missing)} ops unbound (first: {missing[0]})"
        )


def matching_violations(pattern: "CommPattern", assignment: "Assignment") -> list:
    """Intended send/receive pairs whose bound descriptors fail the matching
    rule, as (send id, receive id, why) triples, in the order of
    ``pattern.pairs``.

    Raises :class:`IncompleteAssignmentError` when an op is left unbound.
    :func:`mpxlab.simulator.run` finds the same list without this pass: its
    engine decides each intended pair as the send issues, checking by the
    rule of :meth:`Assignment.pair_matches` only a send it did not pair with
    its partner, and ``run()`` calls this full check only when the engine
    fails.
    """
    from .patterns.base import StampedBindings

    check_bound(pattern, assignment)
    bindings, requests = assignment.bindings, assignment.pair_requests
    if not (pattern.stamp and type(bindings) is StampedBindings):
        pair_matches = assignment.pair_matches
        return [(send_id, recv_id, CANNOT_MATCH)
                for send_id, recv_id in pattern.pairs
                if not pair_matches(send_id, recv_id)]
    # a stamped pattern, one process's ops and descriptors at a time, as
    # plain tuples; every copy of a template send names its partner
    n = pattern.stamp
    every = range(n)
    sends = [i for i, op in enumerate(pattern.template) if op[3] is _SEND]
    blocks = [bindings.at(p, every) for p in range(pattern.num_processes)]
    out = []
    for p, descs in enumerate(blocks):
        for (send_id, _, _, _, _, _, _, recv_id, _, _, _, _), i \
                in zip(pattern.ops.at(p, sends), sends):
            if not pair_meets(descs[i], blocks[recv_id // n][recv_id % n],
                              requests):
                out.append((send_id, recv_id, CANNOT_MATCH))
    return out


def validate_assignment(pattern: "CommPattern", assignment: "Assignment") -> ValidationReport:
    """Check matching correctness and surviving concurrency of an assignment.

    Violations are intended send/receive pairs whose bound descriptors fail
    the matching rule (:func:`matching_violations`).  Lost parallelism is
    every intended-concurrent pair that either the classifier deems serial or
    that the assignment binds to one matching entity across distinct threads
    (which a per-entity channel map would serialize).  Pairs within a single
    thread are exempt from the entity rule: one thread issues serially anyway.
    """
    from .patterns.base import PatternOp

    report = ValidationReport(matching_violations(pattern, assignment))
    hints = assignment.hints
    bindings, entity = assignment.bindings, assignment.entity

    # lost parallelism, representative process: patterns are torus-symmetric
    probe = pattern.representative_process
    if pattern.stamp:
        ops = list(map(PatternOp._make,
                       pattern.ops.at(probe, range(pattern.stamp))))
    else:
        ops = [op for op in pattern.ops if op.process == probe]
    descs = {pop.op_id: bindings[pop.op_id] for pop in ops}
    entity_of = {op_id: entity(desc) for op_id, desc in descs.items()}
    by_entity: dict = {}
    by_bucket: dict = {}
    for pop in ops:
        desc = descs[pop.op_id]
        by_entity.setdefault(entity_of[pop.op_id], []).append(pop)
        key = _serial_bucket_key(desc, hints)
        if key is not None:
            by_bucket.setdefault(key, []).append(pop)

    seen = set()

    def consider(x, y):
        xid, yid = x.op_id, y.op_id
        pair = (xid, yid) if xid < yid else (yid, xid)
        if pair in seen:
            return
        seen.add(pair)
        if not pattern.intended_concurrent(x, y):
            return
        serial = not logically_parallel(descs[xid], descs[yid], hints).parallel
        shared_entity = x.thread != y.thread and entity_of[xid] == entity_of[yid]
        if serial or shared_entity:
            report.lost_parallelism.append(pair)

    for group in itertools.chain(by_entity.values(), by_bucket.values()):
        for x, y in itertools.combinations(group, 2):
            consider(x, y)

    report.lost_parallelism.sort()
    return report
