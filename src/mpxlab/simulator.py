"""Deterministic discrete-event engine for (pattern, assignment, channels).

Time is abstract integer ticks; all claims the engine supports are ratios or
counts, never wall-clock predictions.  Threads are simulation actors stepped
in (process, thread) order, and transfers serialize in issue order per
(process, channel) instance, which orders classifier-serial ops as well:
every policy maps two of one process to a common instance.  One loop runs
every kind; in a polling pattern, each node's thread 0 polls at phase end.

The engine runs one iteration and derives the rest.  Each phase ends with
every clock past its transfers, and the queues start empty each iteration,
so iteration ``i`` is the first shifted by ``i`` makespans: makespan, counts
and occupancy scale by the iteration count, the concurrencies are the
first iteration's, and a trace repeats the first iteration's events.

Matching uses one posted-receive queue per scope.  A phase posts its
receives before its sends issue, and every generator pairs a send with a
receive of the same phase, so every receive is posted before its message
arrives: a receive only posts, and a send takes the earliest-posted
matching receive, each queue position it traverses counting one attempt.
A send that finds none is refused as a pattern that is not closed.  The
queue is indexed by exact (source, tag), so the count of a scan comes from
the rank of its match rather than from walking the queue; until a receive
is posted to one of a queue's wildcard buckets, a send there looks up only
its exact bucket.  A scope holds its one posted receive bare until a
second posting promotes it to a queue; the take that empties a scope drops
it.  Scopes and buckets are MPI's triplet rule as :mod:`mpxlab.semantics`
states it once.  The engine decides every intended pair as its send issues:
a send matched with its intended partner confirms that pair, and any other
is checked on the spot by the rule :meth:`Assignment.pair_matches` states,
:func:`mpxlab.semantics.pair_meets`.

Partitioned requests match once per message: one attempt and one success per
request pair per iteration, independent of the partition count.  Their
shared-completion cost appears instead as per-iteration wait-block events
for every thread but the completing one, plus one barrier per iteration.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple

from .channels import ChannelPool, MappingPolicy, PolicyKind, rule_of
from .errors import (DoubleReadyError, InvalidArgumentError,
                     InvalidAssignmentError, InvalidTransitionError,
                     MpxlabError, UnsupportedPatternError)
from .model import TWO_SIDED, Direction, OpKind
from .patterns.base import Assignment, CommPattern, Mechanism, PatternKind
from .patterns.irregular import collective_footprint
from .semantics import (CANNOT_MATCH, check_bound, is_wildcard_bucket,
                        match_keys, matching_violations, pair_meets,
                        send_covers)


class EventKind(Enum):
    ISSUE = "issue"
    CHANNEL_ACQUIRE = "channel-acquire"
    TRANSFER = "transfer"
    MATCH_ATTEMPT = "match-attempt"
    MATCH_SUCCESS = "match-success"
    WAIT_BLOCK = "wait-block"
    WAIT_RELEASE = "wait-release"
    BARRIER = "barrier"
    PROBE_ITERATION = "probe-iteration"


class Event(NamedTuple):
    """One traced engine step; a tuple, as a run may build hundreds of
    thousands."""

    time: int
    kind: EventKind
    op_id: int | None = None
    channel: tuple[int, int] | None = None
    iteration: int = 0


# abstract tick costs: one message issue, one channel transfer, one
# synchronisation wait and one probe
ISSUE_TICKS = 1
TRANSFER_TICKS = 4
SYNC_WAIT_TICKS = 2
PROBE_TICKS = 1


CSV_HEADER = [
    "mechanism", "makespan", "max_concurrency", "match_attempts",
    "sync_waits", "probes", "objects", "footprint_bytes",
]


@dataclass
class SimReport:
    mechanism: str
    variant: str
    seed: int
    makespan: int
    max_concurrent_transfers: int
    match_attempts_total: int
    matches_total: int
    sync_wait_events: int
    probe_iterations: int
    barriers_total: int
    channel_occupancy: dict[str, int]
    memory_footprint_bytes: int
    objects: dict[str, int]
    phase_concurrency: dict[int, int]
    events: list[Event] = field(default_factory=list, repr=False)

    @property
    def objects_total(self) -> int:
        return sum(v for k, v in self.objects.items()
                   if not k.endswith("per_process"))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "events"}
        # string keys: sort_keys then orders phases lexically ("10" < "2"),
        # as every pinned report does
        out["phase_concurrency"] = {str(k): v
                                    for k, v in self.phase_concurrency.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def csv_row(self) -> list:
        label = self.mechanism + (f"-{self.variant}" if self.variant else "")
        return [label, self.makespan, self.max_concurrent_transfers,
                self.match_attempts_total, self.sync_wait_events,
                self.probe_iterations, self.objects_total,
                self.memory_footprint_bytes]


# the channel policy a library would pair with each mechanism
DEFAULT_POLICY = {
    Mechanism.COMMUNICATORS: PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR,
    Mechanism.TAGS_WITH_HINTS: PolicyKind.TAG_BITS_ONE_TO_ONE,
    Mechanism.ENDPOINTS: PolicyKind.ENDPOINT_IDENTITY,
    Mechanism.PARTITIONED: PolicyKind.PARTITION_INDEX,
    Mechanism.WINDOWS: PolicyKind.HASH_COMMUNICATOR,
}


def channel_policy(kind: PolicyKind | None, assignment: Assignment,
                   pool: ChannelPool) -> MappingPolicy:
    """The mapping policy of ``kind`` (the mechanism's default when None),
    filled in from the assignment.

    Round-robin registers the assignment's communicators in creation order,
    then every other key its ops map through, in first-binding order, each
    distinct key once, read from the descriptors that
    ``StampedBindings.tuples()`` gives a block at a time.  A kind the
    assignment cannot express raises before any simulation starts.
    """
    kind = kind or DEFAULT_POLICY[assignment.mechanism]
    layout = assignment.hints.tag_vci_bits
    needs = {
        PolicyKind.TAG_BITS_ONE_TO_ONE: ("a tag-bit layout", layout),
        PolicyKind.ENDPOINT_IDENTITY: ("endpoints", assignment.endpoints_comm),
        PolicyKind.PARTITION_INDEX: ("partitioned requests", assignment.requests),
    }
    if kind in needs and not needs[kind][1]:
        raise UnsupportedPatternError(
            f"policy {kind.value} needs {needs[kind][0]}, which the "
            f"{assignment.mechanism.value} assignment does not create"
        )
    policy = MappingPolicy(kind, layout=layout)
    if kind is PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR:
        for comm in assignment.comms:
            policy.register_communicator(comm.context_id, pool)
        key_of, _ = rule_of(policy)
        descs = assignment.bindings.tuples()
        for key in dict.fromkeys(map(key_of, itertools.repeat(policy), descs)):
            policy.register_communicator(key, pool)
    return policy


def _footprint(pattern: CommPattern, assignment: Assignment,
               result_bytes: int) -> int:
    """Payload bytes resident per run: message buffers plus, per process,
    the collective's ``result_bytes``."""
    if assignment.mechanism is Mechanism.PARTITIONED and assignment.requests:
        total = sum(r.num_partitions * r.partition_size
                    for r in assignment.requests.values())
    else:
        total = len(pattern.ops) * pattern.payload_bytes
    return total + pattern.num_processes * result_bytes


class _Queue:
    """One matching scope's posted queue, indexed by exact (source, tag).

    Within a scope the context and the receiving rank already agree, so a
    send matches a receive exactly when the receive's bucket is among those
    :func:`mpxlab.semantics.send_covers` gives for the send's: the triplet
    rule of :func:`mpxlab.semantics.can_match`, read from the same keys.

    A scope's second posting promotes its bare first entry to a queue
    (:func:`_post`).  ``order`` holds the posting numbers of the live
    entries, ascending, and each bucket holds its (posting number, item)
    entries in the same order; posting numbers only grow, so both are
    appended to.  The entry a linear scan would stop at is the smallest head
    among the buckets a send covers; the positions that scan traverses are
    its rank in ``order`` plus one, or the whole queue when no bucket has an
    entry.  An entry that nothing can match, in bucket None, lives only in
    ``order``.  Until a receive is posted to a wildcard bucket, a send can
    only take from its exact bucket, so ``wild`` records whether one ever
    was.
    """

    __slots__ = ("order", "buckets", "wild")

    def __init__(self, bucket, key, item):  # a promoted bare entry
        self.order, self.buckets, self.wild = [], {}, False
        self.add(bucket, key, item)

    def add(self, bucket, key, item):
        """Post ``item`` to ``bucket`` under posting number ``key``."""
        self.order.append(key)
        if bucket is None:
            return
        entries = self.buckets.get(bucket)
        if entries is None:
            entries = self.buckets[bucket] = []
            if is_wildcard_bucket(bucket):
                self.wild = True
        entries.append((key, item))

    def take(self, bucket) -> tuple[int, object]:
        """Remove the first entry in scan order that a send from ``bucket``
        matches; return (positions scanned, its item or None)."""
        buckets = self.buckets
        if self.wild:
            heads = [(buckets[b][0][0], b) for b in send_covers(bucket)
                     if b in buckets]
            if not heads:
                return len(self.order), None
            key, bucket = min(heads)
            entries = buckets[bucket]
        else:
            entries = buckets.get(bucket)
            if entries is None:
                return len(self.order), None
            key = entries[0][0]
        item = entries.pop(0)[1]
        if not entries:
            del buckets[bucket]
        rank = bisect_left(self.order, key)
        del self.order[rank]
        return rank + 1, item


def _post(queues, scope, bucket, key, item):
    """Post ``item`` to ``bucket`` of ``scope`` under posting number ``key``:
    a scope's first receive is held bare, as ``(bucket, key, item)``."""
    held = queues.get(scope)
    if held is None:
        queues[scope] = (bucket, key, item)
        return
    if type(held) is tuple:
        held = queues[scope] = _Queue(*held)
    held.add(bucket, key, item)


def _take(queues, scope, bucket) -> tuple[int, object]:
    """Take for a send from ``bucket`` the first receive of ``scope`` in
    scan order that it matches, and drop the scope once it holds none:
    (positions scanned, the receive's item or None)."""
    held = queues.get(scope)
    if held is None:  # nothing is posted to the scope
        return 0, None
    if type(held) is tuple:  # one bare entry: one position to scan
        taken = bucket is not None and held[0] == bucket \
            or held[0] in send_covers(bucket)
        if taken:
            del queues[scope]
        return 1, held[2] if taken else None
    scanned, item = held.take(bucket)
    if not held.order:
        del queues[scope]
    return scanned, item


def _max_overlap(keys, P=1) -> int:
    """Most transfers in flight at once on one of ``P`` processes, given a
    ``start * P + process`` key per process a transfer holds (with ``P`` 1,
    its start tick).

    Every transfer lasts ``TRANSFER_TICKS`` and ends before one starting at
    its end tick, so a process's count peaks at some start: the transfers
    then in flight started in the window of ``TRANSFER_TICKS`` ticks up to
    and including it, their keys ``k * P`` below its own for ``k`` below
    ``TRANSFER_TICKS``.  Keys repeat heavily, so they are tallied once, and
    each key's count adds the tallies before it in its window.
    """
    tally = Counter(keys)
    get, before = tally.get, range(P, TRANSFER_TICKS * P, P)
    most = 0
    for key, n in tally.items():
        for k in before:
            n += get(key - k, 0)
        if n > most:
            most = n
    return most


def _check_index(request, i):
    """Refuse partition ``i`` when ``request`` has no such partition."""
    if not 0 <= i < request.num_partitions:
        raise InvalidArgumentError(
            f"partition {i} out of range 0..{request.num_partitions - 1}")


def _pair_requests(requests) -> dict[int, int]:
    """Pair partitioned requests: send request id -> receive request id.

    Each send, in id order, takes the first untaken receive in id order that
    :func:`mpxlab.semantics.requests_match` accepts.  Those are the receives
    with the send's (context, owner, peer, tag) seen from the other side, so
    the send takes the head of that key's queue.
    """
    by_id = sorted(requests, key=lambda r: r.request_id)
    recvs_of: dict[tuple, deque] = {}
    for r in by_id:
        if r.direction is Direction.RECV:
            recvs_of.setdefault(
                (r.comm.context_id, r.peer, r.owner, r.tag.raw), deque()
            ).append(r.request_id)
    pair_of = {}
    for s in by_id:
        if s.direction is Direction.SEND:
            queue = recvs_of.get((s.comm.context_id, s.owner, s.peer, s.tag.raw))
            if queue:
                pair_of[s.request_id] = queue.popleft()
    return pair_of


class _Engine:
    def __init__(self, pattern, assignment, pool, policy, seed, events=True):
        self.pattern = pattern
        self.assignment = assignment
        self.pool = pool
        self.policy = policy
        self.seed = seed
        # None when the caller reads only the counters: no Event is built
        self.events: list[Event] | None = [] if events else None
        # thread (p, t) reads clock slot p * T + t, and channel c of process
        # p is instance p * R + c
        self.clocks = [0] * (pattern.num_processes * pattern.threads_per_process)
        self.channel_free: dict[int, int] = {}
        self.channel_busy: dict[int, int] = {}
        self.attempts = 0
        self.matches = 0
        self.waitblocks = 0
        self.barriers = 0
        self.probes = 0
        # phase -> most transfers in flight at once on one process
        self.concurrency: dict[int, int] = {}
        # (send, partner, why) of every intended pair that cannot match,
        # decided as the sends issue and sorted by send id after the walk
        self.violations: list[tuple[int, int, str]] = []
        self.messages = 0  # of one iteration, counted by the walk
        # the collective's steps and result bytes per process; a pattern
        # without one takes one step and keeps no result
        self.steps, self.result_bytes = collective_footprint(
            assignment.mechanism, pattern.threads_per_process,
            pattern.payload_bytes,
        ) if pattern.kind is PatternKind.MULTITHREADED_ALLREDUCE else (1, 0)

    # -- small helpers ------------------------------------------------

    def emit(self, time, kind, op_id=None, channel=None):
        if self.events is not None:
            self.events.append(Event(time, kind, op_id, channel))

    # -- main loop: one walk of the pattern in issue order, no per-op state --

    def run(self) -> SimReport:
        self._iteration()
        return self._report()

    def _iteration(self):
        """Run one iteration from the current clocks and channel state; it
        ends with all clocks equal, none before a transfer's end.  ``run()``
        runs it once from zero clocks; the full-loop reference of
        ``tests/test_iterations.py`` repeats it on carried state.

        The walk issues each phase's receives, then its other ops, each in
        (process, thread, op id) order.  Every block of ``pattern.ops`` copies
        the template's thread, kind and phase, and a stamped block holds one
        process, so a phase needs only the template indexes of its receives
        and of its other ops, in the template's issue order
        (:attr:`CommPattern.issue_slots`): op ``base + i`` for the first op
        id ``base`` of each block and each index ``i``.  A polling
        pattern's receives are never posted and get no index; its sends go
        to their destination node.  Each send's channel pair is memoised on
        the key the policy reads from its descriptor, and a scope's posted
        receives live until a take empties it.  The pass that indexes the
        template's phases also counts the messages of one iteration: the
        sends of the pattern, or the send requests under partitioned.

        Each send with a partner decides its pair as it issues: the pair is
        confirmed when the matcher pairs the send with its partner or, under
        partitioned, when their requests are paired, the partner's read from
        its arrival test in the same phase; otherwise it is checked
        on the spot by :func:`mpxlab.semantics.pair_meets` on the two
        descriptors, the rule of :meth:`Assignment.pair_matches`, and
        recorded in ``violations`` when it fails.  A polled send is never
        confirmed.

        The two views' ``at`` statements read a block's ops of a phase and
        their descriptors, the block addressed by its first op id, so a
        one-block binding serves a stamped pattern too.  A stamped view
        derives them as plain tuples; no per-op record outlives its block.
        """
        pattern, assignment, pool = self.pattern, self.assignment, self.pool
        bindings, requests = assignment.bindings, assignment.requests
        partitioned = assignment.mechanism is Mechanism.PARTITIONED
        polled = pattern.kind is PatternKind.LEGION_POLLING
        P, T = pattern.num_processes, pattern.threads_per_process
        R, policy = pool.num_channels, self.policy
        key_of, channels_of = rule_of(policy)
        pairs: dict = {}  # the policy's key -> its (local, remote) pair
        queues: dict = {}  # scope -> its posted receives, bare or a _Queue
        post, take, pready = _post, _take, OpKind.PARTITION_READY
        pair_of = {}
        reqs_of: dict[int, list] = {}
        # request id -> a bitmask of the partitions readied (a send request)
        # or arrived (a receive request) this iteration
        filled: dict[int, int] = dict.fromkeys(requests, 0)
        arrivals: dict[int, int] = {}  # receive request id -> latest arrival
        clocks, events, violations = self.clocks, self.events, self.violations
        pair_requests = assignment.pair_requests
        free, busy, concurrency = self.channel_free, self.channel_busy, self.concurrency
        free_at, busy_of, SEND = free.get, busy.get, Direction.SEND
        SEND_OP, RECV_OP = OpKind.SEND, OpKind.RECV
        if partitioned:
            pair_of = _pair_requests(requests.values())
            t0 = max(clocks)
            for r in sorted(requests.values(), key=lambda r: r.request_id):
                reqs_of.setdefault(r.owner, []).append(r)
            for _ in pair_of:
                self.emit(t0, EventKind.MATCH_ATTEMPT)
                self.emit(t0, EventKind.MATCH_SUCCESS)
            self.attempts += len(pair_of)
            self.matches += len(pair_of)

        # the blocks, by their first op ids, and their ops and descriptors
        ops_at, descs_at, bases = pattern.ops.at, bindings.at, pattern.ops.bases
        n, every = len(pattern.template), range(len(pattern.template))
        blocks: dict[int, list] = {}  # a partner's block, read once it is needed

        def issued(base, indexes):
            """(op, descriptor) of each op of a block at template indexes."""
            return zip(ops_at(base, indexes), descs_at(base, indexes))

        # per phase: the template indexes of its receives and its other ops,
        # in issue order
        by_phase: dict[int, tuple[list, list]] = {}
        sends = 0
        for slot in pattern.issue_slots:
            for i, _, _, op_kind, _, _, _, _, phase, _, _, _ in slot:
                recv = op_kind is RECV_OP
                sends += op_kind is SEND_OP
                if not (polled and recv):
                    by_phase.setdefault(phase, ([], []))[not recv].append(i)
        self.messages = (sum(r.direction is SEND for r in requests.values())
                         if partitioned else len(bases) * sends)

        postings = itertools.count()
        unmatched = 0  # sends that found no posted receive
        attempts = matches = 0  # written back after the walk
        # PatternOp fields by position: one unpack costs less than several reads
        for phase in sorted(by_phase):
            recvs, others = by_phase[phase]
            last = 0  # the latest transfer end of this phase
            incoming: dict[int, list[tuple[int, int]]] = {}
            starts = []  # start * P + process, per process a transfer holds
            tested = {}  # op id -> partition of the phase's arrival tests
            for base in bases:
                for (op_id, p, t, _, _, _, _, _, _, _, _, _), desc \
                        in issued(base, recvs):
                    slot = p * T + t
                    t_issue = clocks[slot]
                    clocks[slot] = t_issue + ISSUE_TICKS
                    if events is not None:
                        self.emit(t_issue, EventKind.ISSUE, op_id)
                    # partition arrival is tracked on the shared request
                    if desc[0] in TWO_SIDED:
                        scope, bucket = match_keys(desc)
                        post(queues, scope, bucket, next(postings), op_id)
                    elif partitioned:
                        tested[op_id] = desc[9]
            for base in bases:
                for (op_id, p, t, _, _, peer, _, partner, _, _, _, _), desc \
                        in issued(base, others):
                    kind, _, _, _, _, _, _, _, _, partition = desc
                    slot = p * T + t
                    t_issue = clocks[slot]
                    clocks[slot] = t_issue + ISSUE_TICKS
                    key = key_of(policy, desc)
                    pair = pairs.get(key)
                    if pair is None:
                        pair = pairs[key] = channels_of(policy, key, pool)
                    lch, rch = pair
                    paired = None
                    if partition is not None:
                        rid, idx = partition
                        if peer is None:
                            peer = requests[rid].peer
                        if kind is pready:
                            paired = pair_of.get(rid)
                    confirmed = not polled
                    if partitioned:  # the partner's partition, if tested
                        mate = tested.get(partner)
                        confirmed = paired is not None and mate is not None \
                            and mate[0] == paired
                    local = p * R + lch
                    remote = None if peer is None else peer * R + rch
                    if remote == local:
                        remote = None
                    # without a remote instance, remote is None: never a key
                    start = max(t_issue, free_at(local, 0), free_at(remote, 0))
                    end = free[local] = start + TRANSFER_TICKS
                    busy[local] = busy_of(local, 0) + TRANSFER_TICKS
                    if remote is not None:
                        free[remote] = end
                        busy[remote] = busy_of(remote, 0) + TRANSFER_TICKS
                    if end > last:
                        last = end
                    starts.append(start * P + p)
                    if peer is not None and peer != p and 0 <= peer < P:
                        starts.append(start * P + peer)
                    if events is not None:
                        channel = divmod(local if remote is None else min(local, remote), R)
                        events += (Event(t_issue, EventKind.ISSUE, op_id),
                                   Event(start, EventKind.CHANNEL_ACQUIRE, op_id, channel),
                                   Event(start, EventKind.TRANSFER, op_id, channel))
                    if partition is not None and kind is pready:
                        req = requests[rid]
                        _check_index(req, idx)
                        if req.direction is not SEND:
                            raise InvalidTransitionError("pready on a receive request")
                        if not partitioned:  # only a partitioned run starts requests
                            raise InvalidTransitionError("pready while inactive")
                        if filled[rid] >> idx & 1:
                            raise DoubleReadyError(f"partition {idx} already marked ready")
                        filled[rid] |= 1 << idx
                        if paired is not None:
                            _check_index(requests[paired], idx)
                            filled[paired] |= 1 << idx
                            arrivals[paired] = max(arrivals.get(paired, end), end)
                    if polled:  # peer is the destination node
                        incoming.setdefault(peer, []).append((end, op_id))
                    elif kind in TWO_SIDED:  # a send: nothing else matches
                        scope, bucket = match_keys(desc)
                        scanned, rid = take(queues, scope, bucket)
                        attempts += scanned
                        unmatched += rid is None
                        matches += rid is not None
                        if rid != partner:
                            confirmed = False
                        if events is not None:
                            events += [Event(end, EventKind.MATCH_ATTEMPT,
                                             op_id)] * scanned
                            if rid is not None:
                                self.emit(end, EventKind.MATCH_SUCCESS, op_id)
                    if confirmed or partner is None:
                        continue
                    # the partner's block, by its first op id
                    first = partner - partner % n
                    block = blocks.get(first)
                    if block is None:
                        block = blocks[first] = descs_at(first, every)
                    if not pair_meets(desc, block[partner - first], pair_requests):
                        violations.append((op_id, partner, CANNOT_MATCH))
            for node in sorted(incoming):
                self._poll(node, sorted(incoming[node]))
            if others:
                concurrency[phase] = max(concurrency.get(phase, 0),
                                         _max_overlap(starts, P))
            # one traffic direction at a time: the next phase starts after
            # this one drains, so per-phase concurrency is well defined
            phase_end = max(last, max(clocks))
            clocks[:] = [phase_end] * len(clocks)

        self.attempts += attempts
        self.matches += matches
        violations.sort()  # by send id: every send issues once
        if unmatched:
            raise MpxlabError(
                f"{unmatched} sends found no posted receive; the "
                f"pattern is not closed"
            )

        if partitioned:
            self._partitioned_iteration_end(reqs_of, filled, arrivals)
        if self.steps > 1:  # the collective's user-driven intranode steps
            clocks[:] = [c + (self.steps - 1) * SYNC_WAIT_TICKS for c in clocks]

    def _partitioned_iteration_end(self, reqs_of, filled, arrivals):
        """``reqs_of`` maps each owner process to its requests by id,
        ``filled`` each request to the bitmask of its readied or arrived
        partitions, and ``arrivals`` each receive request to its latest
        partition arrival."""
        T, clocks = self.pattern.threads_per_process, self.clocks
        for p in range(self.pattern.num_processes):
            proc_reqs = reqs_of.get(p, ())
            done = 0
            for r in proc_reqs:
                if r.direction is Direction.RECV:
                    done = max(done, arrivals.get(r.request_id, 0))
            # thread 0 of each process completes the requests; the others wait
            done = max([done] + clocks[p * T:(p + 1) * T])
            clocks[p * T] = done
            for slot in range(p * T + 1, (p + 1) * T):
                self.emit(clocks[slot], EventKind.WAIT_BLOCK)
                self.waitblocks += 1
                clocks[slot] = done + SYNC_WAIT_TICKS
                self.emit(clocks[slot], EventKind.WAIT_RELEASE)
            for r in proc_reqs:
                if filled[r.request_id].bit_count() < r.num_partitions:
                    raise MpxlabError(
                        f"request {r.request_id} incomplete at iteration end"
                    )
        barrier_time = max(clocks)
        self.emit(barrier_time, EventKind.BARRIER)
        self.barriers += 1
        clocks[:] = [barrier_time] * len(clocks)

    def _poll(self, node, msgs):
        """Thread 0 of ``node`` sweeps every context once per message, in
        (arrival, send id) order and not before it arrives, and once more."""
        assignment, events = self.assignment, self.events
        contexts = (assignment.objects_created["communicators"]
                    if assignment.mechanism is Mechanism.COMMUNICATORS else 1)
        poller = node * self.pattern.threads_per_process
        pc, sweep = self.clocks[poller], contexts * PROBE_TICKS
        for end, sid in msgs + [(None, None)]:
            if events is not None:
                events += [Event(pc + i, EventKind.PROBE_ITERATION)
                           for i in range(0, sweep, PROBE_TICKS)]
            pc += sweep
            if sid is not None:
                pc = max(pc, end)
                if events is not None:
                    events += (Event(pc, EventKind.MATCH_ATTEMPT, sid),
                               Event(pc, EventKind.MATCH_SUCCESS, sid))
        self.clocks[poller] = pc
        self.probes += contexts * (len(msgs) + 1)
        self.attempts += len(msgs)
        self.matches += len(msgs)

    # -- reporting ------------------------------------------------------

    def _report(self) -> SimReport:
        """The report of ``pattern.iterations`` shifted copies of the one
        iteration run; no transfer window spans two of them.

        Nor does one span two phases: a phase ends once all its transfers
        have, and the next phase starts no earlier.  So a process's most
        transfers in flight at once are those of one phase, and the run's
        concurrency is the largest phase concurrency.
        """
        pattern, assignment = self.pattern, self.assignment
        n = pattern.iterations
        span = max(self.clocks)  # each phase ends past its transfers
        R = self.pool.num_channels
        occupancy = {
            "p{}c{}".format(*divmod(instance, R)): n * busy
            for instance, busy in sorted(self.channel_busy.items())
        }
        if self.events is not None:
            # stable: ties keep issue order, and iteration i's events all
            # fall in [i * span, (i + 1) * span], after iteration i - 1's
            events = self.events
            events.sort(key=lambda ev: ev.time)
            events += [Event(time + i * span, kind, op_id, channel, i)
                       for i in range(1, n)
                       for time, kind, op_id, channel, _ in events]
        return SimReport(
            mechanism=assignment.mechanism.value,
            variant=assignment.variant,
            seed=self.seed,
            makespan=n * span,
            max_concurrent_transfers=max(self.concurrency.values(), default=0),
            match_attempts_total=n * self.attempts,
            matches_total=n * self.matches,
            sync_wait_events=n * self.waitblocks,
            probe_iterations=n * self.probes,
            barriers_total=n * self.barriers,
            channel_occupancy=occupancy,
            memory_footprint_bytes=_footprint(pattern, assignment,
                                              self.result_bytes),
            objects=dict(assignment.objects_created),
            phase_concurrency=dict(self.concurrency),
            events=self.events or [],
        )


def run(pattern: CommPattern, assignment: Assignment,
        pool: ChannelPool | None = None, policy: PolicyKind | None = None,
        seed: int = 0, events: bool = True) -> SimReport:
    """Execute one scenario and measure concurrency, matching and sync cost.

    ``policy`` picks the channel mapping; None takes the mechanism's default.
    With ``events=False`` the engine keeps only its counters: the report's
    ``events`` is empty and every other field is the same.
    Refuses to run when the policy cannot map the assignment, an op is
    unbound, or an intended pair cannot match, checked in that order and
    before any failure of the engine itself.  Lost parallelism is not
    checked here; :func:`mpxlab.semantics.validate_assignment` reports it.
    Identical inputs always produce identical reports.

    The engine decides the intended pairs as their sends issue, checking
    by the rule of :meth:`Assignment.pair_matches` each send it did not
    pair with its partner (itself or, under partitioned, by request).  When
    the engine fails, every pair is checked, and a pair that cannot match
    is the refusal.
    """
    pool = pool or ChannelPool()
    mapping = channel_policy(policy, assignment, pool)
    check_bound(pattern, assignment)
    try:
        engine = _Engine(pattern, assignment, pool, mapping, seed, events)
        report = engine.run()
        # in send id order: generators number ops in order, as pattern.pairs
        violations = engine.violations
    except Exception:
        violations = matching_violations(pattern, assignment)
        if not violations:
            raise
    if violations:
        raise InvalidAssignmentError(
            f"{len(violations)} matching violations; first: {violations[0]}"
        )
    expected = engine.messages * pattern.iterations
    if report.matches_total != expected:
        raise MpxlabError(
            f"message conservation violated: {report.matches_total} matches "
            f"for {expected} messages"
        )
    return report
