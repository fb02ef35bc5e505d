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

Matching bookkeeping follows the posted/unexpected two-queue scheme: a
receive first scans the unexpected queue, a message scans the posted queue,
and every position traversed counts one match attempt.  Wildcard receives
take the earliest-posted matchable message; under ``allow_overtaking`` the
scan order becomes earliest-by-arrival (a published deterministic rule in
place of the standard's nondeterminism).  The queues are indexed by exact
(source, tag), so the count of a scan comes from the rank of its match
rather than from walking the queue.

Partitioned requests match once per message: one attempt and one success per
request pair per iteration, independent of the partition count.  Their
shared-completion cost appears instead as per-iteration wait-block events
for every thread but the completing one, plus one barrier per iteration.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left, insort
from collections import defaultdict, deque
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from .channels import (
    ChannelPool,
    MappingPolicy,
    PolicyKind,
    communicator_key,
    map_entity,
)
from .errors import InvalidAssignmentError, MpxlabError, UnsupportedPatternError
from .model import ANY_SOURCE, ANY_TAG, TWO_SIDED, ContextFamily, Direction, OpKind
from .patterns.base import Assignment, CommPattern, Mechanism, PatternKind
from .patterns.irregular import collective_footprint
from .semantics import matching_violations


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
    then every other key its ops map through, in first-binding order.  A
    kind the assignment cannot express raises before any simulation starts.
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
        for desc in assignment.bindings.values():
            policy.register_communicator(communicator_key(desc), pool)
    return policy


def _footprint(pattern: CommPattern, assignment: Assignment) -> int:
    """Payload bytes resident per run: message buffers plus, for collectives,
    the per-mechanism result duplication."""
    if assignment.mechanism is Mechanism.PARTITIONED and assignment.requests:
        total = sum(r.num_partitions * r.partition_size
                    for r in assignment.requests.values())
    else:
        total = len(pattern.ops) * pattern.payload_bytes
    if pattern.kind is PatternKind.MULTITHREADED_ALLREDUCE:
        _, result = collective_footprint(
            assignment.mechanism, pattern.threads_per_process,
            pattern.payload_bytes,
        )
        total += pattern.num_processes * result
    return total


def _keys(desc):
    """(scope, bucket) of a two-sided op.  A receive is posted at its own
    rank and selects a (source, tag), either part possibly a wildcard; a
    send is addressed to its target and carries (its own rank, tag)."""
    context, tag = desc.context, desc.tag
    family = context.family
    rank = (desc.endpoint if family is ContextFamily.ENDPOINT
            else desc.source[0])
    home, source = ((desc.target, rank) if desc.kind is OpKind.SEND
                    else (rank, desc.target))
    bucket = None if tag is None else (source, tag.raw)
    return (family, context.key, home), bucket


def _send_covers(bucket):
    """The posted-queue buckets whose receives can take a send from
    ``bucket``: its exact (source, tag) and the three wildcard combinations."""
    if bucket is None:
        return ()
    src, tag = bucket
    return (bucket, (ANY_SOURCE, tag), (src, ANY_TAG.raw),
            (ANY_SOURCE, ANY_TAG.raw))


class _Queue:
    """One scope's posted or unexpected queue, indexed by exact (source, tag).

    ``order`` holds the scan-order keys of the live entries, sorted, and each
    bucket holds its entries sorted by the same key.  The entry a linear scan
    would stop at is the smallest head among the buckets a selector covers;
    the positions that scan traverses are its rank in ``order`` plus one, or
    the whole queue when no bucket has an entry.  Entries that nothing can
    match live in bucket None, which no selector covers.
    """

    __slots__ = ("order", "buckets")

    def __init__(self):
        self.order: list = []
        self.buckets: dict = {}

    def add(self, bucket, key, item):
        insort(self.order, key)
        insort(self.buckets.setdefault(bucket, []), (key, item))

    def take(self, covered) -> tuple[int, object]:
        """Remove the first entry in scan order among the ``covered``
        buckets; return (positions scanned, its item or None)."""
        heads = [(self.buckets[b][0][0], b) for b in covered if b in self.buckets]
        if not heads:
            return len(self.order), None
        key, bucket = min(heads)
        entries = self.buckets[bucket]
        item = entries.pop(0)[1]
        if not entries:
            del self.buckets[bucket]
        rank = bisect_left(self.order, key)
        del self.order[rank]
        return rank + 1, item

    def covering(self, selector):
        """The buckets whose sends a receive with this (source, tag)
        selector can take."""
        if selector is None:
            return ()
        src, tag = selector
        if src != ANY_SOURCE and tag != ANY_TAG.raw:
            return (selector,)
        return [b for b in self.buckets
                if b is not None
                and (src == ANY_SOURCE or b[0] == src)
                and (tag == ANY_TAG.raw or b[1] == tag)]


class _Matcher:
    """The posted and unexpected queues of every matching scope.

    Within a scope the context and the receiving rank already agree, so a
    send matches a receive exactly when the receive's source selector covers
    the send's origin rank and its tag selector covers the send's tag: the
    triplet rule of :func:`mpxlab.semantics.can_match`.  Callers pass the
    keys of :func:`_keys`.
    """

    def __init__(self, overtaking: bool):
        self.overtaking = overtaking
        self.posted: dict = {}
        self.unexpected: dict = {}
        self._seq = itertools.count()

    def post(self, scope, bucket, op_id) -> tuple[int, tuple[int, int] | None]:
        """Post a receive; return (attempts, (send id, send end) of the
        message it matched, or None when it was queued)."""
        queue = self.unexpected.get(scope)
        attempts, hit = (0, None) if queue is None else queue.take(
            queue.covering(bucket))
        if hit is None:
            posted = self.posted.get(scope)
            if posted is None:
                posted = self.posted[scope] = _Queue()
            posted.add(bucket, next(self._seq), op_id)
        return attempts, hit

    def send(self, scope, bucket, op_id, end) -> tuple[int, int | None]:
        """Deliver a message that lands at ``end``; return (attempts, id of
        the receive it matched, or None when it was queued)."""
        queue = self.posted.get(scope)
        attempts, hit = (0, None) if queue is None else queue.take(
            _send_covers(bucket))
        if hit is None:
            seq = next(self._seq)
            unexpected = self.unexpected.get(scope)
            if unexpected is None:
                unexpected = self.unexpected[scope] = _Queue()
            unexpected.add(bucket, (end, seq) if self.overtaking else seq,
                           (op_id, end))
        return attempts, hit

    def leftovers(self) -> int:
        return sum(len(q.order) for q in self.unexpected.values())


def _max_overlap(starts) -> int:
    """Most transfers in flight at once, given their start ticks.

    Every transfer lasts ``TRANSFER_TICKS`` and ends before one starting at
    its end tick, so the count peaks at some start: the transfers then in
    flight are those that started in the window of ``TRANSFER_TICKS`` ticks
    up to and including it.
    """
    starts = sorted(starts)
    best = lo = 0
    for hi, s in enumerate(starts):
        while starts[lo] <= s - TRANSFER_TICKS:
            lo += 1
        best = max(best, hi - lo + 1)
    return best


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


# issue order of the engine loop
_BY_THREAD = attrgetter("process", "thread", "op_id")


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
        self.transfers: list[tuple[int, int, tuple[int, ...], int]] = []

    # -- small helpers ------------------------------------------------

    def emit(self, time, kind, op_id=None, channel=None):
        if self.events is not None:
            self.events.append(Event(time, kind, op_id, channel))

    def _scanned(self, op_id, attempts, at, matched_at):
        """The events of one queue scan: its attempts at tick ``at``, then
        its match at ``matched_at`` unless that is None."""
        self.events += [Event(at, EventKind.MATCH_ATTEMPT, op_id)] * attempts
        if matched_at is not None:
            self.emit(matched_at, EventKind.MATCH_SUCCESS, op_id)

    def _plan(self, ops, pair_of):
        """The rows of ``ops`` by phase: per phase, the receives' rows and
        the other ops' rows, each in the order of ``ops``.  A row is all the
        loop reads of an op, built once per run.  A receive's row is (op id,
        clock slot, matching scope, bucket).  Any other op's row is (op id,
        clock slot, phase, local channel instance, remote instance, owner
        processes, matching scope, bucket, (send request, index, paired
        receive request) of a partition it readies), each part None when
        the op has none.  Equal scopes, buckets and owner tuples are one
        object.  A polling pattern's receives are never posted and get no
        row; its sends' rows hold their destination node in place of a
        matching scope.
        """
        assignment, policy, pool = self.assignment, self.policy, self.pool
        bindings, requests = assignment.bindings, assignment.requests
        T, R = self.pattern.threads_per_process, pool.num_channels
        polled = self.pattern.kind is PatternKind.LEGION_POLLING
        share = {}.setdefault
        by_phase: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
        # PatternOp fields by position: one unpack costs less than six reads
        for op_id, p, t, op_kind, _, peer, _, _, phase, _, _, _ in ops:
            if polled and op_kind is OpKind.RECV:
                continue  # a polling thread posts no receive
            recv_rows, rows = by_phase[phase]
            desc = bindings[op_id]
            kind, partition = desc.kind, desc.partition
            slot = p * T + t
            scope = bucket = None
            if polled:
                scope = peer
            elif kind in TWO_SIDED:
                scope, bucket = _keys(desc)
                scope, bucket = share(scope, scope), share(bucket, bucket)
            if op_kind is OpKind.RECV:
                # partition arrival is tracked on the shared request
                recv_rows.append((op_id, slot, scope, bucket))
                continue
            lch, rch = map_entity(policy, desc, pool)
            local = p * R + lch
            part = None
            if partition is not None:
                rid, idx = partition
                req = requests[rid]
                if peer is None:
                    peer = req.peer
                if kind is OpKind.PARTITION_READY:
                    paired = pair_of.get(rid)
                    part = (req, idx, None if paired is None else requests[paired])
            remote = None if peer is None else peer * R + rch
            owners = (p,) if peer is None or peer == p else (min(p, peer), max(p, peer))
            rows.append((op_id, slot, phase, local,
                         None if remote == local else remote,
                         share(owners, owners), scope, bucket, part))
        return by_phase

    # -- main loop: run() reports once the loop's plan rows are freed --

    def run(self) -> SimReport:
        self._iteration()
        return self._report()

    def _schedule_transfer(self, op_id, phase, local, remote, owners, t_issue):
        free, busy = self.channel_free, self.channel_busy
        start = max(t_issue, free.get(local, 0))
        if remote is not None:
            start = max(start, free.get(remote, 0))
        end = start + TRANSFER_TICKS
        free[local] = end
        busy[local] = busy.get(local, 0) + TRANSFER_TICKS
        if remote is not None:
            free[remote] = end
            busy[remote] = busy.get(remote, 0) + TRANSFER_TICKS
        if self.events is not None:
            channel = divmod(local if remote is None else min(local, remote),
                             self.pool.num_channels)
            self.emit(start, EventKind.CHANNEL_ACQUIRE, op_id, channel)
            self.emit(start, EventKind.TRANSFER, op_id, channel)
        self.transfers.append((start, end, owners, phase))
        return end

    def _iteration(self):
        """Run one iteration from the current clocks, channel and request
        state; it ends with all clocks equal, none before a transfer's end."""
        pattern, assignment = self.pattern, self.assignment
        partitioned = assignment.mechanism is Mechanism.PARTITIONED
        polled = pattern.kind is PatternKind.LEGION_POLLING
        pair_of = {}
        reqs_of: dict[int, list] = {}
        arrivals: dict[int, int] = {}  # receive request id -> latest arrival
        clocks, events = self.clocks, self.events
        if partitioned:
            pair_of = _pair_requests(assignment.requests.values())
            t0 = max(clocks)
            for r in sorted(assignment.requests.values(),
                            key=lambda r: r.request_id):
                r.start()
                reqs_of.setdefault(r.owner, []).append(r)
            for _ in pair_of:
                self.emit(t0, EventKind.MATCH_ATTEMPT)
                self.emit(t0, EventKind.MATCH_SUCCESS)
            self.attempts += len(pair_of)
            self.matches += len(pair_of)

        # per phase: receives, then sends, each in (process, thread, op) order
        by_phase = self._plan(sorted(pattern.ops, key=_BY_THREAD), pair_of)
        matcher = _Matcher(assignment.hints.allow_overtaking)
        for phase in sorted(by_phase):
            recv_rows, send_rows = by_phase[phase]
            mark = len(self.transfers)
            incoming: dict[int, list[tuple[int, int]]] = {}
            for op_id, slot, scope, bucket in recv_rows:
                t_issue = clocks[slot]
                clocks[slot] = t_issue + ISSUE_TICKS
                if events is not None:
                    self.emit(t_issue, EventKind.ISSUE, op_id)
                if scope is not None:
                    attempts, hit = matcher.post(scope, bucket, op_id)
                    self.attempts += attempts
                    self.matches += hit is not None
                    if events is not None:
                        self._scanned(op_id, attempts, t_issue, None if hit
                                      is None else max(t_issue, hit[1]))
            for (op_id, slot, phase, local, remote, owners,
                 scope, bucket, part) in send_rows:
                t_issue = clocks[slot]
                clocks[slot] = t_issue + ISSUE_TICKS
                if events is not None:
                    self.emit(t_issue, EventKind.ISSUE, op_id)
                end = self._schedule_transfer(op_id, phase, local, remote,
                                              owners, t_issue)
                if part is not None:
                    req, idx, peer_req = part
                    req.pready(idx)
                    if peer_req is not None:
                        peer_req.deliver(idx)
                        rid = peer_req.request_id
                        arrivals[rid] = max(arrivals.get(rid, end), end)
                if polled:  # the scope is the destination node
                    incoming.setdefault(scope, []).append((end, op_id))
                elif scope is not None:  # a send: nothing else matches
                    attempts, rid = matcher.send(scope, bucket, op_id, end)
                    self.attempts += attempts
                    self.matches += rid is not None
                    if events is not None:
                        self._scanned(op_id, attempts, end,
                                      None if rid is None else end)
            for node in sorted(incoming):
                self._poll(node, sorted(incoming[node]))
            # one traffic direction at a time: the next phase starts after
            # this one drains, so per-phase concurrency is well defined
            phase_end = max([e for _, e, _, _ in self.transfers[mark:]]
                            + clocks)
            clocks[:] = [phase_end] * len(clocks)

        leftovers = matcher.leftovers()
        if leftovers:
            raise MpxlabError(
                f"{leftovers} sends stayed unmatched; the pattern is not closed"
            )

        if partitioned:
            self._partitioned_iteration_end(reqs_of, arrivals)
        elif (pattern.kind is PatternKind.MULTITHREADED_ALLREDUCE
              and assignment.mechanism is Mechanism.COMMUNICATORS):
            # user-driven intranode reduction step
            clocks[:] = [c + SYNC_WAIT_TICKS for c in clocks]

    def _partitioned_iteration_end(self, reqs_of, arrivals):
        """``reqs_of`` maps each owner process to its requests by id, and
        ``arrivals`` each receive request to its latest partition arrival."""
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
                if not r.wait_all():
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
        assignment = self.assignment
        contexts = (assignment.objects_created["communicators"]
                    if assignment.mechanism is Mechanism.COMMUNICATORS else 1)
        poller = node * self.pattern.threads_per_process
        pc = self.clocks[poller]
        for end, sid in msgs + [(None, None)]:
            if self.events is not None:
                self.events.extend(
                    Event(pc + i * PROBE_TICKS, EventKind.PROBE_ITERATION)
                    for i in range(contexts))
            self.probes += contexts
            pc += contexts * PROBE_TICKS
            if sid is not None:
                pc = max(pc, end)
                self.attempts += 1
                self.matches += 1
                self.emit(pc, EventKind.MATCH_ATTEMPT, sid)
                self.emit(pc, EventKind.MATCH_SUCCESS, sid)
        self.clocks[poller] = pc

    # -- reporting ------------------------------------------------------

    def _report(self) -> SimReport:
        """The report of ``pattern.iterations`` shifted copies of the one
        iteration run; no transfer window spans two of them."""
        pattern, assignment = self.pattern, self.assignment
        n = pattern.iterations
        span = max([e for _, e, _, _ in self.transfers] + self.clocks)
        procs = range(pattern.num_processes)
        starts_of: dict[int, list] = {}
        phase_starts: dict[int, dict[int, list]] = {}
        for s, _, owners, ph in self.transfers:
            in_phase = phase_starts.setdefault(ph, {})
            for p in owners:
                if p in procs:
                    starts_of.setdefault(p, []).append(s)
                    in_phase.setdefault(p, []).append(s)
        max_conc = max(map(_max_overlap, starts_of.values()), default=0)
        phase_conc = {ph: max(map(_max_overlap, phase_starts[ph].values()),
                              default=0)
                      for ph in sorted(phase_starts)}
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
            max_concurrent_transfers=max_conc,
            match_attempts_total=n * self.attempts,
            matches_total=n * self.matches,
            sync_wait_events=n * self.waitblocks,
            probe_iterations=n * self.probes,
            barriers_total=n * self.barriers,
            channel_occupancy=occupancy,
            memory_footprint_bytes=_footprint(pattern, assignment),
            objects=dict(assignment.objects_created),
            phase_concurrency=phase_conc,
            events=self.events or [],
        )


def run(pattern: CommPattern, assignment: Assignment,
        pool: ChannelPool | None = None, policy: PolicyKind | None = None,
        seed: int = 0, events: bool = True) -> SimReport:
    """Execute one scenario and measure concurrency, matching and sync cost.

    ``policy`` picks the channel mapping; None takes the mechanism's default.
    With ``events=False`` the engine keeps only its counters: the report's
    ``events`` is empty and every other field is the same.
    Refuses to run when an op is unbound, an intended pair cannot match, or
    the policy cannot map the assignment.  Lost parallelism is not checked
    here; :func:`mpxlab.semantics.validate_assignment` reports it.  Identical
    inputs always produce identical reports.
    """
    pool = pool or ChannelPool()
    mapping = channel_policy(policy, assignment, pool)
    violations = matching_violations(pattern, assignment)
    if violations:
        raise InvalidAssignmentError(
            f"{len(violations)} matching violations; first: {violations[0]}"
        )
    engine = _Engine(pattern, assignment, pool, mapping, seed, events)
    report = engine.run()
    expected = _expected_messages(pattern, assignment)
    if report.matches_total != expected:
        raise MpxlabError(
            f"message conservation violated: {report.matches_total} matches "
            f"for {expected} messages"
        )
    return report


def _expected_messages(pattern: CommPattern, assignment: Assignment) -> int:
    if assignment.mechanism is Mechanism.PARTITIONED:
        sends = sum(1 for r in assignment.requests.values()
                    if r.direction is Direction.SEND)
    else:
        sends = sum(1 for op in pattern.ops if op.kind is OpKind.SEND)
    return sends * pattern.iterations

