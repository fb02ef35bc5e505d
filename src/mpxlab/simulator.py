"""Deterministic discrete-event engine for (pattern, assignment, channels).

Time is abstract integer ticks; all claims the engine supports are ratios or
counts, never wall-clock predictions.  Threads are simulation actors stepped
in (process, thread) order, transfers serialize per channel instance (one
per (process, channel index)), and operations whose classifier verdict is
serial are ordered even when they land on distinct channels.

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
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum

from .channels import (
    ChannelPool,
    MappingPolicy,
    PolicyKind,
    communicator_key,
    map_entity,
)
from .errors import InvalidAssignmentError, MpxlabError, UnsupportedPatternError
from .model import ANY_SOURCE, ANY_TAG, ContextFamily, Direction, OpKind
from .patterns.base import Assignment, CommPattern, Mechanism, PatternKind
from .patterns.irregular import collective_footprint
from .semantics import (
    logically_parallel,
    matching_violations,
    _serial_bucket_keys,
)


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


@dataclass(frozen=True)
class Event:
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


def _recv_scope(desc):
    home = (desc.endpoint
            if desc.context.family is ContextFamily.ENDPOINT
            else desc.process)
    return (desc.context.family, desc.context.key, home)


def _send_scope(desc):
    return (desc.context.family, desc.context.key, desc.target)


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


def _recv_bucket(desc):
    if desc.kind is not OpKind.RECV or desc.tag is None:
        return None
    return (desc.target, ANY_TAG.raw if desc.tag.is_wildcard else desc.tag.raw)


def _send_bucket(desc):
    return None if desc.tag is None else (desc.origin_rank, desc.tag.raw)


def _send_covers(desc):
    """The posted-queue buckets whose receives can take this send."""
    if desc.tag is None:
        return ()
    src, tag = desc.origin_rank, desc.tag.raw
    return {(src, tag), (ANY_SOURCE, tag), (src, ANY_TAG.raw),
            (ANY_SOURCE, ANY_TAG.raw)}


def _recv_covers(desc, queue):
    """The unexpected-queue buckets whose sends this receive can take."""
    if desc.kind is not OpKind.RECV or desc.tag is None:
        return ()
    src, tag = desc.target, desc.tag
    if src != ANY_SOURCE and not tag.is_wildcard:
        return ((src, tag.raw),)
    return [b for b in queue.buckets
            if b is not None
            and (src == ANY_SOURCE or b[0] == src)
            and (tag.is_wildcard or b[1] == tag.raw)]


class _Matcher:
    """The posted and unexpected queues of every matching scope.

    Within a scope the context and the receiving rank already agree, so a
    send matches a receive exactly when the receive's source selector covers
    the send's origin rank and its tag selector covers the send's tag: the
    triplet rule of :func:`mpxlab.semantics.can_match`.
    """

    def __init__(self, overtaking: bool):
        self.overtaking = overtaking
        self.posted: dict = {}
        self.unexpected: dict = {}
        self._seq = itertools.count()

    def post(self, desc, op_id) -> tuple[int, tuple[int, int] | None]:
        """Post a receive; return (attempts, (send id, send end) of the
        message it matched, or None when it was queued)."""
        scope = _recv_scope(desc)
        queue = self.unexpected.get(scope)
        attempts, hit = (0, None) if queue is None else queue.take(
            _recv_covers(desc, queue))
        if hit is None:
            posted = self.posted.get(scope)
            if posted is None:
                posted = self.posted[scope] = _Queue()
            posted.add(_recv_bucket(desc), next(self._seq), op_id)
        return attempts, hit

    def send(self, desc, op_id, end) -> tuple[int, int | None]:
        """Deliver a message that lands at ``end``; return (attempts, id of
        the receive it matched, or None when it was queued)."""
        scope = _send_scope(desc)
        queue = self.posted.get(scope)
        attempts, hit = (0, None) if queue is None else queue.take(
            _send_covers(desc))
        if hit is None:
            seq = next(self._seq)
            unexpected = self.unexpected.get(scope)
            if unexpected is None:
                unexpected = self.unexpected[scope] = _Queue()
            unexpected.add(_send_bucket(desc),
                           (end, seq) if self.overtaking else seq, (op_id, end))
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


class _Engine:
    def __init__(self, pattern, assignment, pool, policy, seed, events=True):
        self.pattern = pattern
        self.assignment = assignment
        self.pool = pool
        self.policy = policy
        self.seed = seed
        # None when the caller reads only the counters: no Event is built
        self.events: list[Event] | None = [] if events else None
        self.clocks: dict[tuple[int, int], int] = {}
        self.channel_free: dict[tuple[int, int], int] = {}
        self.channel_busy: dict[tuple[int, int], int] = {}
        self.attempts = 0
        self.matches = 0
        self.waitblocks = 0
        self.barriers = 0
        self.probes = 0
        self.transfers: list[tuple[int, int, tuple[int, ...], int]] = []
        self._verdicts: dict[tuple[int, int], bool] = {}
        self._partition_arrivals: dict[int, int] = {}  # latest arrival
        self.iteration = 0

    # -- small helpers ------------------------------------------------

    def clock(self, p, t) -> int:
        return self.clocks.get((p, t), 0)

    def bump(self, p, t, dt):
        self.clocks[(p, t)] = self.clock(p, t) + dt

    def emit(self, time, kind, op_id=None, channel=None):
        if self.events is not None:
            self.events.append(Event(time, kind, op_id, channel, self.iteration))

    def count_attempts(self, time, op_id, n):
        """The n match attempts of one queue scan: n references to one event."""
        self.attempts += n
        if self.events is not None and n:
            self.events.extend(
                [Event(time, EventKind.MATCH_ATTEMPT, op_id, None, self.iteration)] * n)

    def serial(self, a_id, b_id) -> bool:
        key = (min(a_id, b_id), max(a_id, b_id))
        if key not in self._verdicts:
            da = self.assignment.bindings[key[0]]
            db = self.assignment.bindings[key[1]]
            verdict = logically_parallel(da, db, self.assignment.hints)
            self._verdicts[key] = not verdict.parallel
        return self._verdicts[key]

    # -- main loops ----------------------------------------------------

    def run(self) -> SimReport:
        if self.pattern.kind is PatternKind.LEGION_POLLING:
            self._run_polling()
        else:
            self._run_phased()
        return self._report()

    def _schedule_transfer(self, op, desc, t_issue, buckets):
        lch, rch = map_entity(self.policy, desc, self.pool)
        local = (op.process, lch)
        peer = op.peer_process
        if peer is None and desc.partition is not None:
            peer = self.assignment.requests[desc.partition[0]].peer
        # the channel instances the transfer holds, and the processes owning
        # them, each without repeats
        if peer is None or (peer, rch) == local:
            resources = (local,)
        else:
            resources = (local, (peer, rch))
        if peer is None or peer == op.process:
            owners = (op.process,)
        else:
            owners = (min(op.process, peer), max(op.process, peer))
        start = t_issue
        for r in resources:
            start = max(start, self.channel_free.get(r, 0))
        keys = [(op.process, key)
                for key in _serial_bucket_keys(desc, self.assignment.hints)]
        # each bucket is sorted by (end, op id): scanning from the latest end,
        # the first serial peer, or the first that ends by ``start``, settles
        # the maximum over every serial peer
        for key in keys:
            for prev_end, prev_id in reversed(buckets.get(key, ())):
                if prev_end <= start:
                    break
                if self.serial(prev_id, op.op_id):
                    start = prev_end
                    break
        end = start + TRANSFER_TICKS
        for r in resources:
            self.channel_free[r] = end
            self.channel_busy[r] = self.channel_busy.get(r, 0) + (end - start)
        if self.events is not None:
            self.emit(start, EventKind.CHANNEL_ACQUIRE, op.op_id, min(resources))
            self.emit(start, EventKind.TRANSFER, op.op_id, min(resources))
        self.transfers.append((start, end, owners, op.phase))
        for key in keys:
            insort(buckets.setdefault(key, []), (end, op.op_id))
        return end

    def _run_phased(self):
        pattern, assignment = self.pattern, self.assignment
        partitioned = assignment.mechanism is Mechanism.PARTITIONED
        pair_of = {}
        reqs_of: dict[int, list] = {}
        if partitioned:
            pair_of = _pair_requests(assignment.requests.values())
            for r in sorted(assignment.requests.values(),
                            key=lambda r: r.request_id):
                reqs_of.setdefault(r.owner, []).append(r)

        # per phase: receives, then sends, each in (process, thread, op) order
        by_phase: dict[int, list] = {}
        for op in sorted(pattern.ops,
                         key=lambda op: (op.process, op.thread, op.op_id)):
            by_phase.setdefault(op.phase, []).append(op)
        schedule = [
            ([op for op in ops if op.kind is OpKind.RECV],
             [op for op in ops if op.kind is not OpKind.RECV])
            for _, ops in sorted(by_phase.items())
        ]
        for p in range(pattern.num_processes):
            for t in range(pattern.threads_per_process):
                self.clocks.setdefault((p, t), 0)

        for it in range(pattern.iterations):
            self.iteration = it
            if partitioned:
                t0 = max(self.clocks.values(), default=0)
                for rid in sorted(assignment.requests):
                    assignment.requests[rid].start()
                for sid, rid in sorted(pair_of.items()):
                    self.emit(t0, EventKind.MATCH_ATTEMPT)
                    self.emit(t0, EventKind.MATCH_SUCCESS)
                    self.attempts += 1
                    self.matches += 1

            matcher = _Matcher(assignment.hints.allow_overtaking)
            buckets: dict = {}
            for recv_like, send_like in schedule:
                mark = len(self.transfers)
                for op in recv_like:
                    self._post_recv(op, matcher)
                for op in send_like:
                    self._issue_send(op, matcher, buckets, pair_of)
                # one traffic direction at a time: the next phase starts after
                # this one drains, so per-phase concurrency is well defined
                phase_end = max(
                    [e for _, e, _, _ in self.transfers[mark:]]
                    + list(self.clocks.values()) + [0]
                )
                for key in self.clocks:
                    self.clocks[key] = phase_end

            leftovers = matcher.leftovers()
            if leftovers:
                raise MpxlabError(
                    f"{leftovers} sends stayed unmatched; the pattern is not closed"
                )

            if partitioned:
                self._partitioned_iteration_end(reqs_of)
            elif (pattern.kind is PatternKind.MULTITHREADED_ALLREDUCE
                  and assignment.mechanism is Mechanism.COMMUNICATORS):
                # user-driven intranode reduction step
                for p in range(pattern.num_processes):
                    for t in range(pattern.threads_per_process):
                        self.bump(p, t, SYNC_WAIT_TICKS)

    def _post_recv(self, op, matcher):
        desc = self.assignment.bindings[op.op_id]
        p, t = op.process, op.thread
        t_issue = self.clock(p, t)
        self.emit(t_issue, EventKind.ISSUE, op.op_id)
        self.bump(p, t, ISSUE_TICKS)
        if desc.kind is OpKind.PARTITION_ARRIVED_TEST:
            return  # arrival is tracked on the shared request
        attempts, hit = matcher.post(desc, op.op_id)
        self.count_attempts(t_issue, op.op_id, attempts)
        if hit is not None:
            s_end = hit[1]
            self.matches += 1
            self.emit(max(t_issue, s_end), EventKind.MATCH_SUCCESS, op.op_id)

    def _issue_send(self, op, matcher, buckets, pair_of):
        desc = self.assignment.bindings[op.op_id]
        p, t = op.process, op.thread
        t_issue = self.clock(p, t)
        self.emit(t_issue, EventKind.ISSUE, op.op_id)
        self.bump(p, t, ISSUE_TICKS)
        end = self._schedule_transfer(op, desc, t_issue, buckets)

        if desc.kind is OpKind.PARTITION_READY:
            rid, idx = desc.partition
            req = self.assignment.requests[rid]
            req.pready(idx)
            peer_rid = pair_of.get(rid)
            if peer_rid is not None:
                peer_req = self.assignment.requests[peer_rid]
                peer_req.deliver(idx)
                arrivals = self._partition_arrivals
                arrivals[peer_rid] = max(arrivals.get(peer_rid, end), end)
            return
        if desc.kind is not OpKind.SEND:
            return  # collectives and RMA carry no pairwise matching
        attempts, rid = matcher.send(desc, op.op_id, end)
        self.count_attempts(end, op.op_id, attempts)
        if rid is not None:
            self.matches += 1
            self.emit(end, EventKind.MATCH_SUCCESS, op.op_id)

    def _partitioned_iteration_end(self, reqs_of):
        """``reqs_of`` maps each owner process to its requests by id."""
        pattern = self.pattern
        for p in range(pattern.num_processes):
            proc_reqs = reqs_of.get(p, ())
            done = 0
            for r in proc_reqs:
                if r.direction is Direction.RECV:
                    done = max(done, self._partition_arrivals.get(
                        r.request_id, 0))
            all_threads = range(pattern.threads_per_process)
            owner = 0
            done = max([done] + [self.clock(p, t) for t in all_threads])
            for t in all_threads:
                if t == owner:
                    self.clocks[(p, t)] = done
                    continue
                self.emit(self.clock(p, t), EventKind.WAIT_BLOCK)
                self.waitblocks += 1
                self.clocks[(p, t)] = done + SYNC_WAIT_TICKS
                self.emit(self.clocks[(p, t)], EventKind.WAIT_RELEASE)
            for r in proc_reqs:
                if not r.wait_all():
                    raise MpxlabError(
                        f"request {r.request_id} incomplete at iteration end"
                    )
        barrier_time = max(self.clocks.values(), default=0)
        self.emit(barrier_time, EventKind.BARRIER)
        self.barriers += 1
        for key in self.clocks:
            self.clocks[key] = barrier_time

    def _run_polling(self):
        pattern, assignment = self.pattern, self.assignment
        buckets: dict = {}
        incoming: dict[int, list[tuple[int, int]]] = {}
        sends = sorted((op for op in pattern.ops if op.kind is OpKind.SEND),
                       key=lambda op: (op.process, op.thread, op.op_id))
        for op in sends:
            desc = assignment.bindings[op.op_id]
            t_issue = self.clock(op.process, op.thread)
            self.emit(t_issue, EventKind.ISSUE, op.op_id)
            self.bump(op.process, op.thread, ISSUE_TICKS)
            end = self._schedule_transfer(op, desc, t_issue, buckets)
            incoming.setdefault(op.peer_process, []).append((end, op.op_id))

        if assignment.mechanism is Mechanism.COMMUNICATORS:
            contexts = assignment.objects_created["communicators"]
        else:
            contexts = 1

        for node in sorted(incoming):
            msgs = sorted(incoming[node])
            poller = 0
            pc = self.clock(node, poller)
            sweeps = len(msgs) + 1
            consumed = 0
            for _ in range(sweeps):
                if self.events is not None:
                    self.events.extend(
                        Event(pc + i * PROBE_TICKS, EventKind.PROBE_ITERATION,
                              iteration=self.iteration)
                        for i in range(contexts))
                self.probes += contexts
                pc += contexts * PROBE_TICKS
                if consumed < len(msgs):
                    end, sid = msgs[consumed]
                    consumed += 1
                    pc = max(pc, end)
                    self.attempts += 1
                    self.matches += 1
                    self.emit(pc, EventKind.MATCH_ATTEMPT, sid)
                    self.emit(pc, EventKind.MATCH_SUCCESS, sid)
            self.clocks[(node, poller)] = pc

    # -- reporting ------------------------------------------------------

    def _report(self) -> SimReport:
        pattern, assignment = self.pattern, self.assignment
        makespan = max(
            [t for t in self.clocks.values()] + [e for _, e, _, _ in self.transfers]
            or [0]
        )
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
        occupancy = {
            f"p{p}c{c}": busy
            for (p, c), busy in sorted(self.channel_busy.items())
        }
        if self.events is not None:
            self.events.sort(key=lambda ev: ev.time)  # stable: ties keep issue order
        return SimReport(
            mechanism=assignment.mechanism.value,
            variant=assignment.variant,
            seed=self.seed,
            makespan=makespan,
            max_concurrent_transfers=max_conc,
            match_attempts_total=self.attempts,
            matches_total=self.matches,
            sync_wait_events=self.waitblocks,
            probe_iterations=self.probes,
            barriers_total=self.barriers,
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
        n_pairs = sum(1 for r in assignment.requests.values()
                      if r.direction is Direction.SEND)
        return n_pairs * pattern.iterations
    sends = sum(1 for op in pattern.ops if op.kind is OpKind.SEND)
    return sends * pattern.iterations

