"""The matching rule, the indexed posted queue and the work ``run()`` does
per reported count.

:mod:`mpxlab.semantics` states MPI's triplet rule once, as ``match_keys``
and ``send_covers``; ``can_match`` and the engine's queues both read it.
The references here restate it field by field, apart from those keys."""

import itertools

import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpxlab.semantics as semantics
from mpxlab.errors import IncompleteAssignmentError, MpxlabError
from mpxlab.model import (
    ANY_SOURCE,
    ANY_TAG,
    ContextFamily,
    InfoHints,
    MatchContextId,
    OpDescriptor,
    OpKind,
    Tag,
)
from mpxlab.patterns import (
    assign_communicators_naive,
    assign_endpoints,
    assign_partitioned,
    gen_dynamic_graph,
    gen_fan_in,
    gen_legion,
    gen_stencil,
)
from mpxlab.semantics import can_match, match_keys
from mpxlab.patterns.specfile import scenario_from_dict
from mpxlab.simulator import _Engine, _Queue, _post, _take, run

from helpers import intended_pairs
from test_reports import SPECS

CONTEXTS = [
    MatchContextId(ContextFamily.COMM, 1),
    MatchContextId(ContextFamily.COMM, 2),
    MatchContextId(ContextFamily.ENDPOINT, 3),
]


def _recv(ctx, home, src, tag, index):
    if ctx.family is ContextFamily.ENDPOINT:
        return OpDescriptor(OpKind.RECV, (0, index), index, context=ctx,
                            target=src, tag=tag, endpoint=home)
    return OpDescriptor(OpKind.RECV, (home, index), index, context=ctx,
                        target=src, tag=tag)


def _send(ctx, origin, dest, tag, index):
    if ctx.family is ContextFamily.ENDPOINT:
        return OpDescriptor(OpKind.SEND, (0, index), index, context=ctx,
                            target=dest, tag=tag, endpoint=origin)
    return OpDescriptor(OpKind.SEND, (origin, index), index, context=ctx,
                        target=dest, tag=tag)


def _recv_home(desc):
    if desc.context.family is ContextFamily.ENDPOINT:
        return desc.endpoint
    return desc.process


def reference_can_match(send, recv):
    """MPI's triplet rule field by field, without ``match_keys``: same
    context, the receive posted at the send's destination, its source
    selector naming the send's origin rank (or ANY_SOURCE), and equal tags
    (or ANY_TAG).  Under an endpoint context both ranks are endpoint ranks."""
    skind, (sorigin, _), _, sctx, starget, stag, sep, _, _, _ = send
    rkind, (rhome, _), _, rctx, rtarget, rtag, rep, _, _, _ = recv
    if skind is not OpKind.SEND or rkind is not OpKind.RECV:
        return False
    if sctx is None or rctx is None or sctx != rctx:
        return False
    if sctx.family is ContextFamily.ENDPOINT:
        sorigin, rhome = sep, rep
    if starget != rhome:
        return False
    if rtarget != ANY_SOURCE and rtarget != sorigin:
        return False
    if rtag is None or stag is None:
        return False
    return rtag.is_wildcard or rtag.raw == stag.raw


def two_process_universe():
    """Sends and receives of two processes over both context families (two
    communicator contexts and one endpoint context with endpoints 0 and 1),
    receives selecting either rank or ANY_SOURCE and a tag, ANY_TAG or
    none, sends to either rank with a tag or none; plus a send and a
    receive without a context per (process, thread)."""
    contexts = CONTEXTS + [None]
    tags = [Tag(0), Tag(1), None]
    ops = []
    for ctx, process, endpoint in itertools.product(contexts, (0, 1), (0, 1)):
        if ctx is None:  # past the constructor's check, as a bare tuple
            ops += [tuple.__new__(OpDescriptor, (kind, (process, endpoint), 0,
                                                 None, 1 - process, Tag(0),
                                                 None, None, None, None))
                    for kind in (OpKind.SEND, OpKind.RECV)]
            continue
        ep = endpoint if ctx.family is ContextFamily.ENDPOINT else None
        for target, tag in itertools.product((0, 1), tags):
            ops.append(OpDescriptor(OpKind.SEND, (process, endpoint), 0,
                                    context=ctx, target=target, tag=tag,
                                    endpoint=ep))
        for target, tag in itertools.product((0, 1, ANY_SOURCE),
                                             tags + [ANY_TAG]):
            ops.append(OpDescriptor(OpKind.RECV, (process, endpoint), 1,
                                    context=ctx, target=target, tag=tag,
                                    endpoint=ep))
    return ops


def test_the_one_rule_equals_the_field_by_field_reference():
    ops = two_process_universe()
    matched = Counter()
    for send, recv in itertools.product(ops, repeat=2):
        got = can_match(send, recv)
        assert got == reference_can_match(send, recv), (send, recv)
        if got:
            matched["pairs"] += 1
            matched["endpoint"] += send.context.family is ContextFamily.ENDPOINT
            matched["any source"] += recv.target == ANY_SOURCE
            matched["any tag"] += recv.tag == ANY_TAG
            matched["other process"] += send.process != recv.process
    # 72 sends and 144 receives over 3 contexts: every kind of match occurs
    assert len(ops) == 3 * (2 * 2) * (6 + 12) + 8
    assert all(matched[k] for k in ("pairs", "endpoint", "any source",
                                    "any tag", "other process"))


def reference_scan(ops):
    """Linear posted-queue matching: every position a send traverses is one
    attempt, and a send that finds no receive is a leftover."""
    posted, out, leftovers = [], [], 0
    for index, (kind, desc) in enumerate(ops):
        if kind == "recv":
            posted.append(((desc.context, _recv_home(desc)), desc, index))
            continue
        scope = (desc.context, desc.target)
        attempts, hit = 0, None
        for entry in posted:
            if entry[0] != scope:
                continue
            attempts += 1
            if reference_can_match(desc, entry[1]):
                hit = entry
                break
        if hit is None:
            leftovers += 1
            out.append((attempts, None))
        else:
            posted.remove(hit)
            out.append((attempts, hit[2]))
    return out, leftovers


def _draw_ops(draw, length, wildcards):
    """``length`` random posts and sends, their receives drawing a
    wildcard source or tag only when ``wildcards`` and the hints allow."""
    hints = InfoHints(no_any_tag=draw(st.booleans()),
                      no_any_source=draw(st.booleans()))
    ranks = st.integers(0, 2)
    tags = st.one_of(st.integers(0, 2).map(Tag), st.just(None))
    recv_srcs = (ranks if hints.no_any_source or not wildcards
                 else st.one_of(ranks, st.just(ANY_SOURCE)))
    recv_tags = (tags if hints.no_any_tag or not wildcards
                 else st.one_of(tags, st.just(ANY_TAG)))
    ops = []
    for index in range(length):
        ctx = draw(st.sampled_from(CONTEXTS))
        if draw(st.booleans()):
            desc = _recv(ctx, draw(st.integers(0, 1)), draw(recv_srcs),
                         draw(recv_tags), index)
            ops.append(("recv", desc))
        else:
            desc = _send(ctx, draw(ranks), draw(st.integers(0, 1)),
                         draw(tags), index)
            ops.append(("send", desc))
    return ops


@st.composite
def op_sequences(draw):
    return _draw_ops(draw, draw(st.integers(0, 40)), wildcards=True)


@st.composite
def wildcards_after_exact(draw):
    """Exact posts and sends first, then a stretch that may post wildcard
    receives: a queue's sends look only in their exact bucket until its
    first wildcard receive, and in every bucket covering them after it."""
    return (_draw_ops(draw, draw(st.integers(0, 20)), wildcards=False)
            + _draw_ops(draw, draw(st.integers(0, 20)), wildcards=True))


@st.composite
def crowded_scopes(draw):
    """Many posts and sends in one or two scopes and a few buckets, so that
    a scope goes bare, is promoted, is emptied and goes bare again, and a
    bucket holds one entry, then several: receives select source 0 or
    ANY_SOURCE and tag 0, ANY_TAG or none (bucket None), and sends come
    from rank 0 or 1 with tag 0 or none."""
    homes = draw(st.sampled_from([(0,), (0, 1)]))
    ops = []
    for index in range(draw(st.integers(0, 40))):
        home = draw(st.sampled_from(homes))
        if draw(st.booleans()):
            desc = _recv(CONTEXTS[0], home,
                         draw(st.sampled_from([0, ANY_SOURCE])),
                         draw(st.sampled_from([Tag(0), ANY_TAG, None])), index)
            ops.append(("recv", desc))
        else:
            desc = _send(CONTEXTS[0], draw(st.sampled_from([0, 1])), home,
                         draw(st.sampled_from([Tag(0), None])), index)
            ops.append(("send", desc))
    return ops


def drive_queues(ops):
    """Each op through the engine's own post and take statements, as its
    walk drives them: (attempts, matched op index) per send, and the sends
    that found no receive."""
    queues, got, unmatched = {}, [], 0
    for index, (kind, desc) in enumerate(ops):
        scope, bucket = match_keys(desc)
        if kind == "recv":
            _post(queues, scope, bucket, index, index)
        else:
            attempts, hit = _take(queues, scope, bucket)
            unmatched += hit is None
            got.append((attempts, hit))
    return got, unmatched


@settings(max_examples=400, deadline=None)
@given(st.one_of(op_sequences(), wildcards_after_exact(), crowded_scopes()))
def test_indexed_queues_match_the_linear_scan(ops):
    assert drive_queues(ops) == reference_scan(ops)


def test_a_scope_is_bare_until_its_second_receive():
    """A scope holds its one receive as a bare entry, a second posting
    promotes it to a queue, the take that empties it drops it, and its next
    posting is bare again."""
    ctx, queues = CONTEXTS[0], {}
    exact = _recv(ctx, 0, 1, Tag(0), 0)
    wild = _recv(ctx, 0, ANY_SOURCE, Tag(0), 1)
    scope, bucket = match_keys(exact)
    _post(queues, scope, bucket, 0, "exact")
    assert queues == {scope: (bucket, 0, "exact")}
    _post(queues, *match_keys(wild), 1, "wild")
    _post(queues, scope, bucket, 2, "again")
    queue = queues[scope]
    assert type(queue) is _Queue and queue.order == [0, 1, 2] and queue.wild
    send = match_keys(_send(ctx, 1, 0, Tag(0), 3))
    assert [_take(queues, *send) for _ in range(4)] \
        == [(1, "exact"), (1, "wild"), (1, "again"), (0, None)]
    assert queues == {}
    _post(queues, scope, bucket, 3, "bare again")
    assert queues == {scope: (bucket, 3, "bare again")}


def _count_calls(monkeypatch, names):
    """Count calls of semantics functions under every mpxlab module's name."""
    calls = Counter()
    for name in names:
        original = getattr(semantics, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("mpxlab")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    return calls


def issue_order(pattern, assignment):
    """The pattern's two-sided ops as one iteration issues them, per phase
    its receives, then its sends, each in (process, thread, op id) order:
    (op, ("recv" or "send", descriptor)) pairs."""
    ops = sorted(pattern.ops, key=lambda op: (
        op.phase, op.kind is not OpKind.RECV, op.process, op.thread, op.op_id))
    return [(op, ("recv" if op.kind is OpKind.RECV else "send",
                  assignment.bindings[op.op_id])) for op in ops]


def test_run_work_follows_the_reported_counts(monkeypatch):
    calls = _count_calls(monkeypatch, ("logically_parallel", "can_match"))
    p = gen_fan_in(512)
    a = assign_communicators_naive(p, num_comms=1)
    report = run(p, a)
    assert report.match_attempts_total == 131_328  # 512 * 513 / 2
    assert report.matches_total == 512
    assert calls["logically_parallel"] <= 512
    # every send is taken by its partner: no pair is left to check
    assert calls["can_match"] == 0

    # a polled send is never taken by the matcher: one rule call each
    p = gen_legion(4, 3, 24, seed=1)
    run(p, assign_endpoints(p), events=False)
    assert sum(op.kind is OpKind.SEND for op in p.ops) == 24
    assert calls["can_match"] == 24

    # one rule call per send that took a receive other than its partner,
    # counted by the linear scan of the reference rule in issue order
    calls.clear()
    p = gen_dynamic_graph(4, 3, rounds=2, seed=5)
    a = assign_communicators_naive(p)
    report = run(p, a, events=False)
    issued = issue_order(p, a)
    got, leftovers = reference_scan([entry for _, entry in issued])
    sends = [op for op, (kind, _) in issued if kind == "send"]
    assert leftovers == 0
    assert sum(attempts for attempts, _ in got) \
        == report.match_attempts_total // p.iterations
    elsewhere = sum(issued[hit][0].op_id != op.partner
                    for op, (_, hit) in zip(sends, got))
    assert 0 < elsewhere < len(sends)
    assert calls["can_match"] == elsewhere


def test_partitioned_pairing_is_linear(monkeypatch):
    p = gen_stencil(3, 27, [2, 2, 2], [3, 3, 3])
    a = assign_partitioned(p)
    calls = _count_calls(monkeypatch, ("requests_match",))
    run(p, a)
    # pairing the 784 send requests with the 784 receives calls no
    # requests_match, and pairs every send's request with its partner's,
    # so the matching check has no pair left to ask about
    assert len(a.requests) == 1568
    assert calls["requests_match"] == 0


def test_run_refuses_an_unbound_op(monkeypatch):
    # before any simulation, and before a pair that cannot match
    p = gen_fan_in(4)
    a = assign_communicators_naive(p, num_comms=1)
    _, recv_id = intended_pairs(p)[-1]
    # the bindings are read-only: retag one receive and leave the last op
    # (another receive) out of a copy
    bindings = {**a.bindings, recv_id: a.bindings[recv_id]._replace(tag=Tag(99))}
    del bindings[len(p.ops) - 1]
    a = replace(a, bindings=bindings)

    def never(self):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(_Engine, "run", never)
    monkeypatch.setattr(_Engine, "_iteration", never)
    # the first op past the bound ones is named
    with pytest.raises(IncompleteAssignmentError,
                       match=r"^assignment leaves 1 ops unbound \(first: 7\)$"):
        run(p, a)


def test_a_receive_posted_after_its_send_is_refused():
    # the receives of a 2-sender fan-in moved a phase after their sends:
    # each send finds an empty posted queue
    p = gen_fan_in(2)
    p = replace(p, ops=tuple(op._replace(phase=1) if op.kind is OpKind.RECV
                             else op for op in p.ops))
    a = assign_communicators_naive(p, num_comms=1)
    with pytest.raises(MpxlabError, match="2 sends found no posted receive"):
        run(p, a)


def reference_keys(desc):
    """(scope, bucket) as ``match_keys``' docstring states them, field by field:
    an op's own rank is its endpoint in an endpoint context and its process
    otherwise; a receive is posted at its own rank and selects (its target,
    tag); a send is addressed to its target and carries (its own rank, tag).
    """
    context = desc.context
    if context.family is ContextFamily.ENDPOINT:
        own_rank = desc.endpoint
    else:
        own_rank = desc.source[0]
    if desc.kind is OpKind.SEND:
        home, selected = desc.target, own_rank
    else:
        home, selected = own_rank, desc.target
    bucket = None if desc.tag is None else (selected, desc.tag.raw)
    return (context.family, context.key, home), bucket


def test_keys_equal_the_reference_on_every_pinned_descriptor():
    seen = Counter()
    for name in sorted(SPECS):
        scenario = scenario_from_dict(SPECS[name])
        assignment = scenario.build_assignment(scenario.build_pattern())
        for desc in assignment.bindings.values():
            if desc.kind in (OpKind.SEND, OpKind.RECV):
                assert match_keys(desc) == reference_keys(desc), (name, desc)
                seen[desc.kind] += 1
                seen["endpoint"] += desc.context.family is ContextFamily.ENDPOINT
                seen["wildcard"] += desc.target == ANY_SOURCE or desc.tag == ANY_TAG
    # both kinds, endpoint contexts and wildcard receives were all compared
    assert all(seen[k] for k in (OpKind.SEND, OpKind.RECV, "endpoint", "wildcard"))
