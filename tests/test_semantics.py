"""Matching predicate, ordering relation, classifier, and oracle."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mpxlab.errors import OracleBoundError
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
from mpxlab.semantics import (
    Reason,
    can_match,
    logically_parallel,
    oracle_equivalence_check,
    oracle_logically_parallel,
    ordered_before,
)

C0 = MatchContextId(ContextFamily.COMM, 0)
C1 = MatchContextId(ContextFamily.COMM, 1)
EP = MatchContextId(ContextFamily.ENDPOINT, 2)


def send(ctx=C0, proc=0, thread=0, idx=0, dst=1, tag=7, ep=None):
    return OpDescriptor(OpKind.SEND, (proc, thread), idx, context=ctx,
                        target=dst, tag=Tag(tag), endpoint=ep)


def recv(ctx=C0, proc=1, thread=0, idx=0, src=0, tag=7, ep=None):
    t = tag if isinstance(tag, Tag) else Tag(tag)
    return OpDescriptor(OpKind.RECV, (proc, thread), idx, context=ctx,
                        target=src, tag=t, endpoint=ep)


def accum(proc=0, thread=0, idx=0, win=0, loc=0, target=1, ep=None):
    return OpDescriptor(OpKind.ACCUMULATE, (proc, thread), idx, window=win,
                        target=target, target_location=loc, endpoint=ep)


class TestCanMatch:
    def test_exact_triplet(self):
        assert can_match(send(dst=1, tag=7), recv(src=0, tag=7))

    def test_different_contexts_never_match(self):
        assert not can_match(send(ctx=C0), recv(ctx=C1))

    def test_any_tag_matches_any(self):
        assert can_match(send(tag=3), recv(tag=ANY_TAG))
        assert can_match(send(tag=9), recv(src=ANY_SOURCE, tag=ANY_TAG))

    def test_wrong_destination(self):
        assert not can_match(send(dst=1), recv(proc=0, src=0))

    def test_endpoint_ranks_are_the_match_coordinates(self):
        s = send(ctx=EP, dst=9, ep=3)
        r = recv(ctx=EP, src=3, ep=9)
        assert can_match(s, r)
        assert not can_match(s, recv(ctx=EP, src=4, ep=9))
        assert not can_match(s, recv(ctx=EP, src=3, ep=10))


class TestOrderedBefore:
    def test_same_thread_sends_wildcard_matchable(self):
        a = send(thread=0, idx=0, tag=3)
        b = send(thread=0, idx=1, tag=4)
        assert ordered_before(a, b, InfoHints())
        assert not ordered_before(b, a, InfoHints())

    def test_relaxed_hints_remove_the_order(self):
        a = send(thread=0, idx=0, tag=3)
        b = send(thread=0, idx=1, tag=4)
        hints = InfoHints(no_any_tag=True, no_any_source=True)
        assert not ordered_before(a, b, hints)

    def test_atomics_same_location_ordered(self):
        a = accum(thread=0, idx=0, loc=5)
        b = accum(thread=0, idx=1, loc=5)
        assert ordered_before(a, b, InfoHints())
        assert not ordered_before(
            a, b, InfoHints(accumulate_ordering_none=True))
        assert not ordered_before(a, accum(thread=0, idx=1, loc=6), InfoHints())

    def test_cross_thread_sends_unordered(self):
        assert not ordered_before(send(thread=0), send(thread=1, tag=4),
                                  InfoHints())


class TestClassifier:
    def test_distinct_communicators(self):
        v = logically_parallel(send(ctx=C0), send(ctx=C1, thread=1), InfoHints())
        assert v.parallel and v is Reason.DIFFERENT_COMMUNICATORS

    def test_distinct_endpoints(self):
        a = send(ctx=EP, thread=0, dst=9, ep=3)
        b = send(ctx=EP, thread=1, dst=9, ep=4)
        v = logically_parallel(a, b, InfoHints())
        assert v.parallel and v is Reason.DIFFERENT_ENDPOINTS

    def test_recvs_overtaking_only_stay_serial(self):
        a = recv(proc=0, thread=0, src=1, tag=3)
        b = recv(proc=0, thread=1, src=1, tag=4)
        v = logically_parallel(a, b, InfoHints(allow_overtaking=True))
        assert not v.parallel and v is Reason.WILDCARD_RISK

    def test_collectives_serial_on_one_comm(self):
        a = OpDescriptor(OpKind.COLLECTIVE, (0, 0), 0, context=C0)
        b = OpDescriptor(OpKind.COLLECTIVE, (0, 1), 0, context=C0)
        v = logically_parallel(a, b, InfoHints())
        assert not v.parallel and v is Reason.COLLECTIVE_SERIAL_ON_COMM

    def test_sends_full_relaxation(self):
        a = send(thread=0, tag=3)
        b = send(thread=1, tag=4)
        v = logically_parallel(a, b,
                               InfoHints(no_any_tag=True, no_any_source=True))
        assert v.parallel and v is Reason.TAG_RELAXED_NO_WILDCARDS

    def test_overtaking_frees_sends(self):
        a = send(thread=0, tag=3)
        b = send(thread=1, tag=4)
        v = logically_parallel(a, b, InfoHints(allow_overtaking=True))
        assert v.parallel and v is Reason.OVERTAKING_SENDS_ONLY

    def test_partition_contributions_share_the_request(self):
        a = OpDescriptor(OpKind.PARTITION_READY, (0, 0), 0, partition=(5, 0))
        b = OpDescriptor(OpKind.PARTITION_READY, (0, 1), 0, partition=(5, 1))
        v = logically_parallel(a, b, InfoHints())
        assert v.parallel and v is Reason.PARTITION_SAME_REQUEST

    def test_atomic_same_location(self):
        v = logically_parallel(accum(thread=0, loc=4), accum(thread=1, loc=4),
                               InfoHints())
        assert not v.parallel and v is Reason.ATOMIC_SAME_LOCATION

    def test_atomics_different_locations_unordered(self):
        v = logically_parallel(accum(thread=0, loc=4), accum(thread=1, loc=5),
                               InfoHints())
        assert v.parallel and v is Reason.RMA_UNORDERED

    def test_atomics_from_distinct_endpoints(self):
        v = logically_parallel(accum(thread=0, loc=4, ep=0),
                               accum(thread=1, loc=4, ep=1), InfoHints())
        assert v.parallel and v is Reason.DIFFERENT_ENDPOINTS

    def test_nonatomic_same_window(self):
        a = OpDescriptor(OpKind.PUT, (0, 0), 0, window=0, target=1,
                         target_location=4)
        b = OpDescriptor(OpKind.PUT, (0, 1), 0, window=0, target=1,
                         target_location=4)
        v = logically_parallel(a, b, InfoHints())
        assert v.parallel and v is Reason.RMA_UNORDERED


def classifier_universe():
    """Distinct descriptors of process 0 reaching every classifier rule.

    Two-sided ops take every (thread, program index) slot on one context per
    family; on the other context, or at the other endpoint, no pair is
    ordered, so one slot there suffices.
    """
    slots = ((0, 0), (0, 1), (1, 0))  # (thread, program index)
    ops = []
    for ctx, ep, ctx_slots in ((C0, None, slots), (C1, None, slots[2:]),
                               (EP, 0, slots), (EP, 1, slots[2:])):
        for thread, idx in ctx_slots:
            ops += [send(ctx, 0, thread, idx, dst, tag, ep)
                    for dst in (1, 2) for tag in (3, 4)]
            ops += [recv(ctx, 0, thread, idx, src, tag, ep)
                    for src in (1, 2, ANY_SOURCE) for tag in (3, 4, ANY_TAG)]
            if ep != 1:
                ops.append(OpDescriptor(OpKind.COLLECTIVE, (0, thread), idx,
                                        context=ctx, endpoint=ep))
    for kind, win, loc, ep, thread in itertools.product(
            (OpKind.PUT, OpKind.GET, OpKind.ACCUMULATE), (0, 1), (None, 4),
            (None, 0, 1), (0, 1)):
        ops.append(OpDescriptor(kind, (0, thread), 0, window=win, target=1,
                                target_location=loc, endpoint=ep))
    for kind, req, thread in itertools.product(
            (OpKind.PARTITION_READY, OpKind.PARTITION_ARRIVED_TEST), (0, 1),
            (0, 1)):
        ops.append(OpDescriptor(kind, (0, thread), 0, partition=(req, thread)))
    return ops


def classifier_digest(classify):
    """(answers, SHA-256) over ``classify(a, b, hints)`` for every ordered
    pair of :func:`classifier_universe` under each of the 16 hint subsets,
    hashing each answer's ``value`` and ``parallel``."""
    ops = classifier_universe()
    assert len(set(ops)) == len(ops)
    hint_sets = [InfoHints(*flags)
                 for flags in itertools.product((False, True), repeat=4)]
    answers = [classify(a, b, hints) for hints in hint_sets
               for a in ops for b in ops if a is not b]
    # one byte per answer, indexing the distinct answers by first appearance
    codes = {answer: code for code, answer in enumerate(dict.fromkeys(answers))}
    legend = "\n".join(f"{answer.value}:{answer.parallel}" for answer in codes)
    body = legend.encode() + b"\n" + bytes(map(codes.__getitem__, answers))
    return len(answers), hashlib.sha256(body).hexdigest()


def test_every_classifier_answer_is_pinned():
    # pinned with the classifier as it was before it answered with a Reason
    assert classifier_digest(logically_parallel) == (
        580640,
        "29d8ed3b8b96da9279bc31171fb82464890630888b0a5e71abe26cfb4fdc3307")


class TestOracle:
    def test_disjoint_matchings_parallel(self):
        a, b = send(ctx=C0, thread=0), send(ctx=C1, thread=1)
        universe = [a, b, recv(ctx=C0), recv(ctx=C1)]
        assert oracle_logically_parallel(a, b, universe, InfoHints())

    def test_wildcard_recv_creates_competition(self):
        a = send(thread=0, tag=3)
        b = send(thread=1, tag=4)
        universe = [a, b, recv(src=ANY_SOURCE, tag=ANY_TAG)]
        assert not oracle_logically_parallel(a, b, universe, InfoHints())

    def test_rma_on_different_windows(self):
        a = OpDescriptor(OpKind.PUT, (0, 0), 0, window=0, target=1)
        b = OpDescriptor(OpKind.PUT, (0, 1), 0, window=1, target=1)
        assert oracle_logically_parallel(a, b, [], InfoHints())

    def test_enumeration_bound(self):
        universe = [send(thread=t % 3, idx=t, tag=t) for t in range(13)]
        with pytest.raises(OracleBoundError):
            oracle_logically_parallel(universe[0], universe[1], universe,
                                      InfoHints())

    def test_equivalence_sweep_is_clean(self):
        comparisons, mismatches = oracle_equivalence_check()
        assert comparisons > 200
        assert mismatches == []


def _random_two_sided(draw):
    ctx = draw(st.sampled_from([C0, C1]))
    kind = draw(st.sampled_from([OpKind.SEND, OpKind.RECV]))
    thread = draw(st.integers(0, 2))
    idx = draw(st.integers(0, 3))
    tag = draw(st.integers(0, 2))
    peer = draw(st.integers(1, 2))
    if kind is OpKind.SEND:
        return send(ctx=ctx, proc=0, thread=thread, idx=idx, dst=peer, tag=tag)
    return recv(ctx=ctx, proc=0, thread=thread, idx=idx, src=peer, tag=tag)


_hints_strategy = st.builds(
    InfoHints,
    allow_overtaking=st.booleans(),
    no_any_tag=st.booleans(),
    no_any_source=st.booleans(),
)


class TestClassifierProperties:
    @settings(max_examples=150)
    @given(st.data())
    def test_symmetry(self, data):
        a = _random_two_sided(data.draw)
        b = _random_two_sided(data.draw)
        hints = data.draw(_hints_strategy)
        if a == b:
            return
        va = logically_parallel(a, b, hints)
        vb = logically_parallel(b, a, hints)
        assert va.parallel == vb.parallel

    @settings(max_examples=150)
    @given(st.data())
    def test_relaxation_monotonicity(self, data):
        a = _random_two_sided(data.draw)
        b = _random_two_sided(data.draw)
        if a == b:
            return
        base = data.draw(_hints_strategy)
        stronger = InfoHints(
            allow_overtaking=base.allow_overtaking or data.draw(st.booleans()),
            no_any_tag=base.no_any_tag or data.draw(st.booleans()),
            no_any_source=base.no_any_source or data.draw(st.booleans()),
        )
        before = logically_parallel(a, b, base).parallel
        after = logically_parallel(a, b, stronger).parallel
        assert not (before and not after)

    def test_endpoint_as_rank(self):
        # ops issued from two endpoints behave like ops from two processes:
        # the oracle on process-level relabeled ops agrees with the verdict
        a = send(ctx=EP, proc=0, thread=0, dst=9, ep=3)
        b = send(ctx=EP, proc=0, thread=1, dst=9, ep=4)
        for hints in (InfoHints(), InfoHints(allow_overtaking=True),
                      InfoHints(no_any_tag=True, no_any_source=True)):
            verdict = logically_parallel(a, b, hints)
            as_procs = [
                OpDescriptor(OpKind.SEND, (3, 0), 0, context=C0, target=9,
                             tag=Tag(7)),
                OpDescriptor(OpKind.SEND, (4, 0), 0, context=C0, target=9,
                             tag=Tag(7)),
            ]
            reference = oracle_logically_parallel(
                as_procs[0], as_procs[1], as_procs, hints)
            assert verdict.parallel == reference is True
