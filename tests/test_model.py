"""Domain-type behavior: tag codec, endpoint ranks, partitioned requests."""

from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from mpxlab.errors import InvalidArgumentError, TagOverflowError
from mpxlab.model import (
    ANY_SOURCE,
    ANY_TAG,
    Direction,
    IdAllocator,
    InfoHints,
    PartitionedRequest,
    Tag,
    TagBitLayout,
    create_endpoints_comm,
    decode_tag,
    dup_communicator,
    encode_tag,
    world_communicator,
)


def make_request():
    ids = IdAllocator()
    return PartitionedRequest(
        request_id=ids.fresh_request(), direction=Direction.SEND,
        num_partitions=4, partition_size=64, peer=1,
        tag=Tag(5), comm=world_communicator(2, ids), owner=0,
    )


class TestTagCodec:
    def test_listing_arithmetic(self):
        layout = TagBitLayout(num_vcis=16, num_tid_bits=4, num_app_bits=8)
        tag = encode_tag(1, 2, 5, layout)
        assert tag.raw == (1 << 12) | (2 << 8) | 5 == 4613

    def test_zero_case(self):
        layout = TagBitLayout(num_vcis=4, num_tid_bits=2)
        assert encode_tag(0, 0, 0, layout).raw == 0

    def test_field_overflow(self):
        layout = TagBitLayout(num_vcis=16, num_tid_bits=4, num_app_bits=8)
        with pytest.raises(TagOverflowError):
            encode_tag(1 << 4, 0, 0, layout)
        with pytest.raises(TagOverflowError):
            encode_tag(0, 0, 1 << 8, layout)

    def test_layout_width_invariant(self):
        with pytest.raises(TagOverflowError):
            TagBitLayout(num_vcis=2, num_tid_bits=10, num_app_bits=8)

    def test_one_to_one_needs_enough_bits(self):
        with pytest.raises(InvalidArgumentError):
            TagBitLayout(num_vcis=5, num_tid_bits=2)

    def test_any_tag_outside_encodable_range(self):
        assert ANY_TAG.is_wildcard
        assert ANY_TAG.raw < 0
        with pytest.raises(TagOverflowError):
            Tag(1 << 23)

    @given(st.data())
    def test_roundtrip(self, data):
        tid_bits = data.draw(st.integers(1, 8))
        app_bits = data.draw(st.integers(0, 23 - 2 * tid_bits))
        layout = TagBitLayout(num_vcis=1, num_tid_bits=tid_bits,
                              num_app_bits=app_bits)
        src = data.draw(st.integers(0, (1 << tid_bits) - 1))
        dst = data.draw(st.integers(0, (1 << tid_bits) - 1))
        app = data.draw(st.integers(0, (1 << app_bits) - 1)) if app_bits else 0
        tag = encode_tag(src, dst, app, layout)
        assert decode_tag(tag, layout) == (src, dst, app)


class TestEndpointsComm:
    def test_contiguous_numbering(self):
        ids = IdAllocator()
        world = world_communicator(2, ids)
        ep = create_endpoints_comm(world, 3, ids)
        assert [ep.endpoint_rank(0, e) for e in range(3)] == [0, 1, 2]
        assert [ep.endpoint_rank(1, e) for e in range(3)] == [3, 4, 5]

    def test_uniform_rank_formula(self):
        ids = IdAllocator()
        world = world_communicator(4, ids)
        ep = create_endpoints_comm(world, 9, ids)
        assert ep.endpoint_rank(3, 0) == 3 * 9 + 0 == 27

    def test_zero_count_rejected(self):
        ids = IdAllocator()
        world = world_communicator(3, ids)
        with pytest.raises(InvalidArgumentError):
            create_endpoints_comm(world, 0, ids)

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_rank_bijection(self, processes, n):
        ids = IdAllocator()
        world = world_communicator(processes, ids)
        ep = create_endpoints_comm(world, n, ids)
        ranks = [ep.endpoint_rank(p, e)
                 for p in range(processes) for e in range(n)]
        assert sorted(ranks) == list(range(processes * n))
        assert ep.total_endpoints == processes * n
        for p, e in ((-1, 0), (processes, 0), (0, -1), (0, n)):
            with pytest.raises(InvalidArgumentError):
                ep.endpoint_rank(p, e)


class TestCommunicators:
    def test_dup_gets_fresh_context(self):
        ids = IdAllocator()
        world = world_communicator(4, ids)
        dup = dup_communicator(world, ids)
        assert dup.context_id != world.context_id
        assert dup.group == world.group

    def test_hints_require_both_wildcard_assertions_for_tag_bits(self):
        layout = TagBitLayout(num_vcis=4, num_tid_bits=2)
        with pytest.raises(InvalidArgumentError):
            InfoHints(no_any_tag=True, tag_vci_bits=layout)
        hints = InfoHints(no_any_tag=True, no_any_source=True,
                          tag_vci_bits=layout)
        assert not hints.wildcards_possible


class TestPartitionedRequest:
    def test_counts_must_be_positive(self):
        for counts in ({"num_partitions": 0}, {"partition_size": 0}):
            with pytest.raises(InvalidArgumentError):
                replace(make_request(), **counts)

    def test_a_request_is_a_value(self):
        req = make_request()
        with pytest.raises(FrozenInstanceError):
            req.tag = Tag(6)
        assert replace(req) == req


class TestWildcardGuards:
    def test_recv_wildcards_respect_hints(self):
        from mpxlab.model import (
            check_wildcards_allowed, ContextFamily, MatchContextId,
            OpDescriptor, OpKind,
        )
        ctx = MatchContextId(ContextFamily.COMM, 0)
        recv = OpDescriptor(OpKind.RECV, (0, 0), 0, context=ctx,
                            target=ANY_SOURCE, tag=ANY_TAG)
        check_wildcards_allowed(recv, InfoHints())
        with pytest.raises(InvalidArgumentError):
            check_wildcards_allowed(recv, InfoHints(no_any_tag=True))
        with pytest.raises(InvalidArgumentError):
            check_wildcards_allowed(
                recv, InfoHints(no_any_source=True))
