"""Channel pool mapping policies and collision accounting."""

import pytest
from hypothesis import given, strategies as st

from mpxlab.channels import (
    ChannelPool,
    MappingPolicy,
    OMNI_PATH_HFI_CONTEXTS,
    PolicyKind,
    collision_report,
    grouping_mismatch_demo,
    map_communicators,
    map_endpoints,
    map_entity,
)
from mpxlab.errors import InvalidArgumentError, MappingError
from mpxlab.model import (
    ContextFamily,
    IdAllocator,
    MatchContextId,
    OpDescriptor,
    OpKind,
    Purpose,
    Tag,
    TagBitLayout,
    dup_communicator,
    encode_tag,
    world_communicator,
)


def ep_op(endpoint, target=None):
    ctx = MatchContextId(ContextFamily.ENDPOINT, 0)
    return OpDescriptor(OpKind.SEND, (0, 0), 0, context=ctx,
                        target=target if target is not None else endpoint + 1,
                        tag=Tag(0), endpoint=endpoint)


class TestMapEntity:
    def test_endpoint_identity_modulo(self):
        pool = ChannelPool(4)
        policy = MappingPolicy(PolicyKind.ENDPOINT_IDENTITY)
        local, _ = map_entity(policy, ep_op(5), pool)
        assert local == 5 % 4 == 1

    def test_tag_bits_one_to_one(self):
        layout = TagBitLayout(num_vcis=16, num_tid_bits=4)
        policy = MappingPolicy(PolicyKind.TAG_BITS_ONE_TO_ONE, layout=layout)
        tag = encode_tag(2, 6, 0, layout)
        ctx = MatchContextId(ContextFamily.COMM, 0)
        op = OpDescriptor(OpKind.SEND, (0, 2), 0, context=ctx, target=1, tag=tag)
        assert map_entity(policy, op, ChannelPool(16)) == (2, 6)

    def test_hash_communicator_pigeonhole(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        policy = MappingPolicy(PolicyKind.HASH_COMMUNICATOR)
        entities = map_communicators(range(808), policy, pool)
        report = collision_report(entities, pool)
        assert report.distinct_channels_used == 160
        assert report.max_entities_per_channel >= -(-808 // 160)  # >= 6

    def test_policy_needs_matching_fields(self):
        policy = MappingPolicy(PolicyKind.TAG_BITS_ONE_TO_ONE)
        with pytest.raises(MappingError):
            map_entity(policy, ep_op(0), ChannelPool(4))

    def test_round_robin_requires_registration(self):
        policy = MappingPolicy(PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR)
        pool = ChannelPool(8)
        with pytest.raises(MappingError):
            policy.channel_of_context(42, pool)
        assert policy.register_communicator(42, pool) == 0
        assert policy.channel_of_context(42, pool) == 0

    @given(st.integers(1, 4), st.integers(1, 16))
    def test_one_to_one_injective_over_tids(self, tid_bits, r):
        n_vcis = 1 << tid_bits
        layout = TagBitLayout(num_vcis=n_vcis, num_tid_bits=tid_bits)
        policy = MappingPolicy(PolicyKind.TAG_BITS_ONE_TO_ONE, layout=layout)
        pool = ChannelPool(r)
        ctx = MatchContextId(ContextFamily.COMM, 0)
        locals_seen = {}
        for tid in range(n_vcis):
            tag = encode_tag(tid, 0, 0, layout)
            op = OpDescriptor(OpKind.SEND, (0, tid), 0, context=ctx, target=1,
                              tag=tag)
            local, _ = map_entity(policy, op, pool)
            if n_vcis <= r:
                assert local not in locals_seen.values()
            locals_seen[tid] = local


class TestCollisionReport:
    def test_endpoints_fit_without_collisions(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        report = collision_report(map_endpoints(range(56), pool), pool)
        assert report.max_entities_per_channel == 1
        assert report.serialized_pairs == []
        assert report.distinct_channels_used == 56

    def test_many_comms_collide(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        policy = MappingPolicy(PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR)
        report = collision_report(map_communicators(range(808), policy, pool),
                                  pool)
        assert report.serialized_pairs
        assert report.max_entities_per_channel >= 6

    def test_single_entity(self):
        pool = ChannelPool(16)
        report = collision_report(map_endpoints([3], pool), pool)
        assert report.distinct_channels_used == 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            collision_report([], ChannelPool(4))


def _comm_population(n_grouping, n_parallelism):
    ids = IdAllocator()
    world = world_communicator(4, ids)
    comms = [dup_communicator(world, ids, purpose=Purpose.GENERAL)
             for _ in range(n_grouping)]
    comms += [dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
              for _ in range(n_parallelism)]
    return comms


class TestGroupingMismatch:
    def test_grouping_comms_squeeze_parallelism_comms(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        report = grouping_mismatch_demo(_comm_population(150, 20), pool)
        mixed = [pair for pair in report.serialized_pairs
                 if {pair[0][0], pair[1][0]} == {"general", "parallelism"}]
        assert mixed  # parallelism traffic shares channels with grouping

    def test_no_grouping_comms(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        report = grouping_mismatch_demo(_comm_population(0, 20), pool)
        channels = sorted(ch for ch, labels in report.occupancy.items())
        assert channels == list(range(20))

    def test_purpose_aware_allocation_protects_parallelism(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        report = grouping_mismatch_demo(_comm_population(150, 20), pool,
                                        purpose_aware=True)
        for pair in report.serialized_pairs:
            kinds = {pair[0][0], pair[1][0]}
            assert "parallelism" not in kinds
