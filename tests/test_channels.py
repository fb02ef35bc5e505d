"""Channel pool mapping policies and collision accounting."""

import runpy
from collections import Counter
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mpxlab.channels import (
    ChannelPool,
    MappingPolicy,
    OMNI_PATH_HFI_CONTEXTS,
    PolicyKind,
    collisions,
    fnv1a,
    map_entity,
    rule_of,
)
from mpxlab.errors import InvalidArgumentError, MappingError
from mpxlab.model import (
    ANY_SOURCE,
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
        report = collisions(policy, range(808), pool)
        assert report.channels_used == 160
        assert report.max_per_channel >= -(-808 // 160)  # >= 6

    def test_policy_needs_matching_fields(self):
        policy = MappingPolicy(PolicyKind.TAG_BITS_ONE_TO_ONE)
        with pytest.raises(MappingError):
            map_entity(policy, ep_op(0), ChannelPool(4))

    def test_round_robin_requires_registration(self):
        policy = MappingPolicy(PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR)
        pool = ChannelPool(8)
        _, pair = rule_of(policy)
        with pytest.raises(MappingError):
            pair(policy, 42, pool)
        assert policy.register_communicator(42, pool) == 0
        assert pair(policy, 42, pool) == (0, 0)

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


def endpoint_keys(ranks):
    """Endpoint-identity keys of whole endpoints, as ``analyze`` counts them."""
    return [(rank, None) for rank in ranks]


class TestCollisions:
    def test_endpoints_fit_without_collisions(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        policy = MappingPolicy(PolicyKind.ENDPOINT_IDENTITY)
        report = collisions(policy, endpoint_keys(range(56)), pool)
        assert report.max_per_channel == 1
        assert report.serialized_pairs == 0
        assert report.channels_used == 56

    def test_many_comms_collide(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        policy = MappingPolicy(PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR)
        for ctx in range(808):
            policy.register_communicator(ctx, pool)
        report = collisions(policy, range(808), pool)
        assert report.serialized_pairs > 0
        assert report.max_per_channel >= 6

    def test_round_robin_keys_must_be_registered(self):
        policy = MappingPolicy(PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR)
        with pytest.raises(MappingError, match="never registered"):
            collisions(policy, [7], ChannelPool(4))

    def test_single_entity(self):
        pool = ChannelPool(16)
        policy = MappingPolicy(PolicyKind.ENDPOINT_IDENTITY)
        assert collisions(policy, endpoint_keys([3]), pool).channels_used == 1

    def test_repeated_keys_count_once(self):
        pool = ChannelPool(4)
        policy = MappingPolicy(PolicyKind.HASH_COMMUNICATOR)
        assert collisions(policy, [5, 5, 5], pool).serialized_pairs == 0

    def test_empty_rejected(self):
        policy = MappingPolicy(PolicyKind.HASH_COMMUNICATOR)
        with pytest.raises(InvalidArgumentError):
            collisions(policy, [], ChannelPool(4))

    @given(st.integers(1, 40),
           st.sets(st.integers(0, 1 << 20), min_size=1, max_size=60),
           st.sets(st.tuples(st.integers(0, 500),
                             st.sampled_from([None, ANY_SOURCE, 0, 3, 17, 99])),
                   min_size=1, max_size=60))
    def test_counts_equal_brute_force(self, r, contexts, endpoint_targets):
        pool = ChannelPool(r)
        # each key's local channel, stated apart from the rule table
        cases = [(PolicyKind.HASH_COMMUNICATOR,
                  {ctx: fnv1a(ctx) % r for ctx in contexts}),
                 (PolicyKind.ENDPOINT_IDENTITY,
                  {key: key[0] % r for key in endpoint_targets})]
        for kind, local in cases:
            report = collisions(MappingPolicy(kind), list(local), pool)
            shared = sum(local[a] == local[b] for a, b in combinations(local, 2))
            per_channel = Counter(local.values())
            assert report.serialized_pairs == shared
            assert report.channels_used == len(per_channel)
            assert report.max_per_channel == max(per_channel.values())


@cache
def _collisions_demo() -> dict:
    """The globals of the channel-collisions demo, run once."""
    return runpy.run_path(str(Path(__file__).resolve().parent.parent
                              / "demos" / "demo_channel_collisions.py"))


def grouping_mismatch_demo(*args, **kwargs):
    return _collisions_demo()["grouping_mismatch_demo"](*args, **kwargs)


def _comm_population(n_grouping, n_parallelism):
    ids = IdAllocator()
    world = world_communicator(4, ids)
    comms = [dup_communicator(world, ids, purpose=Purpose.GENERAL)
             for _ in range(n_grouping)]
    comms += [dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
              for _ in range(n_parallelism)]
    return comms


def parallelism_pairs(occupancy):
    return _collisions_demo()["parallelism_pairs"](occupancy)


class TestGroupingMismatch:
    def test_grouping_comms_squeeze_parallelism_comms(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        occupancy = grouping_mismatch_demo(_comm_population(150, 20), pool)
        mixed = sum(counts[Purpose.GENERAL] * counts[Purpose.PARALLELISM_EXPOSURE]
                    for counts in occupancy.values())
        assert mixed  # parallelism traffic shares channels with grouping
        assert parallelism_pairs(occupancy) == mixed == 10

    def test_no_grouping_comms(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        occupancy = grouping_mismatch_demo(_comm_population(0, 20), pool)
        assert sorted(occupancy) == list(range(20))

    def test_purpose_aware_allocation_protects_parallelism(self):
        pool = ChannelPool(OMNI_PATH_HFI_CONTEXTS)
        occupancy = grouping_mismatch_demo(_comm_population(150, 20), pool,
                                           purpose_aware=True)
        assert parallelism_pairs(occupancy) == 0

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 12),
           st.booleans())
    def test_parallelism_pairs_equal_brute_force(self, n_grouping,
                                                 n_parallelism, r, aware):
        comms = _comm_population(n_grouping, n_parallelism)
        if not comms:
            return
        occupancy = grouping_mismatch_demo(comms, ChannelPool(r),
                                           purpose_aware=aware)
        assert sum(c.total() for c in occupancy.values()) == len(comms)
        touching = 0
        for counts in occupancy.values():
            on_channel = list(counts.elements())
            touching += sum(Purpose.PARALLELISM_EXPOSURE in pair
                            for pair in combinations(on_channel, 2))
        assert parallelism_pairs(occupancy) == touching
