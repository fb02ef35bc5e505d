"""Virtual communication channels and the policies that map onto them.

A :class:`ChannelPool` models the finite per-node supply of network hardware
contexts.  A policy's rule in :data:`RULES` reads a key from an operation
(a communicator, tag, endpoint or partition) and maps the key to a
deterministic (local, remote) channel pair.  :func:`collisions` counts, through
the same rule, how distinct keys share channels when they outnumber them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidArgumentError, MappingError
from .model import ANY_SOURCE, OpDescriptor, Tag, TagBitLayout, decode_tag

# hardware context count of one Omni-Path HFI adapter
OMNI_PATH_HFI_CONTEXTS = 160


@dataclass(frozen=True)
class ChannelPool:
    """A pool of R interchangeable communication channels."""

    num_channels: int = 16

    def __post_init__(self):
        if self.num_channels < 1:
            raise InvalidArgumentError("a pool needs at least one channel")


def fnv1a(value: int) -> int:
    """FNV-1a over the 8-byte little-endian encoding of ``value``.

    The fixed, published hash keeps collision accounting reproducible across
    runs and platforms.
    """
    h = 0x811C9DC5
    for byte in int(value).to_bytes(8, "little", signed=False):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


class PolicyKind(Enum):
    ROUND_ROBIN_PER_COMMUNICATOR = "round-robin-comm"
    HASH_COMMUNICATOR = "hash-comm"
    TAG_BITS_ONE_TO_ONE = "tag-bits"
    ENDPOINT_IDENTITY = "endpoint-identity"
    PARTITION_INDEX = "partition-index"

    __hash__ = object.__hash__  # see model.OpKind


@dataclass
class MappingPolicy:
    """A mapping rule plus whatever state it needs.

    Round-robin allocation happens at communicator creation time, mirroring
    libraries that carve a channel pool during initialization; the allocation
    table is filled once during scenario construction and read-only after.
    """

    kind: PolicyKind
    layout: TagBitLayout | None = None
    allocations: dict[int, int] = field(default_factory=dict)

    def register_communicator(self, context_id: int, pool: ChannelPool) -> int:
        """Assign the next round-robin channel to a newly created context."""
        if context_id not in self.allocations:
            self.allocations[context_id] = len(self.allocations) % pool.num_channels
        return self.allocations[context_id]


# A policy's rule is two functions of the policy: the key it reads from an op
# and the (local, remote) channel pair of a key.  Every caller maps through
# both, so equal keys give equal pairs and a caller may memoise the pair.
# A key function reads the op's fields by position, so it answers the same
# on an OpDescriptor and on the plain tuple of its fields, which a stamped
# binding view's ``at`` gives the engine: 3 context, 4 target, 5 tag,
# 6 endpoint, 7 window, 9 partition.

def communicator_key(policy: MappingPolicy, op: OpDescriptor) -> int:
    """The id a communicator policy keys one operation on: its context, else
    its window (one matching entity, like a context), else its request."""
    context = op[3]
    if context is not None:
        return context.key
    if op[7] is not None:
        return op[7]
    if op[9] is not None:
        return op[9][0]
    raise MappingError("communicator policies need an addressed op")


def _allocated_pair(policy, context_id, pool):
    ch = policy.allocations.get(context_id)
    if ch is None:
        raise MappingError(f"context {context_id} was never registered with the pool")
    return ch, ch


def _index_pair(policy, index, pool):
    ch = index % pool.num_channels
    return ch, ch


def _hashed_pair(policy, context_id, pool):
    return _index_pair(policy, fnv1a(context_id), pool)


def _tag_key(policy, op):
    if policy.layout is None:
        raise MappingError("tag-bit mapping needs a TagBitLayout")
    tag = op[5]
    if tag is None or tag.is_wildcard:
        raise MappingError("tag-bit mapping needs a concrete tag")
    return tag.raw


def _tag_pair(policy, raw, pool):  # local by sender tid, remote by receiver
    src, dst, _ = decode_tag(Tag(raw), policy.layout)
    n = min(pool.num_channels, policy.layout.num_vcis)
    return src % n, dst % n


def _endpoint_key(policy, op):
    if op[6] is None:
        raise MappingError("endpoint identity needs an endpoint-addressed op")
    return op[6], op[4]


def _endpoint_pair(policy, key, pool):  # ranks modulo the pool
    endpoint, target = key
    local = endpoint % pool.num_channels
    if target is None or target == ANY_SOURCE:
        return local, local
    return local, target % pool.num_channels


def _partition_key(policy, op):
    partition = op[9]
    if partition is None:
        raise MappingError("partition-index mapping needs a partition op")
    return partition[1]


# kind -> (key(policy, op), pair(policy, key, pool))
RULES = {
    PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR: (communicator_key, _allocated_pair),
    PolicyKind.HASH_COMMUNICATOR: (communicator_key, _hashed_pair),
    PolicyKind.TAG_BITS_ONE_TO_ONE: (_tag_key, _tag_pair),
    PolicyKind.ENDPOINT_IDENTITY: (_endpoint_key, _endpoint_pair),
    PolicyKind.PARTITION_INDEX: (_partition_key, _index_pair),
}


def rule_of(policy: MappingPolicy) -> tuple:
    """The (key, pair) functions of ``policy``'s kind."""
    rule = RULES.get(policy.kind)
    if rule is None:
        raise MappingError(f"unknown policy {policy.kind}")
    return rule


def map_entity(policy: MappingPolicy, op: OpDescriptor,
               pool: ChannelPool) -> tuple[int, int]:
    """The (local, remote) channel pair of the key ``policy`` reads from ``op``."""
    key, pair = rule_of(policy)
    return pair(policy, key(policy, op), pool)


@dataclass(frozen=True)
class Collisions:
    """How distinct keys share the local channels their policy maps them to."""

    channels_used: int
    max_per_channel: int
    serialized_pairs: int  # n(n-1)/2 on a channel of n keys, summed


def collisions(policy: MappingPolicy, keys, pool: ChannelPool) -> Collisions:
    """Count the distinct ``keys`` on each local channel of ``policy``'s rule;
    keys that share a channel serialize, pairwise.  Round-robin keys must be
    registered first (``simulator.channel_policy``)."""
    _, pair = rule_of(policy)
    distinct = dict.fromkeys(keys)  # smaller than a set of the same keys
    per_channel = Counter(pair(policy, key, pool)[0] for key in distinct)
    if not per_channel:
        raise InvalidArgumentError("need at least one key")
    counts = per_channel.values()
    return Collisions(len(per_channel), max(counts),
                      sum(n * (n - 1) // 2 for n in counts))
