"""Virtual communication channels and the policies that map onto them.

A :class:`ChannelPool` models the finite per-node supply of network hardware
contexts.  Mapping policies translate matching entities (communicators,
tag bits, endpoints, partitions) into deterministic (local, remote) channel
pairs; collision accounting shows what happens when entities outnumber
channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidArgumentError, MappingError
from .model import (
    ANY_SOURCE,
    OpDescriptor,
    TagBitLayout,
    decode_tag,
)

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
    _next_rr: int = 0

    def register_communicator(self, context_id: int, pool: ChannelPool) -> int:
        """Assign the next round-robin channel to a newly created context."""
        if context_id not in self.allocations:
            self.allocations[context_id] = self._next_rr % pool.num_channels
            self._next_rr += 1
        return self.allocations[context_id]

    def channel_of_context(self, context_id: int, pool: ChannelPool) -> int:
        if self.kind is PolicyKind.HASH_COMMUNICATOR:
            return fnv1a(context_id) % pool.num_channels
        if self.kind is PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR:
            if context_id not in self.allocations:
                raise MappingError(
                    f"context {context_id} was never registered with the pool"
                )
            return self.allocations[context_id]
        raise MappingError(f"{self.kind.value} does not map whole communicators")


def communicator_key(op: OpDescriptor) -> int:
    """The id a communicator policy keys one operation on: its context, else
    its window (one matching entity, like a context), else its request."""
    context = op.context
    if context is not None:
        return context.key
    if op.window is not None:
        return op.window
    if op.partition is not None:
        return op.partition[0]
    raise MappingError("communicator policies need an addressed op")


def map_entity(policy: MappingPolicy, op: OpDescriptor,
               pool: ChannelPool) -> tuple[int, int]:
    """Deterministic (local, remote) channel pair for one operation.

    Tag-bit mapping uses the sender-tid bits for the local channel and the
    receiver-tid bits for the remote one; endpoint identity reduces endpoint
    ranks modulo the pool size; communicator policies give a symmetric pair.
    """
    R = pool.num_channels
    kind = policy.kind

    if kind in (PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR,
                PolicyKind.HASH_COMMUNICATOR):
        ch = policy.channel_of_context(communicator_key(op), pool)
        return ch, ch

    if kind is PolicyKind.TAG_BITS_ONE_TO_ONE:
        if policy.layout is None:
            raise MappingError("tag-bit mapping needs a TagBitLayout")
        tag = op.tag
        if tag is None or tag.is_wildcard:
            raise MappingError("tag-bit mapping needs a concrete tag")
        src, dst, _ = decode_tag(tag, policy.layout)
        n = min(R, policy.layout.num_vcis)
        return src % n, dst % n

    if kind is PolicyKind.ENDPOINT_IDENTITY:
        if op.endpoint is None:
            raise MappingError("endpoint identity needs an endpoint-addressed op")
        local = op.endpoint % R
        if op.target is None or op.target == ANY_SOURCE:
            return local, local
        return local, op.target % R

    if kind is PolicyKind.PARTITION_INDEX:
        if op.partition is None:
            raise MappingError("partition-index mapping needs a partition op")
        ch = op.partition[1] % R
        return ch, ch

    raise MappingError(f"unknown policy {kind}")


@dataclass(frozen=True)
class MappedEntity:
    label: object
    local: int
    remote: int


@dataclass
class CollisionReport:
    """Exact channel occupancy accounting for a set of mapped entities."""

    entities_mapped: int
    distinct_channels_used: int
    max_entities_per_channel: int
    serialized_pairs: list[tuple[object, object]]
    occupancy: dict[int, list] = field(default_factory=dict)

    def __post_init__(self):
        if self.distinct_channels_used > self.entities_mapped:
            raise InvalidArgumentError("more channels used than entities mapped")


def collision_report(entities: list[MappedEntity], pool: ChannelPool) -> CollisionReport:
    """Account for who landed where; pairs sharing a channel serialize."""
    if not entities:
        raise InvalidArgumentError("need at least one mapped entity")
    occupancy: dict[int, list] = {}
    for ent in entities:
        if not 0 <= ent.local < pool.num_channels:
            raise MappingError(f"channel {ent.local} outside pool of {pool.num_channels}")
        occupancy.setdefault(ent.local, []).append(ent.label)
    pairs = []
    for channel in sorted(occupancy):
        labels = occupancy[channel]
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                pairs.append((labels[i], labels[j]))
    return CollisionReport(
        entities_mapped=len(entities),
        distinct_channels_used=len(occupancy),
        max_entities_per_channel=max(len(v) for v in occupancy.values()),
        serialized_pairs=pairs,
        occupancy=occupancy,
    )


def map_communicators(context_ids, policy: MappingPolicy,
                      pool: ChannelPool) -> list[MappedEntity]:
    """Map whole communicators (by context id) through a communicator policy."""
    out = []
    for ctx in context_ids:
        if policy.kind is PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR:
            policy.register_communicator(ctx, pool)
        ch = policy.channel_of_context(ctx, pool)
        out.append(MappedEntity(("comm", ctx), ch, ch))
    return out


def map_endpoints(endpoint_ranks, pool: ChannelPool) -> list[MappedEntity]:
    """Identity-modulo mapping for endpoint ranks."""
    return [
        MappedEntity(("ep", rank), rank % pool.num_channels, rank % pool.num_channels)
        for rank in endpoint_ranks
    ]


def grouping_mismatch_demo(comms, pool: ChannelPool,
                           purpose_aware: bool = False) -> CollisionReport:
    """Allocate channels to communicators with and without purpose knowledge.

    The unaware path maps every communicator round-robin in creation order,
    the way a library that cannot tell grouping communicators apart from
    parallelism communicators would.  The aware path (a hypothetical hint)
    gives parallelism communicators dedicated channels first and confines
    grouping communicators to whatever remains.
    """
    from .model import Purpose  # local import: avoids a cycle at module load

    comms = list(comms)
    if not comms:
        raise InvalidArgumentError("need at least one communicator")
    entities = []
    if not purpose_aware:
        for i, comm in enumerate(comms):
            ch = i % pool.num_channels
            entities.append(MappedEntity((comm.purpose.value, comm.context_id), ch, ch))
        return collision_report(entities, pool)

    par = [c for c in comms if c.purpose is Purpose.PARALLELISM_EXPOSURE]
    grp = [c for c in comms if c.purpose is not Purpose.PARALLELISM_EXPOSURE]
    for i, comm in enumerate(par):
        ch = i % pool.num_channels
        entities.append(MappedEntity((comm.purpose.value, comm.context_id), ch, ch))
    reserved = min(len(par), pool.num_channels)
    spare = pool.num_channels - reserved
    for i, comm in enumerate(grp):
        # grouping traffic never touches a reserved channel unless none remain
        ch = reserved + (i % spare) if spare > 0 else i % pool.num_channels
        entities.append(MappedEntity((comm.purpose.value, comm.context_id), ch, ch))
    return collision_report(entities, pool)
