#!/usr/bin/env python3
"""Finite channel pools: who collides when entities outnumber hardware.

A network adapter offers a fixed number of hardware contexts (160 on the
Omni-Path HFI).  808 communicators cannot avoid sharing them; 56 endpoints
fit with room to spare.  And when a library cannot tell grouping
communicators from parallelism communicators, the former eat the pool first.

Run: python demos/demo_channel_collisions.py
"""

import mpxlab as m
from mpxlab.channels import MappedEntity
from mpxlab.errors import InvalidArgumentError
from mpxlab.model import IdAllocator, Purpose, dup_communicator, world_communicator


def grouping_mismatch_demo(comms, pool: m.ChannelPool,
                           purpose_aware: bool = False) -> m.CollisionReport:
    """Allocate channels to communicators with and without purpose knowledge.

    The unaware path maps every communicator round-robin in creation order,
    the way a library that cannot tell grouping communicators apart from
    parallelism communicators would.  The aware path (a hypothetical hint)
    gives parallelism communicators dedicated channels first and confines
    grouping communicators to whatever remains.
    """
    comms = list(comms)
    if not comms:
        raise InvalidArgumentError("need at least one communicator")
    entities = []
    if not purpose_aware:
        for i, comm in enumerate(comms):
            ch = i % pool.num_channels
            entities.append(MappedEntity((comm.purpose.value, comm.context_id), ch, ch))
        return m.collision_report(entities, pool)

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
    return m.collision_report(entities, pool)


pool = m.ChannelPool(m.OMNI_PATH_HFI_CONTEXTS)
print(f"channel pool: {pool.num_channels} hardware contexts")
print()

# ---------------------------------------------------------------------------
# 808 ideal communicators of the 3D [4,4,4] exchange vs its 56 endpoints

for kind in (m.PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR,
             m.PolicyKind.HASH_COMMUNICATOR):
    policy = m.MappingPolicy(kind)
    report = m.collision_report(
        m.map_communicators(range(808), policy, pool), pool)
    print(f"808 communicators, {kind.value}: "
          f"{report.distinct_channels_used} channels used, "
          f"up to {report.max_entities_per_channel} per channel, "
          f"{report.serialized_pair_count} serialized pairs")

ep_report = m.collision_report(m.map_endpoints(range(56), pool), pool)
print(f"56 endpoints, identity: {ep_report.distinct_channels_used} channels, "
      f"max {ep_report.max_entities_per_channel} per channel, "
      f"{ep_report.serialized_pair_count} serialized pairs")
print()

# ---------------------------------------------------------------------------
# overloaded communicator roles: grouping allocations squeeze parallelism ones

ids = IdAllocator()
world = world_communicator(4, ids)
comms = [dup_communicator(world, ids, purpose=Purpose.GENERAL)
         for _ in range(150)]
comms += [dup_communicator(world, ids, purpose=Purpose.PARALLELISM_EXPOSURE)
          for _ in range(20)]

for aware in (False, True):
    report = grouping_mismatch_demo(comms, pool, purpose_aware=aware)
    touching = [pair for pair in report.serialized_pairs
                if "parallelism" in (pair[0][0], pair[1][0])]
    label = "purpose-aware" if aware else "creation-order"
    print(f"{label:>14}: {len(touching)} collisions involve a "
          f"parallelism communicator")
print("(the hypothetical purpose hint reserves clean channels for the "
      "communicators that actually need them)")
