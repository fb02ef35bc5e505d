#!/usr/bin/env python3
"""Finite channel pools: who collides when entities outnumber hardware.

A network adapter offers a fixed number of hardware contexts (160 on the
Omni-Path HFI).  The 808 communicators of the ideal 27-point stencil
exchange ([2,2,2] processes of [4,4,4] threads) cannot avoid sharing them;
the 56 endpoints process 0 binds fit with room to spare.  And when a
library cannot tell grouping communicators from parallelism communicators,
the former eat the pool first.

Run: python demos/demo_channel_collisions.py
"""

from collections import Counter

import mpxlab as m
from mpxlab.errors import InvalidArgumentError
from mpxlab.model import IdAllocator, Purpose, dup_communicator, world_communicator


def grouping_mismatch_demo(comms, pool: m.ChannelPool,
                           purpose_aware: bool = False) -> dict[int, Counter]:
    """Allocate channels to communicators with and without purpose knowledge,
    and count the communicators of each purpose on every channel used.

    The unaware path maps every communicator round-robin in creation order,
    the way a library that cannot tell grouping communicators apart from
    parallelism communicators would.  The aware path (a hypothetical hint)
    gives parallelism communicators dedicated channels first and confines
    grouping communicators to whatever remains.
    """
    comms = list(comms)
    if not comms:
        raise InvalidArgumentError("need at least one communicator")
    if not purpose_aware:
        placed = [(c, i % pool.num_channels) for i, c in enumerate(comms)]
    else:
        par = [c for c in comms if c.purpose is Purpose.PARALLELISM_EXPOSURE]
        grp = [c for c in comms if c.purpose is not Purpose.PARALLELISM_EXPOSURE]
        placed = [(c, i % pool.num_channels) for i, c in enumerate(par)]
        reserved = min(len(par), pool.num_channels)
        spare = pool.num_channels - reserved
        # grouping traffic never touches a reserved channel unless none remain
        placed += [(c, reserved + i % spare if spare > 0 else i % pool.num_channels)
                   for i, c in enumerate(grp)]
    occupancy: dict[int, Counter] = {}
    for comm, channel in placed:
        occupancy.setdefault(channel, Counter())[comm.purpose] += 1
    return occupancy


def parallelism_pairs(occupancy: dict[int, Counter]) -> int:
    """Serialized pairs that involve a parallelism communicator: a channel
    with p of them and g others holds p(p-1)/2 + p*g such pairs."""
    pairs = 0
    for counts in occupancy.values():
        p = counts[Purpose.PARALLELISM_EXPOSURE]
        pairs += p * (p - 1) // 2 + p * (counts.total() - p)
    return pairs


pool = m.ChannelPool(m.OMNI_PATH_HFI_CONTEXTS)
print(f"channel pool: {pool.num_channels} hardware contexts")
print()

# ---------------------------------------------------------------------------
# the ideal communicators of the 3D [2,2,2]x[4,4,4] exchange vs its endpoints,
# counted as `mpxlab analyze` counts them

pattern = m.gen_stencil(3, 27, [2, 2, 2], [4, 4, 4])
ideal = m.build_assignment(pattern, "communicators")
endpoints = m.build_assignment(pattern, "endpoints")
contexts = [c.context_id for c in ideal.comms[1:]]
for kind in (m.PolicyKind.ROUND_ROBIN_PER_COMMUNICATOR,
             m.PolicyKind.HASH_COMMUNICATOR):
    report = m.collisions(m.channel_policy(kind, ideal, pool), contexts, pool)
    print(f"{len(contexts)} communicators, {kind.value}: "
          f"{report.channels_used} channels used, "
          f"up to {report.max_per_channel} per channel, "
          f"{report.serialized_pairs} serialized pairs")

# the endpoint ranks process 0's ops are bound to
ranks = {endpoints.bindings[op.op_id].endpoint
         for op in pattern.ops if op.process == 0}
identity = m.channel_policy(m.PolicyKind.ENDPOINT_IDENTITY, endpoints, pool)
ep_report = m.collisions(identity, [(rank, None) for rank in ranks], pool)
print(f"{len(ranks)} endpoints, identity: {ep_report.channels_used} channels, "
      f"max {ep_report.max_per_channel} per channel, "
      f"{ep_report.serialized_pairs} serialized pairs")
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
    touching = parallelism_pairs(grouping_mismatch_demo(comms, pool,
                                                        purpose_aware=aware))
    label = "purpose-aware" if aware else "creation-order"
    print(f"{label:>14}: {touching} collisions involve a "
          f"parallelism communicator")
print("(the hypothetical purpose hint reserves clean channels for the "
      "communicators that actually need them)")
