"""Channel order alone keeps classifier-serial ops in order.

The engine places the transfers of one channel instance in issue order and
orders nothing else.  That suffices because of an invariant of every channel
policy: two non-receive ops of one process and phase that share a
serial-bucket key, and that the classifier deems serial, map to a common
local or remote channel instance.  This file checks the invariant over every
kind, spec mechanism, policy, hint set and pool of 1, 2 or 16 channels that
the spec accepts, on an even and an odd grid of each kind.
"""

import itertools
from collections import Counter

import pytest

from mpxlab.channels import ChannelPool, map_entity
from mpxlab.errors import MpxlabError
from mpxlab.model import OpKind
from mpxlab.patterns.specfile import (HINT_FLAGS, MECHANISMS, POLICIES,
                                      scenario_from_dict)
from mpxlab.semantics import _serial_bucket_key, logically_parallel
from mpxlab.simulator import channel_policy

from test_iterations import _GRIDS

POOLS = (1, 2, 16)
HINT_SETS = [dict.fromkeys(chosen, True) for n in range(len(HINT_FLAGS) + 1)
             for chosen in itertools.combinations(sorted(HINT_FLAGS), n)]


def serial_pairs(pattern, assignment):
    """Pairs of non-receive ops of one process and phase that share a
    serial-bucket key and that the classifier deems serial."""
    bindings, hints = assignment.bindings, assignment.hints
    groups = {}
    for op in pattern.ops:
        if op.kind is not OpKind.RECV:
            key = _serial_bucket_key(bindings[op.op_id], hints)
            if key is not None:
                groups.setdefault((op.process, op.phase, key), []).append(op)
    return [(a, b) for group in groups.values()
            for a, b in itertools.combinations(group, 2)
            if not logically_parallel(bindings[a.op_id], bindings[b.op_id],
                                      hints).parallel]


def instances(op, assignment, mapping, pool):
    """The channel instances ``op``'s transfer holds, as the engine computes
    them: ``p * R + local`` and, with a peer, ``peer * R + remote``; a
    partition op's peer comes from its request."""
    desc = assignment.bindings[op.op_id]
    local, remote = map_entity(mapping, desc, pool)
    R, peer = pool.num_channels, op.peer_process
    if peer is None and desc.partition is not None:
        peer = assignment.requests[desc.partition[0]].peer
    return {op.process * R + local} | (set() if peer is None
                                      else {peer * R + remote})


def sweep(kind):
    """Counts of the accepted cases, the serial pairs checked and the pairs
    split over disjoint channel instances, over every case of ``kind``."""
    counts = Counter()
    for (process_grid, thread_grid), mechanism, hints in itertools.product(
            _GRIDS[kind], MECHANISMS, HINT_SETS):
        try:
            scenario = scenario_from_dict({
                "kind": kind, "process_grid": process_grid,
                "thread_grid": thread_grid, "mechanism": mechanism,
                "hints": hints})
            pattern = scenario.build_pattern()
            assignment = scenario.build_assignment(pattern)
        except MpxlabError:
            continue
        pairs = serial_pairs(pattern, assignment)
        for policy, R in itertools.product([None, *POLICIES.values()], POOLS):
            pool = ChannelPool(R)
            try:
                mapping = channel_policy(policy, assignment, pool)
                held = {op.op_id: instances(op, assignment, mapping, pool)
                        for pair in pairs for op in pair}
            except MpxlabError:
                continue
            counts["cases"] += 1
            counts["pairs"] += len(pairs)
            counts["split"] += sum(1 for a, b in pairs
                                   if held[a.op_id].isdisjoint(held[b.op_id]))
    return counts


# the other kinds have no serial pair in a phase: a stencil phase is one
# traffic direction, and a dynamic-graph thread sends once per round on a
# context or endpoint of its own
HAS_SERIAL_PAIRS = {"bspmm-rma", "fan-in", "legion-polling",
                    "multithreaded-allreduce"}


@pytest.mark.parametrize("kind", sorted(_GRIDS))
def test_serial_ops_share_a_channel_instance(kind):
    counts = sweep(kind)
    assert counts["cases"] > 0
    assert (counts["pairs"] > 0) == (kind in HAS_SERIAL_PAIRS), counts
    assert counts["split"] == 0, counts
