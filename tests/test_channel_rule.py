"""The engine maps every send by the rule ``map_entity`` states.

The engine memoises each send's channel pair on the key its policy reads,
and ``map_entity`` applies the policy's rule to one op.  Over every pinned
report spec, under the mechanism's default policy and each named policy its
assignment can express, on pools of 1, 3 and 16 channels, every op that
takes a channel must acquire, in every iteration, the channel the trace
names for the instances ``p * R + local`` and ``peer * R + remote`` of the
pair ``map_entity`` gives it, and each instance must be busy for
``TRANSFER_TICKS`` per iteration and per send that holds it.  A memo keyed
on less than the policy's key hands some send another op's pair and fails
here.
"""

import itertools
from collections import Counter

import pytest

from mpxlab.channels import ChannelPool, map_entity
from mpxlab.errors import UnsupportedPatternError
from mpxlab.model import OpKind
from mpxlab.patterns.specfile import POLICIES, scenario_from_dict
from mpxlab.simulator import (TRANSFER_TICKS, EventKind, _Engine,
                              channel_policy)

from test_reports import SPECS


def rule_instances(op, assignment, mapping, pool):
    """(local instance, remote instance or None) of ``op`` by the rule: the
    remote is None without a peer or when it equals the local one, as the
    engine holds them; a partition op's peer comes from its request."""
    desc = assignment.bindings[op.op_id]
    local, remote = map_entity(mapping, desc, pool)
    R, peer = pool.num_channels, op.peer_process
    if peer is None and desc.partition is not None:
        peer = assignment.requests[desc.partition[0]].peer
    local = op.process * R + local
    remote = None if peer is None else peer * R + remote
    return local, None if remote == local else remote


@pytest.mark.parametrize("name", sorted(SPECS))
def test_each_send_holds_the_rule_pair(name):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    assignment = scenario.build_assignment(pattern)
    n = pattern.iterations
    sends = [op for op in pattern.ops if op.kind is not OpKind.RECV]
    checked = 0
    for policy, R in itertools.product([None, *POLICIES.values()], (1, 3, 16)):
        pool = ChannelPool(R)
        try:
            mapping = channel_policy(policy, assignment, pool)
        except UnsupportedPatternError:
            continue  # a policy the assignment cannot express
        engine = _Engine(pattern, assignment, pool, mapping, 0, events=True)
        report = engine.run()
        acquired = {}
        for ev in report.events:
            if ev.kind is EventKind.CHANNEL_ACQUIRE:
                acquired.setdefault(ev.op_id, []).append(ev.channel)
        held = Counter()
        for op in sends:
            local, remote = rule_instances(op, assignment, mapping, pool)
            channel = divmod(local if remote is None else min(local, remote), R)
            assert acquired.pop(op.op_id) == [channel] * n, (policy, R, op)
            held.update(i for i in (local, remote) if i is not None)
            checked += 1
        assert not acquired  # only the ops that take a channel acquire one
        assert report.channel_occupancy == {
            "p{}c{}".format(*divmod(instance, R)): count * TRANSFER_TICKS * n
            for instance, count in sorted(held.items())}, (policy, R)
    assert checked
