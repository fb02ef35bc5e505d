"""The engine maps every send by the rule ``map_entity`` states.

``_Engine._plan`` memoises each send's channel pair on the key its policy
reads, and ``map_entity`` applies the policy's rule to one op.  Over every
pinned report spec, under the mechanism's default policy and each named
policy its assignment can express, on pools of 1, 3 and 16 channels, every
send row must hold the instances ``p * R + local`` and ``peer * R +
remote`` of the pair ``map_entity`` gives its op.  A memo keyed on less than
the policy's key hands some send another op's pair and fails here.
"""

import itertools

import pytest

from mpxlab.channels import ChannelPool, map_entity
from mpxlab.errors import UnsupportedPatternError
from mpxlab.patterns.base import Mechanism
from mpxlab.patterns.specfile import POLICIES, scenario_from_dict
from mpxlab.simulator import _Engine, _pair_requests, channel_policy

from test_reports import SPECS


def rule_instances(op, assignment, mapping, pool):
    """(local instance, remote instance or None) of ``op`` by the rule: the
    remote is None without a peer or when it equals the local one, as in a
    plan row; a partition op's peer comes from its request."""
    desc = assignment.bindings[op.op_id]
    local, remote = map_entity(mapping, desc, pool)
    R, peer = pool.num_channels, op.peer_process
    if peer is None and desc.partition is not None:
        peer = assignment.requests[desc.partition[0]].peer
    local = op.process * R + local
    remote = None if peer is None else peer * R + remote
    return local, None if remote == local else remote


@pytest.mark.parametrize("name", sorted(SPECS))
def test_plan_rows_hold_the_rule_pairs(name):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    assignment = scenario.build_assignment(pattern)
    op_of = {op.op_id: op for op in pattern.ops}
    pair_of = (_pair_requests(assignment.requests.values())
               if assignment.mechanism is Mechanism.PARTITIONED else {})
    checked = 0
    for policy, R in itertools.product([None, *POLICIES.values()], (1, 3, 16)):
        pool = ChannelPool(R)
        try:
            mapping = channel_policy(policy, assignment, pool)
        except UnsupportedPatternError:
            continue  # a policy the assignment cannot express
        engine = _Engine(pattern, assignment, pool, mapping, 0, events=False)
        for _, send_rows in engine._plan(pair_of).values():
            for op_id, _, _, local, remote, *_ in send_rows:
                assert (local, remote) == rule_instances(
                    op_of[op_id], assignment, mapping, pool), (policy, R, op_id)
                checked += 1
    assert checked
