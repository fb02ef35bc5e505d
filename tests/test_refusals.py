"""``run()`` refuses an assignment whose intended pairs cannot match, with
the message of the full check, although its engine checks only the pairs
it did not pair itself.

The matching triplet is stated once, in :mod:`mpxlab.semantics`
(``match_keys``, ``send_covers``), and the engine's matcher reads it, so a
send the matcher paired with its partner meets ``can_match``
(``tests/test_matching.py`` checks the matcher against a linear scan of a
field-by-field reference rule).  The engine decides every other pair as its
send issues, through ``semantics.pair_meets``; ``run()`` checks every
pair only when the engine fails.  The cases below corrupt one intended pair
of each small spec of ``tests/test_reports.py`` and expect the refusal
:func:`matching_violations` describes.
"""

from dataclasses import replace

import pytest

from mpxlab.errors import InvalidAssignmentError
from mpxlab.model import (ANY_SOURCE, ANY_TAG, ContextFamily, Direction,
                          MatchContextId, OpKind, Tag)
from mpxlab.patterns import assign_communicators_naive, gen_fan_in
from mpxlab.patterns.specfile import scenario_from_dict
from mpxlab.semantics import matching_violations, requests_match
from mpxlab.simulator import _Engine, channel_policy, run

from helpers import intended_pairs
from test_reports import SPECS


def build(name):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    return scenario, pattern, scenario.build_assignment(pattern)


def simulate(scenario, pattern, assignment):
    return run(pattern, assignment, pool=scenario.build_pool(),
               policy=scenario.build_policy(), seed=scenario.seed)


def corrupt(assignment, send_id, recv_id, field):
    """The assignment with one field of the receive of an intended pair
    changed so that it no longer selects its send.  Some corruptions make
    the engine fail (a send finds no receive, a request stays incomplete);
    others let it run, as a receive moved to another request does."""
    send, recv = assignment.bindings[send_id], assignment.bindings[recv_id]
    if field == "request tag":
        rid = recv.partition[0]
        request = assignment.requests[rid]
        return replace(assignment, requests={
            **assignment.requests,
            rid: replace(request, tag=Tag(request.tag.raw + 1))})
    if field == "request":
        # another receive request, one the send's cannot pair with
        requests = assignment.requests
        sent = requests[send.partition[0]]
        other = next(r for r in requests.values()
                     if r.direction is Direction.RECV
                     and not requests_match(sent, r))
        recv = recv._replace(partition=(other.request_id, 0))
    elif field == "two-sided receive":
        # rebound off every request, as the two-sided receive of its pair
        request = assignment.requests[send.partition[0]]
        context = MatchContextId(ContextFamily.COMM, request.comm.context_id)
        recv = recv._replace(kind=OpKind.RECV, context=context,
                             target=request.owner, tag=request.tag,
                             partition=None)
    elif field == "tag":
        recv = recv._replace(tag=Tag(send.tag.raw + 1))
    elif field == "context":
        recv = recv._replace(context=MatchContextId(recv.context.family,
                                                    recv.context.key + 1000))
    else:
        recv = recv._replace(target=send.origin_rank + 1)
    return replace(assignment, bindings={**assignment.bindings, recv_id: recv})


def refusal(violations):
    return f"{len(violations)} matching violations; first: {violations[0]}"


# every spec whose pattern names intended pairs, with the receive fields a
# corruption may change under its mechanism
CASES = []
for name, spec in sorted(SPECS.items()):
    if spec["kind"] in ("bspmm-rma", "multithreaded-allreduce"):
        continue  # no op names a partner
    fields = (("request tag", "request") if spec["mechanism"] == "partitioned"
              else ("tag", "context", "target"))
    CASES += [(name, field, which) for field in fields
              for which in ("first", "last")]
# a receive of a partitioned assignment bound off every request
CASES.append(("stencil-2d-5pt/partitioned", "two-sided receive", "first"))


@pytest.mark.parametrize("name,field,which", CASES,
                         ids=[f"{n}-{f}-{w}" for n, f, w in CASES])
def test_a_corrupted_pair_is_refused_as_the_full_check_refuses_it(
        name, field, which):
    scenario, pattern, assignment = build(name)
    pairs = intended_pairs(pattern)
    send_id, recv_id = pairs[0] if which == "first" else pairs[-1]
    assignment = corrupt(assignment, send_id, recv_id, field)
    violations = matching_violations(pattern, assignment)
    assert (send_id, recv_id, "bound contexts cannot match") in violations
    with pytest.raises(InvalidAssignmentError) as refused:
        simulate(scenario, pattern, assignment)
    assert str(refused.value) == refusal(violations)


def fan_in(receive):
    """A 2-sender fan-in on one communicator, each receive rebound by
    ``receive``; receives post in reverse tag order."""
    pattern = gen_fan_in(2)
    assignment = assign_communicators_naive(pattern, num_comms=1)
    bindings = {op_id: receive(desc) if desc.kind is OpKind.RECV else desc
                for op_id, desc in assignment.bindings.items()}
    return pattern, replace(assignment, bindings=bindings)


def decided(pattern, assignment):
    """The violations the engine decided as its sends issued."""
    pool = scenario_from_dict(SPECS["fan-in/communicators-naive"]).build_pool()
    engine = _Engine(pattern, assignment, pool,
                     channel_policy(None, assignment, pool), seed=0)
    engine.run()
    return engine.violations


def test_a_send_matched_off_its_partner_is_refused_when_its_pair_cannot_match():
    # swapped receive tags: each send takes the other send's receive, so the
    # engine completes, and neither intended pair can match
    pattern, assignment = fan_in(lambda d: d._replace(tag=Tag(1 - d.tag.raw)))
    violations = matching_violations(pattern, assignment)
    assert len(violations) == 2
    assert decided(pattern, assignment) == violations
    with pytest.raises(InvalidAssignmentError) as refused:
        run(pattern, assignment)
    assert str(refused.value) == refusal(violations)


def test_a_send_matched_off_its_partner_runs_when_its_pair_can_match():
    # fully wildcard receives: the first send takes the first-posted
    # receive, which is the other send's partner, yet every intended pair
    # can still match
    pattern, assignment = fan_in(
        lambda d: d._replace(target=ANY_SOURCE, tag=ANY_TAG))
    assert decided(pattern, assignment) \
        == matching_violations(pattern, assignment) == []
    report = run(pattern, assignment)
    assert report.matches_total == 2


def test_a_refused_run_leaves_the_requests_as_it_found_them():
    scenario, pattern, clean = build("stencil-2d-5pt/partitioned")
    send_id, recv_id = intended_pairs(pattern)[0]
    # shares every request but the corrupted one with the clean assignment
    corrupted = corrupt(clean, send_id, recv_id, "request tag")
    with pytest.raises(InvalidAssignmentError):
        simulate(scenario, pattern, corrupted)
    fresh = build("stencil-2d-5pt/partitioned")
    assert clean.requests == fresh[2].requests
    assert simulate(scenario, pattern, clean).to_json() \
        == simulate(*fresh).to_json()
