"""The stamped walk reads plain tuples.

``StampedBindings.at`` derives a stamped op's descriptor as the plain tuple
of its fields, and only the mapping surface (indexing, ``values()`` and
``items()``) makes it an :class:`OpDescriptor`.  So every reader of the
walk answers the same on a descriptor and on its plain tuple: the channel
rules' key functions and the pair rule read fields by position.  A stamped
``run()``, round-robin registration included, and ``matching_violations``
derive their descriptors through ``at`` alone.
"""

import itertools
from dataclasses import replace

import pytest

from mpxlab.channels import ChannelPool, rule_of
from mpxlab.errors import (IncompleteAssignmentError, InvalidAssignmentError,
                           MappingError, UnsupportedPatternError)
from mpxlab.model import OpDescriptor, OpKind, Tag
from mpxlab.patterns.base import StampedBindings, _Items, _Values
from mpxlab.patterns.specfile import POLICIES, scenario_from_dict
from mpxlab.semantics import (can_match, check_bound, matching_violations,
                              pair_meets)
from mpxlab.simulator import channel_policy, run

from test_reports import SPECS


def build(name):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    return scenario, pattern, scenario.build_assignment(pattern)


STAMPED = [name for name in sorted(SPECS)
           if build(name)[1].ops.columns is not None]


def test_the_stamped_specs_cover_every_stamped_mechanism():
    assert {SPECS[name]["mechanism"] for name in STAMPED} == {
        "communicators", "communicators-naive", "tags", "endpoints",
        "partitioned"}


@pytest.mark.parametrize("name", STAMPED)
def test_at_gives_exact_tuples_and_the_mapping_gives_descriptors(name):
    _, pattern, assignment = build(name)
    bindings, n = assignment.bindings, len(pattern.template)
    for p in range(pattern.num_processes):
        block = bindings.at(p * n, range(n))
        assert {type(desc) for desc in block} == {tuple}
        for i, desc in enumerate(block):
            bound = bindings[p * n + i]
            assert type(bound) is OpDescriptor and desc == bound
    assert {type(desc) for desc in bindings.values()} == {OpDescriptor}
    assert {type(desc) for _, desc in bindings.items()} == {OpDescriptor}


def expressible(assignment, pool):
    """The mapping of every policy ``assignment`` can express on ``pool``,
    the mechanism's default first."""
    for kind in (None, *POLICIES.values()):
        try:
            yield channel_policy(kind, assignment, pool)
        except UnsupportedPatternError:
            continue


def answer(call, *args):
    try:
        return call(*args)
    except MappingError as refused:
        return ("refused", str(refused))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_rules_answer_the_same_on_a_descriptor_and_its_tuple(name):
    _, pattern, assignment = build(name)
    descs = list(assignment.bindings.values())
    assert {type(desc) for desc in descs} == {OpDescriptor}
    for policy in expressible(assignment, ChannelPool(16)):
        key_of, _ = rule_of(policy)
        for desc in descs:
            assert answer(key_of, policy, desc) == \
                answer(key_of, policy, tuple(desc))
    # every intended pair and, for the rule's other answers, each send
    # against a few receives
    bindings, requests = assignment.bindings, assignment.pair_requests
    pairs = list(pattern.pairs)
    sends = [j for j, desc in enumerate(descs) if desc.kind is OpKind.SEND]
    recvs = [j for j, desc in enumerate(descs) if desc.kind is OpKind.RECV]
    pairs += list(itertools.product(sends[:8], recvs[:8]))
    for s, r in pairs:
        send, recv = bindings[s], bindings[r]
        assert can_match(send, recv) == can_match(tuple(send), tuple(recv))
        assert pair_meets(send, recv, requests) == \
            pair_meets(tuple(send), tuple(recv), requests) == \
            assignment.pair_matches(s, r)


def test_a_stamped_run_derives_no_descriptor_off_the_views_at(monkeypatch):
    reports = {}
    for name in STAMPED:
        scenario, pattern, assignment = build(name)
        pool = scenario.build_pool()
        reports[name] = [run(pattern, assignment, pool=pool, policy=m.kind)
                         for m in expressible(assignment, pool)]

    def refuse(*_):
        raise AssertionError("a descriptor read through the mapping surface")

    monkeypatch.setattr(StampedBindings, "__getitem__", refuse)
    monkeypatch.setattr(_Values, "__iter__", refuse)
    monkeypatch.setattr(_Items, "__iter__", refuse)
    for name in STAMPED:
        scenario, pattern, assignment = build(name)
        pool = scenario.build_pool()
        mappings = list(expressible(assignment, pool))
        assert any(m.kind.value == "round-robin-comm" for m in mappings)
        got = [run(pattern, assignment, pool=pool, policy=m.kind)
               for m in mappings]
        assert [r.to_json() for r in got] == \
            [r.to_json() for r in reports[name]]
        assert [r.events for r in got] == [r.events for r in reports[name]]
        assert matching_violations(pattern, assignment) == []


def retag_receives(assignment, rows):
    """The stamped assignment with the tag of each receive row in ``rows``
    moved off its send's, in every copy."""
    bindings = assignment.bindings
    out = list(bindings.rows)
    for i in rows:
        row = out[i]
        out[i] = row[:5] + (Tag(row[5].raw + 1),) + row[6:]
    processes = len(bindings) // len(out)
    return replace(assignment, bindings=StampedBindings(out, processes))


@pytest.mark.parametrize("name", [n for n in STAMPED
                                  if SPECS[n]["mechanism"] != "partitioned"])
def test_a_stamped_check_refuses_what_the_per_pair_rule_refuses(name):
    scenario, pattern, assignment = build(name)
    template = pattern.template
    recvs = [i for i, op in enumerate(template) if op.kind is OpKind.RECV]
    assignment = retag_receives(assignment, recvs[::3])
    # a stamped view: one row per template op
    assert len(assignment.bindings.rows) == len(template) < len(pattern.ops)
    expected = [(s, r, "bound contexts cannot match") for s, r in pattern.pairs
                if not assignment.pair_matches(s, r)]
    assert expected and matching_violations(pattern, assignment) == expected
    with pytest.raises(InvalidAssignmentError) as refused:
        run(pattern, assignment, pool=scenario.build_pool(),
            policy=scenario.build_policy())
    assert str(refused.value) == \
        f"{len(expected)} matching violations; first: {expected[0]}"


def test_a_stamped_partitioned_check_reads_the_requests():
    _, pattern, assignment = build("stencil-3d-27pt/partitioned")
    requests = assignment.requests
    recv = next(r for r in requests.values() if r.direction.value == "recv")
    assignment = replace(assignment, requests={
        **requests, recv.request_id: replace(recv, tag=Tag(recv.tag.raw + 1))})
    # a stamped view: one row per template op
    assert len(assignment.bindings.rows) == len(pattern.template) \
        < len(pattern.ops)
    expected = [(s, r, "bound contexts cannot match") for s, r in pattern.pairs
                if not assignment.pair_matches(s, r)]
    assert expected and matching_violations(pattern, assignment) == expected


def test_a_stamped_binding_short_of_the_ops_names_the_first_unbound():
    _, pattern, assignment = build("stencil-2d-9pt/endpoints")
    rows, n = assignment.bindings.rows, len(pattern.template)
    processes = pattern.num_processes
    short = replace(assignment, bindings=StampedBindings(rows, processes - 1))
    as_dict = replace(assignment, bindings=dict(short.bindings.items()))
    messages = []
    for partial in (short, as_dict):
        with pytest.raises(IncompleteAssignmentError) as refused:
            check_bound(pattern, partial)
        messages.append(str(refused.value))
    assert messages[0] == messages[1] == \
        f"assignment leaves {n} ops unbound (first: {(processes - 1) * n})"
    check_bound(pattern, assignment)
