"""``bind`` asks an assigner for the shared part of each op shape once.

An op's shape is its (thread, kind, direction, peer thread, location) and
whether it is a wildcard receive; the tag key is not part of it, since each
op's tag comes from its shape's tag rule.  A spy counts the assigners'
``shared`` calls.
"""

import pytest

from mpxlab.model import ANY_SOURCE, ANY_TAG, OpKind, Tag
from mpxlab.patterns import (CommPattern, PatternKind, PatternOp,
                             assign_communicators_naive, assign_endpoints,
                             build_assignment, gen_legion, gen_stencil)
from mpxlab.patterns import base, irregular, stencil
from mpxlab.patterns.specfile import scenario_from_dict


@pytest.fixture
def shared_calls(monkeypatch):
    """Every op ``bind`` passes to an assigner's ``shared``, in call order."""
    calls = []
    real = base.bind

    def spy(pattern, shared):
        def counted(op):
            calls.append(op)
            return shared(op)
        return real(pattern, counted)

    for module in (base, irregular, stencil):
        monkeypatch.setattr(module, "bind", spy)
    return calls


def shape(op):
    return (op.thread, op.kind, op.direction, op.peer_thread, op.location)


@pytest.mark.parametrize("assign", [assign_communicators_naive,
                                    assign_endpoints])
def test_shared_is_called_once_per_shape(shared_calls, assign):
    pattern = gen_legion(5, 3, 40, seed=1)
    assign(pattern)
    shapes = list(map(shape, shared_calls))
    assert len(shapes) == len(set(shapes)) == len(set(map(shape, pattern.ops)))
    # three task threads send to the polling thread 0, which receives
    assert len(shapes) == 6


@pytest.mark.parametrize("mechanism", ["communicators-naive", "endpoints"])
def test_a_legion32_assignment_asks_for_fourteen_shapes(shared_calls,
                                                        mechanism):
    # the wildcard-irregular benchmark's legion32 spec: 7,168 events, each
    # send once its own shape when the tag key was part of it
    scenario = scenario_from_dict({
        "kind": "legion-polling", "process_grid": [32], "thread_grid": [8],
        "iterations": 32, "mechanism": mechanism, "seed": 1})
    scenario.build_assignment(scenario.build_pattern())
    assert len(shared_calls) == 14


@pytest.mark.parametrize("mechanism", ["communicators", "communicators-naive",
                                       "tags", "endpoints", "partitioned"])
def test_a_stamped_stencil_asks_once_per_template_op(shared_calls, mechanism):
    pattern = gen_stencil(3, 27, [2, 2, 2], [3, 3, 3])
    build_assignment(pattern, mechanism)
    assert len(shared_calls) == len(pattern.template)


def test_a_wildcard_and_a_named_receive_of_one_thread_pair_bind_apart():
    # thread 0 of process 1 receives from thread 2 of process 0 twice: once
    # by name, once through wildcards.  Only the wildcard flag tells the two
    # shapes apart.
    ops = (
        PatternOp(0, 0, 2, OpKind.SEND, peer_process=1, peer_thread=0,
                  partner=2, tag_key=4),
        PatternOp(1, 0, 2, OpKind.SEND, peer_process=1, peer_thread=0,
                  partner=3, tag_key=5),
        PatternOp(2, 1, 0, OpKind.RECV, peer_process=0, peer_thread=2,
                  partner=0, tag_key=4),
        PatternOp(3, 1, 0, OpKind.RECV, peer_process=0, peer_thread=2,
                  partner=1, tag_key=5, is_wildcard_recv=True),
    )
    pattern = CommPattern(kind=PatternKind.LEGION_POLLING, process_grid=(2,),
                          thread_grid=(3,), iterations=1, payload_bytes=8,
                          ops=ops)
    for assign in (assign_communicators_naive, assign_endpoints):
        bindings = assign(pattern).bindings
        assert [bindings[j].tag for j in range(4)] == \
            [Tag(4), Tag(5), Tag(4), ANY_TAG]
        assert bindings[3].target == ANY_SOURCE != bindings[2].target
