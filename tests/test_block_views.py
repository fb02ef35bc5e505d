"""Every pattern is a template: one block view for the ops and the bindings.

A stencil's ``CommPattern.ops`` is a stamped view of process 0's ops, one
block per process; any other pattern's ops are normalised to one block, in
op-id order, and a dict of descriptors to a one-block binding view, which
is refused unless its keys are the op ids ``0..len - 1``.  Each
view reads a block through one ``at(base, indexes)`` statement, the block
addressed by its first op id, so the package states one path through both
forms.  The guard below keeps a second path from coming back.
"""

import ast
import inspect
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from mpxlab.errors import IncompleteAssignmentError, InvalidArgumentError
from mpxlab.model import OpKind
from mpxlab.patterns import (
    PatternKind,
    assign_communicators_naive,
    assign_endpoints,
    gen_fan_in,
    gen_stencil,
)
from mpxlab.patterns.specfile import scenario_from_dict
from mpxlab.semantics import matching_violations
from mpxlab.simulator import _Engine, run

from test_reports import SPECS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mpxlab"


# --------------------------------------------------------------------------
# the op ids a one-block view indexes by


@pytest.mark.parametrize("ids,bad", [
    ([0, 1, 3, 4], 3),  # a gap
    ([0, 1, 1, 2], 1),  # a duplicate
    ([1, 2, 3, 4], 1),  # offset by one
    ([4, 0, 2, 1], 4),  # shuffled, one past the end
    ([0, 1, 2, -1], -1),  # negative
])
def test_op_ids_that_do_not_number_the_ops_are_refused(ids, bad):
    pattern = gen_fan_in(2)  # four ops
    ops = [op._replace(op_id=j) for op, j in zip(pattern.ops, ids)]
    with pytest.raises(InvalidArgumentError) as refused:
        replace(pattern, ops=tuple(ops))
    assert str(refused.value) == f"op ids must number the ops 0..3; first bad id: {bad}"


def test_op_ids_in_any_order_are_taken_in_op_id_order():
    pattern = gen_fan_in(3)
    ops = list(pattern.ops)
    shuffled = replace(pattern, ops=tuple(reversed(ops)))
    assert [op.op_id for op in shuffled.ops] == list(range(len(ops)))
    assert shuffled.ops == pattern.ops and list(shuffled.template) == ops


@pytest.mark.parametrize("rebind,message", [
    (lambda b: {0: b[0], 1: b[1], 3: b[3]}, "0..2; first unbound: 2"),
    (lambda b: {0: b[0], 1: b[1], 2: b[2], "3": b[3]}, "0..3; first unbound: 3"),
    (lambda b: {0: b[0], 1: b[1], 2: b[2], 10**6: b[3]},
     "0..3; first unbound: 3"),
], ids=["hole", "str key", "far id"])
def test_a_dict_of_bindings_off_the_op_ids_is_refused_when_built(rebind, message):
    pattern = gen_fan_in(2)  # four ops
    assignment = assign_communicators_naive(pattern, num_comms=1)
    bindings = rebind(assignment.bindings)
    start = time.perf_counter()
    with pytest.raises(IncompleteAssignmentError) as refused:
        replace(assignment, bindings=bindings)
    # refused from the dict's length: no list as long as its largest key
    assert time.perf_counter() - start < 0.5
    assert str(refused.value) == f"bindings must bind op ids {message}"


# --------------------------------------------------------------------------
# one binding view for a pattern of any block length


STAMPED = [name for name in sorted(SPECS) if name.startswith("stencil-")]


@pytest.mark.parametrize("name", STAMPED)
def test_a_one_block_binding_serves_a_stamped_pattern(name):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    assignment = scenario.build_assignment(pattern)
    assert pattern.ops.columns is not None and len(pattern.ops.bases) > 1
    one_block = replace(assignment, bindings=dict(assignment.bindings))
    assert len(one_block.bindings.rows) == len(pattern.ops)
    reports = [run(pattern, a, pool=scenario.build_pool(),
                   policy=scenario.build_policy(), seed=scenario.seed)
               for a in (assignment, one_block)]
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[0].events == reports[1].events
    assert matching_violations(pattern, one_block) == []


# --------------------------------------------------------------------------
# the walk reads each op from its stored template op and its peer column


def walk_reads(pattern, assignment, **how) -> list[tuple]:
    """What the engine's walk takes for each op as it computes the op's
    clock slot, read from the walk's locals: (op id, process, thread) of a
    receive it posts, (op id, process, thread, peer, partner) of any other
    op."""
    lines, first = inspect.getsourcelines(_Engine._iteration)
    # the receives' loop, then the other ops'
    marks = [first + k for k, line in enumerate(lines)
             if line.strip() == "slot = p * T + t"]
    assert len(marks) == 2
    code, reads = _Engine._iteration.__code__, []

    def inside(frame, event, arg):
        if event == "line" and frame.f_lineno in marks:
            seen = frame.f_locals
            read = (seen["op_id"], seen["p"], seen["t"])
            if frame.f_lineno == marks[1]:
                read += (seen["peer"], seen["partner"])
            reads.append(read)
        return inside

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 inside if frame.f_code is code else None)
    try:
        run(pattern, assignment, events=False, **how)
    finally:
        sys.settrace(before)
    return reads


def assert_the_walk_reads_the_view(pattern, assignment, **how):
    n = len(pattern.template)
    polled = pattern.kind is PatternKind.LEGION_POLLING
    reads = walk_reads(pattern, assignment, **how)
    # every op once, but a polled pattern's receives, which are never posted
    assert sorted(read[0] for read in reads) == [
        op.op_id for op in pattern.ops
        if not (polled and op.kind is OpKind.RECV)]
    for read in reads:
        base, i = read[0] - read[0] % n, read[0] % n
        op_id, process, thread, _, _, peer, _, partner, *_ \
            = pattern.ops.at(base, (i,))[0]
        assert read == (op_id, process, thread, peer, partner)[:len(read)]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_walk_reads_what_at_gives(name):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    assert_the_walk_reads_the_view(
        pattern, scenario.build_assignment(pattern),
        pool=scenario.build_pool(), policy=scenario.build_policy(),
        seed=scenario.seed)


def test_the_walk_reads_a_hand_built_block_with_odd_peers():
    # one block of stencil ops, some of whose sends name no peer process or
    # a negative one; the descriptors are bound before the peers change
    pattern = gen_stencil(2, 9, [2, 2], [3, 3])
    pattern = replace(pattern, ops=tuple(pattern.ops))
    assignment = assign_endpoints(pattern)
    odd = {0: None, 1: -1, 2: -5}
    ops, sends = [], 0
    for op in pattern.ops:
        if op.kind is OpKind.SEND:
            if sends % 4 in odd:
                op = op._replace(peer_process=odd[sends % 4])
            sends += 1
        ops.append(op)
    pattern = replace(pattern, ops=tuple(ops))
    assert pattern.ops.columns is None
    assert {None, -1, -5} <= {op.peer_process for op in pattern.ops}
    assert_the_walk_reads_the_view(pattern, assignment)


# --------------------------------------------------------------------------
# one path: no branch on which form a view holds


_VIEWS = {"StampedOps", "StampedBindings"}
_FORM_FIELDS = {"stamp", "columns", "rows"}
# the classes of patterns/base.py that state or build the two forms
_OWNERS = {"StampedOps", "StampedBindings", "CommPattern", "Assignment"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} \
        | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _form_branches(path: Path, owners: set, root: Path = PACKAGE) -> list[str]:
    """Each ``is``/``is not`` test against a view class, and each
    ``isinstance`` of a view class or read of ``stamp``, ``columns`` or
    ``rows`` outside the classes in ``owners``, as 'file:line what'."""
    tree = ast.parse(path.read_text(), str(path))
    found = []

    def visit(node, inside):
        if isinstance(node, ast.ClassDef):
            inside = inside or node.name in owners
        where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) \
                and _names(node) & _VIEWS:
            found.append(f"{where} is-test of a view class")
        if not inside:
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                    == "isinstance" and _names(node) & _VIEWS:
                found.append(f"{where} isinstance of a view class")
            if isinstance(node, ast.Attribute) and node.attr in _FORM_FIELDS \
                    and isinstance(node.ctx, ast.Load):
                found.append(f"{where} reads .{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_no_branch_on_the_form_of_a_view_outside_the_views():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        owners = _OWNERS if path == PACKAGE / "patterns" / "base.py" else set()
        found += _form_branches(path, owners)
    assert found == []


def test_the_guard_sees_each_kind_of_branch(tmp_path):
    path = tmp_path / "probe.py"
    body = ("    def f(pattern, bindings):\n"
            "        if type(bindings) is StampedBindings:\n"
            "            return pattern.stamp\n"
            "        if isinstance(pattern.ops, StampedOps):\n"
            "            return bindings.rows\n")
    path.write_text("class Probe:\n" + body)
    assert _form_branches(path, set(), tmp_path) == [
        "probe.py:3 is-test of a view class", "probe.py:4 reads .stamp",
        "probe.py:5 isinstance of a view class", "probe.py:6 reads .rows"]
    # inside a view class only the is-test is refused
    assert _form_branches(path, {"Probe"}, tmp_path) == [
        "probe.py:3 is-test of a view class"]
