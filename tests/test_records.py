"""Immutable per-op records, and a simulate path the cyclic collector can skip.

``PatternOp``, ``OpDescriptor`` and ``Event`` are tuples (``NamedTuple``);
``Tag`` and ``MatchContextId``, one object per distinct value, stay frozen
slotted dataclasses.

``mpxlab simulate`` pauses the cyclic collector for each scenario.  That is
safe only while building and running a scenario leaves no reference cycle
behind, and only if the caller's collector state comes back on every exit.
"""

import dataclasses
import gc
import json
import pickle

import pytest

from mpxlab.cli import main
from mpxlab.errors import InvalidArgumentError
from mpxlab.model import (
    ContextFamily,
    MatchContextId,
    OpDescriptor,
    OpKind,
    Tag,
)
from mpxlab.patterns import gen_bspmm
from mpxlab.patterns.base import PatternOp
from mpxlab.patterns.irregular import assign_bspmm_endpoints
from mpxlab.patterns.specfile import scenario_from_dict
from mpxlab.simulator import Event, EventKind, run

from test_reports import SPECS

CTX = MatchContextId(ContextFamily.COMM, 1)
RECORDS = {
    "Tag": Tag(5),
    "MatchContextId": CTX,
    "OpDescriptor": OpDescriptor(OpKind.SEND, (0, 1), 0, context=CTX,
                                 target=1, tag=Tag(5)),
    "PatternOp": PatternOp(op_id=0, process=0, thread=1, kind=OpKind.SEND),
    "Event": Event(3, EventKind.ISSUE, 0),
}
TUPLE_RECORDS = {"OpDescriptor", "PatternOp", "Event"}


def test_building_and_running_every_case_leaves_no_cycle():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for events in (False, True):
            for spec in SPECS.values():
                scenario = scenario_from_dict(spec)
                pattern = scenario.build_pattern()
                assignment = scenario.build_assignment(pattern)
                report = run(pattern, assignment, pool=scenario.build_pool(),
                             policy=scenario.build_policy(),
                             seed=scenario.seed, events=events)
                del scenario, pattern, assignment, report
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _spec(tmp_path, **fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "stencil-2d-5pt", "process_grid": [2, 2],
                                "thread_grid": [2, 2], **fields}))
    return str(path)


@pytest.mark.parametrize("collector_on", [True, False])
@pytest.mark.parametrize("fields,code", [
    ({}, 0),
    ({"iterations": 0}, 2),  # a malformed spec
    ({"kind": "legion-polling", "process_grid": [2], "thread_grid": [3],
      "mechanism": "partitioned"}, 4),  # an unsupported combination
])
def test_simulate_restores_the_callers_collector(tmp_path, collector_on,
                                                 fields, code):
    was_enabled = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        assert main(["simulate", "--spec", _spec(tmp_path, **fields),
                     "--out", str(tmp_path)]) == code
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_slotted_and_frozen(name):
    record = RECORDS[name]
    assert not hasattr(record, "__dict__")
    if name in TUPLE_RECORDS:
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        # a tuple refuses even the write a frozen dataclass lets through
        with pytest.raises(AttributeError):
            object.__setattr__(record, field, getattr(record, field))
        assert hash(record) == hash(record._replace())
    else:
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))
        assert hash(record) == hash(dataclasses.replace(record))


@pytest.mark.parametrize("name", sorted(TUPLE_RECORDS))
def test_a_pickled_record_comes_back_equal(name):
    record = RECORDS[name]
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)


def test_replace_rebinds_a_descriptor_as_the_rma_endpoints_do():
    desc = RECORDS["OpDescriptor"]
    moved = desc._replace(endpoint=7)
    assert moved.endpoint == 7 and desc.endpoint is None
    assert moved == OpDescriptor(OpKind.SEND, (0, 1), 0, context=CTX,
                                 target=1, tag=Tag(5), endpoint=7)
    pattern = gen_bspmm(2, 3, tiles=4, seed=2)
    assignment = assign_bspmm_endpoints(pattern)
    assert all(d.endpoint == 3 * d.process + d.thread
               for d in assignment.bindings.values())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_descriptors_share_one_source_tuple_per_thread(name):
    scenario = scenario_from_dict(SPECS[name])
    pattern = scenario.build_pattern()
    descs = scenario.build_assignment(pattern).bindings.values()
    assert len({id(d.source) for d in descs}) == len({d.source for d in descs})


@pytest.mark.parametrize("build", [
    lambda: OpDescriptor(OpKind.SEND, (0, 1), 0, window=3, target=1),
    lambda: RECORDS["OpDescriptor"]._replace(window=3),
    lambda: OpDescriptor._make((OpKind.PUT, (0, 1), 0, CTX, 1, None, None,
                                None, None, None)),
], ids=["constructor", "_replace", "_make"])
def test_bad_addressing_is_refused_on_every_path(build):
    with pytest.raises(InvalidArgumentError, match="address"):
        build()
