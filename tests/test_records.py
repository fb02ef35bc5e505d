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
import hashlib
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
from mpxlab.patterns import (gen_allreduce, gen_bspmm, gen_dynamic_graph,
                             gen_fan_in, gen_legion)
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


# SHA-256 of repr(pattern.ops) for each non-stencil generator, two seeds (two
# sizes for the unseeded ones), taken from the keyword-built records: a
# positional field slip, such as peer thread and partner swapped or a
# wildcard flag given as an int, changes the repr
GENERATOR_PINS = {
    "legion/seed1": (lambda: gen_legion(5, 3, 40, seed=1),
        "68d953ab579254804333815654f6d5b0307ebc65e8911f1caabd066f06879329"),
    "legion/seed7": (lambda: gen_legion(5, 3, 40, seed=7),
        "55ee05a44a0d94bb2af9595c2ddef386ab6c64d47eb40a5687d33c108c7453fe"),
    "dyngraph/seed1": (lambda: gen_dynamic_graph(5, 3, rounds=3, seed=1),
        "b6c41d7e9866440a9eee07c75b299cbf0030d6e9a5b19e0ee81cd69fadf99a96"),
    "dyngraph/seed7": (lambda: gen_dynamic_graph(5, 3, rounds=3, seed=7),
        "2ac9f6c78af5f1b008183eacf4b8dc9360695a40ee97adefade0c4b918673587"),
    "bspmm/seed1": (lambda: gen_bspmm(3, 2, 5, seed=1),
        "ce449e10df46a822481f719dfca818336422fdc3a47402f43b5d703b5150474c"),
    "bspmm/seed7": (lambda: gen_bspmm(3, 2, 5, seed=7),
        "3b69787055251bc912155a559905c559943ff7a1dcdccfb45ed76334637b81f4"),
    "fan-in/5": (lambda: gen_fan_in(5),
        "895afb90e72e1ed38e0d40d9812424609c331af942171c7296dd71b49d1a14aa"),
    "fan-in/12": (lambda: gen_fan_in(12),
        "d87e3389f25252998bf47a8c9617d38fbe6bd1fceb7200ca4fe9c15f89c840c2"),
    "allreduce/3x4": (lambda: gen_allreduce(3, 4, 100),
        "b6defef11c237135389d55e112ebf38a1849a47bf767a9eed9abfac774250fb5"),
    "allreduce/5x2": (lambda: gen_allreduce(5, 2, 7),
        "5538d23ece4e36a08caa81def3ce9023800e10acdf33a467c6d70a373c5f464a"),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_PINS))
def test_generators_build_the_pinned_records(name):
    build, digest = GENERATOR_PINS[name]
    ops = build().ops
    assert hashlib.sha256(repr(ops).encode()).hexdigest() == digest
    assert all(type(op) is PatternOp for op in ops)
