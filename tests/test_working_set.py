"""The engine holds only live state.

``run()`` walks a stamped pattern through per-phase template indexes, drops
a scope's posted queue once a take empties it, and keeps each phase's
transfer starts only until the phase ends.  So on the paper's larger grid,
a [4,2,2]x[4,4,4] 27-point stencil with 23,296 ops under the ideal
communicator map, a run without a trace allocates far less than one record
per op at any moment.  A per-op plan or one queue per receive kept to the
end of the run exceeds the bound on its own.  Under ``partitioned`` each
request's readied or arrived partitions are one integer bitmask.

Nor do the generator and the assigners build a record per op for a stamped
pattern: its ops and its bindings are read-only views over the template,
which derive an op or a descriptor on access and behave like the tuple and
the dict they stand for.
"""

import gc
import sys
import tracemalloc
from dataclasses import replace

import pytest

from mpxlab.patterns import assign_endpoints, assign_partitioned, gen_stencil
from mpxlab.patterns.specfile import scenario_from_dict
from mpxlab.simulator import run

from test_stencil_stamping import (reference_endpoints, reference_gen_stencil,
                                   reference_partitioned)

BOUND_MB = 2.0


def s422(mechanism):
    """The [4,2,2]x[4,4,4] 27-point stencil spec under ``mechanism``."""
    return scenario_from_dict({
        "kind": "stencil-3d-27pt", "process_grid": [4, 2, 2],
        "thread_grid": [4, 4, 4], "channel_pool": 160,
        "mechanism": mechanism})


def traced_peak(mechanism):
    """The traced peak of ``run(events=False)`` on the [4,2,2]x[4,4,4]
    stencil, with the pattern and assignment already built, its report and
    the pattern."""
    scenario = s422(mechanism)
    pattern = scenario.build_pattern()
    assignment = scenario.build_assignment(pattern)
    pool, policy = scenario.build_pool(), scenario.build_policy()
    assert len(pattern.ops) == 23296
    gc.collect()
    tracemalloc.start()
    try:
        report = run(pattern, assignment, pool=pool, policy=policy,
                     events=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, report, pattern


def test_a_large_run_without_a_trace_peaks_under_two_mb():
    peak, report, pattern = traced_peak("communicators")
    assert report.matches_total == 11648 * pattern.iterations
    assert peak < BOUND_MB * 2**20, f"{peak / 2**20:.2f} MB"


def test_partitioned_progress_is_one_bitmask_per_request():
    # 1.49 MB; a set of partition indexes per request reads 2.13 MB
    peak, report, _ = traced_peak("partitioned")
    assert report.makespan == 3378
    assert peak < 1.75 * 2**20, f"{peak / 2**20:.2f} MB"


@pytest.mark.parametrize("mechanism",
                         ["communicators", "tags", "endpoints", "partitioned"])
def test_a_stamped_pattern_and_its_bindings_hold_no_record_per_op(mechanism):
    # 1.1 to 4.1 MB traced; one PatternOp and one OpDescriptor per op read
    # 10.1 to 12.9 MB.  Under partitioned, one (request, partition) pair per
    # op and the requests themselves take 2 MB of the 4.1.
    scenario = s422(mechanism)
    gc.collect()
    tracemalloc.start()
    try:
        pattern = scenario.build_pattern()
        assignment = scenario.build_assignment(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(assignment.bindings) == len(pattern.ops) == 23296
    assert peak < 5 * 2**20, f"{peak / 2**20:.2f} MB"


def test_the_op_count_of_a_stamped_pattern_derives_no_op():
    pattern = s422("tags").build_pattern()
    gc.collect()
    tracemalloc.start()
    try:
        assert len(pattern.ops) == 23296
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys.getsizeof(pattern.template[0])


@pytest.mark.parametrize("blocks", ["stamped", "one block"])
def test_the_views_behave_like_the_tuple_and_the_dict_they_replace(blocks):
    grid = (2, 9, [2, 3], [3, 2])
    pattern = gen_stencil(*grid)
    if blocks == "one block":
        pattern = replace(pattern, ops=tuple(pattern.ops))
    # the reference's own views, as the tuple and the dicts they stand for
    ops, expected = pattern.ops, tuple(reference_gen_stencil(*grid).ops)
    assert type(ops) is not tuple
    n = len(expected)
    assert len(ops) == n and ops == expected and expected == ops
    assert list(ops) == list(expected) == list(ops)  # re-iterable
    assert {type(op) for op in ops} == {type(op) for op in expected}
    assert repr(ops) == repr(expected)

    for assign, reference in ((assign_endpoints, reference_endpoints),
                              (assign_partitioned, reference_partitioned)):
        bindings = assign(pattern).bindings
        wanted = dict(reference(pattern).bindings)
        assert type(bindings) is not dict
        assert len(bindings) == len(wanted) == n
        assert bindings == wanted and wanted == bindings
        assert list(bindings) == list(wanted)
        assert list(bindings.keys()) == list(wanted.keys())
        assert list(bindings.values()) == list(wanted.values())
        assert list(bindings.items()) == list(wanted.items())
        assert dict(bindings) == wanted
        for j in (0, n - 1, n // 3):
            assert j in bindings and bindings[j] == wanted[j]
            assert bindings.get(j) == wanted[j]
            assert (j, wanted[j]) in bindings.items()
            assert wanted[j] in bindings.values()
        for missing in (-1, n, 10**9, "0", None):
            assert missing not in bindings
            assert bindings.get(missing) is None
            assert bindings.get(missing, "absent") == "absent"
            with pytest.raises(KeyError):
                bindings[missing]
        with pytest.raises(TypeError):
            bindings[0] = wanted[0]
