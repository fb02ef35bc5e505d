"""The engine holds only live state.

``run()`` walks a stamped pattern through per-phase template indexes, drops
a scope's posted queue once a take empties it, and keeps each phase's
transfer starts only until the phase ends.  So on the paper's larger grid,
a [4,2,2]x[4,4,4] 27-point stencil with 23,296 ops under the ideal
communicator map, a run without a trace allocates far less than one record
per op at any moment.  A per-op plan or one queue per receive kept to the
end of the run exceeds the bound on its own.
"""

import gc
import tracemalloc

from mpxlab.patterns.specfile import scenario_from_dict
from mpxlab.simulator import run

BOUND_MB = 2.0


def test_a_large_run_without_a_trace_peaks_under_two_mb():
    scenario = scenario_from_dict({
        "kind": "stencil-3d-27pt", "process_grid": [4, 2, 2],
        "thread_grid": [4, 4, 4], "channel_pool": 160,
        "mechanism": "communicators"})
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
    assert report.matches_total == 11648 * pattern.iterations
    assert peak < BOUND_MB * 2**20, f"{peak / 2**20:.2f} MB"
