#!/usr/bin/env python3
"""Collectives and one-sided traffic under the three designs.

Thread-driven allreduce: with plain communicators the user bolts on an
intranode reduction step; endpoints do it in one step but replicate the
result buffer per endpoint; partitions do it in one step with one buffer.
For the get-compute-update RMA pattern, a single window hides the atomics'
independence unless each thread issues through its own endpoint.

Run: python demos/demo_collectives_and_rma.py
"""

import mpxlab as m
from mpxlab.semantics import logically_parallel

T, B = 4, 1024
print(f"allreduce of {B} bytes across {T} threads per process:")
for mech in (m.Mechanism.COMMUNICATORS, m.Mechanism.ENDPOINTS,
             m.Mechanism.PARTITIONED):
    steps, result = m.collective_footprint(mech, T, B)
    print(f"  {mech.value:>14}: {steps} step(s), {result:>5} result bytes "
          f"per process")
print()

pattern = m.gen_allreduce(2, T, B // 8)
for mech in (m.Mechanism.COMMUNICATORS, m.Mechanism.ENDPOINTS,
             m.Mechanism.PARTITIONED):
    report = m.run(pattern, m.build_assignment(pattern, mech.value))
    print(f"  simulated {mech.value:>14}: footprint "
          f"{report.memory_footprint_bytes} bytes, makespan {report.makespan}")
print()

# ---------------------------------------------------------------------------
# tile multiplication: gets plus one atomic update per work unit

bspmm = m.gen_bspmm(procs=2, threads=3, tiles=4, seed=2)
windows = m.build_assignment(bspmm, "windows")
eps = m.build_assignment(bspmm, "endpoints")

accums = [op for op in bspmm.ops
          if op.kind is m.OpKind.ACCUMULATE and op.process == 0]
by_tile = {}
for op in accums:
    by_tile.setdefault((op.peer_process, op.location), []).append(op)
shared = next(ops for ops in by_tile.values()
              if len({o.thread for o in ops}) > 1)
a_op, b_op = shared[0], shared[1]

v_win = logically_parallel(windows.bindings[a_op.op_id],
                           windows.bindings[b_op.op_id], windows.hints)
v_ep = logically_parallel(eps.bindings[a_op.op_id],
                          eps.bindings[b_op.op_id], eps.hints)
print(f"two atomic updates of tile {a_op.location} from threads "
      f"{a_op.thread} and {b_op.thread}:")
print(f"  single window:          parallel={v_win.parallel} "
      f"({v_win.reason.value})")
print(f"  endpoints on the window: parallel={v_ep.parallel} "
      f"({v_ep.reason.value})")
