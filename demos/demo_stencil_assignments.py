#!/usr/bin/env python3
"""Walk through the three ways to expose halo-exchange parallelism.

A 2D 9-point stencil with a 3x3 thread grid per process is small enough to
read, yet already shows everything that matters: the naive per-thread
communicator map loses half the boundary concurrency, the ideal mirrored map
needs far more communicators than the pattern needs channels, and endpoints
or partitioned requests express the same parallelism with one object per
communicating thread or per neighbor exchange.

Run: python demos/demo_stencil_assignments.py
"""

import mpxlab as m

# ---------------------------------------------------------------------------
# the pattern: 2x2 processes, 3x3 threads each, 9-point neighborhood

pattern = m.gen_stencil(2, 9, [2, 2], [3, 3])
print(f"pattern: {pattern.kind.value}, "
      f"{pattern.num_processes} processes x {pattern.threads_per_process} threads")
print(f"communicating threads per process: {len(pattern.communicating_threads)}")
print()

# ---------------------------------------------------------------------------
# naive: communicator i for thread i's sends, communicator j of the remote
# sender for its receives.  Matching works, but opposite edges share contexts.

naive = m.assign_communicators_naive(pattern)
report = m.validate_assignment(pattern, naive)
print(f"naive map: {naive.objects_created['communicators']} communicators, "
      f"{len(report.matching_violations)} violations, "
      f"{len(report.lost_parallelism)} intended-concurrent pairs serialized")
t1_send = next(op for op in pattern.ops if op.process == 0 and op.thread == 1
               and op.kind is m.OpKind.SEND and op.direction == (0, -1))
t7_recv = next(op for op in pattern.ops if op.process == 0 and op.thread == 7
               and op.kind is m.OpKind.RECV and op.direction == (0, 1))
print(f"  e.g. thread 1's north send and thread 7's south receive share "
      f"entity {naive.entity(naive.bindings[t1_send.op_id])}")
print()

# ---------------------------------------------------------------------------
# ideal: one communicator per neighbor exchange pair, mirrored by boundary
# parity so facing processes agree and same-process threads never collide

ideal = m.assign_communicators_ideal(pattern)
report = m.validate_assignment(pattern, ideal)
print(f"ideal map: {ideal.objects_created['communicators']} communicators, "
      f"{len(report.matching_violations)} violations, "
      f"{len(report.lost_parallelism)} lost pairs")

# at scale the object count explodes: the 3D 27-point case on a 4x4x4 grid
big = m.gen_stencil(3, 27, [2, 2, 2], [4, 4, 4])
big_ideal = m.assign_communicators_ideal(big)
formula = m.min_communicators_3d(4, 4, 4)
needed = m.min_channels_3d(4, 4, 4)
print(f"3D [4,4,4]: construction creates "
      f"{big_ideal.objects_created['communicators']} communicators "
      f"(closed form: {formula}), while the pattern needs only {needed} "
      f"channels: {formula / needed:.1f}x over-provisioned")
print()

# ---------------------------------------------------------------------------
# endpoints: every communicating thread gets a rank of its own

endpoints = m.assign_endpoints(big)
print(f"endpoints: {endpoints.objects_created['endpoints_per_process']} per "
      f"process, exactly the communicating-thread count")

partitioned = m.assign_partitioned(pattern)
print(f"partitioned: {partitioned.objects_created['requests_per_process']} "
      f"persistent requests per process (send+recv per neighbor direction)")
print()

# ---------------------------------------------------------------------------
# simulate one exchange per direction and compare surviving concurrency

pool = m.ChannelPool(4096)
ideal_run = m.run(pattern, ideal, pool=pool)
naive_run = m.run(pattern, m.assign_communicators_naive(pattern), pool=pool)
print("per-direction max concurrent transfers (ideal vs naive):")
for phase in sorted(ideal_run.phase_concurrency):
    a = ideal_run.phase_concurrency[phase]
    b = naive_run.phase_concurrency[phase]
    print(f"  phase {phase}: {a:3d} vs {b:3d}  ({a / b:.1f}x)")
