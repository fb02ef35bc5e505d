#!/usr/bin/env python3
"""Event-driven polling: wildcard receives vs the mechanism underneath.

A task runtime keeps one polling thread per node consuming active messages
with fully wildcard receives.  Give the task threads K communicators and the
poller must probe all K contexts on every loop; give every thread an
endpoint and the poller probes exactly one context while keeping wildcards.
Persistent partitioned requests cannot express this pattern at all.

Run: python demos/demo_legion_probing.py
"""

import mpxlab as m
from mpxlab.errors import UnsupportedPatternError

pattern = m.gen_legion(nodes=2, task_threads=4, events=16, seed=3)
print("nodes=2, task threads=4, events=16")
print()

print(f"{'communicators K':>16} {'probe iterations':>17} {'per event':>10}")
for k in (1, 2, 4, 8):
    report = m.run(pattern, m.assign_communicators_naive(pattern, num_comms=k))
    print(f"{k:>16} {report.probe_iterations:>17} "
          f"{report.probe_iterations / 16:>10.2f}")

ep = m.run(pattern, m.assign_endpoints(pattern))
print(f"{'endpoints':>16} {ep.probe_iterations:>17} "
      f"{ep.probe_iterations / 16:>10.2f}")
print()

try:
    m.build_assignment(pattern, "partitioned")
except UnsupportedPatternError as exc:
    print(f"partitioned refused, as it must be: {exc}")
