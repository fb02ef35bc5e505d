"""One SHA-256 over every report, event trace and refusal of a spec sweep.

Run from the repository root:

    python3 tools/digest_sweep.py
    python3 tools/digest_sweep.py --src other/checkout/src

The sweep covers every kind, spec mechanism, channel policy (the mechanism's
default and each named policy), hint set (every subset of the spec's hint
flags) and channel pool of 1, 2 and 16, on one even and one odd grid per
kind.  Each case runs at 2 iterations, or 1 for a kind that runs once, with
events on.  A case the spec loader, the assignment or the engine refuses
counts as a refusal.

The script prints one line: the run count, the refusal count and a SHA-256
over, in sweep order, each run's report JSON and event trace and each
refusal's exception type and message.  A change that keeps every simulated
number prints the same line as its parent.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (even, odd) (process grid, thread grid) of each kind
GRIDS = {
    "stencil-2d-5pt": (([2, 2], [2, 2]), ([3, 3], [3, 1])),
    "stencil-2d-9pt": (([2, 2], [2, 2]), ([3, 3], [3, 3])),
    "stencil-3d-27pt": (([2, 2, 2], [2, 2, 1]), ([3, 1, 1], [1, 3, 1])),
    "legion-polling": (([2], [4]), ([3], [3])),
    "dynamic-graph": (([4], [2]), ([3], [3])),
    "fan-in": (([2], [8]), ([2], [7])),
    "bspmm-rma": (([2], [2]), ([3], [3])),
    "multithreaded-allreduce": (([2], [4]), ([3], [3])),
}
POOLS = (1, 2, 16)


def specs():
    """Every spec of the sweep, in sweep order."""
    from mpxlab.patterns.specfile import (HINT_FLAGS, KINDS, MECHANISMS,
                                          POLICIES, RUNS_ONCE)

    flags = sorted(HINT_FLAGS)
    hint_sets = [dict.fromkeys(chosen, True) for n in range(len(flags) + 1)
                 for chosen in itertools.combinations(flags, n)]
    for kind in sorted(KINDS):
        for grids, mechanism, policy, hints, pool in itertools.product(
                GRIDS[kind], sorted(MECHANISMS), [None, *sorted(POLICIES)],
                hint_sets, POOLS):
            spec = {"kind": kind, "process_grid": grids[0],
                    "thread_grid": grids[1], "payload_bytes": 1024,
                    "iterations": 1 if kind in RUNS_ONCE else 2,
                    "mechanism": mechanism, "hints": hints,
                    "channel_pool": pool, "seed": 3}
            if policy is not None:
                spec["policy"] = policy
            yield spec


def outcome(spec: dict) -> tuple[bool, str]:
    """(whether it ran, its report JSON and event trace or its refusal)."""
    from mpxlab.errors import MpxlabError
    from mpxlab.patterns.specfile import scenario_from_dict
    from mpxlab.simulator import run

    try:
        scenario = scenario_from_dict(spec)
        pattern = scenario.build_pattern()
        report = run(pattern, scenario.build_assignment(pattern),
                     pool=scenario.build_pool(),
                     policy=scenario.build_policy(), seed=scenario.seed)
    except MpxlabError as exc:
        return False, f"{type(exc).__name__}: {exc}"
    trace = [(ev.time, ev.kind.value, ev.op_id, ev.channel, ev.iteration)
             for ev in report.events]
    return True, report.to_json() + repr(trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the mpxlab sources to import (default: ./src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    digest = hashlib.sha256()
    runs = refusals = 0
    for spec in specs():
        ran, text = outcome(spec)
        runs += ran
        refusals += not ran
        digest.update(text.encode() + b"\n")
    print(f"{runs} runs, {refusals} refusals, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
