"""Command-line front end: analyze, simulate, assign, oracle-check.

Exit codes are stable: 0 success, 1 check failure, 2 malformed spec file,
3 domain or bound error, 4 unsupported mechanism/pattern combination.
simulate writes its reports to --out, then $MPXLAB_OUT, then the working
directory; analyze and assign print to stdout.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import semantics
from .channels import PolicyKind, collisions
from .errors import (
    DomainError,
    MpxlabError,
    OracleBoundError,
    SpecFileError,
    TagOverflowError,
    UnsupportedPatternError,
)
from .model import OpDescriptor
from .patterns import (
    STENCIL_KINDS,
    PatternOp,
    SUPPORT,
    boundary_thread_count,
    build_assignment,
    min_communicators_3d,
)
from .patterns.specfile import MECHANISMS, POLICIES, Scenario, load_scenario
from .simulator import CSV_HEADER, channel_policy, run

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SPEC = 2
EXIT_DOMAIN = 3
EXIT_UNSUPPORTED = 4

_DIR_NAMES_2D = {
    (0, -1): "n", (0, 1): "s", (-1, 0): "e", (1, 0): "w",
    (-1, -1): "ne", (1, -1): "nw", (-1, 1): "se", (1, 1): "sw",
}


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("MPXLAB_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    for name in ("mechanism", "policy", "channel_pool", "seed"):
        if getattr(args, name, None) is not None:  # analyze has no --mechanism
            setattr(scenario, name, getattr(args, name))
    return scenario


def cmd_analyze(args) -> int:
    scenario = _apply_overrides(load_scenario(args.spec), args)
    pattern = scenario.build_pattern()
    pool = scenario.build_pool()
    print(f"kind: {pattern.kind.value}")
    print(f"process_grid: {list(pattern.process_grid)}")
    print(f"thread_grid: {list(pattern.thread_grid)}")

    if pattern.kind in STENCIL_KINDS:
        grid = pattern.thread_grid
        channels_needed = boundary_thread_count(grid)
        if len(grid) == 3:
            print(f"min_communicators_formula: {min_communicators_3d(*grid)}")
        ideal, naive, endpoints, partitioned = (
            build_assignment(pattern, label) for label in
            ("communicators", "communicators-naive", "endpoints", "partitioned"))
        print(f"communicators_ideal: {ideal.objects_created['communicators']}")
        print(f"communicators_naive: {naive.objects_created['communicators']}")
        print(f"endpoints: {endpoints.objects_created['endpoints_per_process']}")
        print(f"partitioned_requests: "
              f"{partitioned.objects_created['requests_per_process']}")
        print(f"min_channels: {channels_needed}")

        policy = channel_policy(scenario.build_policy(), ideal, pool)
        report = collisions(policy, [c.context_id for c in ideal.comms[1:]], pool)
        print(f"pool_channels: {pool.num_channels}")
        print(f"ideal_comm_channels_used: {report.channels_used}")
        print(f"ideal_comm_max_per_channel: {report.max_per_channel}")
        print(f"ideal_comm_serialized_pairs: {report.serialized_pairs}")
        # the endpoint ranks process 0's ops are bound to, on the channels
        # endpoint identity gives their ops
        ranks = {desc.endpoint for _, desc in _bound_ops(pattern, endpoints, 0)}
        identity = channel_policy(PolicyKind.ENDPOINT_IDENTITY, endpoints, pool)
        ep_report = collisions(identity, [(rank, None) for rank in ranks], pool)
        print(f"endpoint_serialized_pairs: {ep_report.serialized_pairs}")
        return EXIT_OK

    # irregular kinds: report object counts per supported mechanism
    for label, rule in SUPPORT[pattern.kind].items():
        if isinstance(rule, str):
            print(f"{label}: unsupported ({rule})")
            continue
        try:  # the spec's hints can still refuse it
            assignment = replace(scenario, mechanism=label).build_assignment(pattern)
        except UnsupportedPatternError as exc:
            print(f"{label}: unsupported ({exc})")
            continue
        print(f"{label}: {assignment.describe_objects()}")
    return EXIT_OK


def _simulate_one(spec_path: str, args) -> str:
    # The model holds no reference cycles: the cyclic collector would only
    # rescan its records, so it pauses per scenario and then resumes.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _simulate(spec_path, args)
    finally:
        if enabled:
            gc.enable()


def _simulate(spec_path: str, args) -> str:
    scenario = _apply_overrides(load_scenario(spec_path), args)
    pattern = scenario.build_pattern()
    assignment = scenario.build_assignment(pattern)
    report = run(
        pattern, assignment,
        pool=scenario.build_pool(),
        policy=scenario.build_policy(),
        seed=scenario.seed,
        events=False,  # no report format carries events
    )
    out = _out_dir(args)
    stem = Path(spec_path).stem
    written = []
    if args.format in ("json", "both"):
        json_path = out / f"{stem}.report.json"
        json_path.write_text(report.to_json())
        written.append(str(json_path))
    if args.format in ("csv", "both"):
        csv_path = out / f"{stem}.report.csv"
        csv_path.write_text(
            ",".join(CSV_HEADER) + "\n"
            + ",".join(str(v) for v in report.csv_row()) + "\n"
        )
        written.append(str(csv_path))
    return (f"{stem}: mechanism={report.mechanism} makespan={report.makespan} "
            f"max_concurrency={report.max_concurrent_transfers} "
            f"matches={report.matches_total} -> {', '.join(written)}")


def cmd_simulate(args) -> int:
    specs = args.spec if isinstance(args.spec, list) else [args.spec]
    first = {}
    for spec in specs:  # a spec's reports are named after its file stem
        stem = Path(spec).stem
        if stem in first:
            raise SpecFileError(f"{first[stem]} and {spec} share the file stem "
                                f"{stem!r}, so their reports would overwrite "
                                "each other")
        first[stem] = spec
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's module costs a sixth of the CLI's start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_one, s, args) for s in specs]
            for future in futures:
                print(future.result())
    else:
        for spec in specs:
            print(_simulate_one(spec, args))
    return EXIT_OK


def _bound_ops(pattern, assignment, process: int) -> list[tuple]:
    """(op, descriptor) of every op of ``process``, from the block that holds
    them: block ``p`` when stamped, else the one block, filtered."""
    bases, every = pattern.ops.bases, range(len(pattern.template))
    base = bases[process % len(bases)]
    return [(PatternOp._make(op), OpDescriptor._make(desc))
            for op, desc in zip(pattern.ops.at(base, every),
                                assignment.bindings.at(base, every))
            if op[1] == process]


def _binding_label(desc) -> str:
    if desc.partition is not None:
        return f"req:{desc.partition[0]} part:{desc.partition[1]}"
    if desc.window is not None:
        loc = f" loc:{desc.target_location}" if desc.target_location is not None else ""
        ep = f" ep:{desc.endpoint}" if desc.endpoint is not None else ""
        return f"win:{desc.window}{loc}{ep}"
    if desc.endpoint is not None:
        return f"ep:{desc.endpoint}->{desc.target}"
    tag = f" tag:{desc.tag.raw}" if desc.tag is not None else ""
    return f"comm:{desc.context.key}{tag}"


def cmd_assign(args) -> int:
    scenario = _apply_overrides(load_scenario(args.spec), args)
    pattern = scenario.build_pattern()  # a size its generator rejects exits 2
    if args.emit_spec:
        sys.stdout.write(scenario.to_json())
        return EXIT_OK
    process = args.process
    if not 0 <= process < pattern.num_processes:
        print(f"error: --process {process} is not a process of the spec "
              f"(0..{pattern.num_processes - 1})", file=sys.stderr)
        return EXIT_SPEC
    assignment = scenario.build_assignment(pattern)
    print(f"# mechanism={scenario.mechanism} process={process}")
    print("thread\tdirection\top\tbinding")
    rows = _bound_ops(pattern, assignment, process)
    for op, desc in sorted(rows, key=lambda row: (row[0].thread, row[0].phase,
                                                  row[0].kind.value)):
        if op.direction is not None and len(op.direction) == 2:
            direction = _DIR_NAMES_2D.get(op.direction, str(op.direction))
        elif op.direction is not None:
            direction = "".join(axis + ("-" if c < 0 else "+")
                                for axis, c in zip("xyz", op.direction) if c)
        else:
            direction = "-"
        print(f"{op.thread}\t{direction}\t{op.kind.value}\t"
              f"{_binding_label(desc)}")
    print(f"# objects: {assignment.describe_objects()}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    comparisons, mismatches = semantics.oracle_equivalence_check(args.bound)
    if mismatches:
        name, a, b, hints, reason, ref = mismatches[0]
        print(f"oracle equivalence: FAIL ({len(mismatches)} of {comparisons})")
        print(f"counterexample family: {name}")
        print(f"  hints: {hints}")
        print(f"  a: {a}")
        print(f"  b: {b}")
        print(f"  classifier: parallel={reason.parallel} ({reason.value})")
        print(f"  oracle: parallel={ref}")
        return EXIT_FAIL
    print(f"oracle equivalence: PASS ({comparisons} comparisons)")
    return EXIT_OK


def _int_at_least(minimum: int):
    """An argparse type for integers of at least ``minimum``; a flag that
    overrides a spec field takes the spec loader's floor for it."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpxlab",
        description="Model how MPI+threads mechanisms expose communication "
                    "parallelism and what each costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_nargs=None, mechanism=True):
        p.add_argument("--spec", required=True, nargs=spec_nargs,
                       help="scenario spec files" if spec_nargs else "scenario spec file")
        if mechanism:  # analyze reports every mechanism
            p.add_argument("--mechanism", choices=list(MECHANISMS))
        p.add_argument("--policy", choices=list(POLICIES))
        p.add_argument("--channels", type=_int_at_least(1), metavar="R",
                       dest="channel_pool")
        p.add_argument("--seed", type=_int_at_least(0))

    p_analyze = sub.add_parser("analyze", help="object counts, formulas, collisions")
    common(p_analyze, mechanism=False)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run scenarios, write reports")
    common(p_sim, spec_nargs="+")
    p_sim.add_argument("--out", help="output directory (default $MPXLAB_OUT or .)")
    p_sim.add_argument("--format", choices=["json", "csv", "both"], default="both")
    p_sim.add_argument("--jobs", type=_int_at_least(1), default=1, metavar="N",
                       help="worker processes, at most one per spec and CPU")
    p_sim.set_defaults(func=cmd_simulate)

    p_assign = sub.add_parser("assign", help="print the per-thread binding table")
    common(p_assign)
    p_assign.add_argument("--process", type=int, default=0)
    p_assign.add_argument("--emit-spec", action="store_true",
                          help="emit the normalized scenario spec and exit")
    p_assign.set_defaults(func=cmd_assign)

    p_oracle = sub.add_parser("oracle-check",
                              help="classifier vs brute-force oracle sweep")
    p_oracle.add_argument("--bound", type=int, default=12,
                          help="max ops per enumerated universe (<= 12)")
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); not a failure of ours
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (DomainError, OracleBoundError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (UnsupportedPatternError, TagOverflowError) as exc:
        # thread ids that overflow the tag space: tags cannot express it
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except MpxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
