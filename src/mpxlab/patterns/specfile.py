"""Scenario spec files: a small JSON schema binding pattern, mechanism,
hints, channel pool and policy into one reproducible run.

Recognized keys: ``kind``, ``process_grid``, ``thread_grid``, ``iterations``,
``payload_bytes``, ``mechanism``, ``hints``, ``channel_pool``, ``policy``,
``seed``.  Unknown keys are rejected.  A stencil's grids have one entry per
dimension; every other kind's grids have one entry each, and fan-in runs on
``process_grid`` ``[2]``.  The kinds that run once (``RUNS_ONCE``) take no
``iterations`` but 1.  For the irregular kinds the grids are reused: a
polling pattern reads nodes from ``process_grid[0]`` and task threads from
``thread_grid[0] - 1``, and fires ``iterations`` events per task thread; the
RMA pattern draws twice as many tiles as there are workers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from math import prod

from ..channels import ChannelPool, PolicyKind
from ..errors import (DomainError, InvalidArgumentError, SpecFileError,
                      UnsupportedPatternError)
from ..model import check_wildcards_allowed
from .base import STENCIL_SHAPES, Assignment, CommPattern
from . import (
    MECHANISMS,
    build_assignment,
    gen_allreduce,
    gen_bspmm,
    gen_dynamic_graph,
    gen_fan_in,
    gen_legion,
    gen_stencil,
)


def _stencil(dims, points):
    return lambda s: gen_stencil(dims, points, s.process_grid, s.thread_grid,
                                 s.iterations, s.payload_bytes)


def _legion(s):
    nodes = s.process_grid[0]
    task_threads = max(1, s.thread_grid[0] - 1)
    return gen_legion(nodes, task_threads, s.iterations * nodes * task_threads,
                      seed=s.seed, payload=s.payload_bytes)


def _bspmm(s):
    procs, threads = s.process_grid[0], s.thread_grid[0]
    return gen_bspmm(procs, threads, tiles=2 * procs * threads,
                     seed=s.seed, payload=s.payload_bytes)


# pattern kind -> builder of its CommPattern from a Scenario; "fan-in" is the
# synthetic worst-case matching scenario
KINDS = {
    **{kind.value: _stencil(*shape) for kind, shape in STENCIL_SHAPES.items()},
    "legion-polling": _legion,
    "bspmm-rma": _bspmm,
    "multithreaded-allreduce": lambda s: gen_allreduce(
        s.process_grid[0], s.thread_grid[0],
        buffer_elems=max(1, s.payload_bytes // 8)),
    "dynamic-graph": lambda s: gen_dynamic_graph(
        s.process_grid[0], s.thread_grid[0], rounds=s.iterations,
        seed=s.seed, payload=s.payload_bytes),
    "fan-in": lambda s: gen_fan_in(s.thread_grid[0], payload=s.payload_bytes),
}

# most ops per process, thread and iteration, by kind: two per direction of
# a stencil, six per RMA worker, else two (a send and a receive)
OPS_PER_THREAD = {**{kind.value: 2 * (points - 1)
                     for kind, (_, points) in STENCIL_SHAPES.items()},
                  "bspmm-rma": 6}
# kinds whose generators read no ``iterations``: they run once, and a spec
# of one of them takes no ``iterations`` but 1
RUNS_ONCE = {"bspmm-rma", "multithreaded-allreduce", "fan-in"}
# a spec that could issue more ops than this over all its iterations is
# refused before it is generated, with exit 3: the engine simulates one
# iteration, but the cap bounds the op instances and trace a run stands for
MAX_OPS = 1_000_000

# entries per grid: a stencil's dimension count, one for every other kind
GRID_RANK = {kind.value: dims for kind, (dims, _) in STENCIL_SHAPES.items()}

HINT_FLAGS = {
    "allow_overtaking", "no_any_tag", "no_any_source",
    "accumulate_ordering_none",
}

POLICIES = {p.value: p for p in PolicyKind}


@dataclass
class Scenario:
    """A fully resolvable run description."""

    kind: str
    process_grid: tuple[int, ...]
    thread_grid: tuple[int, ...]
    iterations: int = 1
    payload_bytes: int = 8192
    mechanism: str = "communicators"
    hints: dict = field(default_factory=dict)
    channel_pool: int = 16
    policy: str | None = None
    seed: int = 0

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.policy is None:
            del out["policy"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    # -- resolution ------------------------------------------------------

    def ops_bound(self) -> int:
        """An upper bound on the ops the spec's pattern issues over all its
        iterations, in O(1)."""
        return (OPS_PER_THREAD.get(self.kind, 2) * self.iterations
                * prod(self.process_grid) * prod(self.thread_grid))

    def build_pattern(self) -> CommPattern:
        """The spec's pattern; a size its generator rejects is a spec error,
        and one that could issue more than ``MAX_OPS`` ops a domain error."""
        bound = self.ops_bound()
        if bound > MAX_OPS:
            raise DomainError(f"{self.kind}: up to {bound} ops over all "
                              f"iterations, above the cap of {MAX_OPS}")
        try:
            return KINDS[self.kind](self)
        except InvalidArgumentError as exc:
            raise SpecFileError(f"{self.kind}: {exc}") from exc

    def build_assignment(self, pattern: CommPattern) -> Assignment:
        assignment = build_assignment(pattern, self.mechanism)
        overrides = {k: True for k in HINT_FLAGS
                     if self.hints.get(k) and not getattr(assignment.hints, k)}
        if overrides:
            assignment.hints = replace(assignment.hints, **overrides)
            try:
                for desc in assignment.bindings.values():
                    check_wildcards_allowed(desc, assignment.hints)
            except InvalidArgumentError as exc:
                raise UnsupportedPatternError(
                    f"the spec's hints forbid a wildcard this pattern uses: {exc}"
                ) from exc
        return assignment

    def build_pool(self) -> ChannelPool:
        return ChannelPool(self.channel_pool)

    def build_policy(self) -> PolicyKind | None:
        """The spec's channel policy; None leaves the mechanism's default."""
        return None if self.policy is None else POLICIES[self.policy]


_ALLOWED_KEYS = {f.name for f in fields(Scenario)}


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise SpecFileError("spec must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise SpecFileError(f"unknown keys: {', '.join(sorted(unknown))}")
    for required in ("kind", "process_grid", "thread_grid"):
        if required not in raw:
            raise SpecFileError(f"field {required!r}: missing")
    if raw["kind"] not in KINDS:
        raise SpecFileError(f"field 'kind': unknown pattern {raw['kind']!r}")

    def _grid(name):
        value = raw[name]
        if (not isinstance(value, list) or not value
                or not all(_is_int(v) and v > 0 for v in value)):
            raise SpecFileError(f"field {name!r}: expected positive integers")
        rank = GRID_RANK.get(raw["kind"], 1)
        if len(value) != rank:
            raise SpecFileError(
                f"field {name!r}: {raw['kind']} takes {rank} entries")
        return tuple(value)

    def _posint(name, default):
        value = raw.get(name, default)
        if not _is_int(value) or value < 1:
            raise SpecFileError(f"field {name!r}: expected a positive integer")
        return value

    mechanism = raw.get("mechanism", "communicators")
    if mechanism not in MECHANISMS:
        raise SpecFileError(
            f"field 'mechanism': {mechanism!r} not one of "
            f"{sorted(MECHANISMS)}"
        )
    hints = raw.get("hints", {})
    if not isinstance(hints, dict) or not set(hints) <= HINT_FLAGS:
        raise SpecFileError(
            f"field 'hints': flags limited to {sorted(HINT_FLAGS)}"
        )
    for flag, value in hints.items():
        if not isinstance(value, bool):
            raise SpecFileError(f"field 'hints': {flag!r} must be true or false")
    policy = raw.get("policy")
    if policy is not None and policy not in POLICIES:
        raise SpecFileError(
            f"field 'policy': {policy!r} not one of {sorted(POLICIES)}"
        )
    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise SpecFileError("field 'seed': expected a non-negative integer")
    process_grid = _grid("process_grid")
    if raw["kind"] == "fan-in" and process_grid != (2,):
        raise SpecFileError("field 'process_grid': fan-in runs on [2]")

    scenario = Scenario(
        kind=raw["kind"],
        process_grid=process_grid,
        thread_grid=_grid("thread_grid"),
        iterations=_posint("iterations", 1),
        payload_bytes=_posint("payload_bytes", 8192),
        mechanism=mechanism,
        hints=dict(hints),
        channel_pool=_posint("channel_pool", 16),
        policy=policy,
        seed=seed,
    )
    if scenario.kind in RUNS_ONCE and scenario.iterations != 1:
        raise SpecFileError(f"field 'iterations': {scenario.kind} runs once")
    return scenario


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise SpecFileError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON in {path}: {exc}")
    return scenario_from_dict(raw)
