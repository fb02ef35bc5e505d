"""Communication patterns, per-mechanism assignments, and resource formulas."""

from __future__ import annotations

from ..errors import UnsupportedPatternError
from .base import (
    Assignment,
    CommPattern,
    Mechanism,
    PatternKind,
    PatternOp,
    STENCIL_KINDS,
    boundary_thread_count,
    min_channels_2d,
    min_channels_3d,
    min_communicators_3d,
)
from .irregular import (
    assign_allreduce,
    assign_bspmm_endpoints,
    assign_bspmm_windows,
    collective_footprint,
    gen_allreduce,
    gen_bspmm,
    gen_dynamic_graph,
    gen_fan_in,
    gen_legion,
)
from .stencil import (
    StencilGeometry,
    assign_communicators_ideal,
    assign_communicators_naive,
    assign_endpoints,
    assign_partitioned,
    assign_tags_with_hints,
    gen_stencil,
    stencil_directions,
)

__all__ = [
    "Assignment", "CommPattern", "Mechanism", "PatternKind", "PatternOp",
    "STENCIL_KINDS", "boundary_thread_count", "min_channels_2d",
    "min_channels_3d", "min_communicators_3d", "collective_footprint",
    "gen_allreduce", "gen_bspmm", "gen_dynamic_graph", "gen_fan_in",
    "gen_legion", "gen_stencil", "stencil_directions", "StencilGeometry",
    "assign_allreduce", "assign_bspmm_endpoints", "assign_bspmm_windows",
    "assign_communicators_ideal", "assign_communicators_naive",
    "assign_endpoints", "assign_partitioned", "assign_tags_with_hints",
    "build_assignment",
]


def build_assignment(pattern: CommPattern, mechanism: Mechanism,
                     variant: str = "") -> Assignment:
    """Route a (pattern kind, mechanism) combination to its constructor.

    The ``"naive"`` communicator variant of the fan-in stressor shares one
    communicator among all senders: the shared queue it exists to measure.
    Unsupported combinations raise :class:`UnsupportedPatternError` with the
    semantic reason (wildcards, persistence, one-sidedness).
    """
    kind = pattern.kind
    if kind in STENCIL_KINDS:
        if mechanism is Mechanism.COMMUNICATORS:
            if variant == "naive":
                return assign_communicators_naive(pattern)
            return assign_communicators_ideal(pattern)
        if mechanism is Mechanism.TAGS_WITH_HINTS:
            return assign_tags_with_hints(pattern)
        if mechanism is Mechanism.ENDPOINTS:
            return assign_endpoints(pattern)
        if mechanism is Mechanism.PARTITIONED:
            return assign_partitioned(pattern)
        raise UnsupportedPatternError(
            "windows do not express two-sided halo exchange"
        )
    if kind in (PatternKind.LEGION_POLLING, PatternKind.DYNAMIC_GRAPH,
                PatternKind.FAN_IN):
        if mechanism is Mechanism.COMMUNICATORS:
            shared = kind is PatternKind.FAN_IN and variant == "naive"
            return assign_communicators_naive(pattern, 1 if shared else None)
        if mechanism is Mechanism.ENDPOINTS:
            return assign_endpoints(pattern)
        if mechanism is Mechanism.PARTITIONED:
            raise UnsupportedPatternError(
                "partitioned unsupported: wildcard pattern (persistent "
                "requests cannot match wildcard receives)"
            )
        if mechanism is Mechanism.TAGS_WITH_HINTS:
            raise UnsupportedPatternError(
                "tag-bit parallelism forbids wildcards, which this pattern "
                "relies on"
            )
        raise UnsupportedPatternError("windows do not express two-sided traffic")
    if kind is PatternKind.BSPMM_RMA:
        if mechanism is Mechanism.WINDOWS:
            return assign_bspmm_windows(pattern)
        if mechanism is Mechanism.ENDPOINTS:
            return assign_bspmm_endpoints(pattern)
        raise UnsupportedPatternError(
            f"one-sided tile updates are expressed with windows or "
            f"endpoints, not {mechanism.value}"
        )
    if kind is PatternKind.MULTITHREADED_ALLREDUCE:
        return assign_allreduce(pattern, mechanism)
    raise UnsupportedPatternError(f"no assignment rule for {kind.value}")
