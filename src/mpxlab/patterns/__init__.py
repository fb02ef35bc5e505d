"""Communication patterns, per-mechanism assignments, and resource formulas."""

from __future__ import annotations

from ..errors import InvalidArgumentError, UnsupportedPatternError
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
    "build_assignment", "MECHANISMS", "SUPPORT",
]


# the spec's mechanism labels, in the order `mpxlab analyze` lists them
MECHANISMS = ("communicators", "communicators-naive", "tags", "endpoints",
              "partitioned", "windows")

_STENCIL = {
    "communicators": assign_communicators_ideal,
    "communicators-naive": assign_communicators_naive,
    "tags": assign_tags_with_hints,
    "endpoints": assign_endpoints,
    "partitioned": assign_partitioned,
    "windows": "windows do not express two-sided halo exchange",
}
# a wildcard pattern has no ideal map: both labels build the per-thread one
_WILDCARD = {
    "communicators": assign_communicators_naive,
    "communicators-naive": assign_communicators_naive,
    "tags": "tag-bit parallelism forbids wildcards, which this pattern "
            "relies on",
    "endpoints": assign_endpoints,
    "partitioned": "partitioned unsupported: wildcard pattern (persistent "
                   "requests cannot match wildcard receives)",
    "windows": "windows do not express two-sided traffic",
}

# kind -> mechanism label -> its assigner or refusal reason, in MECHANISMS order
SUPPORT = {
    PatternKind.STENCIL_2D_5PT: _STENCIL,
    PatternKind.STENCIL_2D_9PT: _STENCIL,
    PatternKind.STENCIL_3D_27PT: _STENCIL,
    PatternKind.LEGION_POLLING: _WILDCARD,
    PatternKind.DYNAMIC_GRAPH: _WILDCARD,
    # fan-in's naive map shares one communicator: the queue it stresses
    PatternKind.FAN_IN: {**_WILDCARD, "communicators-naive":
                         lambda p: assign_communicators_naive(p, 1)},
    # a refusal names the mechanism, which both communicator labels share
    PatternKind.BSPMM_RMA: {
        **{label: "one-sided tile updates are expressed with windows or "
                  f"endpoints, not {label.removesuffix('-naive')}"
           for label in MECHANISMS},
        "endpoints": assign_bspmm_endpoints,
        "windows": assign_bspmm_windows,
    },
    PatternKind.MULTITHREADED_ALLREDUCE: {
        "communicators": lambda p: assign_allreduce(p, Mechanism.COMMUNICATORS),
        "communicators-naive": lambda p: assign_allreduce(p, Mechanism.COMMUNICATORS),
        "tags": "allreduce is not expressed with tags",
        "endpoints": lambda p: assign_allreduce(p, Mechanism.ENDPOINTS),
        "partitioned": lambda p: assign_allreduce(p, Mechanism.PARTITIONED),
        "windows": "allreduce is not expressed with windows",
    },
}


def build_assignment(pattern: CommPattern, mechanism: str) -> Assignment:
    """The ``SUPPORT`` rule of a spec mechanism label on the pattern's kind:
    its assignment, or :class:`UnsupportedPatternError` with its reason."""
    rule = SUPPORT[pattern.kind].get(mechanism)
    if rule is None:
        raise InvalidArgumentError(f"mechanism {mechanism!r} not one of "
                                   f"{', '.join(MECHANISMS)}")
    if isinstance(rule, str):
        raise UnsupportedPatternError(rule)
    return rule(pattern)
