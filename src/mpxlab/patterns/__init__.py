"""Communication patterns, per-mechanism assignments, and resource formulas."""

from __future__ import annotations

from ..errors import InvalidArgumentError, UnsupportedPatternError
from .base import (
    MECHANISMS,
    REFUSALS,
    Assignment,
    CommPattern,
    Mechanism,
    PatternKind,
    PatternOp,
    STENCIL_KINDS,
    assign_communicators_naive,
    assign_endpoints,
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
    "build_assignment", "MECHANISMS", "REFUSALS", "SUPPORT",
]


_STENCIL = {
    "communicators": assign_communicators_ideal,
    "communicators-naive": assign_communicators_naive,
    "tags": assign_tags_with_hints,
    "endpoints": assign_endpoints,
    "partitioned": assign_partitioned,
}
# a wildcard pattern has no ideal map: both labels build the per-thread one
_WILDCARD = {
    "communicators": assign_communicators_naive,
    "communicators-naive": assign_communicators_naive,
    "endpoints": assign_endpoints,
}
# kind -> each label REFUSALS does not refuse -> its assigner
_ASSIGNERS = {
    **dict.fromkeys(STENCIL_KINDS, _STENCIL),
    PatternKind.LEGION_POLLING: _WILDCARD,
    PatternKind.DYNAMIC_GRAPH: _WILDCARD,
    # fan-in's naive map shares one communicator: the queue it stresses
    PatternKind.FAN_IN: {**_WILDCARD, "communicators-naive":
                         lambda p: assign_communicators_naive(p, 1)},
    PatternKind.BSPMM_RMA: {"endpoints": assign_bspmm_endpoints,
                            "windows": assign_bspmm_windows},
    PatternKind.MULTITHREADED_ALLREDUCE: {
        "communicators": lambda p: assign_allreduce(p, Mechanism.COMMUNICATORS),
        "communicators-naive": lambda p: assign_allreduce(p, Mechanism.COMMUNICATORS),
        "endpoints": lambda p: assign_allreduce(p, Mechanism.ENDPOINTS),
        "partitioned": lambda p: assign_allreduce(p, Mechanism.PARTITIONED),
    },
}
# kind -> mechanism label -> its assigner or refusal reason, in MECHANISMS order
SUPPORT = {kind: {label: REFUSALS[kind].get(label) or _ASSIGNERS[kind][label]
                  for label in MECHANISMS}
           for kind in PatternKind}


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
