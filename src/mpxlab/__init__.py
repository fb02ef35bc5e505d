"""mpxlab: a desk-scale laboratory for MPI+threads communication designs.

Models how communicators (plus info hints), tags, user-visible endpoints,
windows, and partitioned operations expose logically parallel communication,
how that parallelism maps onto a finite pool of network channels, and what
each choice costs in matching work, synchronization, and memory.
"""

from .channels import (
    ChannelPool,
    CollisionReport,
    MappingPolicy,
    OMNI_PATH_HFI_CONTEXTS,
    PolicyKind,
    collision_report,
    map_communicators,
    map_endpoints,
    map_entity,
)
from .model import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    ContextFamily,
    Direction,
    EndpointsComm,
    IdAllocator,
    InfoHints,
    MatchContextId,
    OpDescriptor,
    OpKind,
    PartitionedRequest,
    Purpose,
    Tag,
    TagBitLayout,
    create_endpoints_comm,
    decode_tag,
    dup_communicator,
    encode_tag,
    world_communicator,
)
from .patterns import (
    Assignment,
    CommPattern,
    Mechanism,
    PatternKind,
    assign_communicators_ideal,
    assign_communicators_naive,
    assign_endpoints,
    assign_partitioned,
    assign_tags_with_hints,
    build_assignment,
    collective_footprint,
    gen_allreduce,
    gen_bspmm,
    gen_dynamic_graph,
    gen_fan_in,
    gen_legion,
    gen_stencil,
    min_channels_2d,
    min_channels_3d,
    min_communicators_3d,
)
from .semantics import (
    ParallelismVerdict,
    Reason,
    ValidationReport,
    can_match,
    logically_parallel,
    oracle_logically_parallel,
    ordered_before,
    validate_assignment,
)
from .simulator import (
    Event,
    EventKind,
    SimReport,
    channel_policy,
    run,
)

__version__ = "0.1.0"
