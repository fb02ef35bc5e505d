"""Domain types for multithreaded MPI communication scenarios.

Everything a scenario is made of lives here: info hints, tag bit layouts,
communicators, endpoint communicators, partitioned requests, and the
operation descriptor that the matching/ordering rules consume.  An RMA window
is a plain id from :class:`IdAllocator`.

Every value type is immutable after construction.  :class:`OpDescriptor`,
built once per op, is a ``NamedTuple``: a scenario builds tens of thousands
of them, and a tuple is built without the per-field setter calls of a
frozen dataclass.  Its constructor, ``_make`` and ``_replace`` check the
addressing rule.
:class:`Tag` and :class:`MatchContextId` stay frozen, slotted dataclasses:
there is one object per distinct value, shared by every op that uses it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import InvalidArgumentError, TagOverflowError

TAG_WIDTH_DEFAULT = 23  # usable tag bits; a common floor across MPI libraries

# Wildcard sentinels.  Both sit outside every encodable value range.
ANY_SOURCE = -2


@dataclass(frozen=True)
class TagBitLayout:
    """Partition of the tag word into sender-tid, receiver-tid and app fields.

    The thread-id fields sit above the app field.  ``num_app_bits`` defaults
    to whatever the tag width leaves over once both thread-id fields are
    accounted for.  Thread ids map one-to-one onto channels, so the sender
    and receiver fields must each be able to name every one of ``num_vcis``.
    """

    num_vcis: int
    num_tid_bits: int
    num_app_bits: int | None = None

    def __post_init__(self):
        if self.num_vcis < 1:
            raise InvalidArgumentError("num_vcis must be positive")
        if self.num_tid_bits < 1:
            raise InvalidArgumentError("num_tid_bits must be positive")
        if self.num_app_bits is None:
            object.__setattr__(
                self, "num_app_bits", TAG_WIDTH_DEFAULT - 2 * self.num_tid_bits
            )
        if self.num_app_bits < 0:
            raise InvalidArgumentError("negative app-bit width")
        need = 2 * self.num_tid_bits + self.num_app_bits
        if need > TAG_WIDTH_DEFAULT:
            raise TagOverflowError(
                f"two {self.num_tid_bits}-bit thread ids plus {self.num_app_bits} "
                f"app bits need {need} bits; the tag has {TAG_WIDTH_DEFAULT}")
        if self.num_vcis > 1 << self.num_tid_bits:
            raise InvalidArgumentError(
                "one-to-one mapping requires num_vcis <= 2**num_tid_bits"
            )


@dataclass(frozen=True, slots=True)
class Tag:
    """A match tag: a raw unsigned value of ``TAG_WIDTH_DEFAULT`` bits.

    ``ANY_TAG`` is the distinguished wildcard; its raw value is negative and
    therefore outside every encodable range.
    """

    raw: int

    def __post_init__(self):
        if self.raw >= 1 << TAG_WIDTH_DEFAULT:
            raise TagOverflowError(
                f"raw tag {self.raw} exceeds {TAG_WIDTH_DEFAULT} bits")
        if self.raw < 0 and self.raw != -1:
            raise InvalidArgumentError("negative tags are reserved for ANY_TAG")

    @property
    def is_wildcard(self) -> bool:
        return self.raw < 0

    def __repr__(self):
        return "ANY_TAG" if self.is_wildcard else f"Tag({self.raw})"


ANY_TAG = Tag(-1)


def encode_tag(src_tid: int, dst_tid: int, app_bits: int, layout: TagBitLayout) -> Tag:
    """Pack (sender tid, receiver tid, app payload) into one tag word.

    Field overflow raises :class:`TagOverflowError`; applications that already
    use most of the tag space genuinely run out of bits here.
    """
    tid_bits, app = layout.num_tid_bits, layout.num_app_bits
    # x >> n is nonzero exactly when x is negative or needs more than n bits
    if src_tid >> tid_bits or dst_tid >> tid_bits or app_bits >> app:
        raise next(TagOverflowError(f"{name}={value} does not fit {nbits} bits")
                   for name, value, nbits in (("src_tid", src_tid, tid_bits),
                                              ("dst_tid", dst_tid, tid_bits),
                                              ("app_bits", app_bits, app))
                   if value >> nbits)
    tag = object.__new__(Tag)  # the fields fit the layout: Tag's checks pass
    object.__setattr__(tag, "raw", src_tid << (tid_bits + app) | dst_tid << app | app_bits)
    return tag


def decode_tag(tag: Tag, layout: TagBitLayout) -> tuple[int, int, int]:
    """Invert :func:`encode_tag`, returning (src_tid, dst_tid, app_bits)."""
    if tag.is_wildcard:
        raise InvalidArgumentError("cannot decode the wildcard tag")
    tid_mask = (1 << layout.num_tid_bits) - 1
    app_mask = (1 << layout.num_app_bits) - 1 if layout.num_app_bits else 0
    src = (tag.raw >> (layout.num_tid_bits + layout.num_app_bits)) & tid_mask
    dst = (tag.raw >> layout.num_app_bits) & tid_mask
    app = tag.raw & app_mask
    return src, dst, app


@dataclass(frozen=True)
class InfoHints:
    """Per-communicator assertions that relax default matching semantics.

    All flags default to off, i.e. full MPI default semantics.  A tag bit
    layout may be attached only once both wildcard assertions hold, because
    splitting matching by tag bits is unsafe while wildcards remain possible.
    """

    allow_overtaking: bool = False
    no_any_tag: bool = False
    no_any_source: bool = False
    accumulate_ordering_none: bool = False
    tag_vci_bits: TagBitLayout | None = None

    def __post_init__(self):
        if self.tag_vci_bits is not None and not (
            self.no_any_tag and self.no_any_source
        ):
            raise InvalidArgumentError(
                "tag_vci_bits requires no_any_tag and no_any_source"
            )

    @property
    def wildcards_possible(self) -> bool:
        return not (self.no_any_tag and self.no_any_source)


class Purpose(Enum):
    """Why a communicator was created.  Metadata only; never affects matching."""

    GENERAL = "general"
    PARALLELISM_EXPOSURE = "parallelism"


class IdAllocator:
    """Allocates scenario-unique ids for communicators, windows and requests."""

    def __init__(self):
        self._context = itertools.count()
        self._window = itertools.count()
        self._request = itertools.count()

    def fresh_context(self) -> int:
        return next(self._context)

    def fresh_window(self) -> int:
        return next(self._window)

    def fresh_request(self) -> int:
        return next(self._request)


@dataclass(frozen=True)
class Communicator:
    context_id: int
    group: tuple[int, ...]
    purpose: Purpose = Purpose.GENERAL

    def __post_init__(self):
        if len(set(self.group)) != len(self.group):
            raise InvalidArgumentError("communicator group has duplicate ranks")


def world_communicator(num_processes: int, ids: IdAllocator) -> Communicator:
    return Communicator(ids.fresh_context(), tuple(range(num_processes)))


def dup_communicator(comm: Communicator, ids: IdAllocator,
                     purpose: Purpose | None = None) -> Communicator:
    """Duplicate: fresh context id, same group."""
    return Communicator(ids.fresh_context(), comm.group,
                        comm.purpose if purpose is None else purpose)


@dataclass(frozen=True)
class EndpointsComm:
    """A communicator whose addressable ranks are per-process endpoints.

    Every process holds ``endpoints_per_process`` endpoints; endpoint ``e``
    of process ``p`` has global rank ``p * endpoints_per_process + e``.  Each
    endpoint takes on the matching and ordering semantics of an ordinary
    rank.
    """

    context_id: int
    num_processes: int
    endpoints_per_process: int

    @property
    def total_endpoints(self) -> int:
        return self.num_processes * self.endpoints_per_process

    def endpoint_rank(self, process: int, local_ep: int) -> int:
        n = self.endpoints_per_process
        if not 0 <= process < self.num_processes:
            raise InvalidArgumentError(f"no process {process} in endpoints comm")
        if not 0 <= local_ep < n:
            raise InvalidArgumentError(
                f"process {process} has {n} endpoints, asked for {local_ep}")
        return process * n + local_ep


def create_endpoints_comm(parent: Communicator, endpoints_per_process: int,
                          ids: IdAllocator) -> EndpointsComm:
    """Create a communicator giving every process of the parent group
    ``endpoints_per_process`` (at least one) endpoint ranks."""
    if endpoints_per_process < 1:
        raise InvalidArgumentError("every process needs at least one endpoint")
    return EndpointsComm(ids.fresh_context(), len(parent.group),
                         endpoints_per_process)


class Direction(Enum):
    SEND = "send"
    RECV = "recv"

    __hash__ = object.__hash__  # see OpKind


@dataclass(frozen=True)
class PartitionedRequest:
    """Persistent partitioned message: one request, many partition slots.

    A plain value: the engine keeps each run's readied and arrived
    partitions itself, so running an assignment never changes its requests.
    """

    request_id: int
    direction: Direction
    num_partitions: int
    partition_size: int
    peer: int
    tag: Tag
    comm: Communicator
    owner: int

    def __post_init__(self):
        if self.num_partitions < 1:
            raise InvalidArgumentError("num_partitions must be positive")
        if self.partition_size < 1:
            raise InvalidArgumentError("partition_size must be positive")


class OpKind(Enum):
    SEND = "send"
    RECV = "recv"
    PUT = "put"
    GET = "get"
    ACCUMULATE = "accumulate"
    COLLECTIVE = "collective"
    PARTITION_READY = "pready"
    PARTITION_ARRIVED_TEST = "parrived"

    # Members are singletons that compare by identity, so an identity hash
    # agrees with ==; Enum's own hash runs Python code on every dict or
    # set lookup.  The hot enums of the engine all do the same.
    __hash__ = object.__hash__


TWO_SIDED = frozenset({OpKind.SEND, OpKind.RECV})
RMA_KINDS = frozenset({OpKind.PUT, OpKind.GET, OpKind.ACCUMULATE})
PARTITION_KINDS = frozenset({OpKind.PARTITION_READY, OpKind.PARTITION_ARRIVED_TEST})


class ContextFamily(Enum):
    COMM = "comm"
    ENDPOINT = "endpoint"

    __hash__ = object.__hash__  # see OpKind


@dataclass(frozen=True, slots=True)
class MatchContextId:
    """Isolation unit for two-sided and collective matching: a communicator
    context or an endpoint-bearing context.  ``key`` is the owning object's
    id within its family.  RMA ops address a window id and partitioned ops a
    (request, partition) slot instead."""

    family: ContextFamily
    key: int


class _OpFields(NamedTuple):
    kind: OpKind
    source: tuple[int, int]
    program_index: int
    context: MatchContextId | None = None
    target: int | None = None
    tag: Tag | None = None
    endpoint: int | None = None
    window: int | None = None
    target_location: int | None = None
    partition: tuple[int, int] | None = None


class OpDescriptor(_OpFields):
    """One communication operation with its full matching coordinates.

    ``source`` is the issuing (process, thread).  For two-sided operations
    ``target`` is the peer process rank, or the peer endpoint rank when the
    context family is ENDPOINT, or ``ANY_SOURCE`` on a wildcard receive.
    ``endpoint`` carries the global rank of the endpoint the op is issued at.
    Exactly one addressing family (context / window / partition) is populated,
    as dictated by ``kind``; the constructor, ``_make`` and ``_replace`` all
    check it.
    """

    __slots__ = ()

    def __new__(cls, kind, source, program_index, context=None, target=None,
                tag=None, endpoint=None, window=None, target_location=None,
                partition=None):
        if kind in TWO_SIDED or kind is OpKind.COLLECTIVE:
            if context is None or window is not None or partition is not None:
                raise InvalidArgumentError(f"{kind.value} ops address a context")
            if context.family is ContextFamily.ENDPOINT and endpoint is None:
                raise InvalidArgumentError("endpoint-context ops need an endpoint rank")
        elif kind in RMA_KINDS:
            if window is None or context is not None or partition is not None:
                raise InvalidArgumentError(f"{kind.value} ops address a window")
        elif kind in PARTITION_KINDS:
            if partition is None or context is not None or window is not None:
                raise InvalidArgumentError(
                    f"{kind.value} ops address a partitioned request"
                )
        return tuple.__new__(cls, (kind, source, program_index, context, target,
                                   tag, endpoint, window, target_location,
                                   partition))

    @classmethod
    def _make(cls, iterable):
        # the tuple's own _make skips __new__; _replace builds through this
        fields = tuple(iterable)
        if len(fields) != len(cls._fields):
            raise TypeError(f"expected {len(cls._fields)} fields, got {len(fields)}")
        return cls(*fields)

    @property
    def process(self) -> int:
        return self.source[0]

    @property
    def origin_rank(self) -> int:
        """The rank this op originates from for matching purposes: the global
        endpoint rank under an endpoint context, the process rank otherwise."""
        if self.context is not None and self.context.family is ContextFamily.ENDPOINT:
            return self.endpoint
        return self.source[0]


def check_wildcards_allowed(op: OpDescriptor, hints: InfoHints):
    """Reject receive wildcards that the owning context's hints forbid."""
    if op.kind is not OpKind.RECV:
        return
    if op.tag is not None and op.tag.is_wildcard and hints.no_any_tag:
        raise InvalidArgumentError("ANY_TAG receive under a no_any_tag context")
    if op.target == ANY_SOURCE and hints.no_any_source:
        raise InvalidArgumentError("ANY_SOURCE receive under a no_any_source context")
