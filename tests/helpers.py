"""Shared test helpers."""

from mpxlab.model import OpKind


def intended_pairs(pattern) -> list[tuple[int, int]]:
    """(send id, receive id) of every send that names its partner, in op
    order."""
    return [(op.op_id, op.partner) for op in pattern.ops
            if op.kind is OpKind.SEND and op.partner is not None]
