"""Ghost-layer exchange between blocks (§2.2): which region feeds which.

"The regular grid within each block is extended by one additional ghost
layer of cells which is used in every time step during communication in
order to synchronize the cell data on the boundary between neighboring
blocks."

This module turns a rank's block neighborhoods
(:func:`~repro.blocks.forest.view_for_rank`) into its
:class:`RankGhostPlan`: which interior slab feeds which ghost region,
under which message tag.  The buffer system
(:mod:`repro.comm.buffersystem`) lays the plan out in messages and
executes it; the per-face classes here only choose its one-segment
grouping — one message per (block, face) — the baseline the coalesced
mode is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..lbm.lattice import LatticeModel
from .buffersystem import BufferSystem, CoalescedGhostExchange

__all__ = [
    "ghost_slices",
    "send_slices",
    "needed_directions",
    "offset_code",
    "message_tag",
    "GhostExchange",
    "RankGhostPlan",
    "build_rank_plan",
    "SpmdGhostExchange",
]


def needed_directions(
    model: LatticeModel, offset: Tuple[int, int, int]
) -> List[int]:
    """PDF directions a block actually pulls from its ghost region at
    ``offset``.

    A ghost cell on side ``offset`` is read by an interior cell pulling
    direction ``a`` only if ``e_a`` points from the ghost cell into the
    interior, i.e. ``e_a[c] == -offset[c]`` on every axis where the
    offset is nonzero.  For D3Q19 a face needs 5 of 19 PDFs, an edge 1,
    and a corner none (no (±1,±1,±1) velocities) — the basis of the
    direction-filtered communication ablation.  The paper's production
    scheme sends all 19 values ("the amount of data communicated between
    neighboring blocks is the same as for densely populated blocks").
    """
    out = []
    for a in range(model.q):
        e = model.velocities[a]
        if all(int(e[c]) == -int(offset[c]) for c in range(model.dim) if offset[c]):
            if any(offset):
                out.append(a)
    return out


def send_slices(offset: Tuple[int, int, int]) -> Tuple[slice, ...]:
    """Interior region a block sends toward neighbor ``offset``."""
    out = []
    for o in offset:
        if o > 0:
            out.append(slice(-2, -1))
        elif o < 0:
            out.append(slice(1, 2))
        else:
            out.append(slice(1, -1))
    return tuple(out)


def ghost_slices(offset: Tuple[int, int, int]) -> Tuple[slice, ...]:
    """Ghost region a block receives from neighbor ``offset``."""
    out = []
    for o in offset:
        if o > 0:
            out.append(slice(-1, None))
        elif o < 0:
            out.append(slice(0, 1))
        else:
            out.append(slice(1, -1))
    return tuple(out)


def offset_code(offset: Tuple[int, int, int]) -> int:
    """0..26 code of a neighbor offset (used in message tags)."""
    return (offset[0] + 1) * 9 + (offset[1] + 1) * 3 + (offset[2] + 1)


def message_tag(dst_root_index: int, offset: Tuple[int, int, int]) -> int:
    """Message tag for a ghost-region update: which destination block's
    ghost region is refreshed, and from which side."""
    return dst_root_index * 27 + offset_code(offset)


@dataclass(frozen=True)
class RankGhostPlan:
    """One rank's precomputed ghost-exchange communication plan.

    ``sends``/``recvs`` entries are ``(peer_rank, tag, block_id,
    slices)``; ``local_copies`` entries are ``(dst_block_id, ghost_sl,
    src_block_id, src_sl)`` for neighbor pairs owned by the same rank.
    Both drivers build it with :func:`build_rank_plan`; it is fixed for
    the lifetime of the run — only payloads move.
    """

    sends: Tuple[Tuple[int, int, object, tuple], ...]
    recvs: Tuple[Tuple[int, int, object, tuple], ...]
    local_copies: Tuple[Tuple[object, tuple, object, tuple], ...]


def _directions(pdf_filter: Optional[LatticeModel], offset):
    """Index of the PDF axis copied into a ghost region at ``offset``:
    every direction, or with ``pdf_filter`` only those the block pulls
    (``None`` when it pulls none, e.g. a D3Q19 corner)."""
    if pdf_filter is None:
        return slice(None)
    needed = needed_directions(pdf_filter, offset)
    return np.asarray(needed, dtype=np.int64) if needed else None


def build_rank_plan(
    view, rank: int, pdf_filter: Optional[LatticeModel] = None
) -> RankGhostPlan:
    """Build the send/recv/local-copy plan for one rank's block view.

    For every neighbor ``n`` of a local block at offset ``off``, the
    block's ghost region on side ``off`` is fed by the neighbor's
    interior face toward us (its send region for direction ``-off``);
    symmetrically the neighbor needs our face toward it, tagged from its
    perspective (we sit at offset ``-off``).

    ``pdf_filter`` (a lattice model) restricts every region to the PDF
    directions the receiving block pulls from it (5/19 per face, 1/19
    per edge, 0/19 per corner for D3Q19) — an ablation the paper's
    scheme does *not* apply (see :func:`needed_directions`).
    """
    sends: List[Tuple[int, int, object, tuple]] = []
    recvs: List[Tuple[int, int, object, tuple]] = []
    local_copies: List[Tuple[object, tuple, object, tuple]] = []
    for blk in view.blocks:
        for n in blk.neighbors:
            off = n.offset
            back = tuple(-o for o in off)
            into_us = _directions(pdf_filter, off)
            into_them = _directions(pdf_filter, back)
            if into_us is not None:
                ghost_sl = (into_us,) + ghost_slices(off)
                if n.owner == rank:
                    src_sl = (into_us,) + send_slices(back)
                    local_copies.append((blk.id, ghost_sl, n.id, src_sl))
                else:
                    tag = message_tag(blk.id.root_index, off)
                    recvs.append((n.owner, tag, blk.id, ghost_sl))
            if into_them is not None and n.owner != rank:
                tag = message_tag(n.id.root_index, back)
                send_sl = (into_them,) + send_slices(off)
                sends.append((n.owner, tag, blk.id, send_sl))
    return RankGhostPlan(tuple(sends), tuple(recvs), tuple(local_copies))


class GhostExchange(CoalescedGhostExchange):
    """In-process per-face exchange: the buffer system grouped one
    segment per message, one message per (block, face) crossing a
    virtual-rank boundary — the baseline ``comm_mode``."""

    per_face = True


class SpmdGhostExchange(BufferSystem):
    """SPMD per-face exchange: every (block, face) payload travels as its
    own message under its per-face tag, from a persistent buffer."""

    per_face = True
