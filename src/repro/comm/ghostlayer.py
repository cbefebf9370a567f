"""Ghost-layer exchange between blocks (§2.2): which region feeds which.

"The regular grid within each block is extended by one additional ghost
layer of cells which is used in every time step during communication in
order to synchronize the cell data on the boundary between neighboring
blocks."

This module turns a rank's block neighborhoods
(:func:`~repro.blocks.forest.view_for_rank`) into its
:class:`RankGhostPlan`: which interior PDF values feed which ghost
values, under which message tag — with the blocks' FLUID masks, only
the values a fluid cell pulls.  The buffer system
(:mod:`repro.comm.buffersystem`) lays the plan out in messages and
executes it; the per-face classes here only choose its one-segment
grouping — one message per (block, face) — the baseline the coalesced
mode is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..errors import GhostFlagMismatchError
from ..lbm.lattice import D3Q19, LatticeModel
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
    "check_ghost_flags",
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
    and a corner none (no (±1,±1,±1) velocities) — the directions the
    fluid-pruned plan of :func:`build_rank_plan` can keep.  The paper's
    production scheme sends all 19 values ("the amount of data communicated between
    neighboring blocks is the same as for densely populated blocks").
    """
    return [int(a) for a in _pulled_across(model.velocities, offset)]


def _pulled_across(velocities: np.ndarray, offset) -> np.ndarray:
    """Indices of the velocities pointing from side ``offset`` into the
    block (none for the zero offset)."""
    off = np.asarray(offset)
    if not off.any():
        return np.empty(0, dtype=np.intp)
    crossing = off != 0
    return np.flatnonzero(np.all(velocities[:, crossing] == -off[crossing], axis=1))


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
    index)``; ``local_copies`` entries are ``(dst_block_id, ghost_index,
    src_block_id, src_index)`` for neighbor pairs owned by the same
    rank.  An ``index`` is an array of flat element indices into the
    block's PDF grid flattened in C order (``a * N + cell`` for
    direction ``a`` and padded cell ``cell`` of ``N``), listed
    direction-major and, within a direction, in C order of the cells.
    Both drivers build it with :func:`build_rank_plan`; it is fixed for
    the lifetime of the run — only payloads move.
    """

    sends: Tuple[Tuple[int, int, object, np.ndarray], ...]
    recvs: Tuple[Tuple[int, int, object, np.ndarray], ...]
    local_copies: Tuple[Tuple[object, np.ndarray, object, np.ndarray], ...]


def _template(velocities, padded, region, directions, target=None):
    """Element indices of ``region``'s PDFs in ``directions`` (flat,
    direction-major) and the padded cell each of them is pulled into.
    With ``target``, only the elements pulled into a cell of ``target``
    are kept; without it, every element (and no pull cells)."""
    n = int(np.prod(padded))
    grid = np.arange(n).reshape(padded)
    cells = grid[region].ravel()
    dirs = np.asarray(directions, dtype=np.intp)
    index = dirs[:, None] * n + cells[None, :]
    if target is None:
        return index.ravel(), None
    strides = np.array([padded[1] * padded[2], padded[2], 1], dtype=np.intp)
    shifts = velocities[dirs].astype(np.intp) @ strides
    probe = cells[None, :] + shifts[:, None]
    inside = np.zeros(n, dtype=bool)
    inside[grid[target].ravel()] = True
    keep = inside[probe]
    return index[keep], probe[keep]


@lru_cache(maxsize=1024)
def _side_template(velocities: bytes, cells, off, receive: bool, pruned: bool):
    """:func:`_template` of one block side: the ghost cells on side
    ``off`` (``receive``) or the face toward it.  Pruned, only the
    directions crossing the side and the pulls into the receiver's
    interior remain; the sender sees that interior as its own ghost
    layer on side ``off``.

    ``velocities`` is the lattice's int64 velocity table as bytes, so
    the function is pure in hashable arguments and cached per process
    (every SPMD call builds its plans again); the returned arrays are
    read-only."""
    vel = np.frombuffer(velocities, dtype=np.int64).reshape(-1, len(cells))
    padded = tuple(int(c) + 2 for c in cells)
    region = ghost_slices(off) if receive else send_slices(off)
    if not pruned:
        out = _template(vel, padded, region, range(len(vel)))
    elif receive:
        out = _template(
            vel, padded, region, _pulled_across(vel, off), (slice(1, -1),) * 3
        )
    else:
        back = tuple(-o for o in off)
        out = _template(
            vel, padded, region, _pulled_across(vel, back), ghost_slices(off)
        )
    for arr in out:
        if arr is not None:
            arr.flags.writeable = False
    return out


def build_rank_plan(
    view,
    rank: int,
    fluid: Optional[Mapping[object, np.ndarray]] = None,
    model: LatticeModel = D3Q19,
) -> RankGhostPlan:
    """Build the send/recv/local-copy plan for one rank's block view.

    For every neighbor ``n`` of a local block at offset ``off``, the
    block's ghost region on side ``off`` is fed by the neighbor's
    interior face toward us (its send region for direction ``-off``);
    symmetrically the neighbor needs our face toward it, tagged from its
    perspective (we sit at offset ``-off``).

    ``fluid`` maps each local block id to its padded FLUID mask
    (``flags.data & FLUID``).  With it, the plan keeps a ghost PDF
    (cell ``g``, direction ``a``) only if ``g + e_a`` is a FLUID
    interior cell of the receiving block — the values the receiver's
    pull actually reads; only :func:`needed_directions` can qualify.
    The receiver decides from its interior, the sender from its own
    ghost layer on that side, so both derive the same elements in the
    same order without a handshake, provided every ghost layer carries
    its neighbor's FLUID bits (:func:`check_ghost_flags`).  Entries,
    and hence messages, that end up empty are dropped.  Without
    ``fluid`` every region carries all ``model.q`` directions.

    Index templates are computed once per (block shape, side); each
    (block, side) is then one boolean selection.
    """
    pruned = fluid is not None
    everything = slice(None)
    velocities = np.ascontiguousarray(model.velocities, dtype=np.int64).tobytes()

    def template(cells, off, receive):
        return _side_template(velocities, tuple(cells), off, receive, pruned)

    sends: List[Tuple[int, int, object, np.ndarray]] = []
    recvs: List[Tuple[int, int, object, np.ndarray]] = []
    local_copies: List[Tuple[object, np.ndarray, object, np.ndarray]] = []
    for blk in view.blocks:
        flat = fluid[blk.id].ravel() if pruned else None
        for n in blk.neighbors:
            off = n.offset
            back = tuple(-o for o in off)
            ghost, probe = template(blk.cells, off, True)
            keep = everything if flat is None else flat[probe]
            ghost = ghost[keep]
            if len(ghost):
                if n.owner == rank:
                    # The receiver's selection also picks the sender's
                    # elements (blocks share one shape).
                    src = template(blk.cells, back, False)[0][keep]
                    local_copies.append((blk.id, ghost, n.id, src))
                else:
                    tag = message_tag(blk.id.root_index, off)
                    recvs.append((n.owner, tag, blk.id, ghost))
            if n.owner != rank:
                face, probe = template(blk.cells, off, False)
                face = face[everything if flat is None else flat[probe]]
                if len(face):
                    tag = message_tag(n.id.root_index, back)
                    sends.append((n.owner, tag, blk.id, face))
    return RankGhostPlan(tuple(sends), tuple(recvs), tuple(local_copies))


def check_ghost_flags(views, fluid: Mapping[object, np.ndarray]) -> None:
    """Check the invariant a pruned plan's header-free layout rests on:
    every block's ghost FLUID bits on a side equal its neighbor's
    interior FLUID bits there.  ``fluid`` maps every block id of
    ``views`` to its padded FLUID mask.  Raises
    :class:`~repro.errors.GhostFlagMismatchError` naming the two blocks
    otherwise (the sender would select other elements than the receiver
    expects)."""
    for view in views:
        for blk in view.blocks:
            for n in blk.neighbors:
                back = tuple(-o for o in n.offset)
                ghost = fluid[blk.id][ghost_slices(n.offset)]
                if not np.array_equal(ghost, fluid[n.id][send_slices(back)]):
                    raise GhostFlagMismatchError(
                        f"block {blk.id}'s ghost layer toward {n.offset} "
                        f"disagrees with the FLUID cells of block {n.id}"
                    )


class GhostExchange(CoalescedGhostExchange):
    """In-process per-face exchange: the buffer system grouped one
    segment per message, one message per (block, face) crossing a
    virtual-rank boundary — the baseline ``comm_mode``."""

    per_face = True


class SpmdGhostExchange(BufferSystem):
    """SPMD per-face exchange: every (block, face) payload travels as its
    own message under its per-face tag, from a persistent buffer."""

    per_face = True
