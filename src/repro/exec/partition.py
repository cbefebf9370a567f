"""Slab decomposition of block interiors for intra-rank workers.

The thread-level analog of the block forest's domain decomposition: a
box of interior cells is cut along its slowest-varying axis (axis 0 of
the C-ordered SoA fields, so every slab is one contiguous memory range)
into roughly equal slabs, one work item each.  A kernel run on the
halo-inclusive view of a slab performs exactly the per-cell arithmetic
of a full sweep restricted to the slab (see
:func:`repro.lbm.kernels.common.region_view`), so any slab count gives
bit-identical fields.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..lbm.kernels.common import Box, box_cells
from ..lbm.kernels.registry import run_kernel_on_region
from .engine import SweepTask

__all__ = ["kernel_tasks", "slab_boxes", "slabs_per_block"]


def slab_boxes(box: Box, n: int) -> List[Box]:
    """Split ``box`` into at most ``n`` slabs along the slowest axis.

    The cut axis is axis 0 — the slowest-varying index of the C-ordered
    PDF arrays — so each slab's cells (and its kernel's scratch
    buffers) occupy one contiguous stretch of memory.  Extents are
    balanced to within one cell (the first ``extent % n`` slabs get the
    extra cell).  If the axis holds fewer than ``n`` cells, one slab
    per cell is returned; ``n == 1`` returns ``[box]`` unchanged.
    """
    if n < 1:
        raise ConfigurationError(f"slab count must be >= 1, got {n}")
    lo, hi = box
    extent = int(hi[0]) - int(lo[0])
    if extent <= 0:
        return []
    cuts = min(int(n), extent)
    if cuts == 1:
        return [box]
    base, extra = divmod(extent, cuts)
    out: List[Box] = []
    start = int(lo[0])
    for i in range(cuts):
        width = base + (1 if i < extra else 0)
        out.append(
            ((start,) + tuple(lo[1:]), (start + width,) + tuple(hi[1:]))
        )
        start += width
    return out


def slabs_per_block(n_blocks: int, n_dense: int, workers: int) -> int:
    """Slab count applied to each dense block of a rank.

    With at least as many blocks as workers, block-level scheduling
    already fills the pool — every block stays one work item (slab
    count 1).  With fewer blocks than workers (the single-large-block
    regime of the Figure 5 node-level runs), each *dense* block is cut
    into enough slabs that the pool has work for every thread:
    ``ceil(workers / n_dense)``.  Sparse blocks always stay whole —
    their index lists are built for the full padded shape.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if n_blocks >= workers or n_dense < 1:
        return 1
    return -(-workers // n_dense)  # ceil division


def kernel_tasks(kernel, field, slabs: int = 1, name: str = "") -> List[SweepTask]:
    """One block's kernel sweep as engine work items.

    ``slabs > 1`` cuts the interior into :func:`slab_boxes` slabs, each
    swept through :func:`~repro.lbm.kernels.registry.run_kernel_on_region`;
    otherwise one item sweeps the whole block (the only option for the
    sparse tiers, whose index lists are built for the full padded shape).
    Closures re-read ``field.src`` / ``field.dst`` at call time, so the
    two-grid swap stays transparent; slabs write disjoint destination
    regions, so any slab count is bit-identical to one sweep.  ``name``
    prefixes the diagnostic task names.
    """
    if slabs > 1:
        full = ((0,) * len(field.cells), field.cells)
        return [
            SweepTask(
                (lambda box=box: run_kernel_on_region(
                    kernel, field.src, field.dst, box
                )),
                cost=box_cells(box),
                name=f"{name}slab{i}",
            )
            for i, box in enumerate(slab_boxes(full, slabs))
        ]
    cost = float(getattr(kernel, "processed_cells", int(np.prod(field.cells))))
    return [
        SweepTask(
            lambda: kernel(field.src, field.dst), cost=cost, name=f"{name}block"
        )
    ]
