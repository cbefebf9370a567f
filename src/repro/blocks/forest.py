"""The fully distributed runtime block forest (§2.2).

"Each process only knows about its own blocks and blocks assigned to
neighboring processes ... the memory usage of a particular process only
depends on the number of blocks assigned to this process, and not on
the size of the entire simulation."

:class:`ProcessView` is exactly that per-process knowledge; test
``test_blocks.py::TestDistributedMemory`` asserts the constant-memory
property the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import PartitioningError
from ..geometry.aabb import AABB
from ..geometry.voxelize import BlockCoverage
from .block import SetupBlock
from .blockid import BlockId
from .setup import SetupBlockForest, _NEIGHBOR_OFFSETS

__all__ = [
    "NeighborInfo",
    "LocalBlock",
    "ProcessView",
    "distribute",
    "view_for_rank",
]


@dataclass(frozen=True)
class NeighborInfo:
    """What a process knows about one neighboring block."""

    id: BlockId
    owner: int
    offset: Tuple[int, int, int]  # direction from the local block


@dataclass
class LocalBlock:
    """A block owned by this process, with its neighborhood."""

    id: BlockId
    box: AABB
    grid_index: Tuple[int, int, int]
    cells: Tuple[int, int, int]
    fluid_cells: int
    coverage: BlockCoverage
    neighbors: List[NeighborInfo] = field(default_factory=list)

    @property
    def total_cells(self) -> int:
        return self.cells[0] * self.cells[1] * self.cells[2]


@dataclass
class ProcessView:
    """One process's complete knowledge of the block structure."""

    rank: int
    n_processes: int
    domain: AABB
    blocks: List[LocalBlock] = field(default_factory=list)

    @property
    def n_local_blocks(self) -> int:
        return len(self.blocks)

    def local_fluid_cells(self) -> int:
        return sum(b.fluid_cells for b in self.blocks)

    def neighbor_ranks(self) -> List[int]:
        """Distinct remote ranks this process communicates with."""
        out = set()
        for b in self.blocks:
            for n in b.neighbors:
                if n.owner != self.rank:
                    out.add(n.owner)
        return sorted(out)

    def stored_entries(self) -> int:
        """Number of block/neighbor records held — the memory footprint.

        The paper's claim is that this is independent of the total
        number of processes and blocks in the simulation.
        """
        return len(self.blocks) + sum(len(b.neighbors) for b in self.blocks)


def view_for_rank(
    forest: SetupBlockForest,
    rank: int,
    periodic: Tuple[bool, bool, bool] = (False, False, False),
) -> ProcessView:
    """Build one process's distributed view (what that rank would
    construct for itself from the broadcast block-structure file).

    This is the one place neighborhoods are derived.  On an axis flagged
    in ``periodic`` a neighbor index past the root grid wraps around, so
    an edge block neighbors the block on the opposite edge — or itself,
    when the grid is one block wide on that axis.
    """
    if forest.n_processes == 0:
        raise PartitioningError("forest must be balanced before distribution")
    if not 0 <= rank < forest.n_processes:
        raise PartitioningError(f"rank {rank} out of range")
    if not forest.is_uniform:
        raise PartitioningError(
            "runtime distribution requires a uniform forest (like every "
            "simulation in the paper); refined forests are setup-only"
        )
    index: Dict[Tuple[int, int, int], SetupBlock] = {
        b.grid_index: b for b in forest.blocks
    }
    axes = list(zip(forest.root_grid, periodic))
    wrap = any(periodic)
    view = ProcessView(
        rank=rank, n_processes=forest.n_processes, domain=forest.domain
    )
    for b in forest.blocks:
        if b.owner != rank:
            continue
        i, j, k = b.grid_index
        neighbors = []
        for off in _NEIGHBOR_OFFSETS:
            target = (i + off[0], j + off[1], k + off[2])
            if wrap:
                target = tuple(t % n if p else t for t, (n, p) in zip(target, axes))
            nb = index.get(target)
            if nb is not None:
                neighbors.append(NeighborInfo(id=nb.id, owner=nb.owner, offset=off))
        view.blocks.append(
            LocalBlock(
                id=b.id,
                box=b.box,
                grid_index=b.grid_index,
                cells=b.cells,
                fluid_cells=b.fluid_cells,
                coverage=b.coverage,
                neighbors=neighbors,
            )
        )
    return view


def distribute(
    forest: SetupBlockForest,
    periodic: Tuple[bool, bool, bool] = (False, False, False),
) -> List[ProcessView]:
    """Build every process's distributed view from a balanced setup forest.

    In production each process constructs only its own view (from the
    broadcast file); building all views at once here is a test/driver
    convenience — each view is exactly what :func:`view_for_rank` gives
    that process.
    """
    if forest.n_processes == 0:
        raise PartitioningError("forest must be balanced before distribution")
    return [
        view_for_rank(forest, rank, periodic)
        for rank in range(forest.n_processes)
    ]
