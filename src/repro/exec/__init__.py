"""Hybrid intra-rank parallel sweep engine (the paper's OpenMP half).

The paper's title feature is *hybrid* parallelism: MPI between nodes
plus OpenMP/SMT threads within one (§4.2, Figure 5 — 45 -> 73 MLUPS
from 1-way to 4-way SMT on JUQUEEN).  The distributed layers of this
reproduction model the MPI half with virtual ranks; this package is the
shared-memory half.  Every (virtual-MPI) rank can own a persistent
worker pool that executes its per-step sweeps with two decomposition
strategies:

* **block-level** scheduling — each dense/sparse block on the rank is
  an independent work item, claimed work-queue style from per-worker
  deques with work stealing (Feichtinger et al.'s patch-level
  parallelization), and
* **slab-level** splitting — a single large block's interior is cut
  along the slowest-varying axis into per-worker subregion views, each
  swept through :func:`~repro.lbm.kernels.registry.run_kernel_on_region`.

:func:`kernel_tasks` turns one block's kernel sweep into work items for
either strategy; every driver builds its kernel rounds with it.

Parallel sweeps are *bit-identical* to serial ones: tasks write
disjoint destination regions and per-cell arithmetic does not depend on
the decomposition.  See ``docs/hybrid-parallelism.md``.
"""

from .engine import (
    EXEC_MODES,
    ExecutionEngine,
    SerialEngine,
    SweepTask,
    ThreadedEngine,
    make_engine,
    resolve_exec_mode,
)
from .partition import kernel_tasks, slab_boxes, slabs_per_block

__all__ = [
    "EXEC_MODES",
    "ExecutionEngine",
    "SerialEngine",
    "SweepTask",
    "ThreadedEngine",
    "kernel_tasks",
    "make_engine",
    "resolve_exec_mode",
    "slab_boxes",
    "slabs_per_block",
]
