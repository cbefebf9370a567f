"""Distributed multi-block LBM simulation.

Ties together the balanced block forest (per-process views), per-block
fields and kernels, boundary handling, and the ghost-layer exchange into
one time loop:

    communication -> boundary handling -> LBM kernel -> grid swap

The order and the three per-block sweeps after the exchange are
written once, in :class:`~repro.core.stepper.RankStepper`, which the
SPMD driver (:func:`repro.comm.spmd.spmd_rank_program`) and the
single-block :class:`~repro.core.simulation.Simulation` share.

All virtual processes execute within one address space (deterministic,
bit-reproducible); the communication ledger distinguishes local from
remote copies so the performance models can attribute MPI cost.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import flagdefs as fl
from ..blocks.forest import LocalBlock, ProcessView, distribute
from ..blocks.setup import SetupBlockForest
from ..core.field import PdfField
from ..core.flags import FlagField
from ..core.stepper import BlockRuntime, RankDriver, RankStepper
from ..core.timeloop import TimeLoop
from ..errors import ConfigurationError
from ..geometry.implicit import ImplicitGeometry
from ..geometry.voxelize import ColorMap, voxelize_block
from ..lbm.boundary import BoundaryHandling, Condition, NoSlip
from ..lbm.collision import SRT, TRT
from ..lbm.kernels.registry import (
    DEFAULT_DENSE_TIER,
    DEFAULT_SPARSE_TIER,
    make_kernel,
)
from ..lbm.lattice import D3Q19, LatticeModel
from ..lbm.macroscopic import density as _density, velocity as _velocity
from .buffersystem import COMM_MODES, CoalescedGhostExchange, CommStats
from .ghostlayer import GhostExchange, build_rank_plan, check_ghost_flags

__all__ = [
    "DistributedSimulation",
    "default_vascular_colors",
    "BlockRuntime",
    "RankStepper",
    "build_block_flags",
    "build_block_runtime",
]

Collision = Union[SRT, TRT]


def default_vascular_colors() -> ColorMap:
    """Standard coloring for vascular geometries: inflow (color 1) gets a
    velocity boundary, outflow (color 2) a pressure boundary."""
    return ColorMap(
        by_color=((1, int(fl.VELOCITY_BC)), (2, int(fl.PRESSURE_BC)))
    )


def build_block_flags(
    blk: LocalBlock,
    geometry: Optional[ImplicitGeometry] = None,
    flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
    colors: Optional[ColorMap] = None,
    model: LatticeModel = D3Q19,
) -> FlagField:
    """One block's padded flag field: voxelized against ``geometry``, or
    FLUID everywhere (ghost layer included: it mirrors the neighbor's
    interior, which the fluid-pruned ghost plan reads), then adjusted
    by ``flag_setter``."""
    if colors is None:
        colors = default_vascular_colors() if geometry is not None else ColorMap()
    ff = FlagField(blk.cells)
    if geometry is not None:
        ff.data[...] = voxelize_block(
            geometry, blk.box, blk.cells, model=model, colors=colors
        )
    else:
        ff.fill(fl.FLUID, include_ghost=True)
    if flag_setter is not None:
        flag_setter(blk, ff)
    ff.validate_exclusive()
    return ff


def build_block_runtime(
    blk: LocalBlock,
    collision: Collision,
    conditions: Sequence[Condition],
    geometry: Optional[ImplicitGeometry] = None,
    flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
    colors: Optional[ColorMap] = None,
    model: LatticeModel = D3Q19,
    dense_kernel: str = DEFAULT_DENSE_TIER,
    sparse_kernel: str = DEFAULT_SPARSE_TIER,
) -> BlockRuntime:
    """Construct one block's runtime state (flags, fields, kernel, BCs).

    This is the per-block work every process performs independently
    during initialization — "every process voxelizes its blocks
    independently" (§2.3).
    """
    ff = build_block_flags(blk, geometry, flag_setter, colors, model)
    field = PdfField(model, blk.cells)
    field.set_equilibrium()
    if bool((ff.interior == fl.OUTSIDE).any()):
        if model.name != "D3Q19":
            raise ConfigurationError("sparse kernels require D3Q19")
        tier = sparse_kernel
    else:
        tier = dense_kernel
    kernel = make_kernel(tier, model, collision, blk.cells, mask=ff.fluid_mask())
    handler = BoundaryHandling(model, ff, conditions)
    return BlockRuntime(blk.fluid_cells, ff, field, kernel, handler, kernel.name)


class DistributedSimulation(RankDriver):
    """A multi-block simulation over a balanced block forest.

    Parameters
    ----------
    forest:
        A balanced :class:`~repro.blocks.setup.SetupBlockForest`.
    collision:
        SRT or TRT parameters (the paper runs TRT in production).
    geometry:
        Flow-domain geometry; blocks are voxelized against it.  ``None``
        means dense fluid blocks (use ``flag_setter`` for walls).
    boundaries:
        Boundary condition instances (defaults to ``[NoSlip()]``).
    flag_setter:
        Optional callback ``(local_block, flag_field) -> None`` invoked
        after default flag initialization — dense scenarios use it to
        place lids/obstacles.
    periodic:
        Per-axis periodicity of the (root-grid) domain.
    colors:
        Surface-color -> boundary-flag mapping for voxelization.
    comm_mode:
        Ghost-exchange strategy (see :mod:`repro.comm.buffersystem`):

        ``"per-face"``
            One message per (block, face) — the baseline.
        ``"coalesced"``
            All traffic between a pair of virtual ranks travels as one
            message per ordered pair per step (§2.3 of the paper).
            Bit-identical to ``"per-face"``.

        Both move only the ghost PDF values a fluid cell pulls (the
        plan is pruned with the blocks' FLUID masks, see
        :func:`~repro.comm.ghostlayer.build_rank_plan`), stage through
        persistent buffers, and run each phase as one compiled copy, so
        the steady-state exchange allocates no full-field temporaries.
        Construction raises
        :class:`~repro.errors.GhostFlagMismatchError` when a block's
        ghost-layer FLUID flags disagree with its neighbor's interior.
    exec_mode:
        Intra-rank sweep execution strategy (see :mod:`repro.exec`):
        ``"serial"`` runs every sweep inline; ``"threads"`` gives the
        kernel and boundary sweeps a persistent work-stealing pool of
        ``workers`` threads — the OpenMP axis of the paper's hybrid
        aPbT configurations.  Work items are whole blocks when there
        are at least as many blocks as workers, and interior *slabs* of
        dense blocks otherwise (the single-large-block regime).  The
        default ``compiled`` kernel releases the GIL for the whole
        call, so work items genuinely execute concurrently, and
        results are bit-identical to serial runs for every worker
        count.  ``None`` (default) selects
        ``"threads"`` when ``workers > 1``.
    workers:
        Worker threads for ``exec_mode="threads"``.
    """

    def __init__(
        self,
        forest: SetupBlockForest,
        collision: Collision,
        geometry: Optional[ImplicitGeometry] = None,
        boundaries: Optional[Sequence[Condition]] = None,
        flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
        periodic: Tuple[bool, bool, bool] = (False, False, False),
        colors: Optional[ColorMap] = None,
        model: LatticeModel = D3Q19,
        dense_kernel: str = DEFAULT_DENSE_TIER,
        sparse_kernel: str = DEFAULT_SPARSE_TIER,
        comm_mode: str = "per-face",
        exec_mode: Optional[str] = None,
        workers: int = 1,
    ):
        if forest.n_processes == 0:
            raise ConfigurationError("forest must be balanced first")
        super().__init__(model, exec_mode, workers)
        if comm_mode not in COMM_MODES:
            raise ConfigurationError(
                f"comm_mode must be one of {COMM_MODES}, got {comm_mode!r}"
            )
        self.comm_mode = comm_mode
        self.forest = forest
        self.collision = collision
        self.periodic = tuple(bool(p) for p in periodic)
        self.views: List[ProcessView] = distribute(forest, self.periodic)
        conditions = list(boundaries) if boundaries is not None else [NoSlip()]

        self.blocks: Dict[object, LocalBlock] = {}
        self.block_rank: Dict[object, int] = {}
        self.runtimes: Dict[object, BlockRuntime] = {}
        for view in self.views:
            for blk in view.blocks:
                self.blocks[blk.id] = blk
                self.block_rank[blk.id] = view.rank
                self.runtimes[blk.id] = build_block_runtime(
                    blk,
                    collision,
                    conditions,
                    geometry=geometry,
                    flag_setter=flag_setter,
                    colors=colors,
                    model=model,
                    dense_kernel=dense_kernel,
                    sparse_kernel=sparse_kernel,
                )
        rts = self.runtimes.items()
        self.fields: Dict[object, PdfField] = {k: rt.field for k, rt in rts}
        self.flags: Dict[object, FlagField] = {k: rt.flags for k, rt in rts}
        self.kernel_names: Dict[object, str] = {
            k: rt.kernel_name for k, rt in rts
        }

        # Every block's flags live in this address space, so the
        # invariant the pruned plans rest on is checked here.
        fluid = {
            k: ff.mask(fl.FLUID, include_ghost=True) for k, ff in self.flags.items()
        }
        check_ghost_flags(self.views, fluid)
        plans = [
            build_rank_plan(view, view.rank, fluid, model)
            for view in self.views
        ]
        executor = GhostExchange if comm_mode == "per-face" else CoalescedGhostExchange
        self.timeloop = TimeLoop()
        self.exchange = executor(plans, self.fields, tree=self.timeloop.tree)
        self._build_step(self.runtimes, self.exchange.exchange)

    @property
    def comm_stats(self) -> CommStats:
        return self.exchange.stats

    # -- observables ----------------------------------------------------------
    def total_fluid_cells(self) -> int:
        return self.stepper.fluid_per_step

    def max_velocity(self) -> float:
        return max([0.0] + [umax for _, _, umax in self._block_speeds()])

    def block_density(self, key) -> np.ndarray:
        """Interior density of one block (NaN on non-fluid cells)."""
        rho = _density(self.model, self.fields[key].interior_view)
        return np.where(self.flags[key].fluid_mask(), rho, np.nan)

    def block_velocity(self, key) -> np.ndarray:
        u = _velocity(self.model, self.fields[key].interior_view)
        mask = self.flags[key].fluid_mask()
        return np.where(mask[..., None], u, np.nan)

    def gather_density(self) -> np.ndarray:
        """Assemble the global density field (NaN where no block/fluid)."""
        return self._gather(self.block_density, ())

    def gather_velocity(self) -> np.ndarray:
        return self._gather(self.block_velocity, (self.model.dim,))

    def _gather(self, per_block, tail) -> np.ndarray:
        cells = np.asarray(self.forest.cells_per_block)
        grid = np.asarray(self.forest.root_grid)
        out = np.full(tuple(grid * cells) + tail, np.nan)
        for key, blk in self.blocks.items():
            lo = np.asarray(blk.grid_index) * cells
            sl = tuple(slice(int(l), int(l + c)) for l, c in zip(lo, cells))
            out[sl] = per_block(key)
        return out

    # -- performance ------------------------------------------------------------
    def comm_fraction(self) -> float:
        """Fraction of wall time spent in the communication sweep — the
        quantity plotted as dotted lines in Figure 6."""
        return self.timeloop.fraction("communication")
