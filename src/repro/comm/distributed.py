"""Distributed multi-block LBM simulation.

Ties together the balanced block forest (per-process views), per-block
fields and kernels, boundary handling, and the ghost-layer exchange into
one time loop:

    communication -> boundary handling -> LBM kernel -> grid swap

The three per-block sweeps after the exchange are written once, in
:class:`RankStepper`, and shared with the SPMD driver
(:func:`repro.comm.spmd.spmd_rank_program`).

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
from ..core.timeloop import TimeLoop
from ..errors import ConfigurationError, NumericalError
from ..exec import (
    EXEC_MODES,
    ExecutionEngine,
    SweepTask,
    kernel_tasks,
    make_engine,
    slabs_per_block,
)
from ..geometry.implicit import ImplicitGeometry
from ..geometry.voxelize import ColorMap, voxelize_block
from ..lbm.boundary import BoundaryHandling, Condition, NoSlip
from ..lbm.collision import SRT, TRT
from ..lbm.kernels.compiled import RunTableKernel
from ..lbm.kernels.registry import (
    DEFAULT_DENSE_TIER,
    DEFAULT_SPARSE_TIER,
    KERNEL_TIERS,
    instrument_kernel,
    make_kernel,
)
from ..lbm.lattice import D3Q19, LatticeModel
from ..lbm.macroscopic import density as _density, velocity as _velocity
from ..perf.timing import TimingTree
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


class BlockRuntime:
    """Everything one block needs to take time steps: the block it
    belongs to, flag field, PDF field, kernel, and boundary handler."""

    __slots__ = ("block", "flags", "field", "kernel", "handler", "kernel_name")

    def __init__(self, block, flags, field, kernel, handler, kernel_name):
        self.block = block
        self.flags = flags
        self.field = field
        self.kernel = kernel
        self.handler = handler
        self.kernel_name = kernel_name


class RankStepper:
    """The per-block part of one rank's time step: boundary handling,
    LBM kernel, grid swap — the sweeps that follow the ghost exchange.

    Built once from the rank's ``{block_id: BlockRuntime}``, its sweep
    engine and an optional timing tree (:class:`DistributedSimulation`
    builds one over the blocks of all its virtual ranks, the SPMD
    program one per rank).  Construction wraps every kernel it calls
    with :func:`~repro.lbm.kernels.registry.instrument_kernel` (so each
    call records under ``tier:<name>`` of the enclosing sweep scope),
    turns the kernel and boundary sweeps into engine work items, and
    counts the cells each step updates.

    Blocks on the ``runtable`` sparse tier are swept together: their
    run tables are merged into one
    (:meth:`~repro.lbm.kernels.compiled.RunTableKernel.merge`) whose
    address tables are built for both grid parities here, so the step
    makes one kernel call for all of them — or, with a threaded engine,
    one call per cell-balanced chunk, one chunk per worker.  Other
    blocks are work items of their own: whole blocks when the rank owns
    at least as many blocks as the engine has workers, and
    :func:`~repro.exec.slabs_per_block` interior slabs of each dense
    block otherwise.  Every round's items write disjoint cells, so
    results are bit-identical for any worker count.

    :meth:`boundary`, :meth:`kernel` and :meth:`swap` are the three
    sweeps; the drivers run them under scopes of the same names.
    """

    def __init__(
        self,
        runtimes: Dict[object, BlockRuntime],
        engine: ExecutionEngine,
        tree: Optional[TimingTree] = None,
    ):
        self.runtimes = runtimes
        self.engine = engine
        self.tree = tree
        workers = engine.workers if engine.mode == "threads" else 1
        batched = [
            rt for rt in runtimes.values() if isinstance(rt.kernel, RunTableKernel)
        ]
        n_dense = sum(rt.kernel_name in KERNEL_TIERS for rt in runtimes.values())
        slabs = slabs_per_block(len(runtimes), n_dense, workers)
        self.kernel_tasks: List[SweepTask] = []
        self.boundary_tasks: List[SweepTask] = []
        for bid, rt in runtimes.items():
            if not isinstance(rt.kernel, RunTableKernel):
                rt.kernel = instrument_kernel(rt.kernel, tree, rt.kernel_name)
                n = slabs if rt.kernel_name in KERNEL_TIERS else 1
                self.kernel_tasks += kernel_tasks(rt.kernel, rt.field, n, f"{bid}:")
            # Each handler writes only its own block's field.
            self.boundary_tasks.append(
                SweepTask(
                    (lambda rt=rt: rt.handler.apply(rt.field.src)),
                    cost=float(np.prod(rt.field.cells)),
                    name=f"{bid}:boundary",
                )
            )
        if batched:
            table = RunTableKernel.merge([rt.kernel for rt in batched])
            self._parities = table.address_tables([rt.field for rt in batched])
            self._parity_probe = (batched[0].field, batched[0].field.src)
            for i, chunk in enumerate(table.split(workers)):
                k = instrument_kernel(chunk, tree, chunk.name)
                self.kernel_tasks.append(
                    SweepTask(
                        (lambda k=k: k(*self._grids())),
                        cost=float(chunk.processed_cells),
                        name=f"runtable{i}",
                    )
                )
        #: Lattice cells the kernel sweep updates per step.
        self.cells_per_step = sum(
            getattr(rt.kernel, "processed_cells", int(np.prod(rt.field.cells)))
            for rt in runtimes.values()
        )
        #: Fluid cells per step (the MFLUPS numerator).
        self.fluid_per_step = sum(
            rt.block.fluid_cells for rt in runtimes.values()
        )

    def _grids(self):
        """The run table's ``(src, dst)`` address tables for the current
        grid parity (every block swaps in :meth:`swap`, so one block
        tells the parity of all)."""
        field, first_src = self._parity_probe
        return self._parities[field.src is not first_src]

    def boundary(self) -> None:
        """Apply every block's boundary conditions to its ``src`` grid."""
        self.engine.run(self.boundary_tasks)

    def kernel(self) -> None:
        """Stream and collide every block; counts the updated cells."""
        self.engine.run(self.kernel_tasks)
        if self.tree is not None:
            self.tree.add_counter("cells_updated", self.cells_per_step)
            self.tree.add_counter("fluid_cell_updates", self.fluid_per_step)

    def swap(self) -> None:
        """Swap every block's two grids."""
        for rt in self.runtimes.values():
            rt.field.swap()


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
    return BlockRuntime(blk, ff, field, kernel, handler, kernel.name)


class DistributedSimulation:
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
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if exec_mode is None:
            exec_mode = "threads" if workers > 1 else "serial"
        if exec_mode not in EXEC_MODES:
            raise ConfigurationError(
                f"exec_mode must be one of {EXEC_MODES}, got {exec_mode!r}"
            )
        if comm_mode not in COMM_MODES:
            raise ConfigurationError(
                f"comm_mode must be one of {COMM_MODES}, got {comm_mode!r}"
            )
        self.comm_mode = comm_mode
        self.exec_mode = exec_mode
        self.workers = int(workers)
        self.forest = forest
        self.model = model
        self.collision = collision
        self.periodic = tuple(bool(p) for p in periodic)
        self.views: List[ProcessView] = distribute(forest, self.periodic)
        conditions = list(boundaries) if boundaries is not None else [NoSlip()]
        if colors is None:
            colors = default_vascular_colors() if geometry is not None else ColorMap()

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

        self.timeloop = TimeLoop()
        tree = self.timeloop.tree
        self.engine = make_engine(self.exec_mode, self.workers, tree)
        self.timeloop.engine = self.engine
        # Wraps every kernel so its calls nest as ``tier:<name>`` under
        # the "kernel" sweep scope.
        self.stepper = RankStepper(self.runtimes, self.engine, tree)
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
        self.exchange = executor(plans, self.fields, tree=tree)
        (
            self.timeloop
            .add("communication", self.exchange.exchange)
            .add("boundary", self.stepper.boundary)
            .add("kernel", self.stepper.kernel)
            .add("swap", self.stepper.swap)
        )

    def close(self) -> None:
        """Shut down the sweep engine's worker pool (idempotent)."""
        self.timeloop.close()

    def update_boundary(self, old: Condition, new: Condition) -> "DistributedSimulation":
        """Replace a boundary condition on every block (e.g. a pulsatile
        inflow changing its velocity between runs).  The new condition
        must keep the old flag bit so precomputed links stay valid."""
        replaced = sum(
            rt.handler.replace_condition(old, new) for rt in self.runtimes.values()
        )
        if replaced == 0:
            raise ConfigurationError("condition is not active on any block")
        return self

    # -- checkpoint / restart ----------------------------------------------
    def enable_checkpointing(
        self, path: str, every: int, rng=None
    ) -> "DistributedSimulation":
        """Write an atomic checkpoint to ``path`` every ``every`` steps.

        The checkpoint (format v2, see :mod:`repro.io.checkpoint`)
        carries every block's PDF grid, the flag fields, the step
        counter, and optionally the state of ``rng`` (a
        ``numpy.random.Generator``).  Writes go through a temp file +
        rename, so an interrupted write never destroys the previous
        checkpoint; the write cost is timed under the loop's
        ``checkpoint`` scope.
        """
        from ..io.checkpoint import save_checkpoint

        self.timeloop.configure_checkpoint(
            lambda _step: save_checkpoint(self, path, rng=rng), every
        )
        return self

    def restart(self, path: str, rng=None) -> int:
        """Restore state from a checkpoint written by
        :meth:`enable_checkpointing` (or
        :func:`repro.io.checkpoint.save_checkpoint`); returns the step
        count at which the checkpoint was taken.

        Continuing with ``run(remaining)`` reproduces an uninterrupted
        run bit-exactly — the recovery path validated by
        ``tests/chaos/``.
        """
        from ..io.checkpoint import load_checkpoint

        return load_checkpoint(self, path, rng=rng)

    # -- execution ----------------------------------------------------------
    def run(self, steps: int, check_every: int = 0) -> "DistributedSimulation":
        """Advance by ``steps``; ``check_every > 0`` aborts with
        :class:`NumericalError` on divergence at that interval."""
        if check_every <= 0:
            self.timeloop.run(steps)
            return self
        remaining = int(steps)
        while remaining > 0:
            chunk = min(check_every, remaining)
            self.timeloop.run(chunk)
            remaining -= chunk
            self.assert_stable()
        return self

    def assert_stable(self, u_max: float = 0.57) -> None:
        """Raise :class:`NumericalError` if any block diverged."""
        for key, field in self.fields.items():
            fm = self.flags[key].fluid_mask()
            vals = field.interior_view[:, fm]
            if not np.isfinite(vals).all():
                raise NumericalError(
                    f"block {key}: non-finite PDFs after "
                    f"{self.timeloop.steps_run} steps"
                )
            u = _velocity(self.model, field.interior_view)
            if fm.any() and float(np.abs(u[fm]).max()) > u_max:
                raise NumericalError(
                    f"block {key}: lattice velocity exceeds {u_max} after "
                    f"{self.timeloop.steps_run} steps (unstable)"
                )

    @property
    def comm_stats(self) -> CommStats:
        return self.exchange.stats

    # -- observables ----------------------------------------------------------
    def total_fluid_cells(self) -> int:
        return sum(blk.fluid_cells for blk in self.blocks.values())

    def total_mass(self) -> float:
        total = 0.0
        for key, field in self.fields.items():
            rho = _density(self.model, field.interior_view)
            total += float(rho[self.flags[key].fluid_mask()].sum())
        return total

    def max_velocity(self) -> float:
        vmax = 0.0
        for key, field in self.fields.items():
            u = _velocity(self.model, field.interior_view)
            mask = self.flags[key].fluid_mask()
            if mask.any():
                vmax = max(vmax, float(np.abs(u[mask]).max()))
        return vmax

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
        cells = np.asarray(self.forest.cells_per_block)
        grid = np.asarray(self.forest.root_grid)
        out = np.full(tuple(grid * cells), np.nan)
        for key, blk in self.blocks.items():
            gi = np.asarray(blk.grid_index)
            lo = gi * cells
            sl = tuple(slice(int(l), int(l + c)) for l, c in zip(lo, cells))
            out[sl] = self.block_density(key)
        return out

    def gather_velocity(self) -> np.ndarray:
        cells = np.asarray(self.forest.cells_per_block)
        grid = np.asarray(self.forest.root_grid)
        out = np.full(tuple(grid * cells) + (self.model.dim,), np.nan)
        for key, blk in self.blocks.items():
            gi = np.asarray(blk.grid_index)
            lo = gi * cells
            sl = tuple(slice(int(l), int(l + c)) for l, c in zip(lo, cells))
            out[sl] = self.block_velocity(key)
        return out

    # -- performance ------------------------------------------------------------
    def mflups(self) -> float:
        t = self.timeloop.timings().get("kernel", 0.0)
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        return self.total_fluid_cells() * self.timeloop.steps_run / t / 1e6

    def mlups(self) -> float:
        t = self.timeloop.timings().get("kernel", 0.0)
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        return self.stepper.cells_per_step * self.timeloop.steps_run / t / 1e6

    def comm_fraction(self) -> float:
        """Fraction of wall time spent in the communication sweep — the
        quantity plotted as dotted lines in Figure 6."""
        return self.timeloop.fraction("communication")

    def timing_report(self) -> str:
        """Hierarchical timing tree: sweeps with the comm sub-scopes
        (pack, local copy, unpack) and per-tier kernel timers
        (waLBerla's timing pool)."""
        return self.timeloop.timing_report()
