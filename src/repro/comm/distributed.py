"""Distributed multi-block LBM simulation.

Ties together the balanced block forest (per-process views), per-block
fields and kernels, boundary handling, and the ghost-layer exchange into
one time loop:

    communication -> boundary handling -> LBM kernel -> grid swap

All virtual processes execute within one address space (deterministic,
bit-reproducible); the communication ledger distinguishes local from
remote copies so the performance models can attribute MPI cost.
"""

from __future__ import annotations

import time
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
    RoundHandle,
    SweepTask,
    make_engine,
    slab_boxes,
    slabs_per_block,
)
from ..geometry.implicit import ImplicitGeometry
from ..geometry.voxelize import ColorMap, voxelize_block
from ..lbm.boundary import BoundaryHandling, Condition, NoSlip
from ..lbm.collision import SRT, TRT
from ..lbm.kernels.common import box_cells, interior_partition
from ..lbm.kernels.registry import (
    DEFAULT_DENSE_TIER,
    DEFAULT_SPARSE_TIER,
    KERNEL_TIERS,
    instrument_kernel,
    make_kernel,
    run_kernel_on_region,
)
from ..lbm.lattice import D3Q19, LatticeModel
from ..lbm.macroscopic import density as _density, velocity as _velocity
from .buffersystem import COMM_MODES, CoalescedGhostExchange
from .ghostlayer import CommStats, CopySpec, GhostExchange

__all__ = [
    "DistributedSimulation",
    "default_vascular_colors",
    "BlockRuntime",
    "build_block_runtime",
]

Collision = Union[SRT, TRT]


def _handler_writes_ghosts(handler: BoundaryHandling) -> bool:
    """True if any boundary link writes a wall cell in the ghost shell.

    Such writes are clobbered when a later unpack refreshes the ghost
    layer, so the overlap schedule must re-apply the (idempotent)
    boundary sweep after the exchange completes — see
    :meth:`DistributedSimulation._finish_comm`.
    """
    shape = handler.flag_field.data.shape
    interior = np.zeros(shape, dtype=bool)
    interior[(slice(1, -1),) * len(shape)] = True
    ghost_flat = ~interior.reshape(-1)
    for per_dir in handler._links:
        for links in per_dir:
            if links.wall.size and bool(ghost_flat[links.wall].any()):
                return True
    return False


def default_vascular_colors() -> ColorMap:
    """Standard coloring for vascular geometries: inflow (color 1) gets a
    velocity boundary, outflow (color 2) a pressure boundary."""
    return ColorMap(
        by_color=((1, int(fl.VELOCITY_BC)), (2, int(fl.PRESSURE_BC)))
    )


class BlockRuntime:
    """Everything one block needs to take time steps: flag field, PDF
    field, kernel, and boundary handler."""

    __slots__ = ("flags", "field", "kernel", "handler", "kernel_name")

    def __init__(self, flags, field, kernel, handler, kernel_name):
        self.flags = flags
        self.field = field
        self.kernel = kernel
        self.handler = handler
        self.kernel_name = kernel_name

    def step_local(self) -> None:
        """Boundary + kernel + swap (ghost exchange is the caller's job)."""
        self.handler.apply(self.field.src)
        self.kernel(self.field.src, self.field.dst)
        self.field.swap()


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
    if colors is None:
        colors = default_vascular_colors() if geometry is not None else ColorMap()
    ff = FlagField(blk.cells)
    if geometry is not None:
        ff.data[...] = voxelize_block(
            geometry, blk.box, blk.cells, model=model, colors=colors
        )
    else:
        ff.fill(fl.FLUID)
    if flag_setter is not None:
        flag_setter(blk, ff)
    ff.validate_exclusive()
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
    return BlockRuntime(ff, field, kernel, handler, kernel.name)


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
    filtered_communication:
        Exchange only the PDF directions neighbors can pull (ablation;
        the paper's scheme sends full ghost layers).  Only available
        with ``comm_mode="per-face"``.
    comm_mode:
        Ghost-exchange strategy (see :mod:`repro.comm.buffersystem`):

        ``"per-face"``
            One staged copy per (block, face) — the baseline.
        ``"coalesced"``
            All traffic between a pair of virtual ranks is staged
            through one persistent buffer per ordered pair — exactly
            one message per rank pair per step, zero full-field
            allocations in steady state (§2.3 of the paper).
        ``"overlap"``
            Coalesced, plus communication/computation overlap: each
            dense block's sweep is split into an inner region
            (independent of ghost layers, runs between pack and
            unpack) and a one-cell frontier shell (runs after).
            Bit-identical to the other modes.
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
    threads:
        Deprecated alias for ``workers`` (kept for callers of the
        earlier thread-pool implementation); ignored when ``workers``
        is given.
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
        filtered_communication: bool = False,
        comm_mode: str = "per-face",
        threads: int = 1,
        exec_mode: Optional[str] = None,
        workers: Optional[int] = None,
    ):
        if forest.n_processes == 0:
            raise ConfigurationError("forest must be balanced first")
        if workers is None:
            workers = int(threads)
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
        if filtered_communication and comm_mode != "per-face":
            raise ConfigurationError(
                "filtered_communication requires comm_mode='per-face'"
            )
        self.comm_mode = comm_mode
        self.exec_mode = exec_mode
        self.workers = int(workers)
        #: Back-compat view of the worker count (pre-engine API).
        self.threads = self.workers
        self.forest = forest
        self.model = model
        self.collision = collision
        self.views: List[ProcessView] = distribute(forest)
        self.periodic = tuple(bool(p) for p in periodic)
        conditions = list(boundaries) if boundaries is not None else [NoSlip()]
        if colors is None:
            colors = default_vascular_colors() if geometry is not None else ColorMap()

        self.blocks: Dict[object, LocalBlock] = {}
        self.block_rank: Dict[object, int] = {}
        self.fields: Dict[object, PdfField] = {}
        self.flags: Dict[object, FlagField] = {}
        self._kernels: Dict[object, Callable] = {}
        self._handlers: Dict[object, BoundaryHandling] = {}
        self.kernel_names: Dict[object, str] = {}

        for view in self.views:
            for blk in view.blocks:
                key = blk.id
                self.blocks[key] = blk
                self.block_rank[key] = view.rank
                rt = build_block_runtime(
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
                self.flags[key] = rt.flags
                self.fields[key] = rt.field
                self._kernels[key] = rt.kernel
                self.kernel_names[key] = rt.kernel_name
                self._handlers[key] = rt.handler

        self.timeloop = TimeLoop()
        self.engine = make_engine(self.exec_mode, self.workers, self.timeloop.tree)
        self.timeloop.engine = self.engine
        specs = self._build_specs()
        if comm_mode == "per-face":
            self.exchange = GhostExchange(
                self.fields,
                specs,
                pdf_filter=model if filtered_communication else None,
                tree=self.timeloop.tree,
            )
        else:
            self.exchange = CoalescedGhostExchange(
                self.fields, specs, self.block_rank, tree=self.timeloop.tree
            )
        if comm_mode == "overlap":
            self._build_overlap_schedule(specs)
            (
                self.timeloop
                .add("communication", self.exchange.start)
                .add("boundary", self._apply_boundaries)
                .add("inner kernel", self._run_inner_kernels)
                .add("communication finish", self._finish_comm)
                .add("frontier kernel", self._run_frontier_kernels)
                .add("swap", self._swap_all)
            )
        else:
            (
                self.timeloop
                .add("communication", self.exchange.exchange)
                .add("boundary", self._apply_boundaries)
                .add("kernel", self._run_kernels)
                .add("swap", self._swap_all)
            )
        # Per-tier kernel timers nest under the "kernel" sweep scope.
        for key, kern in self._kernels.items():
            self._kernels[key] = instrument_kernel(
                kern, self.timeloop.tree, self.kernel_names[key]
            )
        self._cells_per_step = sum(
            getattr(k, "processed_cells", int(np.prod(self.blocks[key].cells)))
            for key, k in self._kernels.items()
        )
        self._fluid_per_step = self.total_fluid_cells()
        # Cumulative accumulators for the overlap-efficiency gauge.
        self._inner_seconds = 0.0
        self._exposed_seconds = 0.0
        # In-flight inner-sweep round (threaded overlap composition).
        self._inner_handle: Optional[RoundHandle] = None
        self._build_task_lists()

    # -- construction helpers ---------------------------------------------
    def _build_specs(self) -> List[CopySpec]:
        specs: List[CopySpec] = []
        by_grid = {blk.grid_index: key for key, blk in self.blocks.items()}
        grid = np.asarray(self.forest.root_grid)
        for key, blk in self.blocks.items():
            existing = {n.offset for n in blk.neighbors}
            for n in blk.neighbors:
                specs.append(
                    CopySpec(
                        dst_key=key,
                        src_key=n.id,
                        offset=n.offset,
                        remote=n.owner != self.block_rank[key],
                    )
                )
            if not any(self.periodic):
                continue
            gi = np.asarray(blk.grid_index)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        off = (dx, dy, dz)
                        if off == (0, 0, 0) or off in existing:
                            continue
                        target = gi + off
                        wraps = (target < 0) | (target >= grid)
                        if not wraps.any():
                            continue  # plain missing neighbor (outside geometry)
                        if np.any(wraps & ~np.asarray(self.periodic)):
                            continue  # wrap on a non-periodic axis
                        wrapped = tuple((target % grid).tolist())
                        src_key = by_grid.get(wrapped)
                        if src_key is None:
                            continue
                        specs.append(
                            CopySpec(
                                dst_key=key,
                                src_key=src_key,
                                offset=off,
                                remote=self.block_rank[src_key]
                                != self.block_rank[key],
                            )
                        )
        return specs

    def _build_overlap_schedule(self, specs: Sequence[CopySpec]) -> None:
        """Precompute the inner/frontier split for ``comm_mode='overlap'``.

        Dense blocks are partitioned once into an inner box (sweepable
        before the exchange finishes — its pulls never touch ghost
        cells) and a one-cell frontier onion.  Sparse blocks keep their
        index lists valid by sweeping whole-block in the frontier phase.
        Blocks that receive remote data *and* have boundary links
        writing into the ghost shell are re-applied after unpack (the
        sweep is idempotent: it reads only interior fluid cells).
        """
        remote_dst = {s.dst_key for s in specs if s.remote}
        self._inner_boxes: Dict[object, tuple] = {}
        self._frontier_boxes: Dict[object, list] = {}
        self._reapply_keys: List[object] = []
        for key, blk in self.blocks.items():
            if self.kernel_names[key] in KERNEL_TIERS:
                inner, frontier = interior_partition(blk.cells)
                if inner is not None:
                    self._inner_boxes[key] = inner
                self._frontier_boxes[key] = frontier
            if key in remote_dst and _handler_writes_ghosts(self._handlers[key]):
                self._reapply_keys.append(key)

    def _build_task_lists(self) -> None:
        """Precompute the engine work items for every parallel sweep.

        Decomposition is hybrid: with at least as many blocks as
        workers each block is one work item (block-level scheduling);
        with fewer blocks, each *dense* block's interior is cut into
        :func:`~repro.exec.slabs_per_block` slabs along the slowest
        axis (sparse blocks always stay whole — their index lists are
        built for the full padded shape).  Closures re-read
        ``field.src`` / ``field.dst`` at call time so the two-grid swap
        stays transparent; all tasks of one round write disjoint
        regions, so any worker count is bit-identical to serial.
        """
        dense = {k for k in self._kernels if self.kernel_names[k] in KERNEL_TIERS}
        n_blocks = len(self._kernels)
        slabs = 1
        if self.exec_mode == "threads":
            slabs = slabs_per_block(n_blocks, len(dense), self.workers)
        self._kernel_tasks: List[SweepTask] = []
        for key, kern in self._kernels.items():
            field = self.fields[key]
            cells = self.blocks[key].cells
            if key in dense and slabs > 1:
                full = ((0,) * self.model.dim, cells)
                for i, box in enumerate(slab_boxes(full, slabs)):
                    self._kernel_tasks.append(
                        SweepTask(
                            (lambda kern=kern, field=field, box=box:
                             run_kernel_on_region(
                                 kern, field.src, field.dst, box
                             )),
                            cost=box_cells(box),
                            name=f"{key}:slab{i}",
                        )
                    )
            else:
                cost = float(
                    getattr(kern, "processed_cells", int(np.prod(cells)))
                )
                self._kernel_tasks.append(
                    SweepTask(
                        (lambda kern=kern, field=field:
                         kern(field.src, field.dst)),
                        cost=cost,
                        name=f"{key}:block",
                    )
                )
        # Boundary handling: blocks are independent (each handler writes
        # only its own block's field), one work item per block.
        self._boundary_tasks = [
            SweepTask(
                (lambda h=handler, field=self.fields[key]: h.apply(field.src)),
                cost=float(np.prod(self.blocks[key].cells)),
                name=f"{key}:boundary",
            )
            for key, handler in self._handlers.items()
        ]
        if self.comm_mode != "overlap":
            self._inner_tasks: List[SweepTask] = []
            self._frontier_tasks: List[SweepTask] = []
            return
        # Overlap schedule: inner boxes slab-split like full interiors
        # (they are the bulk of the work and must fill the pool while
        # the exchange is in flight); frontier shells stay one item per
        # block — thin onions whose boxes must run back-to-back.
        inner_slabs = 1
        if self.exec_mode == "threads" and self._inner_boxes:
            inner_slabs = slabs_per_block(
                len(self._inner_boxes), len(self._inner_boxes), self.workers
            )
        self._inner_tasks = []
        for key, box in self._inner_boxes.items():
            field = self.fields[key]
            kern = self._kernels[key]
            for i, sb in enumerate(slab_boxes(box, inner_slabs)):
                self._inner_tasks.append(
                    SweepTask(
                        (lambda kern=kern, field=field, box=sb:
                         run_kernel_on_region(kern, field.src, field.dst, box)),
                        cost=box_cells(sb),
                        name=f"{key}:inner{i}",
                    )
                )
        self._frontier_tasks = []
        for key, kern in self._kernels.items():
            cells = int(np.prod(self.blocks[key].cells))
            inner = self._inner_boxes.get(key)
            cost = float(cells - (box_cells(inner) if inner is not None else 0))
            self._frontier_tasks.append(
                SweepTask(
                    (lambda key=key: self._frontier_one(key)),
                    cost=max(cost, 1.0),
                    name=f"{key}:frontier",
                )
            )

    # -- per-step sweeps --------------------------------------------------
    def _run_inner_kernels(self) -> None:
        """Dispatch the inner-slab round.

        Under ``exec_mode="threads"`` the round is *asynchronous*: the
        sweep returns as soon as the tasks are on the worker deques, so
        the next sweep (``communication finish``) drains the exchange
        concurrently with the inner compute — the unpack writes ghost
        layers of ``src`` while the inner slabs write interior regions
        of ``dst``, which are disjoint.  The serial engine executes
        inline, reproducing the synchronous schedule exactly.
        """
        t0 = time.perf_counter()
        self._inner_handle = self.engine.run_async(self._inner_tasks)
        if self._inner_handle.done:  # serial engine ran inline
            self._inner_seconds += time.perf_counter() - t0

    def _finish_comm(self) -> None:
        """Complete the exchange, restore boundary writes, join the
        in-flight inner round, and update the
        ``comm.overlap_efficiency`` gauge (compute hidden behind the
        exchange as a fraction of compute + exposed comm)."""
        t0 = time.perf_counter()
        self.exchange.finish()
        for key in self._reapply_keys:
            self._handlers[key].apply(self.fields[key].src)
        comm_wall = time.perf_counter() - t0
        handle = self._inner_handle
        self._inner_handle = None
        if handle is not None and not handle.done:
            cp0 = self.engine.critical_path_seconds
            handle.wait()
            # The inner round's critical-path CPU time is the compute
            # available to hide communication behind; comm beyond it is
            # exposed.
            inner_cp = self.engine.critical_path_seconds - cp0
            self._inner_seconds += inner_cp
            self._exposed_seconds += max(0.0, comm_wall - inner_cp)
        else:
            self._exposed_seconds += comm_wall
        denom = self._inner_seconds + self._exposed_seconds
        if denom > 0.0:
            self.timeloop.tree.set_counter(
                "comm.overlap_efficiency", self._inner_seconds / denom
            )

    def _frontier_one(self, key) -> None:
        field = self.fields[key]
        kernel = self._kernels[key]
        boxes = self._frontier_boxes.get(key)
        if boxes is None:  # sparse kernel: whole-block sweep
            kernel(field.src, field.dst)
            return
        for box in boxes:
            run_kernel_on_region(kernel, field.src, field.dst, box)

    def _run_frontier_kernels(self) -> None:
        self.engine.run(self._frontier_tasks)
        tree = self.timeloop.tree
        tree.add_counter("cells_updated", self._cells_per_step)
        tree.add_counter("fluid_cell_updates", self._fluid_per_step)

    def _apply_boundaries(self) -> None:
        self.engine.run(self._boundary_tasks)

    def _run_kernels(self) -> None:
        self.engine.run(self._kernel_tasks)
        tree = self.timeloop.tree
        tree.add_counter("cells_updated", self._cells_per_step)
        tree.add_counter("fluid_cell_updates", self._fluid_per_step)

    def _swap_all(self) -> None:
        for field in self.fields.values():
            field.swap()

    def close(self) -> None:
        """Shut down the sweep engine's worker pool (idempotent)."""
        self.timeloop.close()

    def update_boundary(self, old: Condition, new: Condition) -> "DistributedSimulation":
        """Replace a boundary condition on every block (e.g. a pulsatile
        inflow changing its velocity between runs).  The new condition
        must keep the old flag bit so precomputed links stay valid."""
        if new.flag != old.flag:
            raise ConfigurationError(
                "replacement boundary must keep the same flag bit"
            )
        replaced = 0
        for handler in self._handlers.values():
            for i, cond in enumerate(handler.conditions):
                if cond == old:
                    handler.conditions[i] = new
                    replaced += 1
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
    def _kernel_seconds(self) -> float:
        """Total kernel sweep time — ``kernel`` in the fused modes, the
        sum of ``inner kernel`` + ``frontier kernel`` under overlap."""
        return sum(
            v for k, v in self.timeloop.timings().items() if "kernel" in k
        )

    def mflups(self) -> float:
        t = self._kernel_seconds()
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        return self.total_fluid_cells() * self.timeloop.steps_run / t / 1e6

    def mlups(self) -> float:
        t = self._kernel_seconds()
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        processed = sum(
            getattr(k, "processed_cells", int(np.prod(self.blocks[key].cells)))
            for key, k in self._kernels.items()
        )
        return processed * self.timeloop.steps_run / t / 1e6

    def comm_fraction(self) -> float:
        """Fraction of wall time spent in communication sweeps — the
        quantity plotted as dotted lines in Figure 6.  Under overlap
        both halves (``communication`` and ``communication finish``)
        count; the hidden portion shows up as the gap between this and
        ``comm.overlap_efficiency``."""
        t = self.timeloop.timings()
        total = sum(t.values())
        if total == 0.0:
            return 0.0
        return (
            sum(v for k, v in t.items() if k.startswith("communication")) / total
        )

    def timing_report(self) -> str:
        """Hierarchical timing tree: sweeps with comm pack/send/unpack
        sub-scopes and per-tier kernel timers (waLBerla's timing pool)."""
        return self.timeloop.timing_report()
