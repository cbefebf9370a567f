"""The rank step: one time step of the blocks one process owns.

Every driver steps its blocks the same way, as a sequence of sweeps
(waLBerla's sweep/timeloop split)::

    communication -> boundary handling -> LBM kernel -> grid swap

:class:`RankStepper` is the one place that states this order and runs
the three per-block sweeps after the communication.  Its drivers are
:class:`~repro.core.simulation.Simulation` (one block; its
communication is the periodic wrap, if any),
:class:`~repro.comm.distributed.DistributedSimulation` (the blocks of
all virtual ranks; the in-process ghost exchange) and
:func:`~repro.comm.spmd.spmd_rank_program` (one rank's blocks; message
passing).  :class:`RankDriver` is the API the two time-loop drivers
share over the stepper's blocks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, NumericalError
from ..exec import (
    ExecutionEngine,
    SweepTask,
    kernel_tasks,
    make_engine,
    resolve_exec_mode,
    slabs_per_block,
)
from ..lbm.kernels.compiled import RunTableKernel
from ..lbm.kernels.registry import KERNEL_TIERS, instrument_kernel
from ..lbm.macroscopic import density as _density, velocity as _velocity
from ..perf.timing import TimingTree
from .timeloop import TimeLoop

__all__ = ["BlockRuntime", "RankDriver", "RankStepper"]


class BlockRuntime:
    """Everything one block needs to take time steps: its fluid cell
    count (the MFLUPS numerator), flag field, PDF field, kernel, and
    boundary handler."""

    __slots__ = ("fluid_cells", "flags", "field", "kernel", "handler", "kernel_name")

    def __init__(self, fluid_cells, flags, field, kernel, handler, kernel_name):
        self.fluid_cells = int(fluid_cells)
        self.flags = flags
        self.field = field
        self.kernel = kernel
        self.handler = handler
        self.kernel_name = kernel_name


class RankStepper:
    """One rank's time step over its ``{block_id: BlockRuntime}``.

    Built once from the runtimes, the rank's sweep engine and an
    optional timing tree.  Construction wraps every kernel it calls
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

    :meth:`sweeps` gives the step in order; the drivers run each sweep
    under a scope of its name.
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
        self.fluid_per_step = sum(rt.fluid_cells for rt in runtimes.values())

    def sweeps(
        self, communication: Optional[Callable[[], None]] = None
    ) -> List[Tuple[str, Callable[[], None]]]:
        """The rank step as ``(scope name, sweep)`` pairs, in order:
        ``communication`` (left out when ``None``), then
        :meth:`boundary`, :meth:`kernel` and :meth:`swap`."""
        step = [("boundary", self.boundary), ("kernel", self.kernel),
                ("swap", self.swap)]
        if communication is None:
            return step
        return [("communication", communication)] + step

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


class RankDriver:
    """The API of a driver that runs a :class:`RankStepper` in a
    :class:`~repro.core.timeloop.TimeLoop`: running, stability checks,
    observables, boundary updates, checkpointing and performance
    figures, all over ``stepper.runtimes``.

    Subclasses build their blocks' runtimes and call
    :meth:`_build_step` (``self.timeloop`` set); until then
    ``stepper`` is ``None``, and running, checkpointing, boundary
    updates and reports raise :class:`~repro.errors.ConfigurationError`.
    """

    timeloop: Optional[TimeLoop] = None
    stepper: Optional[RankStepper] = None
    engine: Optional[ExecutionEngine] = None

    def __init__(self, model, exec_mode: Optional[str], workers: int):
        self.model = model
        self.exec_mode = resolve_exec_mode(exec_mode, workers)
        self.workers = int(workers)

    def _build_step(
        self,
        runtimes: Dict[object, BlockRuntime],
        communication: Optional[Callable[[], None]] = None,
    ) -> None:
        """Attach the sweep engine and the rank step over ``runtimes``
        to ``self.timeloop``."""
        tree = self.timeloop.tree
        self.engine = make_engine(self.exec_mode, self.workers, tree)
        self.timeloop.engine = self.engine
        self.stepper = RankStepper(runtimes, self.engine, tree)
        for name, sweep in self.stepper.sweeps(communication):
            self.timeloop.add(name, sweep)

    def _require_stepper(self, action: str) -> None:
        if self.stepper is None:
            raise ConfigurationError(f"call finalize() before {action}")

    def close(self) -> None:
        """Shut down the sweep engine's worker pool (idempotent)."""
        if self.timeloop is not None:
            self.timeloop.close()

    def update_boundary(self, old, new):
        """Replace a boundary condition on every block (e.g. a pulsatile
        inflow changing its velocity between runs).  The new condition
        must keep the old flag bit so precomputed links stay valid."""
        self._require_stepper("update_boundary()")
        replaced = sum(
            rt.handler.replace_condition(old, new)
            for rt in self.stepper.runtimes.values()
        )
        if replaced == 0:
            raise ConfigurationError("condition is not active on any block")
        return self

    # -- checkpoint / restart ----------------------------------------------
    def enable_checkpointing(self, path: str, every: int, rng=None):
        """Write an atomic checkpoint to ``path`` every ``every`` steps.

        The checkpoint (format v2, see :mod:`repro.io.checkpoint`)
        carries every block's PDF grid, the flag fields, the step
        counter, and optionally the state of ``rng`` (a
        ``numpy.random.Generator``).  Writes go through a temp file +
        rename, so an interrupted write never destroys the previous
        checkpoint; the write cost is timed under the loop's
        ``checkpoint`` scope.
        """
        self._require_stepper("checkpointing")
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
        self._require_stepper("restart()")
        from ..io.checkpoint import load_checkpoint

        return load_checkpoint(self, path, rng=rng)

    # -- execution ----------------------------------------------------------
    def run(self, steps: int, check_every: int = 0):
        """Advance by ``steps`` time steps.

        ``check_every > 0`` runs :meth:`assert_stable` at that interval,
        aborting early with :class:`~repro.errors.NumericalError` instead
        of silently producing NaN fields.
        """
        self._require_stepper("run()")
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
        """Raise :class:`NumericalError` if any block diverged.

        ``u_max`` defaults to the lattice sound speed 1/sqrt(3) — any
        supersonic lattice velocity means the scheme has left its
        validity region (the paper's stability bound is 0.1).
        """
        steps = self.timeloop.steps_run
        for key, finite, umax in self._block_speeds():
            if not finite:
                raise NumericalError(
                    f"block {key}: non-finite PDFs after {steps} steps"
                )
            if umax > u_max:
                raise NumericalError(
                    f"block {key}: lattice velocity {umax:.3f} exceeds "
                    f"{u_max} after {steps} steps (unstable)"
                )

    def _block_speeds(self):
        """Per block: its key, whether its fluid PDFs are finite, and
        its largest fluid lattice velocity component (0 without fluid)."""
        for key, rt in self.stepper.runtimes.items():
            fm = rt.flags.fluid_mask()
            interior = rt.field.interior_view
            u = _velocity(self.model, interior)
            umax = float(np.abs(u[fm]).max()) if fm.any() else 0.0
            yield key, bool(np.isfinite(interior[:, fm]).all()), umax

    # -- observables ----------------------------------------------------------
    def total_mass(self) -> float:
        """Sum of density over fluid cells (conserved in closed domains)."""
        total = 0.0
        for rt in self.stepper.runtimes.values():
            rho = _density(self.model, rt.field.interior_view)
            total += float(rho[rt.flags.fluid_mask()].sum())
        return total

    # -- performance ------------------------------------------------------------
    def _kernel_rate(self, cells_per_step: int) -> float:
        t = self.timeloop.timings().get("kernel", 0.0)
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        return cells_per_step * self.timeloop.steps_run / t / 1e6

    def mlups(self) -> float:
        """Measured million lattice cell updates per second (kernel time only)."""
        return self._kernel_rate(self.stepper.cells_per_step)

    def mflups(self) -> float:
        """Measured million *fluid* lattice cell updates per second
        (kernel time only)."""
        return self._kernel_rate(self.stepper.fluid_per_step)

    def timing_report(self) -> str:
        """Hierarchical timing tree (waLBerla's timing pool): the sweeps
        with their sub-scopes (comm pack / local copy / unpack, per-tier
        kernel timers) and counters."""
        self._require_stepper("timing_report()")
        return self.timeloop.timing_report()
