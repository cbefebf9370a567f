"""High-level single-block simulation driver.

Wires together the flag field, the PDF field, boundary handling, a
compute kernel and the time loop.  This is the entry point for the
example applications; distributed multi-block simulations build on
:mod:`repro.comm` and :mod:`repro.blocks` instead.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, NumericalError
from ..exec import EXEC_MODES, SweepTask, kernel_tasks, make_engine
from ..lbm.boundary import BoundaryHandling, Condition
from ..lbm.forcing import ConstantBodyForce
from ..lbm.collision import SRT, TRT
from ..lbm.kernels.registry import (
    DEFAULT_DENSE_TIER,
    DEFAULT_SPARSE_TIER,
    KERNEL_TIERS,
    SPARSE_TIERS,
    make_kernel,
)
from ..lbm.lattice import D3Q19, LatticeModel
from ..lbm.macroscopic import density as _density, velocity as _velocity
from . import flags as fl
from .field import PdfField
from .flags import FlagField
from .timeloop import TimeLoop

__all__ = ["Simulation"]

Collision = Union[SRT, TRT]


class Simulation:
    """A single-block LBM simulation.

    Typical use::

        sim = Simulation(cells=(64, 64, 64), collision=TRT.from_tau(0.6))
        sim.flags.fill(fl.FLUID)
        ... mark boundary cells in sim.flags ...
        sim.add_boundary(NoSlip())
        sim.finalize()
        sim.run(100)

    Parameters
    ----------
    cells:
        Interior cell counts.
    collision:
        SRT or TRT parameters.
    model:
        Lattice model (default D3Q19, like every run in the paper).
    kernel:
        Kernel tier name (``generic`` / ``d3q19`` / ``vectorized`` /
        ``compiled``) or a sparse strategy name (``conditional`` /
        ``indexlist`` / ``interval`` / ``runtable``).  ``None`` selects
        the registry's default dense tier (``compiled``) for fully fluid
        interiors and its default sparse tier (``runtable``, a one-block
        run table here) when OUTSIDE cells are present.
    body_force:
        Optional constant body force (lattice units per cell per step),
        applied to fluid cells as an extra sweep.
    periodic:
        Per-axis periodicity: ghost layers on periodic axes are wrapped
        from the opposite interior face before each step.
    exec_mode:
        Intra-rank sweep execution (see :mod:`repro.exec`):
        ``"serial"`` runs sweeps inline, ``"threads"`` gives the kernel
        sweep a persistent pool of ``workers`` threads, each sweeping a
        slab of the interior (slowest-varying axis) through subregion
        views — bit-identical to serial for every worker count.
        ``None`` (default) selects ``"threads"`` when ``workers > 1``.
    workers:
        Worker threads for ``exec_mode="threads"`` (the paper's
        OpenMP/SMT axis within one rank).
    """

    def __init__(
        self,
        cells: Tuple[int, ...],
        collision: Collision,
        model: LatticeModel = D3Q19,
        kernel: Optional[str] = None,
        body_force=None,
        periodic: Optional[Tuple[bool, ...]] = None,
        exec_mode: Optional[str] = None,
        workers: int = 1,
    ):
        self.model = model
        self.collision = collision
        self.cells = tuple(int(c) for c in cells)
        self.kernel_name = kernel
        self.flags = FlagField(self.cells)
        self.pdfs = PdfField(model, self.cells)
        self.boundaries: list[Condition] = []
        self.timeloop: Optional[TimeLoop] = None
        self._finalized = False
        self._kernel = None
        self._bh: Optional[BoundaryHandling] = None
        self.body_force = (
            ConstantBodyForce(model, body_force) if body_force is not None else None
        )
        if periodic is None:
            periodic = (False,) * model.dim
        if len(periodic) != model.dim:
            raise ConfigurationError(
                f"periodic needs {model.dim} entries, got {periodic}"
            )
        self.periodic = tuple(bool(p) for p in periodic)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if exec_mode is None:
            exec_mode = "threads" if workers > 1 else "serial"
        if exec_mode not in EXEC_MODES:
            raise ConfigurationError(
                f"exec_mode must be one of {EXEC_MODES}, got {exec_mode!r}"
            )
        self.exec_mode = exec_mode
        self.workers = int(workers)
        self.engine = None
        self._kernel_tasks: list[SweepTask] = []

    # -- configuration ------------------------------------------------------
    def add_boundary(self, condition: Condition) -> "Simulation":
        """Register a boundary condition (before :meth:`finalize`)."""
        if self._finalized:
            raise ConfigurationError("cannot add boundaries after finalize()")
        self.boundaries.append(condition)
        return self

    def finalize(self, rho: float = 1.0, u=None) -> "Simulation":
        """Freeze configuration, build kernel + boundary sweep, init fields."""
        if self._finalized:
            raise ConfigurationError("finalize() called twice")
        self.flags.validate_exclusive()
        fluid = self.flags.fluid_mask()
        n_fluid = int(fluid.sum())
        if n_fluid == 0:
            raise ConfigurationError("no fluid cells flagged")
        has_outside = bool((self.flags.interior == fl.OUTSIDE).any())
        self.timeloop = TimeLoop()
        tree = self.timeloop.tree

        name = self.kernel_name
        if name is None:
            name = DEFAULT_SPARSE_TIER if has_outside else DEFAULT_DENSE_TIER
        if name in SPARSE_TIERS and self.model.name != "D3Q19":
            raise ConfigurationError("sparse kernels require D3Q19")
        if name not in SPARSE_TIERS and has_outside:
            raise ConfigurationError(
                f"dense kernel {name!r} on a block with OUTSIDE cells; "
                "use a sparse strategy (conditional/indexlist/interval/runtable)"
            )
        self._kernel = make_kernel(
            name, self.model, self.collision, self.cells, tree=tree, mask=fluid
        )
        # The tier actually built (``compiled`` falls back to
        # ``vectorized`` where no C compiler works).
        name = self.kernel_name = self._kernel.name

        # Intra-rank sweep engine: the kernel sweep becomes a round of
        # independent SweepTasks — whole-field for sparse strategies
        # (their index lists are built for the full padded shape), one
        # slab per worker for dense tiers (see ``repro.exec.kernel_tasks``).
        self.engine = make_engine(self.exec_mode, self.workers, tree)
        self.timeloop.engine = self.engine
        n_slabs = 1
        if name in KERNEL_TIERS and self.exec_mode == "threads":
            n_slabs = self.workers
        self._kernel_tasks = kernel_tasks(self._kernel, self.pdfs, n_slabs)

        self._bh = BoundaryHandling(self.model, self.flags, self.boundaries)
        self.pdfs.set_equilibrium(rho=rho, u=u)
        self.fluid_cells = n_fluid
        self._fluid_mask = fluid
        self._processed_cells = int(
            getattr(self._kernel, "processed_cells", np.prod(self.cells))
        )
        if any(self.periodic):
            self.timeloop.add("periodic", self._wrap_periodic)
        self.timeloop.add("boundary", lambda: self._bh.apply(self.pdfs.src))
        self.timeloop.add("kernel", self._step_kernel)
        self.timeloop.add("swap", self.pdfs.swap)
        if self.body_force is not None:
            self.timeloop.add(
                "force",
                lambda: self.body_force.apply(self.pdfs.src, self._fluid_mask),
            )
        self._finalized = True
        return self

    def update_boundary(self, old: Condition, new: Condition) -> "Simulation":
        """Replace a boundary condition instance (e.g. a pulsatile inflow
        updating its UBB velocity between runs).

        The new condition must keep the old flag bit — the precomputed
        link lists stay valid, only the applied values change.
        """
        if not self._finalized:
            raise ConfigurationError("finalize() before updating boundaries")
        if not self._bh.replace_condition(old, new):
            raise ConfigurationError("condition is not active")
        return self

    def _wrap_periodic(self) -> None:
        """Copy opposite interior faces into ghost layers (periodic axes)."""
        src = self.pdfs.src
        for d, per in enumerate(self.periodic):
            if not per:
                continue
            axis = d + 1  # skip the PDF axis
            lo = [slice(None)] * src.ndim
            hi = [slice(None)] * src.ndim
            lo[axis], hi[axis] = 0, -2
            src[tuple(lo)] = src[tuple(hi)]
            lo[axis], hi[axis] = -1, 1
            src[tuple(lo)] = src[tuple(hi)]

    def _step_kernel(self) -> None:
        self.engine.run(self._kernel_tasks)
        tree = self.timeloop.tree
        tree.add_counter("cells_updated", self._processed_cells)
        tree.add_counter("fluid_cell_updates", self.fluid_cells)

    def close(self) -> None:
        """Shut down the sweep engine's worker pool (if any)."""
        if self.timeloop is not None:
            self.timeloop.close()

    def timing_report(self) -> str:
        """Hierarchical timing tree of the run (waLBerla's timing pool),
        including the per-tier kernel sub-scope and counters."""
        if self.timeloop is None:
            raise ConfigurationError("finalize() before timing_report()")
        return self.timeloop.timing_report()

    # -- checkpoint / restart -------------------------------------------------
    def enable_checkpointing(self, path: str, every: int, rng=None) -> "Simulation":
        """Write an atomic checkpoint (PDFs + flags + step + optional RNG
        state) to ``path`` every ``every`` completed steps; see
        :mod:`repro.io.checkpoint` and ``docs/resilience.md``."""
        if not self._finalized:
            raise ConfigurationError("call finalize() before checkpointing")
        from ..io.checkpoint import save_checkpoint

        self.timeloop.configure_checkpoint(
            lambda _step: save_checkpoint(self, path, rng=rng), every
        )
        return self

    def restart(self, path: str, rng=None) -> int:
        """Restore state from a checkpoint; returns the checkpointed step
        count.  Continuing with ``run(remaining)`` is bit-identical to an
        uninterrupted run."""
        if not self._finalized:
            raise ConfigurationError("call finalize() before restart()")
        from ..io.checkpoint import load_checkpoint

        return load_checkpoint(self, path, rng=rng)

    # -- execution ------------------------------------------------------------
    def run(self, steps: int, check_every: int = 0) -> "Simulation":
        """Advance the simulation by ``steps`` time steps.

        ``check_every > 0`` runs :meth:`assert_stable` at that interval,
        aborting early with :class:`~repro.errors.NumericalError` instead
        of silently producing NaN fields.
        """
        if not self._finalized:
            raise ConfigurationError("call finalize() before run()")
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
        """Raise :class:`NumericalError` if the state diverged.

        ``u_max`` defaults to the lattice sound speed 1/sqrt(3) — any
        supersonic lattice velocity means the scheme has left its
        validity region (the paper's stability bound is 0.1).
        """
        interior = self.pdfs.interior_view
        fm = self._fluid_mask
        vals = interior[:, fm]
        if not np.isfinite(vals).all():
            raise NumericalError(
                f"non-finite PDFs after {self.timeloop.steps_run} steps"
            )
        u = _velocity(self.model, interior)
        umax = float(np.abs(u[fm]).max()) if fm.any() else 0.0
        if umax > u_max:
            raise NumericalError(
                f"lattice velocity {umax:.3f} exceeds {u_max} after "
                f"{self.timeloop.steps_run} steps (unstable)"
            )

    # -- observables ----------------------------------------------------------
    def density(self) -> np.ndarray:
        """Interior density; non-fluid cells are NaN."""
        rho = _density(self.model, self.pdfs.interior_view)
        out = np.where(self.flags.fluid_mask(), rho, np.nan)
        return out

    def velocity(self) -> np.ndarray:
        """Interior velocity, shape ``cells + (dim,)``; non-fluid are NaN.

        With a body force active, the physical fluid velocity includes
        the half-step correction ``u = j/rho - F/(2 rho)`` (the force is
        applied once per step after collision, so the bare first moment
        leads the true velocity by half a kick).  With the TRT magic
        parameter 3/16 this makes force-driven Poiseuille flow exact to
        machine precision — see ``benchmarks/bench_trt_magic.py``.
        """
        f = self.pdfs.interior_view
        u = _velocity(self.model, f)
        if self.body_force is not None:
            rho = _density(self.model, f)
            with np.errstate(divide="ignore", invalid="ignore"):
                u = u - 0.5 * self.body_force.force / rho[..., None]
        mask = self.flags.fluid_mask()
        return np.where(mask[..., None], u, np.nan)

    def total_mass(self) -> float:
        """Sum of density over fluid cells (conserved in closed domains)."""
        rho = _density(self.model, self.pdfs.interior_view)
        return float(rho[self.flags.fluid_mask()].sum())

    def mlups(self) -> float:
        """Measured million lattice cell updates per second (kernel time only)."""
        t = self.timeloop.timings().get("kernel", 0.0)
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        processed = getattr(self._kernel, "processed_cells", int(np.prod(self.cells)))
        return processed * self.timeloop.steps_run / t / 1e6

    def mflups(self) -> float:
        """Measured million *fluid* lattice cell updates per second."""
        t = self.timeloop.timings().get("kernel", 0.0)
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        return self.fluid_cells * self.timeloop.steps_run / t / 1e6
