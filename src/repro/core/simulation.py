"""High-level single-block simulation driver.

Wires together the flag field, the PDF field, boundary handling and a
compute kernel into a one-block rank step
(:class:`~repro.core.stepper.RankStepper`) run by a time loop.  This
is the entry point for the
example applications; distributed multi-block simulations build on
:mod:`repro.comm` and :mod:`repro.blocks` instead.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..lbm.boundary import BoundaryHandling, Condition
from ..lbm.forcing import ConstantBodyForce
from ..lbm.collision import SRT, TRT
from ..lbm.kernels.registry import (
    DEFAULT_DENSE_TIER,
    DEFAULT_SPARSE_TIER,
    SPARSE_TIERS,
    make_kernel,
)
from ..lbm.lattice import D3Q19, LatticeModel
from ..lbm.macroscopic import density as _density, velocity as _velocity
from . import flags as fl
from .field import PdfField
from .flags import FlagField
from .stepper import BlockRuntime, RankDriver
from .timeloop import TimeLoop

__all__ = ["Simulation"]

Collision = Union[SRT, TRT]


class Simulation(RankDriver):
    """A single-block LBM simulation: a one-block rank, stepped by
    :class:`~repro.core.stepper.RankStepper`.

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
        ``"serial"`` runs sweeps inline, ``"threads"`` runs the boundary
        and kernel sweeps on a persistent pool of ``workers`` threads;
        a dense kernel sweep is cut into one slab of the interior
        (slowest-varying axis) per worker, swept through subregion
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
        super().__init__(model, exec_mode, workers)
        self.collision = collision
        self.cells = tuple(int(c) for c in cells)
        self.kernel_name = kernel
        self.flags = FlagField(self.cells)
        self.pdfs = PdfField(model, self.cells)
        self.boundaries: list[Condition] = []
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

    # -- configuration ------------------------------------------------------
    def add_boundary(self, condition: Condition) -> "Simulation":
        """Register a boundary condition (before :meth:`finalize`)."""
        if self.stepper is not None:
            raise ConfigurationError("cannot add boundaries after finalize()")
        self.boundaries.append(condition)
        return self

    def finalize(self, rho: float = 1.0, u=None) -> "Simulation":
        """Freeze configuration, build the one-block rank step, init fields."""
        if self.stepper is not None:
            raise ConfigurationError("finalize() called twice")
        self.flags.validate_exclusive()
        fluid = self.flags.fluid_mask()
        n_fluid = int(fluid.sum())
        if n_fluid == 0:
            raise ConfigurationError("no fluid cells flagged")
        has_outside = bool((self.flags.interior == fl.OUTSIDE).any())

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
        kernel = make_kernel(name, self.model, self.collision, self.cells, mask=fluid)
        # The tier actually built (``compiled`` falls back to
        # ``vectorized`` where no C compiler works).
        self.kernel_name = kernel.name
        handler = BoundaryHandling(self.model, self.flags, self.boundaries)
        self.pdfs.set_equilibrium(rho=rho, u=u)
        self.fluid_cells = n_fluid
        runtime = BlockRuntime(
            n_fluid, self.flags, self.pdfs, kernel, handler, kernel.name
        )
        # The periodic wrap is this block's communication sweep.
        self.timeloop = TimeLoop()
        self._build_step(
            {0: runtime}, self._wrap_periodic if any(self.periodic) else None
        )
        if self.body_force is not None:
            self.timeloop.add(
                "force", lambda: self.body_force.apply(self.pdfs.src, fluid)
            )
        return self

    def _wrap_periodic(self) -> None:
        """Copy opposite interior faces into ghost layers (periodic axes)."""
        for d, per in enumerate(self.periodic):
            if per:
                grid = np.moveaxis(self.pdfs.src, d + 1, 0)  # skip the PDF axis
                grid[0] = grid[-2]
                grid[-1] = grid[1]

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
