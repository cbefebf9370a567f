"""Boundary conditions: no-slip, velocity bounce back, pressure anti bounce back.

These are the three boundary conditions used by the paper (§2.1, citing
[14, Ch. 2.5.2]).  They are implemented in waLBerla's style: a boundary
sweep runs *before* the fused stream-collide kernel and writes the PDFs
of wall cells such that the subsequent uniform stream-pull produces the
correct values in the adjacent fluid cells.  The sweep operates on
precomputed flat link index pairs, so applying a boundary condition
each step is one vectorized gather and one scatter.

With post-collision fields ``f~(t)`` and pull direction ``a`` pointing
from the wall cell ``w`` into the fluid cell ``x = w + e_a``:

* no-slip:        ``f~_a(w) := f~_abar(x)``
* velocity (UBB): ``f~_a(w) := f~_abar(x) + 6 w_a rho0 (e_a . u_wall)``
* pressure (anti bounce back):
  ``f~_a(w) := -f~_abar(x) + 2 w_a rho_w (1 + 4.5 (e_a.u_x)^2 - 1.5 u_x^2)``
  with ``u_x`` taken from the adjacent fluid cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from typing import TYPE_CHECKING

from .. import flagdefs as fl
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.flags import FlagField
from .lattice import LatticeModel

__all__ = ["NoSlip", "UBB", "PressureABB", "BoundaryHandling"]


@dataclass(frozen=True)
class NoSlip:
    """Plain bounce-back wall."""

    flag: int = int(fl.NO_SLIP)


@dataclass(frozen=True)
class UBB:
    """Velocity bounce back ("UBB"): wall moving with ``velocity``.

    ``rho0`` is the reference density used in the momentum correction.
    """

    velocity: Tuple[float, float, float]
    rho0: float = 1.0
    flag: int = int(fl.VELOCITY_BC)

    def __post_init__(self):
        if len(self.velocity) == 0:
            raise ConfigurationError("UBB requires a velocity vector")


@dataclass(frozen=True)
class PressureABB:
    """Pressure anti bounce back: prescribes wall density ``rho_w``."""

    rho_w: float = 1.0
    flag: int = int(fl.PRESSURE_BC)


Condition = Union[NoSlip, UBB, PressureABB]


def _strides(shape: Tuple[int, ...]) -> np.ndarray:
    """Flat-index strides of a C-ordered array of ``shape``."""
    return np.array([int(np.prod(shape[d + 1:])) for d in range(len(shape))])


@dataclass
class _Links:
    """The boundary links of one condition on one block, flat.

    ``wall[i]`` and ``fluid[i]`` index the ``(q·N)``-flattened PDF
    array: direction ``a`` at the wall cell, and the opposite direction
    at its fluid neighbour.  UBB and pressure links also keep the
    direction ``dirs[i] = a`` and the per-link constant ``values`` of
    the condition (the UBB momentum correction, the pressure prefactor
    ``2 w_a rho_w``); pressure links keep the fluid neighbour's flat
    cell index ``cells[i]`` and the lattice velocity ``e`` too.  The
    values are refreshed whenever the condition is replaced.
    """

    index: int
    wall: np.ndarray
    fluid: np.ndarray
    dirs: Optional[np.ndarray] = None
    cells: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    e: Optional[np.ndarray] = None


class BoundaryHandling:
    """Precomputed link-wise boundary sweep for one block.

    Every condition's links are one flat wall/fluid index pair over the
    ``(q·N)`` PDF array, so applying a condition is one gather and one
    scatter, whatever the number of directions; conditions without
    links on the block are dropped when the handler is built.

    Parameters
    ----------
    model:
        Lattice model of the PDF field.
    flag_field:
        The block's :class:`~repro.core.flags.FlagField` (padded shape
        must match the PDF field's spatial shape).
    conditions:
        The boundary condition instances active on this block.  Each
        covers the cells whose flags intersect its ``flag`` bit.
        Replace one with :meth:`replace_condition`; the tuple itself is
        immutable, so no per-link value can go stale.
    """

    def __init__(
        self,
        model: LatticeModel,
        flag_field: "FlagField",
        conditions: Sequence[Condition],
    ):
        self.model = model
        self.flag_field = flag_field
        self.conditions: Tuple[Condition, ...] = tuple(conditions)
        seen: set[int] = set()
        for c in self.conditions:
            if c.flag in seen:
                raise ConfigurationError(f"duplicate boundary flag {c.flag}")
            seen.add(c.flag)
            self.validate_condition(c)
        self._links: List[_Links] = []
        self._build()

    def _build(self) -> None:
        data = self.flag_field.data
        padded = data.shape
        dim, q = self.model.dim, self.model.q
        if len(padded) != dim:
            raise ConfigurationError("flag field dimension != model dimension")
        n = data.size
        vel = self.model.velocities[1:].astype(np.int64)
        offsets = vel @ _strides(padded)
        inverse = np.asarray(self.model.inverse)[1:]
        # The interior fluid mask embedded in two layers of non-fluid
        # cells (the ghost layer and one more): there the neighbour
        # w + e_a of any padded cell w is in range and is fluid only if
        # it is an interior fluid cell, so one flat offset per direction
        # finds the links.  Fluid cells must be interior: only they are
        # updated, so a link into a FLUID ghost cell would write a value
        # nobody pulls.  Pulls from any wall cell (interior or ghost) are
        # legal.
        wide_shape = tuple(s + 2 for s in padded)
        wide_fluid = np.zeros(wide_shape, dtype=bool)
        inner = (slice(1, -1),) * dim
        wide_fluid[(slice(2, -2),) * dim] = (data[inner] & fl.FLUID) != 0
        wide_fluid = wide_fluid.ravel()
        wide_offsets = vel @ _strides(wide_shape)
        for i, cond in enumerate(self.conditions):
            walls = np.flatnonzero((data & np.uint8(cond.flag)) != 0)
            if walls.size == 0:
                continue
            wide_walls = np.ravel_multi_index(
                tuple(c + 1 for c in np.unravel_index(walls, padded)), wide_shape
            )
            ok = np.empty((q - 1, walls.size), dtype=bool)
            for a in range(q - 1):
                ok[a] = wide_fluid[wide_walls + wide_offsets[a]]
            counts = ok.sum(axis=1)
            if not counts.any():
                continue
            # Direction-major, walls ascending, written in place.
            links = _Links(
                index=i,
                wall=np.empty(counts.sum(), dtype=np.intp),
                fluid=np.empty(counts.sum(), dtype=np.intp),
            )
            if not isinstance(cond, NoSlip):
                links.dirs = np.repeat(np.arange(1, q, dtype=np.int8), counts)
            if isinstance(cond, PressureABB):
                links.cells = np.empty(counts.sum(), dtype=np.intp)
            end = 0
            for a in np.flatnonzero(counts):
                start, end = end, end + counts[a]
                w = walls[ok[a]]
                np.add(w, (a + 1) * n, out=links.wall[start:end])
                np.add(w, offsets[a] + inverse[a] * n, out=links.fluid[start:end])
                if links.cells is not None:
                    np.add(w, offsets[a], out=links.cells[start:end])
            self._refresh(links, cond)
            self._links.append(links)

    def _refresh(self, links: _Links, cond: Condition) -> None:
        """(Re)compute the per-link values ``cond`` applies."""
        w = self.model.weights
        vel = self.model.velocities
        if isinstance(cond, UBB):
            uw = np.asarray(cond.velocity, dtype=np.float64)
            corr = np.array([
                6.0 * float(w[a]) * cond.rho0
                * float(np.dot(vel[a].astype(np.float64), uw))
                for a in range(self.model.q)
            ])
            links.values = corr[links.dirs]
        elif isinstance(cond, PressureABB):
            coef = np.array([
                2.0 * float(w[a]) * cond.rho_w for a in range(self.model.q)
            ])
            links.values = coef[links.dirs]
            links.e = vel[links.dirs].T.astype(np.float64)
        elif not isinstance(cond, NoSlip):  # pragma: no cover - guarded by type
            raise ConfigurationError(f"unknown condition {cond!r}")

    def validate_condition(self, cond: Condition) -> None:
        """Raise :class:`ConfigurationError` if ``cond`` cannot run on
        this handler's lattice (a UBB velocity needs one component per
        dimension).  Runs once per condition, not once per step."""
        if isinstance(cond, UBB):
            uw = np.asarray(cond.velocity, dtype=np.float64)
            if uw.shape != (self.model.dim,):
                raise ConfigurationError(
                    f"UBB velocity has {uw.shape} components, "
                    f"model needs {self.model.dim}"
                )

    def replace_condition(self, old: Condition, new: Condition) -> bool:
        """Replace the active condition ``old`` by ``new`` (e.g. a
        pulsatile inflow changing its UBB velocity between runs) and
        refresh its per-link values.

        ``new`` must keep ``old``'s flag bit, so the links stay valid;
        it is validated like a constructor argument.  Returns ``False``
        when ``old`` is not active on this handler.
        """
        if new.flag != old.flag:
            raise ConfigurationError(
                "replacement boundary must keep the same flag bit"
            )
        if old not in self.conditions:
            return False
        self.validate_condition(new)
        i = self.conditions.index(old)
        self.conditions = self.conditions[:i] + (new,) + self.conditions[i + 1:]
        for links in self._links:
            if links.index == i:
                self._refresh(links, new)
        return True

    @property
    def link_count(self) -> int:
        """Total number of boundary links handled per application."""
        return sum(links.wall.size for links in self._links)

    def apply(self, src: np.ndarray) -> None:
        """Write boundary PDFs into ``src`` (call before the LBM sweep)."""
        if src.shape[1:] != self.flag_field.data.shape:
            raise ValueError("PDF field spatial shape != flag field shape")
        flat = src.reshape(-1)
        for links in self._links:
            pulled = flat[links.fluid]
            cond = self.conditions[links.index]
            if isinstance(cond, NoSlip):
                flat[links.wall] = pulled
            elif isinstance(cond, UBB):
                flat[links.wall] = pulled + links.values
            else:
                flat[links.wall] = -pulled + self._pressure_feq(src, links)

    def _pressure_feq(self, src: np.ndarray, links: _Links) -> np.ndarray:
        """Symmetric equilibrium part of the pressure anti bounce back,
        from the macroscopic velocity at the links' fluid cells."""
        q, dim = self.model.q, self.model.dim
        per_dir = src.reshape(q, -1)
        rho_x = per_dir[0][links.cells]
        j = np.zeros((dim, links.cells.size))
        for b in range(1, q):
            fb = per_dir[b][links.cells]
            rho_x += fb
            eb = self.model.velocities[b]
            for d in range(dim):
                c = int(eb[d])
                if c:
                    j[d] += fb if c == 1 else -fb
        with np.errstate(divide="ignore", invalid="ignore"):
            u = j / rho_x
        u = np.where(np.isfinite(u), u, 0.0)
        # e holds 0/±1, so every product is exact; summing in component
        # order gives the value of the dot product e_a . u.
        eu = links.e[0] * u[0]
        for d in range(1, dim):
            eu += links.e[d] * u[d]
        usq = (u * u).sum(axis=0)
        return links.values * (1.0 + 4.5 * eu * eu - 1.5 * usq)
