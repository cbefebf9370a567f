"""Boundary conditions: no-slip, velocity bounce back, pressure anti bounce back.

These are the three boundary conditions used by the paper (§2.1, citing
[14, Ch. 2.5.2]).  They are implemented in waLBerla's style: a boundary
sweep runs *before* the fused stream-collide kernel and writes the PDFs
of wall cells such that the subsequent uniform stream-pull produces the
correct values in the adjacent fluid cells.  The sweep operates on
precomputed per-direction index lists, so applying the boundary
conditions each step is a handful of vectorized gathers and scatters.

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
from typing import List, Sequence, Tuple, Union

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


def _shift_mask(mask: np.ndarray, e: Sequence[int]) -> np.ndarray:
    """``out[w] = mask[w + e]`` with out-of-range treated as False."""
    out = np.zeros_like(mask)
    src_sl, dst_sl = [], []
    for n, ec in zip(mask.shape, e):
        ec = int(ec)
        if ec >= 0:
            dst_sl.append(slice(0, n - ec))
            src_sl.append(slice(ec, n))
        else:
            dst_sl.append(slice(-ec, n))
            src_sl.append(slice(0, n + ec))
    out[tuple(dst_sl)] = mask[tuple(src_sl)]
    return out


@dataclass
class _DirectionLinks:
    """Wall/fluid flat index pairs for one (condition, direction)."""

    wall: np.ndarray
    fluid: np.ndarray


class BoundaryHandling:
    """Precomputed link-wise boundary sweep for one block.

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
    """

    def __init__(
        self,
        model: LatticeModel,
        flag_field: "FlagField",
        conditions: Sequence[Condition],
    ):
        self.model = model
        self.flag_field = flag_field
        self.conditions = list(conditions)
        seen: set[int] = set()
        for c in self.conditions:
            if c.flag in seen:
                raise ConfigurationError(f"duplicate boundary flag {c.flag}")
            seen.add(c.flag)
            self.validate_condition(c)
        self._links: List[List[_DirectionLinks]] = []
        self._strides: Tuple[int, ...] = ()
        self._build()

    def _build(self) -> None:
        padded = self.flag_field.data.shape
        if len(padded) != self.model.dim:
            raise ConfigurationError("flag field dimension != model dimension")
        strides = [1] * self.model.dim
        for d in range(self.model.dim - 2, -1, -1):
            strides[d] = strides[d + 1] * padded[d + 1]
        self._strides = tuple(strides)
        fluid = (self.flag_field.data & fl.FLUID) != 0
        # Fluid cells must be interior; pulls from any wall cell (interior
        # or ghost) are legal.
        for c in self.conditions:
            wall_mask = (self.flag_field.data & np.uint8(c.flag)) != 0
            per_dir: List[_DirectionLinks] = []
            for a in range(1, self.model.q):
                e = self.model.velocities[a]
                # wall cell w with fluid neighbor x = w + e_a
                sel = wall_mask & _shift_mask(fluid, e)
                w_idx = np.flatnonzero(sel)
                off = int(np.dot(e, strides))
                per_dir.append(_DirectionLinks(wall=w_idx, fluid=w_idx + off))
            self._links.append(per_dir)

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

    @property
    def link_count(self) -> int:
        """Total number of boundary links handled per application."""
        return sum(
            len(d.wall) for per_dir in self._links for d in per_dir
        )

    def apply(self, src: np.ndarray) -> None:
        """Write boundary PDFs into ``src`` (call before the LBM sweep)."""
        if src.shape[1:] != self.flag_field.data.shape:
            raise ValueError("PDF field spatial shape != flag field shape")
        q = self.model.q
        flat = src.reshape(q, -1)
        inv = self.model.inverse
        w = self.model.weights
        for cond, per_dir in zip(self.conditions, self._links):
            for a0, links in enumerate(per_dir):
                a = a0 + 1
                if links.wall.size == 0:
                    continue
                abar = int(inv[a])
                pulled = flat[abar][links.fluid]
                if isinstance(cond, NoSlip):
                    flat[a][links.wall] = pulled
                elif isinstance(cond, UBB):
                    e = self.model.velocities[a].astype(np.float64)
                    uw = np.asarray(cond.velocity, dtype=np.float64)
                    corr = 6.0 * float(w[a]) * cond.rho0 * float(np.dot(e, uw))
                    flat[a][links.wall] = pulled + corr
                elif isinstance(cond, PressureABB):
                    e = self.model.velocities[a].astype(np.float64)
                    # Macroscopic velocity at the adjacent fluid cells.
                    rho_x = flat[0][links.fluid].copy()
                    j = np.zeros((self.model.dim, links.fluid.size))
                    for b in range(1, q):
                        fb = flat[b][links.fluid]
                        rho_x += fb
                        eb = self.model.velocities[b]
                        for d in range(self.model.dim):
                            c = int(eb[d])
                            if c:
                                j[d] += fb if c == 1 else -fb
                    with np.errstate(divide="ignore", invalid="ignore"):
                        u = j / rho_x
                    u = np.where(np.isfinite(u), u, 0.0)
                    eu = np.tensordot(e, u, axes=([0], [0]))
                    usq = (u * u).sum(axis=0)
                    feq_sym = (
                        2.0 * float(w[a]) * cond.rho_w
                        * (1.0 + 4.5 * eu * eu - 1.5 * usq)
                    )
                    flat[a][links.wall] = -pulled + feq_sym
                else:  # pragma: no cover - guarded by type
                    raise ConfigurationError(f"unknown condition {cond!r}")
