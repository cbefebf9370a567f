"""Reusable flow-scenario builders.

The paper's dense weak-scaling experiments use two scenarios (§4.2): the
lid-driven cavity and channel flow around a fixed obstacle.  These
helpers produce the flag-setting callbacks used by both the single-block
:class:`~repro.core.Simulation` (apply to its flag field directly) and
the distributed driver (pass as ``flag_setter``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import flagdefs as fl
from .errors import ConfigurationError

__all__ = [
    "enclose_walls",
    "lid_driven_cavity",
    "channel_with_obstacle",
]


def enclose_walls(flag_field, faces: Optional[Sequence[str]] = None,
                  flag=fl.NO_SLIP) -> None:
    """Flag ghost-layer faces of a flag field as walls.

    ``faces`` is a subset of ``{"-x", "+x", "-y", "+y", "-z", "+z"}``;
    ``None`` means all six.
    """
    d = flag_field.data
    dim = d.ndim
    all_faces = [f"{s}{ax}" for ax in "xyz"[:dim] for s in ("-", "+")]
    faces = list(faces) if faces is not None else all_faces
    for face in faces:
        if face not in all_faces:
            raise ConfigurationError(f"unknown face {face!r}")
        axis = "xyz".index(face[1])
        sl = [slice(None)] * dim
        sl[axis] = 0 if face[0] == "-" else -1
        d[tuple(sl)] = flag


def lid_driven_cavity(grid: Tuple[int, int, int], lid_face: str = "+z"):
    """Flag setter for a lid-driven cavity spanning a block grid.

    No-slip on every domain face except ``lid_face``, which is a
    velocity boundary (flag only — attach the
    :class:`~repro.lbm.boundary.UBB` condition with the lid velocity).
    Works for both single blocks (``grid=(1,1,1)``) and multi-block
    domains.
    """
    gx, gy, gz = grid
    lid_axis = "xyz".index(lid_face[1])
    lid_low = lid_face[0] == "-"

    def setter(blk, ff) -> None:
        d = ff.data
        gi = getattr(blk, "grid_index", (0, 0, 0))
        limits = (gx - 1, gy - 1, gz - 1)
        for axis in range(3):
            for side, at_edge in (("-", gi[axis] == 0),
                                  ("+", gi[axis] == limits[axis])):
                if not at_edge:
                    continue
                sl = [slice(None)] * 3
                sl[axis] = 0 if side == "-" else -1
                is_lid = axis == lid_axis and (side == "-") == lid_low
                d[tuple(sl)] = fl.VELOCITY_BC if is_lid else fl.NO_SLIP

    return setter


def channel_with_obstacle(
    grid: Tuple[int, int, int],
    cells: Tuple[int, int, int],
    obstacle_lo: Tuple[int, int, int],
    obstacle_hi: Tuple[int, int, int],
    flow_axis: int = 0,
):
    """Flag setter for the §4.2 channel-with-obstacle scenario.

    Flow along ``flow_axis`` (inflow face becomes VELOCITY_BC, outflow
    PRESSURE_BC), no-slip on the four side walls, and a no-slip box
    obstacle given in *global* cell coordinates.
    """
    obstacle_lo = np.asarray(obstacle_lo)
    obstacle_hi = np.asarray(obstacle_hi)
    if np.any(obstacle_hi <= obstacle_lo):
        raise ConfigurationError("obstacle must have positive extent")
    grid_a = np.asarray(grid)
    cells_a = np.asarray(cells)
    if np.any(obstacle_hi > grid_a * cells_a):
        raise ConfigurationError("obstacle exceeds the domain")

    def setter(blk, ff) -> None:
        d = ff.data
        gi = np.asarray(getattr(blk, "grid_index", (0, 0, 0)))
        # Side walls.
        for axis in range(3):
            if axis == flow_axis:
                continue
            if gi[axis] == 0:
                sl = [slice(None)] * 3
                sl[axis] = 0
                d[tuple(sl)] = fl.NO_SLIP
            if gi[axis] == grid[axis] - 1:
                sl = [slice(None)] * 3
                sl[axis] = -1
                d[tuple(sl)] = fl.NO_SLIP
        # Inflow / outflow: only where the face would otherwise be open.
        if gi[flow_axis] == 0:
            sl = [slice(None)] * 3
            sl[flow_axis] = 0
            face = d[tuple(sl)]
            face[(face == fl.FLUID) | (face == fl.OUTSIDE)] = fl.VELOCITY_BC
        if gi[flow_axis] == grid[flow_axis] - 1:
            sl = [slice(None)] * 3
            sl[flow_axis] = -1
            face = d[tuple(sl)]
            face[(face == fl.FLUID) | (face == fl.OUTSIDE)] = fl.PRESSURE_BC
        # Obstacle (global -> block-local padded coordinates).  The
        # ghost layer is marked too: it mirrors the neighbor's interior,
        # which fluid cells pull from and bounce back against.
        origin = gi * cells_a - 1
        lo = np.maximum(obstacle_lo - origin, 0)
        hi = np.minimum(obstacle_hi - origin, cells_a + 2)
        if np.all(hi > lo):
            d[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = fl.NO_SLIP

    return setter
