"""Shared helpers for LBM compute kernels.

Storage convention
------------------
PDF fields use a structure-of-arrays (SoA) layout: shape ``(q,) + S``
where ``S`` is the cell grid *including* one ghost layer per side, i.e.
``S = (nx + 2, ny + 2, nz + 2)`` in 3-D.  The paper chooses SoA
explicitly to enable SIMD vectorization (§4.1); here it gives NumPy
contiguous per-direction views.

Fields hold *post-collision* values ``f~(t)``.  A kernel performs one
fused stream-pull + collide step: for every interior cell ``x`` it reads
``f~_a(x - e_a, t)`` from ``src`` and writes the new post-collision value
into ``dst`` (two-grid scheme; the caller swaps the fields afterwards).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..lattice import LatticeModel

__all__ = [
    "interior_slices",
    "pull_slices",
    "pdf_shape",
    "alloc_pdf_field",
    "check_pdf_args",
    "Box",
    "region_view",
    "box_cells",
]

#: An axis-aligned box in *interior* cell coordinates: ``(lo, hi)`` with
#: inclusive ``lo`` and exclusive ``hi`` per axis (cells ``lo .. hi-1``).
Box = Tuple[Tuple[int, ...], Tuple[int, ...]]


def interior_slices(dim: int) -> Tuple[slice, ...]:
    """Slices selecting the interior (non-ghost) region of a field."""
    return (slice(1, -1),) * dim


def pull_slices(e) -> Tuple[slice, ...]:
    """Slices selecting the source region when pulling along velocity ``e``.

    Pulling direction ``a`` at interior cell ``x`` reads ``x - e_a``; with
    a one-cell ghost layer the source region for the whole interior is the
    interior shifted by ``-e``.
    """
    out = []
    for c in e:
        c = int(c)
        lo = 1 - c
        hi = -1 - c
        out.append(slice(lo, hi if hi != 0 else None))
    return tuple(out)


def pdf_shape(model: LatticeModel, cells: Tuple[int, ...]) -> Tuple[int, ...]:
    """Full SoA array shape for an interior of ``cells`` cells plus ghosts."""
    if len(cells) != model.dim:
        raise ValueError(f"expected {model.dim} cell sizes, got {cells}")
    return (model.q,) + tuple(int(c) + 2 for c in cells)


def alloc_pdf_field(model: LatticeModel, cells: Tuple[int, ...]) -> np.ndarray:
    """Allocate a zero-initialized SoA PDF array with ghost layers."""
    return np.zeros(pdf_shape(model, cells), dtype=np.float64)


def region_view(arr: np.ndarray, box: Box) -> np.ndarray:
    """View of an SoA PDF array covering ``box`` plus a one-cell halo.

    ``box`` is expressed in interior cell coordinates (interior cell ``i``
    lives at array index ``i + 1``).  The returned view spans array
    indices ``lo .. hi + 1`` per axis, i.e. the region's cells *plus* one
    halo cell on each side, so a kernel run on the view performs exactly
    the same per-cell pulls as a full-field run restricted to the box.
    The view shares memory with ``arr`` — no copies are made.
    """
    lo, hi = box
    return arr[
        (slice(None),) + tuple(slice(int(a), int(b) + 2) for a, b in zip(lo, hi))
    ]


def box_cells(box: Box) -> int:
    """Number of interior cells covered by ``box``."""
    lo, hi = box
    n = 1
    for a, b in zip(lo, hi):
        n *= max(0, int(b) - int(a))
    return n


def check_pdf_args(model: LatticeModel, src: np.ndarray, dst: np.ndarray) -> None:
    """Validate a (src, dst) kernel argument pair."""
    if src.shape != dst.shape:
        raise ValueError(f"src shape {src.shape} != dst shape {dst.shape}")
    if src.shape[0] != model.q:
        raise ValueError(f"leading dim {src.shape[0]} != q={model.q}")
    if src.ndim != model.dim + 1:
        raise ValueError(f"expected {model.dim + 1}-d array, got {src.ndim}-d")
    if src is dst:
        raise ValueError("src and dst must be distinct arrays (two-grid scheme)")
    if any(s < 3 for s in src.shape[1:]):
        raise ValueError("each spatial extent must be >= 3 (1 interior + 2 ghosts)")
