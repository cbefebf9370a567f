"""Kernel registry: construct any kernel tier by name.

Mirrors the paper's three optimization stages (§4.1, Figure 3), the
pure-Python reference used only for verification, and the compiled tier
generated from the lattice tables:

==============  =====================================================
``reference``   per-cell Python loops (ground truth, tests only)
``generic``     any lattice model, separate stream/collide passes
``d3q19``       model-specialized, fused, common subexpressions
``vectorized``  SoA split-loop, allocation-free (the NumPy "SIMD" analog)
``compiled``    generated C, SIMD-compiled, GIL-free; bit-identical to
                ``vectorized`` (the default dense tier)
==============  =====================================================

It also builds the sparse-block strategies of §4.3, which need the
block's fluid mask:

===============  ====================================================
``conditional``  dense update, masked write-back
``indexlist``    gather/collide/scatter over the fluid cell indices
``interval``     per-line ``[first, last]`` runs, padded (NumPy; the
                 sparse fallback where no C compiler works)
``runtable``     generated C over a table of contiguous fluid runs;
                 one call sweeps every sparse block of a rank, and it
                 is bit-identical to ``compiled`` on fluid cells (the
                 default sparse tier)
===============  ====================================================

The default tier decisions live here: :data:`DEFAULT_DENSE_TIER` for
fully fluid blocks, :data:`DEFAULT_SPARSE_TIER` for blocks with OUTSIDE
cells.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    # Runtime import would recurse: ``repro.perf`` initializes
    # ``repro.core`` which imports this module back.  The tree argument
    # is duck-typed at runtime anyway.
    from ...perf.timing import TimingTree

from ...errors import KernelBuildError
from ..collision import SRT, TRT
from ..lattice import LatticeModel
from .common import Box, region_view
from .compiled import CompiledD3Q19Kernel, RunTableKernel
from .d3q19 import d3q19_step
from .generic import generic_step
from .reference import reference_step
from .sparse import (
    ConditionalSparseKernel,
    IndexListSparseKernel,
    IntervalSparseKernel,
)
from .vectorized import VectorizedD3Q19Kernel

__all__ = [
    "make_kernel",
    "instrument_kernel",
    "InstrumentedKernel",
    "KERNEL_TIERS",
    "SPARSE_TIERS",
    "DEFAULT_DENSE_TIER",
    "DEFAULT_SPARSE_TIER",
    "run_kernel_on_region",
]

Collision = Union[SRT, TRT]
Kernel = Callable[[np.ndarray, np.ndarray], None]

#: Ordered dense tiers, slowest to fastest (paper's optimization stages).
KERNEL_TIERS = ("reference", "generic", "d3q19", "vectorized", "compiled")

#: Sparse-block strategies (§4.3); they need the block's fluid mask.
SPARSE_TIERS = ("conditional", "indexlist", "interval", "runtable")

#: Tier that ``Simulation``, ``DistributedSimulation`` and the SPMD runs
#: use for fully fluid blocks.  Where no C compiler works,
#: :func:`make_kernel` builds ``vectorized`` in its place.
DEFAULT_DENSE_TIER = "compiled"

#: Tier they use for blocks with OUTSIDE cells.  Where no C compiler
#: works, :func:`make_kernel` builds ``interval`` in its place.
DEFAULT_SPARSE_TIER = "runtable"

_SPARSE_CLASSES = {
    "conditional": ConditionalSparseKernel,
    "indexlist": IndexListSparseKernel,
    "interval": IntervalSparseKernel,
}


class _StatelessKernel:
    """Adapter giving step functions the two-argument kernel protocol."""

    def __init__(self, name: str, fn, model: LatticeModel, collision: Collision):
        self.name = name
        self.model = model
        self.collision = collision
        self._fn = fn
        # Surface the step function's allocation contract (see
        # lbm/kernels/contracts.py) on the adapter, so contract_of()
        # works uniformly on stateless and stateful kernels.
        contract = getattr(fn, "__allocation_free__", None)
        if contract is not None:
            self.__allocation_free__ = contract

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self._fn(self.model, src, dst, self.collision)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name} kernel, {self.model.name}, {self.collision}>"


class InstrumentedKernel:
    """Wraps any kernel so every call is accounted to a timing tree.

    Each call records under the tree's *current* scope as a child named
    ``tier:<name>`` via :meth:`~repro.perf.timing.TimingTree.record` —
    no scope push, so concurrent per-block kernel calls from a thread
    pool are safe (they accumulate CPU time under the enclosing
    ``kernel`` sweep).  ``processed_cells`` and other attributes of the
    wrapped kernel are forwarded.
    """

    def __init__(self, kernel: Kernel, tree: TimingTree, name: str):
        self.kernel = kernel
        self.tree = tree
        self.scope_name = name

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Run the wrapped kernel, recording its wall time."""
        t0 = time.perf_counter()
        self.kernel(src, dst)
        self.tree.record(self.scope_name, time.perf_counter() - t0)

    def __getattr__(self, attr: str):
        """Forward e.g. ``processed_cells`` / ``model`` to the wrapped kernel."""
        return getattr(self.kernel, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<instrumented {self.kernel!r} as {self.scope_name}>"


def instrument_kernel(
    kernel: Kernel, tree: Optional[TimingTree], name: str
) -> Kernel:
    """Wrap ``kernel`` with per-call timing under scope ``tier:<name>``;
    a ``None`` tree returns the kernel unchanged (zero overhead)."""
    if tree is None:
        return kernel
    return InstrumentedKernel(kernel, tree, f"tier:{name}")


def run_kernel_on_region(kernel: Kernel, src: np.ndarray, dst: np.ndarray, box: Box) -> None:
    """Run ``kernel`` on the subregion ``box`` of a field pair.

    ``box`` is an interior-coordinate :data:`~repro.lbm.kernels.common.Box`
    (the slabs of :func:`repro.exec.slab_boxes`); the kernel is invoked
    on halo-inclusive *views* so no data is copied and per-cell
    arithmetic is bit-identical to a full-field sweep restricted to the
    box.  All tiers accept arbitrary shapes (the ``vectorized`` tier
    caches scratch buffers per shape, allocating only on first use).
    """
    kernel(region_view(src, box), region_view(dst, box))


def make_kernel(
    tier: str,
    model: LatticeModel,
    collision: Collision,
    cells: Tuple[int, ...] | None = None,
    tree: Optional[TimingTree] = None,
    mask: Optional[np.ndarray] = None,
) -> Kernel:
    """Build a kernel of the given tier.

    Parameters
    ----------
    tier:
        One of :data:`KERNEL_TIERS` or :data:`SPARSE_TIERS`.
    model:
        Lattice model; every tier but ``reference`` and ``generic``
        requires D3Q19.
    collision:
        SRT or TRT parameters.
    cells:
        Interior cell counts — required by the ``vectorized`` tier (it
        preallocates scratch buffers) and by ``compiled`` (whose
        fallback is ``vectorized``), ignored otherwise.
    tree:
        Optional :class:`~repro.perf.timing.TimingTree`; when given the
        kernel is wrapped so every call records under a ``tier:<name>``
        child of the tree's current scope, ``<name>`` being the tier
        actually built.
    mask:
        Boolean interior fluid mask — required by the sparse tiers.

    A ``compiled`` request on a host where the kernel cannot be built
    (no C compiler, compile or load failure) returns the bit-identical
    ``vectorized`` kernel, a ``runtable`` request the ``interval``
    kernel; the reason is logged once per process.
    """
    if tier not in KERNEL_TIERS + SPARSE_TIERS:
        raise ValueError(
            f"unknown kernel tier {tier!r}; choose from "
            f"{KERNEL_TIERS + SPARSE_TIERS}"
        )
    if tier not in ("reference", "generic") and model.name != "D3Q19":
        raise ValueError(f"tier {tier!r} requires the D3Q19 model, got {model.name}")
    if tier in ("vectorized", "compiled") and cells is None:
        raise ValueError(f"tier {tier!r} needs the interior cell counts")
    if tier in SPARSE_TIERS and mask is None:
        raise ValueError(f"sparse tier {tier!r} needs the fluid mask")

    if tier == "reference":
        kernel: Kernel = _StatelessKernel(tier, reference_step, model, collision)
    elif tier == "generic":
        kernel = _StatelessKernel(tier, generic_step, model, collision)
    elif tier == "d3q19":
        kernel = _StatelessKernel(tier, d3q19_step, model, collision)
    elif tier == "runtable":
        try:
            kernel = RunTableKernel(mask, collision)
        except KernelBuildError:
            kernel = IntervalSparseKernel(mask, collision)
    elif tier in SPARSE_TIERS:
        kernel = _SPARSE_CLASSES[tier](mask, collision)
    elif tier == "compiled":
        try:
            kernel = CompiledD3Q19Kernel(collision)
        except KernelBuildError:
            kernel = VectorizedD3Q19Kernel(cells, collision)
    else:
        kernel = VectorizedD3Q19Kernel(cells, collision)
    return instrument_kernel(kernel, tree, kernel.name)
