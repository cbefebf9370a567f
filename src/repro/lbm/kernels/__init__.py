"""LBM compute kernels: the paper's optimization tiers, the compiled tier
generated from the lattice tables, and sparse-block strategies (see §4.1
and §4.3)."""

from .common import alloc_pdf_field, interior_slices, pdf_shape, pull_slices
from .compiled import CompiledD3Q19Kernel
from .contracts import allocation_free, contract_of
from .d3q19 import d3q19_step
from .generic import generic_step
from .reference import reference_step
from .registry import (
    DEFAULT_DENSE_TIER,
    DEFAULT_SPARSE_TIER,
    KERNEL_TIERS,
    SPARSE_TIERS,
    make_kernel,
)
from .sparse import (
    ConditionalSparseKernel,
    IndexListSparseKernel,
    IntervalSparseKernel,
    fluid_intervals,
)
from .vectorized import VectorizedD3Q19Kernel

__all__ = [
    "alloc_pdf_field", "interior_slices", "pdf_shape", "pull_slices",
    "allocation_free", "contract_of",
    "d3q19_step", "generic_step", "reference_step",
    "KERNEL_TIERS", "SPARSE_TIERS", "DEFAULT_DENSE_TIER",
    "DEFAULT_SPARSE_TIER", "make_kernel",
    "ConditionalSparseKernel", "IndexListSparseKernel", "IntervalSparseKernel",
    "fluid_intervals", "VectorizedD3Q19Kernel", "CompiledD3Q19Kernel",
]
