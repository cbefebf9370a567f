"""The @allocation_free contract: declared, forwarded, and *true*.

Every kernel tier carries an explicit allocation contract
(:func:`repro.lbm.kernels.allocation_free`).  These tests pin three
properties the static checker (KRN001) cannot see on its own:

1. every shipped tier declares a contract, honest tiers give a reason;
2. the registry wrappers (``_StatelessKernel``, ``InstrumentedKernel``)
   forward the contract, so ``contract_of(make_kernel(...))`` works;
3. the declarations match runtime reality — tracemalloc proves the
   ``steady_state=True`` tier allocates nothing field-sized after
   warm-up, and that the ``steady_state=False`` generic tier really
   does allocate (so the annotation could not honestly be flipped).
"""

import tracemalloc

import numpy as np
import pytest

from repro.lbm.collision import TRT
from repro.lbm.kernels import (
    KERNEL_TIERS,
    alloc_pdf_field,
    allocation_free,
    contract_of,
    make_kernel,
)
from repro.lbm.kernels.generic import generic_step
from repro.lbm.kernels.sparse import (
    ConditionalSparseKernel,
    IndexListSparseKernel,
    IntervalSparseKernel,
)
from repro.lbm.kernels import compiled
from repro.lbm.kernels.compiled import CompiledD3Q19Kernel, RunTableKernel
from repro.lbm.kernels.vectorized import VectorizedD3Q19Kernel
from repro.lbm.lattice import D3Q19
from repro.perf.timing import TimingTree

CELLS = (16, 16, 16)
#: Shape for the tracemalloc pinning: large enough that one interior
#: scalar field (32^3 * 8 = 256 KiB) clearly dominates NumPy's bounded
#: internal ufunc buffers (strided ``out=`` views buffer through at most
#: ``np.setbufsize`` elements = 64 KiB per operand, independent of the
#: field size), so "no field-sized temporary" is a meaningful assertion.
BIG_CELLS = (32, 32, 32)


def _equilibrium_fields(cells):
    rng = np.random.default_rng(0)
    src = alloc_pdf_field(D3Q19, cells)
    src[...] = np.asarray(D3Q19.weights).reshape((19,) + (1,) * 3)
    src += rng.uniform(-1e-3, 1e-3, size=src.shape)
    dst = np.zeros_like(src)
    return src, dst


class TestDeclarations:
    def test_every_tier_declares_a_contract(self):
        for tier in KERNEL_TIERS:
            if tier == "reference":
                continue  # the didactic baseline carries no contract
            k = make_kernel(tier, D3Q19, TRT.from_tau(0.65), CELLS)
            contract = contract_of(k)
            assert contract is not None, f"tier {tier!r} has no contract"
            assert isinstance(contract["steady_state"], bool)

    def test_vectorized_is_the_steady_state_tier(self):
        contract = contract_of(VectorizedD3Q19Kernel)
        assert contract["steady_state"] is True
        assert "_get_scratch" in contract["warmup"]

    def test_compiled_is_a_steady_state_tier(self):
        contract = contract_of(CompiledD3Q19Kernel)
        assert contract == {"steady_state": True, "reason": None, "warmup": ()}

    def test_runtable_is_a_steady_state_tier(self):
        contract = contract_of(RunTableKernel)
        assert contract["steady_state"] is True

    @pytest.mark.parametrize(
        "obj",
        [
            generic_step,
            ConditionalSparseKernel,
            IndexListSparseKernel,
            IntervalSparseKernel,
        ],
        ids=lambda o: getattr(o, "__name__", str(o)),
    )
    def test_allocating_tiers_document_why(self, obj):
        contract = contract_of(obj)
        assert contract["steady_state"] is False
        assert contract["reason"], "steady_state=False requires a reason"

    def test_decorator_is_reusable(self):
        @allocation_free(steady_state=True, warmup=("_prep",))
        def my_kernel(src, dst):
            np.add(src, 1.0, out=dst)

        c = contract_of(my_kernel)
        assert c == {"steady_state": True, "reason": None, "warmup": ("_prep",)}
        assert contract_of(object()) is None


class TestWrapperForwarding:
    def test_stateless_wrapper_copies_contract(self):
        k = make_kernel("generic", D3Q19, TRT.from_tau(0.65))
        assert contract_of(k) == contract_of(generic_step)

    def test_instrumented_wrapper_forwards_contract(self):
        tree = TimingTree()
        k = make_kernel("vectorized", D3Q19, TRT.from_tau(0.65), CELLS, tree)
        assert contract_of(k)["steady_state"] is True


class TestTracemallocCrossCheck:
    """The runtime companion of static rule KRN001."""

    def test_vectorized_steady_state_allocates_nothing_field_sized(self):
        self._assert_steady_state_allocation_free(
            VectorizedD3Q19Kernel(BIG_CELLS, TRT.from_tau(0.65))
        )

    def test_compiled_steady_state_allocates_nothing_field_sized(self):
        kernel = make_kernel("compiled", D3Q19, TRT.from_tau(0.65), BIG_CELLS)
        self._assert_steady_state_allocation_free(kernel)

    @pytest.mark.skipif(
        compiled._find_compiler() is None, reason="no C compiler on this host"
    )
    def test_runtable_steady_state_allocates_nothing_field_sized(self):
        mask = np.indices(BIG_CELLS).sum(axis=0) % 3 != 0
        kernel = make_kernel("runtable", D3Q19, TRT.from_tau(0.65), mask=mask)
        self._assert_steady_state_allocation_free(kernel)

    @staticmethod
    def _assert_steady_state_allocation_free(kernel):
        src, dst = _equilibrium_fields(BIG_CELLS)
        for _ in range(2):  # warm-up: scratch buffers cached per shape
            kernel(src, dst)
        field_bytes = 32 * 32 * 32 * 8  # one interior scalar field
        tracemalloc.start()
        try:
            for _ in range(3):
                kernel(src, dst)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field_bytes, (
            f"steady_state=True tier allocated {peak} bytes "
            f"(>= one field of {field_bytes})"
        )

    def test_generic_tier_really_allocates(self):
        """Honesty check: the steady_state=False annotation on the
        generic tier cannot be flipped to True — it allocates full-field
        temporaries every call, by design."""
        src, dst = _equilibrium_fields(BIG_CELLS)
        kernel = make_kernel("generic", D3Q19, TRT.from_tau(0.65))
        kernel(src, dst)  # warm-up parity with the vectorized test
        field_bytes = 32 * 32 * 32 * 8
        tracemalloc.start()
        try:
            kernel(src, dst)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > field_bytes, (
            f"expected the generic tier to allocate, peak={peak}"
        )
