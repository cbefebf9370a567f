"""Kernel-tier correctness tests: every optimized kernel against the
pure-Python reference, conservation laws, and equilibrium invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbm.collision import SRT, TRT
from repro.lbm.kernels import (
    alloc_pdf_field,
    make_kernel,
    pull_slices,
)
from repro.lbm.kernels.common import check_pdf_args
from repro.lbm.kernels.generic import generic_step
from repro.lbm.kernels.reference import reference_step
from repro.lbm.lattice import D2Q9, D3Q19, D3Q27
from repro.lbm.equilibrium import equilibrium

from helpers import interior, periodic_ghost_fill, random_pdfs

COLLISIONS = [SRT(tau=0.8), TRT.from_tau(0.8), TRT(lambda_e=-1.6, lambda_o=-0.7)]
OPT_TIERS = ["generic", "d3q19", "vectorized", "compiled"]


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


class TestAgainstReference:
    @pytest.mark.parametrize("tier", OPT_TIERS)
    @pytest.mark.parametrize("collision", COLLISIONS, ids=["srt", "trt", "trt2"])
    def test_matches_reference(self, tier, collision, rng):
        cells = (4, 5, 3)
        src = random_pdfs(rng, D3Q19, cells)
        ref_dst = np.zeros_like(src)
        reference_step(D3Q19, src, ref_dst, collision)
        k = make_kernel(tier, D3Q19, collision, cells)
        dst = np.zeros_like(src)
        k(src, dst)
        assert np.allclose(interior(dst), interior(ref_dst), atol=1e-13)

    @pytest.mark.parametrize("model", [D3Q27, D2Q9], ids=lambda m: m.name)
    def test_generic_other_models(self, model, rng):
        cells = (4, 4, 4)[: model.dim]
        src = random_pdfs(rng, model, cells)
        ref_dst = np.zeros_like(src)
        reference_step(model, src, ref_dst, TRT.from_tau(0.9))
        dst = np.zeros_like(src)
        generic_step(model, src, dst, TRT.from_tau(0.9))
        assert np.allclose(interior(dst), interior(ref_dst), atol=1e-13)


class TestPhysicalInvariants:
    @pytest.mark.parametrize("tier", OPT_TIERS)
    def test_equilibrium_is_fixed_point(self, tier):
        cells = (6, 6, 6)
        u = np.array([0.04, -0.02, 0.01])
        src = alloc_pdf_field(D3Q19, cells)
        shape = src.shape[1:]
        rho = np.ones(shape)
        uf = np.broadcast_to(u, shape + (3,))
        src[...] = equilibrium(D3Q19, rho, uf)
        k = make_kernel(tier, D3Q19, TRT.from_tau(0.7), cells)
        dst = np.zeros_like(src)
        k(src, dst)
        # A uniform equilibrium streams into itself and collides into itself.
        assert np.allclose(interior(dst), interior(src), atol=1e-13)

    @pytest.mark.parametrize("tier", OPT_TIERS)
    @pytest.mark.parametrize("collision", COLLISIONS, ids=["srt", "trt", "trt2"])
    def test_mass_and_momentum_conserved_periodic(self, tier, collision, rng):
        cells = (5, 5, 5)
        src = random_pdfs(rng, D3Q19, cells)
        periodic_ghost_fill(src)
        k = make_kernel(tier, D3Q19, collision, cells)
        dst = np.zeros_like(src)
        k(src, dst)
        mass0 = interior(src).sum()
        mass1 = interior(dst).sum()
        assert np.isclose(mass1, mass0, rtol=1e-12)
        e = D3Q19.velocities.astype(float)
        j0 = np.tensordot(interior(src).reshape(19, -1).sum(axis=1), e, axes=(0, 0))
        j1 = np.tensordot(interior(dst).reshape(19, -1).sum(axis=1), e, axes=(0, 0))
        assert np.allclose(j0, j1, atol=1e-10)

    def test_trt_reduces_to_srt(self, rng):
        # lambda_e = lambda_o = -1/tau makes TRT identical to SRT (eq. 8).
        cells = (4, 4, 4)
        src = random_pdfs(rng, D3Q19, cells)
        d_srt = np.zeros_like(src)
        d_trt = np.zeros_like(src)
        k1 = make_kernel("vectorized", D3Q19, SRT(tau=0.73), cells)
        k2 = make_kernel("vectorized", D3Q19, TRT.srt_equivalent(0.73), cells)
        k1(src, d_srt)
        k2(src, d_trt)
        assert np.allclose(interior(d_srt), interior(d_trt), atol=1e-14)


class TestStreaming:
    def test_pull_moves_data_one_cell(self):
        # A pulse in direction a at cell x must arrive at x + e_a.
        cells = (5, 5, 5)
        src = alloc_pdf_field(D3Q19, cells)
        a = D3Q19.direction_index(1, 0, 0)
        # Uniform rest background (so density is positive everywhere) plus a
        # pulse in direction a; tau -> inf makes collision a near no-op.
        src[0] = 1.0
        src[a, 2, 3, 3] += 1.0
        dst = np.zeros_like(src)
        k = make_kernel("d3q19", D3Q19, SRT(tau=1e9), cells)
        k(src, dst)
        # The pulse should now be at (3, 3, 3).
        assert dst[a, 3, 3, 3] > 0.99
        assert abs(dst[a, 2, 3, 3]) < 1e-6

    def test_pull_slices_shapes(self):
        for a in range(19):
            sl = pull_slices(D3Q19.velocities[a])
            arr = np.zeros((7, 8, 9))
            assert arr[sl].shape == (5, 6, 7)


class TestValidation:
    def test_mismatched_shapes_rejected(self):
        a = np.zeros((19, 5, 5, 5))
        b = np.zeros((19, 5, 5, 6))
        with pytest.raises(ValueError):
            check_pdf_args(D3Q19, a, b)

    def test_same_array_rejected(self):
        a = np.zeros((19, 5, 5, 5))
        with pytest.raises(ValueError):
            check_pdf_args(D3Q19, a, a)

    def test_wrong_q_rejected(self):
        a = np.zeros((9, 5, 5, 5))
        with pytest.raises(ValueError):
            check_pdf_args(D3Q19, a, a.copy())

    def test_too_small_extent_rejected(self):
        a = np.zeros((19, 2, 5, 5))
        with pytest.raises(ValueError):
            check_pdf_args(D3Q19, a, a.copy())

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            make_kernel("warp", D3Q19, SRT(0.8))

    def test_d3q19_tier_needs_d3q19(self):
        with pytest.raises(ValueError):
            make_kernel("d3q19", D3Q27, SRT(0.8))

    def test_vectorized_needs_cells(self):
        with pytest.raises(ValueError):
            make_kernel("vectorized", D3Q19, SRT(0.8))

    def test_vectorized_shape_checked(self):
        k = make_kernel("vectorized", D3Q19, SRT(0.8), (4, 4, 4))
        # Invalid argument pairs are still rejected ...
        with pytest.raises(ValueError):
            k(np.zeros((18, 6, 6, 6)), np.zeros((18, 6, 6, 6)))
        bad = np.zeros((19, 6, 6, 6))
        with pytest.raises(ValueError):
            k(bad, bad)  # src is dst
        # ... but other *valid* interior shapes are now accepted: the
        # kernel caches scratch per (worker thread, shape) so it can run
        # on the subregion views of slab-split sweeps.
        src = np.full((19, 7, 6, 6), 0.05)
        k(src, np.zeros_like(src))
        shapes = k.scratch_shapes()
        assert (5, 4, 4) in shapes and (4, 4, 4) in shapes


class TestKernelProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        tau=st.floats(0.55, 3.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_vectorized_matches_reference_random(self, tau, seed):
        rng = np.random.default_rng(seed)
        cells = (3, 4, 3)
        src = random_pdfs(rng, D3Q19, cells)
        collision = TRT.from_tau(tau)
        ref = np.zeros_like(src)
        reference_step(D3Q19, src, ref, collision)
        k = make_kernel("vectorized", D3Q19, collision, cells)
        dst = np.zeros_like(src)
        k(src, dst)
        assert np.allclose(interior(dst), interior(ref), atol=1e-12)
