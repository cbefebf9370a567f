"""Cross-cutting property-based tests (hypothesis) on the framework's
core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import BlockId, SetupBlockForest, distribute
from repro.balance import curve_split, morton_key
from repro.comm import CoalescedGhostExchange, GhostExchange, build_rank_plan
from repro.core import PdfField
from repro.geometry import AABB
from repro.lbm import D3Q19, SRT, TRT
from repro.lbm.equilibrium import equilibrium_cell
from repro.lbm.kernels import make_kernel

from helpers import interior, periodic_ghost_fill


def _chain(owners, cells):
    """A chain of blocks along x, block ``i`` on rank ``owners[i]``: the
    blocks (x order) and every rank's ghost plan."""
    n = len(owners)
    forest = SetupBlockForest.create(AABB((0, 0, 0), (n, 1, 1)), (n, 1, 1), cells)
    forest.assign(list(owners), max(owners) + 1)
    plans = [build_rank_plan(v, v.rank) for v in distribute(forest)]
    return [b.id for b in forest.blocks], plans


class TestGhostExchangeProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_blocks=st.integers(2, 5))
    def test_chain_exchange_preserves_interiors(self, seed, n_blocks):
        """Ghost exchange only writes ghost layers — interiors never change."""
        rng = np.random.default_rng(seed)
        # Neighbor pairs alternate between two ranks and one rank.
        ids, plans = _chain([(i + 1) // 2 for i in range(n_blocks)], (4, 4, 4))
        for executor in (GhostExchange, CoalescedGhostExchange):
            fields = {}
            for bid in ids:
                f = PdfField(D3Q19, (4, 4, 4))
                f.src[...] = rng.random(f.src.shape)
                fields[bid] = f
            interiors = {k: interior(f.src).copy() for k, f in fields.items()}
            executor(plans, fields).exchange()
            for k, f in fields.items():
                assert np.array_equal(interior(f.src), interiors[k])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_exchange_transfers_exact_face(self, seed):
        rng = np.random.default_rng(seed)
        ids, plans = _chain([0, 1], (3, 3, 3))
        a = PdfField(D3Q19, (3, 3, 3))
        b = PdfField(D3Q19, (3, 3, 3))
        a.src[...] = rng.random(a.src.shape)
        b.src[...] = rng.random(b.src.shape)
        face = b.src[:, 1:2, 1:-1, 1:-1].copy()
        GhostExchange(plans, dict(zip(ids, (a, b)))).exchange()
        assert np.array_equal(a.src[:, -1:, 1:-1, 1:-1], face)


class TestConservationProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        tau=st.floats(0.55, 2.0),
        steps=st.integers(1, 4),
    )
    def test_multi_step_periodic_conservation(self, seed, tau, steps):
        rng = np.random.default_rng(seed)
        cells = (4, 4, 4)
        f = PdfField(D3Q19, cells)
        f.src[...] = 0.4 + 0.2 * rng.random(f.src.shape)
        kern = make_kernel("vectorized", D3Q19, TRT.from_tau(tau), cells)
        periodic_ghost_fill(f.src)
        m0 = interior(f.src).sum()
        for _ in range(steps):
            periodic_ghost_fill(f.src)
            kern(f.src, f.dst)
            f.swap()
        assert np.isclose(interior(f.src).sum(), m0, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        ux=st.floats(-0.05, 0.05),
        uy=st.floats(-0.05, 0.05),
        uz=st.floats(-0.05, 0.05),
        rho=st.floats(0.8, 1.2),
        tau=st.floats(0.55, 2.0),
    )
    def test_collision_invariants_single_cell(self, ux, uy, uz, rho, tau):
        """Collision conserves mass and momentum for any state."""
        from repro.lbm.kernels.reference import _collide_cell

        rng = np.random.default_rng(0)
        f = equilibrium_cell(D3Q19, rho, [ux, uy, uz])
        f = f + 0.01 * rng.random(19)  # perturb off equilibrium
        post = _collide_cell(D3Q19, f, SRT(tau))
        assert np.isclose(post.sum(), f.sum(), rtol=1e-12)
        e = D3Q19.velocities.astype(float)
        assert np.allclose(post @ e, f @ e, atol=1e-14)


class TestMortonProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        i=st.integers(0, 2**20 - 1),
        j=st.integers(0, 2**20 - 1),
        k=st.integers(0, 2**20 - 1),
    )
    def test_key_injective_bits(self, i, j, k):
        # De-interleaving recovers the inputs.
        key = morton_key(i, j, k)

        def extract(key, offset):
            out = 0
            for bit in range(21):
                out |= ((key >> (3 * bit + offset)) & 1) << bit
            return out

        assert extract(key, 0) == i
        assert extract(key, 1) == j
        assert extract(key, 2) == k

    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=40),
        k=st.integers(2, 4),
    )
    def test_curve_split_contiguous_and_complete(self, weights, k):
        if len(weights) < k:
            weights = weights + [1.0] * (k - len(weights))
        parts = curve_split(weights, k)
        assert len(parts) == len(weights)
        # Contiguous: parts are sorted.
        assert list(parts) == sorted(parts)
        # Complete: all k parts occur.
        assert set(parts) == set(range(k))


class TestBlockIdProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        root=st.integers(0, 2**24 - 1),
        branches=st.lists(st.integers(0, 7), max_size=8),
        bits=st.integers(24, 40),
    )
    def test_pack_width_flexible(self, root, branches, bits):
        b = BlockId(root, tuple(branches))
        assert BlockId.unpack(b.pack(bits), bits) == b

    @settings(max_examples=30, deadline=None)
    @given(
        root=st.integers(0, 1000),
        branches=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    )
    def test_parent_chain_reaches_root(self, root, branches):
        b = BlockId(root, tuple(branches))
        node = b
        for _ in range(b.depth):
            node = node.parent()
        assert node == BlockId(root)
        assert BlockId(root).is_ancestor_of(b)
