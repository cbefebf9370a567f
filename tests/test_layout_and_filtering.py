"""Tests for the AoS-layout kernel and the ghost-direction filter behind
the fluid-pruned exchange (the ablation machinery)."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation, GhostExchange, build_rank_plan
from repro.comm.ghostlayer import needed_directions
from repro.lbm import D3Q19, D3Q27, UBB, NoSlip, PressureABB, SRT, TRT
from repro.lbm.kernels import make_kernel
from repro.lbm.kernels.aos import aos_step, aos_to_soa, soa_to_aos

from helpers import interior, random_pdfs


class TestAosKernel:
    @pytest.mark.parametrize("collision", [SRT(0.8), TRT.from_tau(0.8)], ids=["srt", "trt"])
    def test_matches_soa(self, collision):
        rng = np.random.default_rng(3)
        cells = (4, 5, 6)
        src = random_pdfs(rng, D3Q19, cells)
        dst = np.zeros_like(src)
        make_kernel("d3q19", D3Q19, collision, cells)(src, dst)
        src_aos = soa_to_aos(src)
        dst_aos = np.zeros_like(src_aos)
        aos_step(D3Q19, src_aos, dst_aos, collision)
        assert np.allclose(
            interior(aos_to_soa(dst_aos)), interior(dst), atol=1e-14
        )

    def test_conversions_roundtrip(self):
        rng = np.random.default_rng(1)
        f = rng.random((19, 4, 5, 6))
        assert np.array_equal(aos_to_soa(soa_to_aos(f)), f)

    def test_validation(self):
        with pytest.raises(ValueError):
            aos_step(D3Q27, np.zeros((4, 4, 4, 27)), np.zeros((4, 4, 4, 27)), SRT(0.8))
        a = np.zeros((4, 4, 4, 19))
        with pytest.raises(ValueError):
            aos_step(D3Q19, a, a, SRT(0.8))
        with pytest.raises(ValueError):
            aos_step(D3Q19, np.zeros((2, 4, 4, 19)), np.zeros((2, 4, 4, 19)), SRT(0.8))


class TestNeededDirections:
    def test_face_needs_five_for_d3q19(self):
        dirs = needed_directions(D3Q19, (1, 0, 0))
        assert len(dirs) == 5
        for a in dirs:
            assert D3Q19.velocities[a][0] == -1

    def test_edge_needs_one(self):
        dirs = needed_directions(D3Q19, (1, -1, 0))
        assert len(dirs) == 1
        e = D3Q19.velocities[dirs[0]]
        assert e[0] == -1 and e[1] == 1

    def test_corner_needs_none_for_d3q19(self):
        assert needed_directions(D3Q19, (1, 1, 1)) == []

    def test_corner_needs_one_for_d3q27(self):
        dirs = needed_directions(D3Q27, (1, 1, 1))
        assert len(dirs) == 1
        assert np.array_equal(D3Q27.velocities[dirs[0]], (-1, -1, -1))

    def test_total_filtered_volume_fraction(self):
        # Sum over all 26 offsets, weighted by region size, gives the
        # data reduction factor for a face-dominated exchange.
        total = sum(
            len(needed_directions(D3Q19, (dx, dy, dz)))
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)
            if (dx, dy, dz) != (0, 0, 0)
        )
        # 6 faces x 5 + 12 edges x 1 + 8 corners x 0 = 42 direction-regions
        assert total == 42


class TestFilteredSimulation:
    def test_bit_identical_with_sparse_geometry(self):
        """The driver's fluid-pruned exchange against full 19-direction
        regions (plans built without FLUID masks)."""
        from repro.geometry import CapsuleTreeGeometry, CoronaryTree

        tree = CoronaryTree.generate(generations=3, seed=5)
        geom = CapsuleTreeGeometry(tree)
        forest = SetupBlockForest.create(
            geom.aabb(), (2, 2, 2), (8, 8, 8), geometry=geom
        )
        balance_forest(forest, 2, strategy="round_robin")

        def build():
            return DistributedSimulation(
                forest, TRT.from_tau(0.8), geometry=geom, boundaries=[NoSlip()],
            )

        pruned = build().run(8)
        full = build()
        exchange = GhostExchange(
            [build_rank_plan(v, v.rank) for v in full.views], full.fields
        )
        for _ in range(8):
            exchange.exchange()
            full.stepper.boundary()
            full.stepper.kernel()
            full.stepper.swap()
        a = full.gather_density()
        b = pruned.gather_density()
        assert np.nanmax(np.abs(a - b)) == 0.0
        assert pruned.comm_stats.total_bytes < exchange.stats.total_bytes / 3

    def test_flowing_case_bit_identical_on_fluid_pdfs(self):
        """A velocity inflow and a pressure outflow drive a flow through
        the tree, so every ghost value a fluid cell pulls matters: the
        fluid PDFs of the pruned exchange must equal those of the full
        19-direction exchange."""
        from repro.geometry import CapsuleTreeGeometry, CoronaryTree

        tree = CoronaryTree.generate(generations=2, seed=0, root_radius=1.9e-3)
        geom = CapsuleTreeGeometry(tree)
        forest = SetupBlockForest.create(
            geom.aabb(), (4, 4, 4), (10, 10, 10), geometry=geom
        )
        balance_forest(forest, 2, strategy="round_robin")

        def build():
            return DistributedSimulation(
                forest, TRT.from_tau(0.8), geometry=geom,
                boundaries=[
                    NoSlip(), UBB(velocity=(0.0, 0.0, 0.02)), PressureABB(rho_w=1.0)
                ],
            )

        steps = 12
        pruned = build().run(steps)
        full = build()
        exchange = GhostExchange(
            [build_rank_plan(v, v.rank) for v in full.views], full.fields
        )
        for _ in range(steps):
            for _name, sweep in full.stepper.sweeps(exchange.exchange):
                sweep()
        assert pruned.total_fluid_cells() > 1000
        assert pruned.max_velocity() > 0.01
        for key, field in pruned.fields.items():
            fm = pruned.flags[key].fluid_mask()
            assert np.array_equal(
                field.interior_view[:, fm], full.fields[key].interior_view[:, fm]
            ), key
