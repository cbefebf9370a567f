"""Tests for the SPMD message-passing simulation and the parallel setup
algorithms of §2.3, asserting exact agreement with the sequential and
direct-copy implementations."""

import io

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import (
    SetupBlockForest,
    broadcast_load_forest,
    classify_blocks_parallel,
    save_forest,
    view_for_rank,
)
from repro.comm import (
    DistributedSimulation,
    VirtualMPI,
    run_spmd_simulation,
)
from repro.comm import spmd
from repro.errors import CommunicationError, ConfigurationError, PartitioningError
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.lbm import NoSlip, PressureABB, TRT, UBB


def lid_setter(grid):
    gx, gy, gz = grid

    def setter(blk, ff):
        d = ff.data
        i, j, k = blk.grid_index
        if i == 0:
            d[0] = fl.NO_SLIP
        if i == gx - 1:
            d[-1] = fl.NO_SLIP
        if j == 0:
            d[:, 0] = fl.NO_SLIP
        if j == gy - 1:
            d[:, -1] = fl.NO_SLIP
        if k == 0:
            d[:, :, 0] = fl.NO_SLIP
        if k == gz - 1:
            d[:, :, -1] = fl.VELOCITY_BC

    return setter


class TestViewForRank:
    def test_matches_distribute(self):
        from repro.blocks import distribute

        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 2, 1)), (2, 2, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        all_views = distribute(forest)
        for rank in range(2):
            single = view_for_rank(forest, rank)
            assert [b.id for b in single.blocks] == [
                b.id for b in all_views[rank].blocks
            ]
            assert single.neighbor_ranks() == all_views[rank].neighbor_ranks()

    def test_unbalanced_rejected(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        with pytest.raises(PartitioningError):
            view_for_rank(forest, 0)

    def test_bad_rank_rejected(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        with pytest.raises(PartitioningError):
            view_for_rank(forest, 5)


class TestSpmdSimulation:
    def test_identical_to_direct_copy_cavity(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 2, 2)), (2, 2, 2), (4, 4, 4)
        )
        balance_forest(forest, 4, strategy="round_robin")
        bcs = [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]
        col = TRT.from_tau(0.8)
        setter = lid_setter((2, 2, 2))
        ref = DistributedSimulation(forest, col, flag_setter=setter, boundaries=bcs)
        ref.run(15)
        world = VirtualMPI(4, timeout=120)
        result = run_spmd_simulation(
            world, forest, col, 15, conditions=bcs, flag_setter=setter
        )
        assert set(result) == set(ref.fields)
        for key, arr in result.items():
            assert np.array_equal(arr, ref.fields[key].interior_view)

    def test_identical_on_coronary_geometry(self):
        tree = CoronaryTree.generate(generations=3, seed=4)
        geom = CapsuleTreeGeometry(tree)
        forest = SetupBlockForest.create(
            geom.aabb(), (3, 3, 3), (8, 8, 8), geometry=geom
        )
        balance_forest(forest, 3, strategy="morton")
        bcs = [NoSlip(), UBB(velocity=(0.0, 0.0, 0.01)), PressureABB(rho_w=1.0)]
        col = TRT.from_tau(0.8)
        ref = DistributedSimulation(forest, col, geometry=geom, boundaries=bcs)
        ref.run(5)
        world = VirtualMPI(3, timeout=180)
        result = run_spmd_simulation(
            world, forest, col, 5, conditions=bcs, geometry=geom
        )
        for key, arr in result.items():
            assert np.array_equal(arr, ref.fields[key].interior_view)

    def test_world_size_mismatch_rejected(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        with pytest.raises(CommunicationError):
            run_spmd_simulation(VirtualMPI(3, timeout=10), forest, TRT.from_tau(0.8), 1)

    @pytest.mark.parametrize(
        "kwargs", [{"exec_mode": "bogus"}, {"workers": 0}], ids=["mode", "workers"]
    )
    def test_bad_exec_config_rejected_before_any_rank_starts(
        self, kwargs, monkeypatch
    ):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        started = []
        monkeypatch.setattr(
            spmd, "spmd_rank_program", lambda comm, *a, **k: started.append(comm.rank) or {}
        )
        with pytest.raises(ConfigurationError):
            run_spmd_simulation(
                VirtualMPI(2, timeout=10), forest, TRT.from_tau(0.8), 1, **kwargs
            )
        assert started == []


class TestParallelSetup:
    @pytest.fixture(scope="class")
    def geom(self):
        return CapsuleTreeGeometry(CoronaryTree.generate(generations=3, seed=7))

    def test_matches_sequential(self, geom):
        box = geom.aabb()
        seq = SetupBlockForest.create(box, (4, 4, 4), (8, 8, 8), geometry=geom)
        par = classify_blocks_parallel(
            VirtualMPI(4, timeout=120), box, (4, 4, 4), (8, 8, 8), lambda: geom
        )
        assert [b.id for b in par.blocks] == [b.id for b in seq.blocks]
        assert [b.fluid_cells for b in par.blocks] == [
            b.fluid_cells for b in seq.blocks
        ]
        assert [b.coverage for b in par.blocks] == [b.coverage for b in seq.blocks]

    def test_rank_count_invariance(self, geom):
        # The result must not depend on how many ranks classified it.
        box = geom.aabb()
        a = classify_blocks_parallel(
            VirtualMPI(2, timeout=120), box, (3, 3, 3), (8, 8, 8), lambda: geom
        )
        b = classify_blocks_parallel(
            VirtualMPI(7, timeout=120), box, (3, 3, 3), (8, 8, 8), lambda: geom
        )
        assert [blk.id for blk in a.blocks] == [blk.id for blk in b.blocks]

    def test_broadcast_load(self, tmp_path, geom):
        forest = SetupBlockForest.create(
            geom.aabb(), (3, 3, 3), (8, 8, 8), geometry=geom
        )
        balance_forest(forest, 4, strategy="morton")
        path = str(tmp_path / "forest.wbf")
        save_forest(forest, path)
        world = VirtualMPI(4, timeout=60)

        def program(comm):
            # Only rank 0 gets the path — everyone must still end up with
            # the forest (via broadcast of the raw bytes).
            f = broadcast_load_forest(comm, path if comm.rank == 0 else None)
            return (f.n_blocks, f.n_processes)

        results = world.run(program)
        assert results == [(forest.n_blocks, 4)] * 4
