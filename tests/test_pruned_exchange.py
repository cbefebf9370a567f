"""The fluid-pruned ghost exchange: the pruning rule, the flag invariant
its header-free layout rests on (every ghost layer carries its
neighbor's FLUID bits), the typed error when a flag setter breaks it,
the grid-parity guard of the compiled copy, the no-compiler fallback,
and SPMD runs of pruned payloads under fault schedules."""

import logging

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest, distribute
from repro.comm import (
    COMM_MODES,
    DistributedSimulation,
    FaultInjector,
    FaultSpec,
    VirtualMPI,
    build_rank_plan,
    check_ghost_flags,
    run_spmd_simulation,
)
from repro.comm.distributed import build_block_flags
from repro.errors import CommunicationError, GhostFlagMismatchError
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.lbm import NoSlip, PressureABB, TRT, UBB
from repro.lbm.kernels import compiled
from repro.scenarios import channel_with_obstacle, lid_driven_cavity

# Channel of two 8^3 blocks along x whose obstacle spans the x=8 face.
GRID, CELLS = (2, 1, 1), (8, 8, 8)
OBSTACLE = ((6, 3, 3), (10, 5, 5))
BCS = [NoSlip(), UBB(velocity=(0.03, 0, 0)), PressureABB(rho_w=1.0)]
STEPS = 12


def _grid_forest(grid, cells, ranks):
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, cells
    )
    balance_forest(forest, ranks, strategy="round_robin")
    return forest


def _views_and_fluid(forest, **flags):
    """Every rank's view and every block's padded FLUID mask, with the
    flags the drivers build."""
    views = distribute(forest)
    fluid = {
        blk.id: build_block_flags(blk, **flags).mask(fl.FLUID, include_ghost=True)
        for view in views
        for blk in view.blocks
    }
    return views, fluid


def _channel_setter():
    return channel_with_obstacle(GRID, CELLS, *OBSTACLE)


def _channel_sim(mode="per-face", ranks=2):
    return DistributedSimulation(
        _grid_forest(GRID, CELLS, ranks), TRT.from_tau(0.7),
        flag_setter=_channel_setter(), boundaries=BCS, comm_mode=mode,
    )


def _channel_spmd(mode="per-face", faults=None):
    return run_spmd_simulation(
        VirtualMPI(2, faults=faults), _grid_forest(GRID, CELLS, 2),
        TRT.from_tau(0.7), STEPS, conditions=BCS,
        flag_setter=_channel_setter(), comm_mode=mode,
        retry_timeout=0.02, max_retries=25,
    )


class TestPruningRule:
    def test_face_keeps_only_pulls_into_fluid_interior(self):
        """Two all-fluid 4^3 blocks: of a face's 19 x 16 ghost values
        the 5 crossing directions remain, minus the pulls that leave the
        interior sideways — 16 + 4 x 12 = 64."""
        forest = _grid_forest((2, 1, 1), (4, 4, 4), 1)
        views, fluid = _views_and_fluid(forest)
        (view,) = views
        full = build_rank_plan(view, 0)
        pruned = build_rank_plan(view, 0, fluid)
        assert [len(c[1]) for c in full.local_copies] == [19 * 16] * 2
        assert [len(c[1]) for c in pruned.local_copies] == [64, 64]
        for (_, ghost, _, src), (_, fghost, _, fsrc) in zip(
            pruned.local_copies, full.local_copies
        ):
            assert np.isin(ghost, fghost).all() and np.isin(src, fsrc).all()

    def test_empty_sides_and_messages_dropped(self):
        """A wall across the whole face toward the other rank leaves
        nothing to pull there: no entry and no message remains."""

        def setter(blk, ff):
            if blk.grid_index[0] == 0:
                ff.data[-2:] = fl.NO_SLIP
            else:
                ff.data[:2] = fl.NO_SLIP

        forest = _grid_forest((2, 1, 1), (4, 4, 4), 2)
        views, fluid = _views_and_fluid(forest, flag_setter=setter)
        check_ghost_flags(views, fluid)
        for view in views:
            plan = build_rank_plan(view, view.rank, fluid)
            assert plan.sends == () and plan.recvs == ()
            assert build_rank_plan(view, view.rank).sends


class TestGhostFlagInvariant:
    """Ghost FLUID bits equal the neighbor's interior FLUID bits for the
    flags the drivers build."""

    @pytest.mark.parametrize("seed", range(10))
    def test_coronary_trees(self, seed):
        geom = CapsuleTreeGeometry(CoronaryTree.generate(generations=2, seed=seed))
        forest = SetupBlockForest.create(
            geom.aabb(), (3, 3, 3), (6, 6, 6), geometry=geom
        )
        balance_forest(forest, 2, strategy="round_robin")
        views, fluid = _views_and_fluid(forest, geometry=geom)
        assert any(blk.neighbors for v in views for blk in v.blocks)
        check_ghost_flags(views, fluid)

    def test_lid_driven_cavity(self):
        grid = (2, 2, 2)
        views, fluid = _views_and_fluid(
            _grid_forest(grid, (4, 4, 4), 4), flag_setter=lid_driven_cavity(grid)
        )
        check_ghost_flags(views, fluid)

    def test_channel_with_obstacle(self):
        # The obstacle crosses the x, y and z block faces.
        grid, cells = (2, 2, 2), (6, 6, 6)
        setter = channel_with_obstacle(grid, cells, (4, 4, 4), (8, 8, 8))
        views, fluid = _views_and_fluid(
            _grid_forest(grid, cells, 4), flag_setter=setter
        )
        check_ghost_flags(views, fluid)

    def test_inconsistent_flag_setter_rejected(self):
        """A wall cell marked in one block's interior only: the
        neighbor's ghost layer still says FLUID there."""

        def setter(blk, ff):
            if blk.grid_index[0] == 0:
                ff.interior[-1, 1, 1] = fl.NO_SLIP

        forest = _grid_forest((2, 1, 1), (4, 4, 4), 2)
        with pytest.raises(GhostFlagMismatchError) as exc:
            DistributedSimulation(
                forest, TRT.from_tau(0.7), flag_setter=setter, boundaries=[NoSlip()]
            )
        first, second = (str(b.id) for b in forest.blocks)
        assert first in str(exc.value) and second in str(exc.value)


class TestCopyParity:
    def test_block_swapped_out_of_step_raises(self):
        sim = _channel_sim(ranks=1)
        sim.run(1)
        next(iter(sim.fields.values())).swap()
        with pytest.raises(CommunicationError, match="parity"):
            sim.exchange.exchange()


def _fields(sim):
    return {k: f.src.copy() for k, f in sim.fields.items()}


def _assert_identical(got, want):
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), f"block {key} diverged"


@pytest.mark.skipif(compiled._find_compiler() is None, reason="no C compiler")
def test_no_compiler_fallback_is_bit_identical(monkeypatch, caplog, tmp_path):
    """Without a compiler every exchange phase runs per-segment NumPy
    copies over the same indices: the same bits, one log line."""
    want = {m: _fields(_channel_sim(m).run(STEPS)) for m in COMM_MODES}
    want_spmd = _channel_spmd()
    caplog.clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(compiled, "_LIBRARY", compiled._Library())
    monkeypatch.setattr(compiled, "_find_compiler", lambda: None)
    with caplog.at_level(logging.WARNING, logger=compiled.__name__):
        for mode in COMM_MODES:
            sim = _channel_sim(mode)
            assert sim.exchange._pack._fn is None
            _assert_identical(_fields(sim.run(STEPS)), want[mode])
        _assert_identical(_channel_spmd(), want_spmd)
    warnings = [r for r in caplog.records if r.name == compiled.__name__]
    assert len(warnings) == 1
    assert "NumPy ghost copies" in warnings[0].getMessage()


class TestPrunedExchangeUnderChaos:
    """SPMD runs of the face-spanning channel, whose pruned payloads
    hold far fewer values than the directions crossing a face, stay
    bit-identical to the in-process driver under fault schedules."""

    @pytest.fixture(scope="class")
    def want(self):
        sim = _channel_sim().run(STEPS)
        return {k: f.interior_view.copy() for k, f in sim.fields.items()}

    def test_fault_free(self, want):
        for mode in COMM_MODES:
            _assert_identical(_channel_spmd(mode), want)

    def test_delay_reorder_duplicate(self, want):
        spec = FaultSpec(p_delay=0.5, p_duplicate=0.2, max_hold=3)
        _assert_identical(
            _channel_spmd("coalesced", FaultInjector(spec, 4)), want
        )

    @pytest.mark.chaos
    @pytest.mark.parametrize("mode", COMM_MODES)
    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_schedules(self, want, mode, seed):
        spec = FaultSpec.sample(seed)
        _assert_identical(_channel_spmd(mode, FaultInjector(spec, seed)), want)
