"""Bulk-coalesced ghost exchange: plan layout, one-message-per-rank-pair
counting, bit-identity across every ``comm_mode`` (dense and sparse,
single- and multi-threaded, direct-copy and SPMD), steady-state
allocation freedom, and the rejection of the removed ``overlap`` mode."""

import tracemalloc

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest, view_for_rank
from repro.comm import (
    BULK_TAG,
    COMM_MODES,
    BufferSystem,
    CoalescedGhostExchange,
    DistributedSimulation,
    FaultInjector,
    FaultSpec,
    VirtualMPI,
    build_rank_plan,
    coalesce_plan,
    run_spmd_simulation,
)
from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.lbm import NoSlip, PressureABB, TRT, UBB
from repro.perf.timing import TimingTree, reduce_trees


def _lid_setter(grid):
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


def _dense_forest(grid=(2, 2, 2), cells=(5, 5, 5), ranks=4):
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, cells
    )
    balance_forest(forest, ranks, strategy="morton")
    return forest


def _dense_sim(mode, workers=1, grid=(2, 2, 2), cells=(5, 5, 5), ranks=4):
    return DistributedSimulation(
        _dense_forest(grid, cells, ranks),
        TRT.from_tau(0.65),
        boundaries=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=_lid_setter(grid),
        comm_mode=mode,
        workers=workers,
    )


def _sparse_sim(mode):
    tree = CoronaryTree.generate(generations=3, seed=4)
    geom = CapsuleTreeGeometry(tree)
    forest = SetupBlockForest.create(
        geom.aabb(), (3, 3, 3), (8, 8, 8), geometry=geom
    )
    balance_forest(forest, 4, strategy="metis")
    return DistributedSimulation(
        forest,
        TRT.from_tau(0.8),
        geometry=geom,
        boundaries=[
            NoSlip(),
            UBB(velocity=(0.0, 0.0, 0.01)),
            PressureABB(rho_w=1.0),
        ],
        comm_mode=mode,
    )


def _fields_identical(a, b):
    assert set(a.fields) == set(b.fields)
    for key in a.fields:
        assert np.array_equal(
            a.fields[key].src, b.fields[key].src
        ), f"block {key} diverged"


class TestCoalescedPlan:
    def test_one_message_per_peer_and_tag_sorted_segments(self):
        forest = _dense_forest()
        view = view_for_rank(forest, 0)
        sim = _dense_sim("per-face")  # fields for sizing only
        fields = {
            bid: sim.fields[bid]
            for bid in sim.fields
            if sim.block_rank[bid] == 0
        }
        plan = coalesce_plan(build_rank_plan(view, 0), fields)
        peers = [m.peer for m in plan.sends]
        assert peers == sorted(set(peers)), "one message per peer, sorted"
        assert plan.messages_per_step == len(peers)
        for msg in plan.sends + plan.recvs:
            tags = [seg.tag for seg in msg.segments]
            assert tags == sorted(tags)
            # Segments tile the buffer exactly: no gaps, no overlap.
            pos = 0
            for seg in msg.segments:
                assert seg.start == pos
                assert seg.stop - seg.start == len(seg.index)
                pos = seg.stop
            assert pos == msg.elements
            assert msg.nbytes == msg.elements * 8

    def test_per_face_grouping_is_one_segment_per_message(self):
        forest = _dense_forest()
        sim = _dense_sim("per-face")
        fields = {
            bid: sim.fields[bid]
            for bid in sim.fields
            if sim.block_rank[bid] == 0
        }
        rank_plan = build_rank_plan(view_for_rank(forest, 0), 0)
        plan = coalesce_plan(rank_plan, fields, per_face=True)
        assert plan.messages_per_step == len(rank_plan.sends)
        for msg in plan.sends + plan.recvs:
            (seg,) = msg.segments
            assert msg.tag == seg.tag >= 0
            assert (seg.start, seg.stop) == (0, msg.elements)
        keys = [(m.peer, m.tag) for m in plan.sends]
        assert keys == sorted(set(keys))

    def test_send_recv_layouts_mirror_across_ranks(self):
        forest = _dense_forest()
        sim = _dense_sim("per-face")
        plans = {}
        for rank in range(4):
            view = view_for_rank(forest, rank)
            fields = {
                bid: sim.fields[bid]
                for bid in sim.fields
                if sim.block_rank[bid] == rank
            }
            plans[rank] = coalesce_plan(build_rank_plan(view, rank), fields)
        for rank, plan in plans.items():
            for msg in plan.sends:
                twin = next(
                    m for m in plans[msg.peer].recvs if m.peer == rank
                )
                assert twin.elements == msg.elements
                assert [s.tag for s in twin.segments] == [
                    s.tag for s in msg.segments
                ]

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            _dense_sim("bulk")


class TestBitIdentityAcrossModes:
    STEPS = 12

    @pytest.fixture(scope="class")
    def dense_ref(self):
        return _dense_sim("per-face").run(self.STEPS)

    @pytest.fixture(scope="class")
    def sparse_ref(self):
        return _sparse_sim("per-face").run(self.STEPS)

    @pytest.mark.parametrize("mode", ["coalesced"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dense_multiblock(self, mode, workers, dense_ref):
        sim = _dense_sim(mode, workers=workers).run(self.STEPS)
        _fields_identical(sim, dense_ref)

    @pytest.mark.parametrize("mode", ["coalesced"])
    def test_sparse_coronary(self, mode, sparse_ref):
        sim = _sparse_sim(mode).run(self.STEPS)
        _fields_identical(sim, sparse_ref)

    def test_exactly_one_message_per_rank_pair_per_step(self):
        sim = _dense_sim("coalesced")
        pairs = sim.exchange.messages_per_step
        steps = 7
        sim.run(steps)
        counted = sim.timeloop.tree.counters["comm.remote_messages"]
        assert counted == pairs * steps
        # 2x2x2 grid on 4 ranks: every ordered rank pair with shared
        # faces/edges sends exactly one message per step, never one per
        # (block, face) — per-face would send many more.
        per_face = _dense_sim("per-face")
        per_face.run(1)
        assert per_face.comm_stats.remote_messages > pairs

    def test_overlap_mode_rejected(self, capsys):
        """``overlap`` was removed: both drivers and the CLI refuse it."""
        with pytest.raises(ConfigurationError, match="comm_mode"):
            _dense_sim("overlap")
        with pytest.raises(ConfigurationError, match="comm_mode"):
            run_spmd_simulation(
                VirtualMPI(4), _dense_forest(), TRT.from_tau(0.65), 1,
                comm_mode="overlap",
            )
        with pytest.raises(SystemExit) as exc:
            main(["coronary", "--comm-mode", "overlap"])
        assert exc.value.code == 2
        assert "invalid choice: 'overlap'" in capsys.readouterr().err


def _walls(grid, periodic):
    """Flag setter: no-slip walls on the outer layers of every
    non-periodic axis."""

    def setter(blk, ff):
        for axis, (n, wrap) in enumerate(zip(grid, periodic)):
            lead = (slice(None),) * axis
            if not wrap and blk.grid_index[axis] == 0:
                ff.data[lead + (0,)] = fl.NO_SLIP
            if not wrap and blk.grid_index[axis] == n - 1:
                ff.data[lead + (-1,)] = fl.NO_SLIP

    return setter


class TestPeriodicAcrossModes:
    """Periodic wrap (built by ``view_for_rank``) on a 2x1x1 grid: the
    same state bit for bit in every ``comm_mode`` on 1 and 2 ranks."""

    GRID = (2, 1, 1)
    STEPS = 10

    def _run(self, periodic, mode, ranks):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2.0, 1.0, 1.0)), self.GRID, (4, 4, 4)
        )
        balance_forest(forest, ranks, strategy="round_robin")
        sim = DistributedSimulation(
            forest,
            TRT.from_tau(0.7),
            boundaries=[NoSlip()],
            flag_setter=_walls(self.GRID, periodic),
            periodic=periodic,
            comm_mode=mode,
        )
        for key, blk in sim.blocks.items():
            field = sim.fields[key]
            field.set_equilibrium(rho=1.0, u=(0.03, 0.01, -0.02))
            rng = np.random.default_rng(blk.grid_index[0])
            field.src[...] *= 1.0 + 1e-3 * rng.random(field.src.shape)
        mass = sim.total_mass()
        sim.run(self.STEPS)
        assert np.isclose(sim.total_mass(), mass, rtol=1e-12)
        return sim

    @pytest.mark.parametrize(
        "periodic",
        [
            # y and z have extent 1: each block is its own neighbor.
            (False, True, True),
            # x has extent 2: the other block is both the -x and +x
            # neighbor.
            (True, False, False),
        ],
        ids=["own-neighbor", "both-sides"],
    )
    def test_bit_identical_across_modes_and_ranks(self, periodic):
        ref = self._run(periodic, "per-face", 1)
        for mode in COMM_MODES:
            for ranks in (1, 2):
                _fields_identical(self._run(periodic, mode, ranks), ref)


class TestSteadyStateAllocations:
    @pytest.mark.parametrize("mode", COMM_MODES)
    def test_comm_path_allocation_free_after_warmup(self, mode):
        """After warm-up, one exchange must not allocate any field-sized
        temporary (the persistent-buffer contract), in either mode."""
        sim = _dense_sim(mode)
        sim.run(3)  # warm-up: scratch caches and buffers filled
        exchange = sim.exchange
        # A full ghost layer of the 5^3 block is 19 * 5 * 5 floats; set
        # the bar well below one face payload.
        limit = 19 * 5 * 5 * 8 // 2
        tracemalloc.start()
        try:
            for _ in range(3):
                exchange.exchange()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, f"comm path allocated {peak} bytes"

    def test_vectorized_kernel_allocation_free_after_warmup(self):
        sim = _dense_sim("coalesced")
        sim.run(3)  # warm-up allocates per-shape scratch
        tracemalloc.start()
        try:
            sim.run(2)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The full step includes timing bookkeeping; stay below one full
        # PDF field so any full-field temporary is caught.
        limit = 19 * 7 * 7 * 7 * 8
        assert peak < limit, f"step allocated {peak} bytes"


class TestSpmdBufferSystem:
    GRID = (2, 2, 1)
    CELLS = (4, 4, 4)
    RANKS = 4
    STEPS = 10

    def _forest(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), tuple(float(g) for g in self.GRID)),
            self.GRID,
            self.CELLS,
        )
        balance_forest(forest, self.RANKS, strategy="morton")
        return forest

    def _run(self, mode, faults=None, trees=None, resilient=True):
        return run_spmd_simulation(
            VirtualMPI(self.RANKS, faults=faults),
            self._forest(),
            TRT.from_tau(0.65),
            self.STEPS,
            conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
            flag_setter=_lid_setter(self.GRID),
            timing_trees=trees,
            resilient=resilient,
            retry_timeout=0.02,
            max_retries=25,
            comm_mode=mode,
        )

    @pytest.fixture(scope="class")
    def baseline(self):
        return self._run("per-face")

    @pytest.mark.parametrize("mode", ["coalesced"])
    @pytest.mark.parametrize("resilient", [True, False])
    def test_bit_identical(self, mode, resilient, baseline):
        out = self._run(mode, resilient=resilient)
        assert set(out) == set(baseline)
        for k in baseline:
            assert np.array_equal(out[k], baseline[k])

    def test_multi_peer_arrival_order_under_delay(self, baseline):
        """Four ranks with 2-3 peers each: the bulk drain must consume
        whichever peer's message lands first (probe_any path) and still
        produce the exact baseline bits under reordering delays."""
        spec = FaultSpec(p_delay=0.5, max_hold=3)
        out = self._run("coalesced", faults=FaultInjector(spec, 17))
        for k in baseline:
            assert np.array_equal(out[k], baseline[k])

    def test_one_bulk_message_per_peer_counted(self):
        trees = [TimingTree() for _ in range(self.RANKS)]
        self._run("coalesced", trees=trees)
        forest = self._forest()
        expected = 0
        for rank in range(self.RANKS):
            view = view_for_rank(forest, rank)
            expected += len(view.neighbor_ranks())
        reduced = reduce_trees(trees)
        assert (
            reduced.counters["comm.remote_messages"]
            == expected * self.STEPS
        )

    def test_coalesced_bytes_reported(self):
        trees = [TimingTree() for _ in range(self.RANKS)]
        self._run("coalesced", trees=trees)
        reduced = reduce_trees(trees)
        assert reduced.counters["comm.remote_bytes"] > 0
        # The per-rank step keeps the same sweep scopes as in-process.
        for sweep in ("communication", "boundary", "kernel", "swap", "sync"):
            assert reduced.node(sweep) is not None

    def test_bulk_tag_never_collides_with_per_face_tags(self):
        assert BULK_TAG < 0


class TestCommModesExported:
    def test_modes_tuple(self):
        assert COMM_MODES == ("per-face", "coalesced")
        assert BufferSystem is not None
        assert CoalescedGhostExchange is not None
