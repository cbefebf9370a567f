"""The hybrid intra-rank sweep engine (:mod:`repro.exec`).

Four test families:

1. engine unit semantics — every task runs exactly once, claims +
   steals add up, errors propagate;
2. infrastructure regressions — TimingTree under concurrent workers,
   the bounded per-thread scratch LRU of the vectorized kernel;
3. determinism — bit-identical fields across workers=1/2/4 for the
   dense single-block slab regime, the multi-block distributed drivers
   in every comm mode, the sparse coronary geometry, and (chaos) the
   SPMD coalesced exchange under fault injection;
4. steady-state allocations — a threaded step allocates no field-sized
   temporary once the per-worker scratch is warm.
"""

import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import (
    DistributedSimulation,
    FaultInjector,
    FaultSpec,
    VirtualMPI,
    run_spmd_simulation,
)
from repro.core import Simulation
from repro.errors import ConfigurationError
from repro.exec import (
    EXEC_MODES,
    SerialEngine,
    SweepTask,
    ThreadedEngine,
    make_engine,
    slab_boxes,
    slabs_per_block,
)
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.lbm import NoSlip, PressureABB, TRT, UBB
from repro.lbm.kernels.vectorized import VectorizedD3Q19Kernel
from repro.perf.timing import TimingTree


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


class TestSlabPartition:
    def test_slabs_tile_box_exactly(self):
        box = ((0, 0, 0), (10, 4, 4))
        slabs = slab_boxes(box, 3)
        assert len(slabs) == 3
        # Contiguous along axis 0, exact cover, balanced within one cell.
        widths = [hi[0] - lo[0] for lo, hi in slabs]
        assert sum(widths) == 10
        assert max(widths) - min(widths) <= 1
        assert slabs[0][0] == (0, 0, 0) and slabs[-1][1] == (10, 4, 4)
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(slabs, slabs[1:]):
            assert hi_a[0] == lo_b[0]
            assert lo_a[1:] == lo_b[1:]

    def test_more_slabs_than_cells_clamps(self):
        slabs = slab_boxes(((2, 0, 0), (5, 3, 3)), 8)
        assert len(slabs) == 3  # one per cell along axis 0
        assert all(hi[0] - lo[0] == 1 for lo, hi in slabs)

    def test_single_slab_is_identity(self):
        box = ((1, 2, 3), (4, 5, 6))
        assert slab_boxes(box, 1) == [box]

    def test_bad_count_raises(self):
        with pytest.raises(ConfigurationError):
            slab_boxes(((0, 0, 0), (4, 4, 4)), 0)

    def test_slabs_per_block_rules(self):
        # Enough blocks: block-level scheduling, no splitting.
        assert slabs_per_block(8, 8, 4) == 1
        assert slabs_per_block(4, 4, 4) == 1
        # Single large block, 4 workers: 4 slabs.
        assert slabs_per_block(1, 1, 4) == 4
        # Two dense blocks, 4 workers: 2 slabs each.
        assert slabs_per_block(2, 2, 4) == 2
        # All-sparse rank (no dense blocks): never split.
        assert slabs_per_block(2, 0, 4) == 1
        with pytest.raises(ConfigurationError):
            slabs_per_block(1, 1, 0)


# ---------------------------------------------------------------------------
# engine semantics
# ---------------------------------------------------------------------------


def _counting_tasks(n, log, lock):
    def mk(i):
        def fn():
            with lock:
                log.append(i)

        return SweepTask(fn, cost=float(n - i), name=f"t{i}")

    return [mk(i) for i in range(n)]


@pytest.mark.parametrize("mode,workers", [("serial", 1), ("threads", 1),
                                          ("threads", 3)])
class TestEngineRunsEveryTaskOnce:
    def test_each_task_exactly_once(self, mode, workers):
        engine = make_engine(mode, workers)
        log, lock = [], threading.Lock()
        try:
            for _round in range(3):
                del log[:]
                engine.run(_counting_tasks(7, log, lock))
                assert sorted(log) == list(range(7))
        finally:
            engine.shutdown()
        assert engine.tasks_run == 21
        assert engine.claims + engine.steals == engine.tasks_run

    def test_empty_round_is_a_noop(self, mode, workers):
        engine = make_engine(mode, workers)
        try:
            engine.run([])
            engine.run([])
            assert engine.tasks_run == 0
        finally:
            engine.shutdown()


class TestEngineProtocol:
    def test_bad_mode_and_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            make_engine("processes")
        with pytest.raises(ConfigurationError):
            ThreadedEngine(0)
        assert EXEC_MODES == ("serial", "threads")

    def test_serial_is_inline_and_done(self):
        order = []
        engine = SerialEngine()
        engine.run([SweepTask(lambda: order.append(1))])
        assert order == [1]
        assert engine.claims == 1 and engine.steals == 0

    def test_error_propagates_on_wait(self):
        engine = ThreadedEngine(2)
        try:
            boom = SweepTask(lambda: (_ for _ in ()).throw(ValueError("boom")))
            ok = []
            with pytest.raises(ValueError, match="boom"):
                engine.run([boom, SweepTask(lambda: ok.append(1))])
            # The failing round still drained: the healthy task ran and
            # the engine accepts the next round.
            assert ok == [1]
            engine.run([SweepTask(lambda: ok.append(2))])
            assert ok == [1, 2]
        finally:
            engine.shutdown()

    def test_steals_occur_under_imbalance(self):
        """One heavy task pins a worker; its peers must steal the rest."""
        engine = ThreadedEngine(2)
        try:
            tasks = [SweepTask(lambda: time.sleep(0.05), cost=100.0)]
            tasks += [SweepTask(lambda: None, cost=1.0) for _ in range(40)]
            engine.run(tasks)
            assert engine.tasks_run == 41
            assert engine.claims + engine.steals == 41
        finally:
            engine.shutdown()

    def test_exec_counters_emitted_into_tree(self):
        tree = TimingTree()
        engine = make_engine("threads", 2, tree)
        try:
            with tree.scoped("sweep"):
                engine.run([SweepTask(lambda: None) for _ in range(4)])
        finally:
            engine.shutdown()
        assert tree.counter("exec.tasks") == 4
        assert tree.counter("exec.claims") + tree.counter("exec.steals") == 4
        assert tree.counter("exec.worker_busy_fraction") >= 0.0
        # Per-worker busy scopes filed under the dispatching sweep.
        sweep = tree.node("sweep")
        assert any(c.startswith("worker:") for c in sweep.children)

    def test_shutdown_idempotent_and_restartable_round(self):
        engine = ThreadedEngine(2)
        engine.run([SweepTask(lambda: None)])
        engine.shutdown()
        engine.shutdown()


# ---------------------------------------------------------------------------
# TimingTree concurrency regression (satellite 1)
# ---------------------------------------------------------------------------


class TestTimingTreeConcurrency:
    def test_concurrent_scopes_and_counters_stay_consistent(self):
        tree = TimingTree()
        n_threads, n_iter = 4, 200
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            barrier.wait()
            for _ in range(n_iter):
                with tree.scoped("sweep"):
                    with tree.scoped(f"tier:{tid % 2}"):
                        pass
                    tree.record("kernel", 1e-6)
                tree.add_counter("cells", 10)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * n_iter
        sweep = tree.node("sweep")
        assert sweep.stats.calls == total
        assert tree.node("sweep", "kernel").stats.calls == total
        assert (
            tree.node("sweep", "tier:0").stats.calls
            + tree.node("sweep", "tier:1").stats.calls
            == total
        )
        assert tree.counter("cells") == 10 * total
        # Each thread's stack unwound back to the root.
        assert tree.current is tree.root

    def test_at_anchors_worker_records_under_dispatching_sweep(self):
        tree = TimingTree()
        with tree.scoped("kernel sweep") as anchor:
            done = threading.Event()

            def worker():
                with tree.at(anchor):
                    tree.record("tier:vectorized", 0.001)
                done.set()

            t = threading.Thread(target=worker)
            t.start()
            done.wait(5.0)
            t.join()
        node = tree.node("kernel sweep", "tier:vectorized")
        assert node is not None and node.stats.calls == 1
        # The worker's stack never leaked into the main thread's.
        assert tree.current is tree.root


# ---------------------------------------------------------------------------
# bounded scratch LRU (satellite 3)
# ---------------------------------------------------------------------------


class TestScratchLRU:
    def test_eviction_beyond_bound(self):
        kern = VectorizedD3Q19Kernel((4, 4, 4), TRT.from_tau(0.65))
        bound = kern.scratch_cache_size
        shapes = [(i + 1, 2, 2) for i in range(bound + 3)]
        for s in shapes:
            kern._get_scratch(s)
        cached = kern.scratch_shapes()
        assert len(cached) == bound
        # Most recently used shapes survive, oldest were evicted.
        assert cached == tuple(shapes[-bound:])

    def test_hit_refreshes_lru_order_and_reuses_buffers(self):
        kern = VectorizedD3Q19Kernel((4, 4, 4), TRT.from_tau(0.65))
        a = kern._get_scratch((3, 3, 3))
        kern._get_scratch((5, 3, 3))
        b = kern._get_scratch((3, 3, 3))  # hit: same buffers, moved to MRU
        assert all(x is y for x, y in zip(a, b))
        assert kern.scratch_shapes()[-1] == (3, 3, 3)

    def test_per_thread_pools_are_disjoint(self):
        kern = VectorizedD3Q19Kernel((4, 4, 4), TRT.from_tau(0.65))
        main = kern._get_scratch((3, 3, 3))
        other = {}

        def worker():
            other["bufs"] = kern._get_scratch((3, 3, 3))
            other["shapes"] = kern.scratch_shapes()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert all(x is not y for x, y in zip(main, other["bufs"]))
        # The worker's pool holds only what the worker touched.
        assert other["shapes"] == ((3, 3, 3),)


# ---------------------------------------------------------------------------
# determinism: bit-identical across worker counts
# ---------------------------------------------------------------------------


def _cavity_sim(workers, cells=(12, 12, 12)):
    sim = Simulation(
        cells=cells,
        collision=TRT.from_tau(0.65),
        kernel="vectorized",
        exec_mode="threads" if workers > 1 else None,
        workers=workers,
    )
    sim.flags.fill(fl.FLUID)
    d = sim.flags.data
    d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, :, 0] = fl.NO_SLIP
    d[:, :, -1] = fl.VELOCITY_BC
    sim.add_boundary(NoSlip())
    sim.add_boundary(UBB(velocity=(0.05, 0.0, 0.0)))
    sim.finalize()
    return sim


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


def _dense_dist(mode, workers=1, **kw):
    return DistributedSimulation(
        _dense_forest(),
        TRT.from_tau(0.65),
        boundaries=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=_lid_setter((2, 2, 2)),
        comm_mode=mode,
        workers=workers,
        **kw,
    )


def _sparse_dist(workers=1, mode="per-face"):
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
        workers=workers,
    )


def _dist_fields(sim, steps=6):
    sim.run(steps)
    out = {k: f.src.copy() for k, f in sim.fields.items()}
    sim.close()
    return out


def _assert_fields_identical(a, b):
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), f"block {key} diverged"


class TestDeterminismDense:
    STEPS = 8

    @pytest.fixture(scope="class")
    def baseline(self):
        sim = _cavity_sim(1)
        sim.run(self.STEPS)
        ref = sim.pdfs.src.copy()
        sim.close()
        return ref

    @pytest.mark.parametrize("workers", [2, 4])
    def test_slab_split_single_block_bit_identical(self, workers, baseline):
        sim = _cavity_sim(workers)
        sim.run(self.STEPS)
        # The single large block really was slab-split.
        assert len(sim.stepper.kernel_tasks) == workers
        assert np.array_equal(sim.pdfs.src, baseline)
        sim.close()


class TestDeterminismDistributed:
    STEPS = 6

    @pytest.fixture(scope="class")
    def baseline(self):
        return _dist_fields(_dense_dist("per-face"), self.STEPS)

    @pytest.mark.parametrize("mode", ["per-face", "coalesced"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_all_comm_modes_match_serial(self, mode, workers, baseline):
        result = _dist_fields(_dense_dist(mode, workers=workers), self.STEPS)
        _assert_fields_identical(result, baseline)


class TestDeterminismSparse:
    STEPS = 5

    def test_coronary_bit_identical_across_workers(self):
        ref = _dist_fields(_sparse_dist(1), self.STEPS)
        par = _dist_fields(_sparse_dist(4), self.STEPS)
        _assert_fields_identical(ref, par)

    def test_coronary_coalesced_threads(self):
        ref = _dist_fields(_sparse_dist(1), self.STEPS)
        par = _dist_fields(_sparse_dist(4, mode="coalesced"), self.STEPS)
        _assert_fields_identical(ref, par)


# ---------------------------------------------------------------------------
# SPMD + chaos schedules (satellite 4)
# ---------------------------------------------------------------------------

SPMD_RANKS = 2
SPMD_STEPS = 8
SPMD_GRID = (2, 1, 1)
SPMD_CELLS = (4, 4, 4)


def _spmd_forest():
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in SPMD_GRID)),
        SPMD_GRID,
        SPMD_CELLS,
    )
    balance_forest(forest, SPMD_RANKS, strategy="morton")
    return forest


def _spmd_run(faults=None, **kw):
    world = VirtualMPI(SPMD_RANKS, faults=faults)
    return run_spmd_simulation(
        world,
        _spmd_forest(),
        TRT.from_tau(0.65),
        SPMD_STEPS,
        conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=_lid_setter(SPMD_GRID),
        retry_timeout=0.02,
        max_retries=25,
        **kw,
    )


class TestSpmdHybrid:
    @pytest.fixture(scope="class")
    def baseline(self):
        return _spmd_run()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_coalesced_threads_bit_identical(self, workers, baseline):
        result = _spmd_run(
            comm_mode="coalesced", exec_mode="threads", workers=workers
        )
        _assert_fields_identical(result, baseline)

    def test_chaos_smoke_coalesced_threads(self, baseline):
        """One sampled fault schedule in tier-1: delayed/duplicated
        messages under the coalesced exchange with a 4-thread pool still
        land on the bit-exact baseline."""
        spec = FaultSpec(p_delay=0.3, p_duplicate=0.1)
        result = _spmd_run(
            faults=FaultInjector(spec, 7),
            comm_mode="coalesced",
            exec_mode="threads",
            workers=4,
        )
        _assert_fields_identical(result, baseline)


@pytest.mark.chaos
class TestSpmdHybridChaosSweep:
    """Sampled fault schedules x the hybrid coalesced exchange."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _spmd_run()

    @pytest.mark.parametrize("seed", list(range(8)))
    def test_bit_identical_under_faults(self, seed, baseline):
        spec = FaultSpec.sample(seed)
        result = _spmd_run(
            faults=FaultInjector(spec, seed),
            comm_mode="coalesced",
            exec_mode="threads",
            workers=4,
        )
        _assert_fields_identical(result, baseline)


# ---------------------------------------------------------------------------
# steady-state allocations
# ---------------------------------------------------------------------------


class TestThreadedSteadyStateAllocations:
    def test_threaded_step_allocation_free_after_warmup(self):
        """Once each worker's scratch shapes are warm, a threaded step
        must not allocate a field-sized temporary."""
        sim = _cavity_sim(4, cells=(16, 16, 16))
        sim.run(3)  # warm-up: per-worker slab scratch allocated
        tracemalloc.start()
        try:
            sim.run(2)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sim.close()
        limit = 19 * 18 * 18 * 18 * 8  # one full padded PDF field
        assert peak < limit, f"threaded step allocated {peak} bytes"
