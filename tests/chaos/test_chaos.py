"""Chaos-test harness: the SPMD cavity under deterministic fault
injection must be *bit-identical* to the fault-free run.

The headline property (the issue's deliverable): for >= 20 sampled
delay/reorder/duplicate schedules the resilient protocol of
:class:`repro.comm.ReliableComm` absorbs every fault and the final PDF
fields match the baseline exactly (``np.array_equal``, no tolerance).
A second family of tests crashes a rank mid-run and proves the
checkpoint-restart path recovers to the very same state.

The full 20-seed sweep is marked ``chaos`` (run it with
``pytest -m chaos``); a 3-seed smoke subset stays in tier-1 so every CI
run exercises the machinery.
"""

import os

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import (
    FaultInjector,
    FaultSpec,
    VirtualMPI,
    run_spmd_simulation,
)
from repro.errors import RankCrashedError
from repro.geometry import AABB
from repro.lbm import NoSlip, TRT, UBB
from repro.perf.timing import TimingTree, reduce_trees

RANKS = 2
STEPS = 12
CELLS = (4, 4, 4)
GRID = (2, 1, 1)

# Tight retry timings keep the fault sweep fast: the injector holds
# messages for at most a barrier interval, so short timeouts just mean
# more (successfully absorbed) retransmission rounds.
RESILIENCE = dict(retry_timeout=0.02, max_retries=25)


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


def _forest():
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in GRID)), GRID, CELLS
    )
    balance_forest(forest, RANKS, strategy="morton")
    return forest


def _run(faults=None, trees=None, **kw):
    world = VirtualMPI(RANKS, faults=faults)
    return run_spmd_simulation(
        world,
        _forest(),
        TRT.from_tau(0.65),
        kw.pop("steps", STEPS),
        conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=_lid_setter(GRID),
        timing_trees=trees,
        **RESILIENCE,
        **kw,
    )


@pytest.fixture(scope="module")
def baseline():
    """Fault-free SPMD cavity result (the ground truth)."""
    return _run()


def _assert_identical(result, baseline):
    assert set(result) == set(baseline)
    for k in baseline:
        assert np.array_equal(result[k], baseline[k]), f"block {k} diverged"


class TestFaultSchedulesSmoke:
    """Fast tier-1 subset: a few sampled schedules, always run."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_bit_identical_under_faults(self, seed, baseline):
        spec = FaultSpec.sample(seed)
        result = _run(faults=FaultInjector(spec, seed))
        _assert_identical(result, baseline)

    def test_schedule_is_deterministic(self, baseline):
        """Two runs with the same seed inject the same faults."""
        spec = FaultSpec.sample(3)
        inj_a, inj_b = FaultInjector(spec, 3), FaultInjector(spec, 3)
        res_a = _run(faults=inj_a)
        res_b = _run(faults=inj_b)
        _assert_identical(res_a, baseline)
        _assert_identical(res_b, baseline)
        assert inj_a.counters == inj_b.counters
        assert any(v > 0 for v in inj_a.counters.values())


@pytest.mark.chaos
class TestFaultScheduleSweep:
    """The full >= 20 sampled schedules of the issue's deliverable."""

    @pytest.mark.parametrize("seed", list(range(20)))
    def test_bit_identical_under_faults(self, seed, baseline):
        spec = FaultSpec.sample(seed)
        result = _run(faults=FaultInjector(spec, seed))
        _assert_identical(result, baseline)


class TestCrashRecovery:
    """Crash a rank mid-run, restart from the last checkpoint, and
    reach the exact same final state as an uninterrupted run."""

    def test_crash_then_restart_matches_baseline(self, baseline, tmp_path):
        every, crash_step = 5, 8
        ckpt = str(tmp_path / "chaos.npz")
        spec = FaultSpec.sample(11).with_crash(rank=RANKS - 1, step=crash_step)
        with pytest.raises(RankCrashedError):
            _run(
                faults=FaultInjector(spec, 11),
                checkpoint_every=every,
                checkpoint_path=ckpt,
            )
        assert os.path.exists(ckpt)
        # Checkpoint holds the state after step 5 (last multiple of
        # ``every`` completed before the crash at step 8).
        from repro.io.checkpoint import read_state

        _, step, _ = read_state(ckpt)
        assert step == 5
        recovered = _run(restore_from=ckpt)
        _assert_identical(recovered, baseline)
        assert not os.path.exists(ckpt + ".tmp")

    def test_crash_without_faults_elsewhere(self, baseline, tmp_path):
        """A pure crash (no message faults) also recovers exactly."""
        ckpt = str(tmp_path / "crash.npz")
        spec = FaultSpec().with_crash(rank=0, step=9)
        with pytest.raises(RankCrashedError):
            _run(
                faults=FaultInjector(spec, 0),
                checkpoint_every=4,
                checkpoint_path=ckpt,
            )
        recovered = _run(restore_from=ckpt)
        _assert_identical(recovered, baseline)


class TestCommModesUnderChaos:
    """The bulk-coalesced buffer system and the arrival-order receive
    drain must absorb delay/reorder schedules exactly like the per-face
    path: same final bits, for every ``comm_mode``."""

    @pytest.mark.parametrize("mode", ["per-face", "coalesced"])
    @pytest.mark.parametrize("seed", [2, 9])
    def test_delay_reorder_bit_identical(self, mode, seed, baseline):
        # Delays with max_hold > 1 reorder message arrival across
        # channels — the schedule the fixed-plan-order drain used to
        # serialize on (head-of-line blocking) and the arrival-order
        # drain absorbs.
        spec = FaultSpec(p_delay=0.5, p_duplicate=0.2, max_hold=3)
        result = _run(faults=FaultInjector(spec, seed), comm_mode=mode)
        _assert_identical(result, baseline)

    def test_coalesced_under_delay(self, baseline):
        spec = FaultSpec(p_delay=0.4, max_hold=2)
        result = _run(faults=FaultInjector(spec, 13), comm_mode="coalesced")
        _assert_identical(result, baseline)

    @pytest.mark.chaos
    @pytest.mark.parametrize("mode", ["coalesced"])
    @pytest.mark.parametrize("seed", list(range(8)))
    def test_sampled_schedules(self, mode, seed, baseline):
        spec = FaultSpec.sample(seed)
        result = _run(faults=FaultInjector(spec, seed), comm_mode=mode)
        _assert_identical(result, baseline)


class TestRecoveryObservability:
    """Fault handling must be visible in the timing-tree counters."""

    def test_counters_record_recovery_work(self, baseline):
        spec = FaultSpec(p_delay=0.3, p_drop=0.15, p_duplicate=0.3, max_hold=3)
        injector = FaultInjector(spec, 5)
        trees = [TimingTree() for _ in range(RANKS)]
        result = _run(faults=injector, trees=trees)
        _assert_identical(result, baseline)
        reduced = reduce_trees(trees)
        c = reduced.counters
        assert c.get("comm.seq_messages", 0) > 0
        # Drops force ledger retransmissions; duplicates are dropped at
        # the receiver.  Both observable.
        assert c.get("comm.retransmits", 0) > 0
        assert c.get("comm.duplicates_dropped", 0) > 0
        assert injector.counters["faults.dropped"] > 0

    def test_injector_report_mentions_all_fault_kinds(self):
        spec = FaultSpec(p_delay=0.4, p_drop=0.2, p_duplicate=0.4, max_hold=2)
        injector = FaultInjector(spec, 2)
        _run(faults=injector)
        rep = injector.report()
        for key in ("delayed", "dropped", "duplicated"):
            assert key in rep
