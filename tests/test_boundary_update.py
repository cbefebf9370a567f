"""Tests for the time-varying boundary API (pulsatile inflow) and for
file-format corruption robustness."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest, load_forest, save_forest
from repro.comm import DistributedSimulation
from repro.core import Simulation
from repro.errors import ConfigurationError, FileFormatError, PartitioningError
from repro.geometry import AABB
from repro.lbm import D3Q19, NoSlip, PressureABB, TRT, UBB
from repro.lbm.boundary import BoundaryHandling
from repro.scenarios import enclose_walls


def lid_sim():
    sim = Simulation(cells=(8, 8, 8), collision=TRT.from_tau(0.8))
    sim.flags.fill(fl.FLUID)
    enclose_walls(sim.flags)
    sim.flags.data[:, :, -1] = fl.VELOCITY_BC
    sim.add_boundary(NoSlip())
    lid = UBB(velocity=(0.05, 0.0, 0.0))
    sim.add_boundary(lid)
    sim.finalize()
    return sim, lid


class TestBoundaryUpdate:
    def test_flow_follows_updated_lid(self):
        sim, lid = lid_sim()
        sim.run(100)
        u1 = np.nanmean(sim.velocity()[:, :, -1, 0])
        sim.update_boundary(lid, UBB(velocity=(-0.05, 0.0, 0.0)))
        sim.run(200)
        u2 = np.nanmean(sim.velocity()[:, :, -1, 0])
        assert u1 > 0 > u2

    def test_flag_must_match(self):
        sim, lid = lid_sim()
        with pytest.raises(ConfigurationError):
            sim.update_boundary(lid, PressureABB(rho_w=1.0))

    def test_unknown_condition_rejected(self):
        sim, _ = lid_sim()
        with pytest.raises(ConfigurationError):
            sim.update_boundary(UBB(velocity=(9.0, 0.0, 0.0)), UBB(velocity=(1, 0, 0)))

    def test_before_finalize_rejected(self):
        sim = Simulation(cells=(4, 4, 4), collision=TRT.from_tau(0.8))
        with pytest.raises(ConfigurationError):
            sim.update_boundary(NoSlip(), NoSlip())

    def test_distributed_update(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (6, 6, 6)
        )
        balance_forest(forest, 2, strategy="round_robin")

        def lid(blk, ff):
            d = ff.data
            i = blk.grid_index[0]
            if i == 0:
                d[0] = fl.NO_SLIP
            if i == 1:
                d[-1] = fl.NO_SLIP
            d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
            d[:, :, 0] = fl.NO_SLIP
            d[:, :, -1] = fl.VELOCITY_BC

        lid_bc = UBB(velocity=(0.05, 0.0, 0.0))
        sim = DistributedSimulation(
            forest, TRT.from_tau(0.8), flag_setter=lid,
            boundaries=[NoSlip(), lid_bc],
        )
        sim.run(60)
        u1 = np.nanmean(sim.gather_velocity()[..., 0])
        sim.update_boundary(lid_bc, UBB(velocity=(-0.05, 0.0, 0.0)))
        sim.run(150)
        u2 = np.nanmean(sim.gather_velocity()[..., 0])
        assert u1 > 0 > u2

    def test_distributed_unknown_rejected(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        sim = DistributedSimulation(forest, TRT.from_tau(0.8))
        with pytest.raises(ConfigurationError):
            sim.update_boundary(UBB(velocity=(1, 0, 0)), UBB(velocity=(2, 0, 0)))


class TestReplaceCondition:
    """``BoundaryHandling.replace_condition`` refreshes the per-link
    values: the step right after an update writes the new wall PDFs on
    both drivers (a stale per-link cache would write the old ones)."""

    OLD = UBB(velocity=(0.05, 0.0, 0.0))
    NEW = UBB(velocity=(0.0, -0.03, 0.02))

    @staticmethod
    def _expected(flags, conditions, pre):
        """``pre`` after a fresh handler's boundary sweep."""
        out = pre.copy()
        BoundaryHandling(D3Q19, flags, conditions).apply(out)
        return out

    def test_simulation_next_step_writes_new_wall_pdfs(self):
        sim, lid = lid_sim()
        sim.run(3)
        pre = sim.pdfs.src.copy()
        sim.update_boundary(lid, self.NEW)
        sim.run(1)
        # The boundary sweep wrote into the grid that is now ``dst``.
        want = self._expected(sim.flags, [NoSlip(), self.NEW], pre)
        stale = self._expected(sim.flags, [NoSlip(), lid], pre)
        assert np.array_equal(sim.pdfs.dst, want)
        assert not np.array_equal(want, stale)

    def test_distributed_next_step_writes_new_wall_pdfs(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (5, 5, 5)
        )
        balance_forest(forest, 2, strategy="round_robin")

        def lid(blk, ff):
            d = ff.data
            d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
            d[:, :, 0] = fl.NO_SLIP
            d[:, :, -1] = fl.VELOCITY_BC

        sim = DistributedSimulation(
            forest, TRT.from_tau(0.8), flag_setter=lid,
            boundaries=[NoSlip(), self.OLD],
        )
        sim.run(3)
        sim.exchange.exchange()  # idempotent: the step repeats it
        pre = {k: f.src.copy() for k, f in sim.fields.items()}
        sim.update_boundary(self.OLD, self.NEW)
        assert all(
            rt.handler.conditions == (NoSlip(), self.NEW)
            for rt in sim.runtimes.values()
        )
        sim.run(1)
        for k, f in sim.fields.items():
            want = self._expected(sim.flags[k], [NoSlip(), self.NEW], pre[k])
            stale = self._expected(sim.flags[k], [NoSlip(), self.OLD], pre[k])
            assert np.array_equal(f.dst, want)
            assert not np.array_equal(want, stale)

    def test_conditions_cannot_be_assigned_in_place(self):
        sim, lid = lid_sim()
        with pytest.raises(TypeError):
            sim.stepper.runtimes[0].handler.conditions[1] = self.NEW

    def test_inactive_condition_reports_false(self):
        sim, _ = lid_sim()
        assert sim.stepper.runtimes[0].handler.replace_condition(self.NEW, self.OLD) is False
        with pytest.raises(ConfigurationError):
            sim.stepper.runtimes[0].handler.replace_condition(self.OLD, PressureABB(rho_w=1.0))
        with pytest.raises(ConfigurationError):
            sim.stepper.runtimes[0].handler.replace_condition(
                UBB(velocity=(0.05, 0.0, 0.0)), UBB(velocity=(0.1, 0.0))
            )


class TestFileFormatFuzz:
    @staticmethod
    def _forest_bytes():
        f = SetupBlockForest.create(AABB((0, 0, 0), (4, 2, 2)), (4, 2, 2), (8, 8, 8))
        f.assign([i % 4 for i in range(f.n_blocks)], 4)
        buf = io.BytesIO()
        save_forest(f, buf)
        return buf.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(5, 200))
    def test_truncation_never_crashes(self, cut):
        data = self._forest_bytes()
        truncated = data[: max(0, len(data) - cut)]
        with pytest.raises(FileFormatError):
            load_forest(truncated)

    @settings(max_examples=40, deadline=None)
    @given(pos=st.integers(0, 300), val=st.integers(0, 255))
    def test_bitflip_rejected_or_consistent(self, pos, val):
        """A corrupted file either fails cleanly (FileFormatError /
        PartitioningError from id validation) or parses into *some*
        forest — it must never raise an unexpected exception type."""
        data = bytearray(self._forest_bytes())
        pos = pos % len(data)
        data[pos] = val
        try:
            forest = load_forest(bytes(data))
        except (FileFormatError, PartitioningError, MemoryError, OverflowError):
            return
        except Exception as exc:  # noqa: BLE001
            # Geometry errors from corrupt domain boxes are acceptable too.
            from repro.errors import ReproError, GeometryError

            assert isinstance(exc, (ReproError, GeometryError)), exc
            return
        assert forest.n_blocks >= 0
