"""Tests for the reusable scenario builders and the non-blocking
virtual-MPI operations."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation, VirtualMPI
from repro.core import Simulation
from repro.core.flags import FlagField
from repro.errors import ConfigurationError
from repro.lbm import NoSlip, PressureABB, TRT, UBB
from repro.geometry import AABB
from repro.scenarios import channel_with_obstacle, enclose_walls, lid_driven_cavity


class _FakeBlock:
    def __init__(self, gi):
        self.grid_index = gi


class TestEncloseWalls:
    def test_all_faces(self):
        ff = FlagField((4, 4, 4))
        ff.fill(fl.FLUID)
        enclose_walls(ff)
        d = ff.data
        for axis in range(3):
            sl = [slice(None)] * 3
            sl[axis] = 0
            assert np.all(d[tuple(sl)] == fl.NO_SLIP)
            sl[axis] = -1
            assert np.all(d[tuple(sl)] == fl.NO_SLIP)

    def test_selected_faces(self):
        ff = FlagField((4, 4, 4))
        ff.fill(fl.FLUID)
        enclose_walls(ff, faces=["-z"])
        assert np.all(ff.data[:, :, 0] == fl.NO_SLIP)
        assert np.all(ff.data[:, :, -1] == fl.OUTSIDE)  # untouched ghost

    def test_bad_face_rejected(self):
        ff = FlagField((4, 4, 4))
        with pytest.raises(ConfigurationError):
            enclose_walls(ff, faces=["+w"])


class TestLidDrivenCavity:
    def test_single_block(self):
        setter = lid_driven_cavity((1, 1, 1), lid_face="+z")
        ff = FlagField((4, 4, 4))
        ff.fill(fl.FLUID)
        setter(_FakeBlock((0, 0, 0)), ff)
        assert np.all(ff.data[:, :, -1] == fl.VELOCITY_BC)
        assert np.all(ff.data[:, :, 0] == fl.NO_SLIP)
        # Side walls are no-slip except the edge shared with the lid
        # (the lid takes precedence there, applied last).
        assert np.all(ff.data[0, :, :-1] == fl.NO_SLIP)
        assert np.all(ff.data[0, :, -1] == fl.VELOCITY_BC)

    def test_interior_block_untouched(self):
        setter = lid_driven_cavity((3, 3, 3))
        ff = FlagField((4, 4, 4))
        ff.fill(fl.FLUID)
        setter(_FakeBlock((1, 1, 1)), ff)
        assert ff.count(fl.NO_SLIP, include_ghost=True) == 0

    def test_matches_manual_setup(self):
        # The scenario-built distributed cavity equals the manual one.
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 2, 2)), (2, 2, 2), (4, 4, 4)
        )
        balance_forest(forest, 4, strategy="round_robin")
        bcs = [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]
        sim = DistributedSimulation(
            forest, TRT.from_tau(0.8),
            flag_setter=lid_driven_cavity((2, 2, 2)), boundaries=bcs,
        )
        sim.run(20)
        ref = Simulation(cells=(8, 8, 8), collision=TRT.from_tau(0.8))
        ref.flags.fill(fl.FLUID)
        enclose_walls(ref.flags)
        ref.flags.data[:, :, -1] = fl.VELOCITY_BC
        for bc in bcs:
            ref.add_boundary(bc)
        ref.finalize()
        ref.run(20)
        assert np.nanmax(np.abs(ref.velocity() - sim.gather_velocity())) == 0.0


class TestChannelWithObstacle:
    def test_flags_assigned(self):
        setter = channel_with_obstacle(
            (2, 1, 1), (8, 8, 8), (6, 3, 3), (10, 5, 5)
        )
        # First block carries the inflow face and part of the obstacle.
        ff = FlagField((8, 8, 8))
        ff.fill(fl.FLUID)
        setter(_FakeBlock((0, 0, 0)), ff)
        assert np.any(ff.data[0] == fl.VELOCITY_BC)
        assert np.any(ff.interior == fl.NO_SLIP)
        # Second block carries the outflow and the rest of the obstacle.
        ff2 = FlagField((8, 8, 8))
        ff2.fill(fl.FLUID)
        setter(_FakeBlock((1, 0, 0)), ff2)
        assert np.any(ff2.data[-1] == fl.PRESSURE_BC)
        assert np.any(ff2.interior == fl.NO_SLIP)
        # Obstacle cells split consistently across the two blocks.
        n_obs = int((ff.interior == fl.NO_SLIP).sum()) + int(
            (ff2.interior == fl.NO_SLIP).sum()
        )
        assert n_obs == 4 * 2 * 2

    def test_runs_stably(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (8, 8, 8)
        )
        balance_forest(forest, 2, strategy="round_robin")
        sim = DistributedSimulation(
            forest,
            TRT.from_tau(0.7),
            flag_setter=channel_with_obstacle(
                (2, 1, 1), (8, 8, 8), (6, 3, 3), (10, 5, 5)
            ),
            boundaries=[
                NoSlip(), UBB(velocity=(0.03, 0, 0)), PressureABB(rho_w=1.0)
            ],
        )
        sim.run(60, check_every=20)
        u = sim.gather_velocity()
        assert np.nanmean(u[..., 0]) > 0  # net downstream flow

    def test_face_spanning_obstacle_matches_single_block(self):
        # The obstacle crosses the x=8 block face: fluid cells diagonal
        # to it pull from the neighbor's obstacle cells through the
        # ghost layer, which must therefore be flagged as wall too.
        bcs = [NoSlip(), UBB(velocity=(0.03, 0, 0)), PressureABB(rho_w=1.0)]
        lo, hi = (6, 3, 3), (10, 5, 5)
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (8, 8, 8)
        )
        balance_forest(forest, 2, strategy="round_robin")
        sim = DistributedSimulation(
            forest, TRT.from_tau(0.7),
            flag_setter=channel_with_obstacle((2, 1, 1), (8, 8, 8), lo, hi),
            boundaries=bcs,
        )
        sim.run(20)
        ref = Simulation(cells=(16, 8, 8), collision=TRT.from_tau(0.7))
        ref.flags.fill(fl.FLUID)
        channel_with_obstacle((1, 1, 1), (16, 8, 8), lo, hi)(
            _FakeBlock((0, 0, 0)), ref.flags
        )
        for bc in bcs:
            ref.add_boundary(bc)
        ref.finalize()
        ref.run(20)
        assert np.nanmax(np.abs(ref.velocity() - sim.gather_velocity())) == 0.0
        assert np.nanmax(np.abs(ref.density() - sim.gather_density())) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            channel_with_obstacle((2, 1, 1), (8, 8, 8), (5, 5, 5), (5, 6, 6))
        with pytest.raises(ConfigurationError):
            channel_with_obstacle((2, 1, 1), (8, 8, 8), (0, 0, 0), (99, 1, 1))


class TestNonBlockingVmpi:
    def test_isend_irecv(self):
        world = VirtualMPI(2, timeout=10)

        def program(comm):
            if comm.rank == 0:
                comm.isend("payload", dest=1, tag=9).wait()
                return None
            req = comm.irecv(source=0, tag=9)
            return req.wait()

        assert world.run(program)[1] == "payload"

    def test_iprobe(self):
        world = VirtualMPI(2, timeout=10)

        def program(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=5)
                comm.barrier()
                return None
            comm.barrier()  # after this, the message must be waiting
            probed = comm.iprobe(source=0, tag=5)
            not_there = comm.iprobe(source=0, tag=6)
            comm.recv(source=0, tag=5)
            return (probed, not_there)

        assert world.run(program)[1] == (True, False)

    def test_request_idempotent_wait(self):
        world = VirtualMPI(2, timeout=10)

        def program(comm):
            if comm.rank == 0:
                comm.send(42, dest=1)
                return None
            req = comm.irecv(source=0)
            return (req.wait(), req.wait(), req.test())

        v1, v2, (done, v3) = world.run(program)[1]
        assert v1 == v2 == v3 == 42
        assert done
