"""Boundary condition tests: link construction and physical behaviour."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core import Simulation
from repro.core.flags import FlagField
from repro.errors import ConfigurationError
from repro.lbm.boundary import BoundaryHandling, NoSlip, PressureABB, UBB
from repro.lbm.collision import SRT, TRT
from repro.lbm.equilibrium import equilibrium
from repro.lbm.kernels import make_kernel
from repro.lbm.lattice import D3Q19

from helpers import interior


def make_channel_flags(cells):
    """Fluid interior, no-slip walls in the ghost layer on y and z faces."""
    ff = FlagField(cells)
    ff.fill(fl.FLUID)
    d = ff.data
    d[:, 0, :] = fl.NO_SLIP
    d[:, -1, :] = fl.NO_SLIP
    d[:, :, 0] = fl.NO_SLIP
    d[:, :, -1] = fl.NO_SLIP
    return ff


class TestLinkConstruction:
    def test_single_fluid_cell_fully_enclosed(self):
        ff = FlagField((1, 1, 1))
        ff.fill(fl.FLUID)
        ff.data[ff.data == 0] = fl.NO_SLIP
        bh = BoundaryHandling(D3Q19, ff, [NoSlip()])
        # Every non-rest direction has exactly one wall link.
        assert bh.link_count == 18

    def test_no_walls_no_links(self):
        ff = FlagField((3, 3, 3))
        ff.fill(fl.FLUID)
        bh = BoundaryHandling(D3Q19, ff, [NoSlip()])
        assert bh.link_count == 0

    def test_links_pull_only_from_interior_fluid(self):
        # Two dense blocks (FLUID ghost layers) with a wall layer that
        # touches their shared face: a wall cell beside the face must not
        # link to the neighbour's fluid mirrored in the ghost layer, since
        # only interior cells are updated and pull the linked values.
        from repro.balance import balance_forest
        from repro.blocks import SetupBlockForest
        from repro.comm import DistributedSimulation
        from repro.geometry import AABB

        def wall(blk, ff):
            ff.data[:, :, 1] = fl.NO_SLIP

        cells = (4, 4, 4)
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), cells
        )
        balance_forest(forest, 2, strategy="round_robin")
        sim = DistributedSimulation(forest, SRT(0.8), flag_setter=wall)
        padded = tuple(c + 2 for c in cells)
        for rt in sim.runtimes.values():
            assert rt.handler.link_count > 0
            for links in rt.handler._links:
                coords = np.unravel_index(links.fluid % np.prod(padded), padded)
                for axis, c in enumerate(coords):
                    assert c.min() >= 1 and c.max() <= cells[axis]
        sim.close()

    def test_duplicate_flag_rejected(self):
        ff = FlagField((2, 2, 2))
        ff.fill(fl.FLUID)
        with pytest.raises(ConfigurationError):
            BoundaryHandling(D3Q19, ff, [NoSlip(), NoSlip()])


class TestNoSlip:
    def test_reflection_reverses_pulse(self):
        # One fluid cell enclosed in walls: after boundary apply + kernel
        # step, an outgoing population returns reversed.
        cells = (1, 1, 1)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        ff.data[ff.data == 0] = fl.NO_SLIP
        bh = BoundaryHandling(D3Q19, ff, [NoSlip()])
        src = np.zeros((19, 3, 3, 3))
        shape = src.shape[1:]
        src[...] = equilibrium(
            D3Q19, np.ones(shape), np.zeros(shape + (3,))
        )
        a = D3Q19.direction_index(1, 0, 0)
        abar = int(D3Q19.inverse[a])
        src[a, 1, 1, 1] += 0.1  # extra outgoing momentum in +x
        dst = np.zeros_like(src)
        bh.apply(src)
        make_kernel("d3q19", D3Q19, SRT(tau=1e9), (1, 1, 1))(src, dst)
        # The extra mass pulled from the +x wall went into direction -x.
        assert dst[abar, 1, 1, 1] > src[abar, 1, 1, 1] + 0.05

    def test_mass_conserved_in_closed_box(self):
        cells = (4, 4, 4)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        ff.data[ff.data == 0] = fl.NO_SLIP
        bh = BoundaryHandling(D3Q19, ff, [NoSlip()])
        rng = np.random.default_rng(3)
        src = np.zeros((19, 6, 6, 6))
        shape = src.shape[1:]
        u0 = 0.05 * (rng.random(shape + (3,)) - 0.5)
        src[...] = equilibrium(D3Q19, np.ones(shape), u0)
        dst = np.zeros_like(src)
        kern = make_kernel("vectorized", D3Q19, TRT.from_tau(0.8), cells)
        mask = ff.fluid_mask()
        m0 = interior(src)[:, mask].sum()
        for _ in range(20):
            bh.apply(src)
            kern(src, dst)
            src, dst = dst, src
        m1 = interior(src)[:, mask].sum()
        assert np.isclose(m1, m0, rtol=1e-12)


class TestUBB:
    def test_moving_wall_injects_momentum(self):
        cells = (4, 4, 4)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        d = ff.data
        d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, :, 0] = fl.NO_SLIP
        d[:, :, -1] = fl.VELOCITY_BC
        bh = BoundaryHandling(
            D3Q19, ff, [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]
        )
        src = np.zeros((19, 6, 6, 6))
        shape = src.shape[1:]
        src[...] = equilibrium(D3Q19, np.ones(shape), np.zeros(shape + (3,)))
        dst = np.zeros_like(src)
        kern = make_kernel("vectorized", D3Q19, TRT.from_tau(0.8), cells)
        for _ in range(10):
            bh.apply(src)
            kern(src, dst)
            src, dst = dst, src
        e = D3Q19.velocities.astype(float)
        jx = np.tensordot(interior(src), e[:, 0], axes=(0, 0))
        # Net +x momentum appears, strongest near the moving lid (z = max).
        assert jx[:, :, -1].mean() > 1e-4
        assert jx[:, :, -1].mean() > jx[:, :, 0].mean()

    def test_wrong_velocity_dim_rejected(self):
        """A 2-component wall velocity on D3Q19 fails when the handler
        is built, not at the first ``apply`` of a time step."""
        cells = (2, 2, 2)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        ff.data[:, :, 0] = fl.VELOCITY_BC
        with pytest.raises(ConfigurationError, match="UBB velocity"):
            BoundaryHandling(D3Q19, ff, [UBB(velocity=(0.1, 0.0))])

    def test_wrong_velocity_dim_rejected_on_update(self):
        sim = Simulation(cells=(3, 3, 3), collision=SRT(0.8))
        sim.flags.fill(fl.FLUID)
        sim.flags.data[:, :, -1] = fl.VELOCITY_BC
        lid = UBB(velocity=(0.05, 0.0, 0.0))
        sim.add_boundary(lid).finalize()
        with pytest.raises(ConfigurationError, match="UBB velocity"):
            sim.update_boundary(lid, UBB(velocity=(0.05, 0.0)))


class TestPressureABB:
    def test_prescribed_density_pulls_towards_rho_w(self):
        # A box at rho = 1 with one pressure face at rho_w = 1.02: density
        # near that face must rise.
        cells = (4, 4, 8)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        d = ff.data
        d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, :, -1] = fl.NO_SLIP
        d[:, :, 0] = fl.PRESSURE_BC
        bh = BoundaryHandling(D3Q19, ff, [NoSlip(), PressureABB(rho_w=1.02)])
        src = np.zeros((19, 6, 6, 10))
        shape = src.shape[1:]
        src[...] = equilibrium(D3Q19, np.ones(shape), np.zeros(shape + (3,)))
        dst = np.zeros_like(src)
        kern = make_kernel("vectorized", D3Q19, TRT.from_tau(0.8), cells)
        for _ in range(10):
            bh.apply(src)
            kern(src, dst)
            src, dst = dst, src
        rho = interior(src).sum(axis=0)
        near = rho[:, :, 0].mean()
        far = rho[:, :, -1].mean()
        assert near > 1.005
        assert near > far
