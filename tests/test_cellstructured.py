"""Tests for the cell-structured (indirect addressing) baseline solver."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core import Simulation
from repro.errors import ConfigurationError
from repro.lbm import NoSlip, SRT, TRT, UBB
from repro.lbm.cellstructured import CellStructuredSolver
from repro.lbm.kernels import DEFAULT_SPARSE_TIER, make_kernel
from repro.lbm.lattice import D3Q19


def cavity_sim(n=8, collision=None, lid=(0.05, 0.0, 0.0)):
    collision = collision or TRT.from_tau(0.8)
    sim = Simulation(cells=(n, n, n), collision=collision)
    sim.flags.fill(fl.FLUID)
    d = sim.flags.data
    d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, :, 0] = fl.NO_SLIP
    d[:, :, -1] = fl.VELOCITY_BC
    sim.add_boundary(NoSlip())
    sim.add_boundary(UBB(velocity=lid))
    sim.finalize()
    return sim


class TestEquivalence:
    @pytest.mark.parametrize(
        "collision", [SRT(0.8), TRT.from_tau(0.8)], ids=["srt", "trt"]
    )
    def test_matches_block_solver_cavity(self, collision):
        sim = cavity_sim(collision=collision)
        sim.run(25)
        cs = CellStructuredSolver(
            sim.flags.data, collision, wall_velocity=(0.05, 0.0, 0.0)
        )
        cs.step(25)
        u_block = sim.velocity()
        u_cell = cs.dense_velocity()[1:-1, 1:-1, 1:-1]
        assert np.nanmax(np.abs(u_block - u_cell)) < 1e-13

    def test_matches_sparse_block_solver(self):
        # Tube geometry: block solver uses the interval kernel, the
        # cell-structured solver its neighbor table — same physics.
        n = 10
        sim = Simulation(cells=(n, n, n), collision=TRT.from_tau(0.9))
        inter = sim.flags.interior
        x, y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        disk = (x - n / 2 + 0.5) ** 2 + (y - n / 2 + 0.5) ** 2 <= 6.0
        inter[disk] = fl.FLUID
        from scipy.ndimage import binary_dilation

        from repro.geometry import stencil_structure
        from repro.lbm import D3Q19

        # Hull on the *padded* grid, dilated with the full D3Q19 stencil
        # so every pullable neighbor (incl. diagonals) gets flagged.
        d = sim.flags.data
        pad_fluid = d == fl.FLUID
        hull = binary_dilation(pad_fluid, structure=stencil_structure(D3Q19))
        hull &= ~pad_fluid
        d[hull] = fl.NO_SLIP
        # Inflow: the hull plane below the tube (ghost layer, z = 0).
        inflow = hull[:, :, 0]
        d[:, :, 0][inflow] = fl.VELOCITY_BC
        sim.add_boundary(NoSlip())
        sim.add_boundary(UBB(velocity=(0.0, 0.0, 0.02)))
        sim.finalize()
        default = make_kernel(
            DEFAULT_SPARSE_TIER, D3Q19, SRT(0.8), mask=sim.flags.fluid_mask()
        )
        assert sim.kernel_name == default.name
        sim.run(15)
        cs = CellStructuredSolver(
            sim.flags.data, TRT.from_tau(0.9), wall_velocity=(0.0, 0.0, 0.02)
        )
        cs.step(15)
        u_block = sim.velocity()
        u_cell = cs.dense_velocity()[1:-1, 1:-1, 1:-1]
        assert np.nanmax(np.abs(u_block - u_cell)) < 1e-13


class TestConservation:
    def test_mass_conserved_closed_box(self):
        sim = cavity_sim()
        cs = CellStructuredSolver(
            sim.flags.data, TRT.from_tau(0.8), wall_velocity=(0.05, 0.0, 0.0)
        )
        m0 = cs.total_mass()
        cs.step(40)
        assert np.isclose(cs.total_mass(), m0, rtol=1e-12)

    def test_rest_state_is_fixed_point(self):
        flags = np.zeros((6, 6, 6), dtype=np.uint8)
        flags[1:-1, 1:-1, 1:-1] = fl.FLUID
        flags[flags == 0] = fl.NO_SLIP
        cs = CellStructuredSolver(flags, SRT(0.7))
        cs.step(10)
        assert np.nanmax(np.abs(cs.velocity())) < 1e-14


class TestMemoryTradeoff:
    def test_sparse_geometry_uses_less_pdf_memory(self):
        # At low fluid fraction the cell-structured PDF storage is far
        # below a dense block's, even after paying for the neighbor
        # table — the trade the related-work codes make.
        n = 24
        flags = np.zeros((n, n, n), dtype=np.uint8)
        x, y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        disk = (x - n / 2 + 0.5) ** 2 + (y - n / 2 + 0.5) ** 2 <= 4.0
        flags[disk] = fl.FLUID
        from scipy.ndimage import binary_dilation

        fluid = flags == fl.FLUID
        hull = binary_dilation(fluid) & ~fluid
        flags[hull] = fl.NO_SLIP
        cs = CellStructuredSolver(flags, SRT(0.8))
        dense_block_bytes = 2 * n**3 * 19 * 8
        assert cs.memory_bytes() < 0.5 * dense_block_bytes


class TestValidation:
    def test_no_fluid_rejected(self):
        with pytest.raises(ConfigurationError):
            CellStructuredSolver(np.zeros((4, 4, 4), dtype=np.uint8), SRT(0.8))

    def test_2d_flags_rejected(self):
        with pytest.raises(ConfigurationError):
            CellStructuredSolver(np.zeros((4, 4), dtype=np.uint8), SRT(0.8))
