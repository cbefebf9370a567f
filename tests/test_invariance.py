"""Symmetry and convergence properties of the LBM core.

* 90-degree rotation equivariance: rotating the state and rotating the
  result commute — a stringent check of the direction indexing in every
  kernel.
* Grid convergence of the Poiseuille solution.
"""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core import Simulation
from repro.lbm import D3Q19, NoSlip, SRT, TRT
from repro.lbm.kernels import make_kernel
from repro.lbm.reference_flows import poiseuille_slit_profile

from helpers import interior, random_pdfs


def rotation_permutation(model):
    """Direction permutation under a +90 deg rotation about z:
    (ex, ey, ez) -> (-ey, ex, ez)."""
    index = {tuple(int(v) for v in e): a for a, e in enumerate(model.velocities)}
    perm = np.empty(model.q, dtype=np.int64)
    for a, e in enumerate(model.velocities):
        target = (-int(e[1]), int(e[0]), int(e[2]))
        perm[a] = index[target]
    return perm


def rotate_state(f, perm):
    """Rotate a SoA PDF array by 90 deg about z (axes x->y)."""
    out = np.empty_like(np.rot90(f, k=1, axes=(1, 2)))
    rotated = np.rot90(f, k=1, axes=(1, 2))
    for a in range(f.shape[0]):
        out[perm[a]] = rotated[a]
    return out


class TestRotationEquivariance:
    @pytest.mark.parametrize("tier", ["generic", "d3q19", "vectorized", "compiled"])
    @pytest.mark.parametrize(
        "collision", [SRT(0.8), TRT.from_tau(0.8)], ids=["srt", "trt"]
    )
    def test_kernel_commutes_with_rotation(self, tier, collision):
        rng = np.random.default_rng(11)
        n = 6
        cells = (n, n, n)  # cubic so the rotation maps the grid to itself
        src = random_pdfs(rng, D3Q19, cells)
        perm = rotation_permutation(D3Q19)

        dst = np.zeros_like(src)
        make_kernel(tier, D3Q19, collision, cells)(src, dst)
        rotated_result = rotate_state(dst, perm)

        rotated_src = np.ascontiguousarray(rotate_state(src, perm))
        dst2 = np.zeros_like(rotated_src)
        make_kernel(tier, D3Q19, collision, cells)(rotated_src, dst2)

        assert np.allclose(
            interior(dst2), interior(rotated_result), atol=1e-13
        )

    def test_permutation_is_valid(self):
        perm = rotation_permutation(D3Q19)
        assert sorted(perm) == list(range(19))
        # Four rotations are the identity.
        p4 = perm[perm[perm[perm]]]
        assert np.array_equal(p4, np.arange(19))


class TestGridConvergence:
    @staticmethod
    def _poiseuille_error(nz: int) -> float:
        # SRT: its magic parameter (tau - 1/2)^2 != 3/16 leaves a wall
        # position error, giving a measurable convergence order (TRT at
        # Lambda = 3/16 is exact at any resolution).
        tau = 0.8
        nu = (tau - 0.5) / 3.0
        # Fix the physical problem: same maximal velocity at any grid.
        u_max = 5e-4
        F = 8.0 * nu * u_max / nz**2
        sim = Simulation(
            cells=(4, 4, nz),
            collision=SRT(tau),
            body_force=(F, 0.0, 0.0),
            periodic=(True, True, False),
        )
        sim.flags.fill(fl.FLUID)
        sim.flags.data[:, :, 0] = fl.NO_SLIP
        sim.flags.data[:, :, -1] = fl.NO_SLIP
        sim.add_boundary(NoSlip())
        sim.finalize()
        # Run well past the diffusive time scale H^2/nu.
        sim.run(int(12 * nz**2 / nu / 10) * 10)
        ux = sim.velocity()[2, 2, :, 0]
        z = np.arange(nz) + 0.5
        exact = poiseuille_slit_profile(z, float(nz), F, nu)
        return float(np.abs(ux - exact).max() / exact.max())

    def test_error_decreases_with_resolution(self):
        e_coarse = self._poiseuille_error(6)
        e_fine = self._poiseuille_error(12)
        assert e_fine < e_coarse
        # Bounce-back + TRT is second order; allow margin for the
        # first-order forcing term.
        assert e_coarse / e_fine > 1.8
