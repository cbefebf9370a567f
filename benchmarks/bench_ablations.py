"""Design-choice ablations called out in DESIGN.md:

* **AoS vs SoA layout** (§4.1: "the SoA layout was chosen") — the same
  fused kernel on both layouts.
* **Full vs fluid-pruned ghost exchange** (§2.2/§4.3: the paper sends
  complete ghost layers; the drivers send only the ghost values a fluid
  cell pulls — on this all-fluid cavity exactly the pulled directions,
  ~4.7x less data for D3Q19 — without changing a single bit of the
  fluid results).  The full baseline is an executor over plans built
  without FLUID masks.
* **Write-allocate vs non-temporal-store roofline** (§4.1 footnote of
  the traffic model: 456 vs 304 B per update).
"""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation, GhostExchange, build_rank_plan
from repro.geometry import AABB
from repro.lbm import D3Q19, NoSlip, TRT, UBB
from repro.lbm.kernels import make_kernel
from repro.lbm.kernels.aos import aos_step, aos_to_soa, soa_to_aos
from repro.perf import SUPERMUC, lbm_traffic_per_cell, roofline_mlups

CELLS = (40, 40, 40)


def _soa_arrays():
    rng = np.random.default_rng(0)
    src = 0.5 + 0.01 * rng.random((19,) + tuple(c + 2 for c in CELLS))
    return src, np.zeros_like(src)


def test_layout_soa(benchmark):
    src, dst = _soa_arrays()
    kern = make_kernel("d3q19", D3Q19, TRT.from_tau(0.8), CELLS)
    benchmark(kern, src, dst)


def test_layout_aos(benchmark):
    src, _ = _soa_arrays()
    src_aos = soa_to_aos(src)
    dst_aos = np.zeros_like(src_aos)
    benchmark(aos_step, D3Q19, src_aos, dst_aos, TRT.from_tau(0.8))


def test_aos_matches_soa_bitwise():
    """The layouts must compute identical physics."""
    src, dst = _soa_arrays()
    make_kernel("d3q19", D3Q19, TRT.from_tau(0.8), CELLS)(src, dst)
    src_aos = soa_to_aos(src)
    dst_aos = np.zeros_like(src_aos)
    aos_step(D3Q19, src_aos, dst_aos, TRT.from_tau(0.8))
    interior = (slice(None), slice(1, -1), slice(1, -1), slice(1, -1))
    assert np.allclose(aos_to_soa(dst_aos)[interior], dst[interior], atol=1e-14)


def _cavity_sim():
    forest = SetupBlockForest.create(AABB((0, 0, 0), (2, 2, 2)), (2, 2, 2), (6, 6, 6))
    balance_forest(forest, 4, strategy="round_robin")

    def lid(blk, ff):
        d = ff.data
        i, j, k = blk.grid_index
        if i == 0:
            d[0] = fl.NO_SLIP
        if i == 1:
            d[-1] = fl.NO_SLIP
        if j == 0:
            d[:, 0] = fl.NO_SLIP
        if j == 1:
            d[:, -1] = fl.NO_SLIP
        if k == 0:
            d[:, :, 0] = fl.NO_SLIP
        if k == 1:
            d[:, :, -1] = fl.VELOCITY_BC

    return DistributedSimulation(
        forest,
        TRT.from_tau(0.8),
        flag_setter=lid,
        boundaries=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
    )


def _exchange(sim, plan: str):
    """The driver's own (pruned) exchange, or one over full regions."""
    if plan == "pruned":
        return sim.exchange
    return GhostExchange([build_rank_plan(v, v.rank) for v in sim.views], sim.fields)


def _run(sim, exchange, steps: int):
    for _ in range(steps):
        exchange.exchange()
        sim.stepper.boundary()
        sim.stepper.kernel()
        sim.stepper.swap()


@pytest.mark.parametrize("plan", ["full", "pruned"])
def test_ghost_exchange_cost(benchmark, plan):
    sim = _cavity_sim()
    exchange = _exchange(sim, plan)
    exchange.exchange()
    benchmark.extra_info["bytes_per_step"] = exchange.stats.total_bytes
    benchmark(exchange.exchange)


def test_pruned_exchange_identical_and_smaller():
    full, pruned = _cavity_sim(), _cavity_sim()
    full_exchange = _exchange(full, "full")
    _run(full, full_exchange, 20)
    _run(pruned, pruned.exchange, 20)
    assert np.nanmax(np.abs(full.gather_density() - pruned.gather_density())) == 0.0
    assert np.nanmax(np.abs(full.gather_velocity() - pruned.gather_velocity())) == 0.0
    ratio = full_exchange.stats.total_bytes / pruned.comm_stats.total_bytes
    print(f"\nghost bytes, full/pruned: {ratio:.2f}x (D3Q19 faces: 19/5)")
    assert ratio > 3.0


def test_roofline_traffic_ablation():
    """Write-allocate (456 B) vs non-temporal stores (304 B): NT stores
    would lift the SuperMUC bound from 87.8 to 131.7 MLUPS."""
    wa = roofline_mlups(SUPERMUC.lbm_bandwidth, lbm_traffic_per_cell())
    nt = roofline_mlups(
        SUPERMUC.lbm_bandwidth, lbm_traffic_per_cell(write_allocate=False)
    )
    print(f"\nSuperMUC socket bound: write-allocate {wa:.1f}, NT stores {nt:.1f} MLUPS")
    assert wa == pytest.approx(87.8, abs=0.1)
    assert nt / wa == pytest.approx(456 / 304, rel=1e-6)
