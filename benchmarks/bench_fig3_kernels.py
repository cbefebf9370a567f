"""Figure 3 — single-node kernel performance, all tiers x SRT/TRT.

Measures the real kernels on this host (the NumPy tiers and the
generated, compiled one) and prints the ECM-model node curves for
SuperMUC and JUQUEEN.  Paper shape: generic < D3Q19 < SIMD, and TRT
matches SRT for the fastest tier.
"""

import numpy as np
import pytest

from repro.harness import fig3_kernel_tiers
from repro.lbm.collision import SRT, TRT
from repro.lbm.kernels.registry import make_kernel
from repro.lbm.lattice import D3Q19

CELLS = (48, 48, 48)
N_CELLS = int(np.prod(CELLS))


def _setup(tier, collision):
    kern = make_kernel(tier, D3Q19, collision, CELLS)
    rng = np.random.default_rng(0)
    src = 0.5 + 0.01 * rng.random((19,) + tuple(c + 2 for c in CELLS))
    dst = np.zeros_like(src)
    return kern, src, dst


@pytest.mark.parametrize("tier", ["generic", "d3q19", "vectorized", "compiled"])
@pytest.mark.parametrize("collision", [SRT(0.8), TRT.from_tau(0.8)], ids=["srt", "trt"])
def test_kernel_tier(benchmark, tier, collision):
    kern, src, dst = _setup(tier, collision)
    benchmark(kern, src, dst)
    if benchmark.stats:
        benchmark.extra_info["mlups"] = N_CELLS / benchmark.stats["mean"] / 1e6
    benchmark.extra_info["tier"] = tier


def test_fig3_report_and_shape():
    """Assert the paper's tier ordering and print the full figure."""
    result = fig3_kernel_tiers(cells=(40, 40, 40), steps=3)
    print(result.report)
    s = result.series
    # Optimization tiers are strictly ordered (paper Figure 3).
    assert s["vectorized/TRT"] > s["d3q19/TRT"] > s["generic/TRT"]
    assert s["vectorized/SRT"] > s["generic/SRT"]
    # TRT costs at most modestly more than SRT on the fastest tier
    # (paper: identical once memory bound; in NumPy both are far from
    # the bandwidth limit, so allow a band).
    assert s["vectorized/TRT"] > 0.6 * s["vectorized/SRT"]
