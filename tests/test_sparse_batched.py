"""The ``runtable`` sparse tier and the batched sparse step.

The tier sweeps a table of contiguous fluid runs with the generated C of
the dense ``compiled`` tier, and ``RankStepper`` merges the tables of all
sparse blocks of a rank into one call per kernel sweep.  Checked here:
bit-identity with ``compiled`` on fluid cells (gappy runs, one-cell
runs, empty blocks), untouched non-fluid cells, agreement with
``interval`` after coronary steps, bit-identity across worker counts,
comm modes, drivers and a fault schedule, and the no-compiler fallback.
"""

import logging

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
from repro.core import PdfField, Simulation
from repro.errors import KernelLayoutError
from repro.geometry import CapsuleTreeGeometry, CoronaryTree
from repro.lbm import NoSlip, PressureABB, SRT, TRT, UBB
from repro.lbm.kernels import compiled, make_kernel
from repro.lbm.kernels.compiled import RunTableKernel, fluid_runs
from repro.lbm.kernels.sparse import IntervalSparseKernel
from repro.lbm.lattice import D3Q19

from helpers import random_pdfs

needs_cc = pytest.mark.skipif(
    compiled._find_compiler() is None, reason="no C compiler on this host"
)

COLLISIONS = [SRT(tau=0.8), TRT.from_tau(0.65)]
SENTINEL = -7.25
BCS = [NoSlip(), UBB(velocity=(0.0, 0.0, 0.01)), PressureABB(rho_w=1.0)]
STEPS = 6


def _masks():
    rng = np.random.default_rng(11)
    i, j, k = np.indices((6, 5, 9))
    return {
        "gappy": (k % 3) != 1,
        "one-cell-runs": (i + j + k) % 2 == 0,
        "empty": np.zeros((4, 3, 5), dtype=bool),
        "random": rng.random((7, 6, 8)) < 0.45,
        "full": np.ones((5, 4, 6), dtype=bool),
        "single": np.ones((1, 1, 1), dtype=bool),
    }


MASKS = _masks()


def _padded(mask):
    pad = np.zeros(tuple(s + 2 for s in mask.shape), dtype=bool)
    pad[1:-1, 1:-1, 1:-1] = mask
    return pad


def _compiled_reference(src, collision):
    want = np.zeros_like(src)
    cells = tuple(s - 2 for s in src.shape[1:])
    make_kernel("compiled", D3Q19, collision, cells)(src, want)
    return want


def _fields(masks, rng):
    """One PdfField per mask with random src and sentinel dst grids."""
    out = []
    for mask in masks:
        f = PdfField(D3Q19, mask.shape)
        f.src[...] = random_pdfs(rng, D3Q19, mask.shape)
        f.dst[...] = SENTINEL
        out.append(f)
    return out


@needs_cc
class TestRunTableKernel:
    def test_runs_are_maximal_and_fluid(self):
        mask = MASKS["gappy"]
        runs = fluid_runs(mask)
        flat = _padded(mask).ravel()
        covered = np.zeros_like(flat)
        for start, length in runs:
            assert flat[start:start + length].all()
            assert not flat[start - 1] and not flat[start + length]
            covered[start:start + length] = True
        assert np.array_equal(covered, flat)
        assert (fluid_runs(MASKS["one-cell-runs"])[:, 1] == 1).all()
        assert fluid_runs(MASKS["empty"]).shape == (0, 2)

    @pytest.mark.parametrize("collision", COLLISIONS, ids=["srt", "trt"])
    @pytest.mark.parametrize("name", list(MASKS))
    def test_bit_identical_to_compiled_on_fluid_cells(self, name, collision):
        mask = MASKS[name]
        src = random_pdfs(np.random.default_rng(5), D3Q19, mask.shape)
        want = _compiled_reference(src, collision)
        kernel = make_kernel("runtable", D3Q19, collision, mask=mask)
        assert isinstance(kernel, RunTableKernel)
        assert kernel.processed_cells == int(mask.sum())
        got = np.full_like(src, SENTINEL)
        kernel(src, got)
        fluid = _padded(mask)
        assert np.array_equal(got[:, fluid], want[:, fluid])
        # Non-fluid cells (ghosts included) are never written.
        assert (got[:, ~fluid] == SENTINEL).all()

    @pytest.mark.parametrize("chunks", [1, 2, 3, 7])
    def test_merged_table_equals_per_block_calls(self, chunks):
        masks = list(MASKS.values())
        collision = TRT.from_tau(0.7)
        kernels = [make_kernel("runtable", D3Q19, collision, mask=m) for m in masks]
        fields = _fields(masks, np.random.default_rng(2))
        want = []
        for k, f in zip(kernels, fields):
            dst = f.dst.copy()
            k(f.src, dst)
            want.append(dst)
        table = RunTableKernel.merge(kernels)
        assert table.processed_cells == sum(int(m.sum()) for m in masks)
        parts = table.split(chunks)
        assert 1 <= len(parts) <= chunks
        assert sum(p.processed_cells for p in parts) == table.processed_cells
        (src, dst), swapped = table.address_tables(fields)
        assert swapped == (dst, src)
        for part in reversed(parts):  # chunk order does not matter
            part(src, dst)
        for f, w in zip(fields, want):
            assert np.array_equal(f.dst, w)

    def test_split_balances_cells(self):
        table = make_kernel(
            "runtable", D3Q19, SRT(0.8), mask=np.ones((16, 16, 16), dtype=bool)
        )
        parts = table.split(4)
        assert [p.processed_cells for p in parts] == [1024] * 4

    def test_layout_errors(self):
        mask = MASKS["random"]
        kernel = make_kernel("runtable", D3Q19, SRT(0.8), mask=mask)
        src = random_pdfs(np.random.default_rng(1), D3Q19, mask.shape)
        with pytest.raises(KernelLayoutError):
            kernel(src.astype(np.float32), np.zeros(src.shape, np.float32))
        with pytest.raises(KernelLayoutError):
            kernel(src, np.asfortranarray(np.zeros_like(src)))
        wrong = random_pdfs(np.random.default_rng(1), D3Q19, (3, 3, 3))
        with pytest.raises(KernelLayoutError):
            kernel(wrong, np.zeros_like(wrong))
        table = RunTableKernel.merge([kernel, kernel])
        with pytest.raises(KernelLayoutError):
            table(src, np.zeros_like(src))
        with pytest.raises(KernelLayoutError):
            table.address_tables(_fields([mask], np.random.default_rng(0)))

    def test_merge_rejects_mixed_collisions(self):
        mask = MASKS["gappy"]
        a = make_kernel("runtable", D3Q19, SRT(0.8), mask=mask)
        b = make_kernel("runtable", D3Q19, SRT(0.9), mask=mask)
        with pytest.raises(ValueError):
            RunTableKernel.merge([a, b])


# -- drivers -----------------------------------------------------------------


@pytest.fixture(scope="module")
def coronary():
    geom = CapsuleTreeGeometry(CoronaryTree.generate(generations=3, seed=4))
    forest = SetupBlockForest.create(geom.aabb(), (3, 3, 3), (10, 10, 10), geometry=geom)
    balance_forest(forest, 4, strategy="metis")
    return geom, forest


def _dist(coronary, **kw):
    geom, forest = coronary
    sim = DistributedSimulation(
        forest, TRT.from_tau(0.8), geometry=geom, boundaries=BCS, **kw
    )
    sim.run(STEPS)
    sim.close()
    return sim


def _interiors(sim):
    return {k: f.interior_view.copy() for k, f in sim.fields.items()}


def _spmd(coronary, **kw):
    geom, forest = coronary
    return run_spmd_simulation(
        VirtualMPI(forest.n_processes, **kw.pop("world", {})),
        forest, TRT.from_tau(0.8), STEPS, conditions=BCS, geometry=geom,
        retry_timeout=0.02, max_retries=25, **kw,
    )


@pytest.fixture(scope="module")
def baseline(coronary):
    """Serial, per-face, in-process run of the batched sparse step."""
    sim = _dist(coronary)
    return sim, _interiors(sim)


def _assert_identical(result, want):
    assert set(result) == set(want)
    for key in want:
        assert np.array_equal(result[key], want[key]), f"block {key} diverged"


@needs_cc
class TestBatchedStep:
    def test_one_kernel_call_per_step(self, baseline):
        sim, _ = baseline
        assert set(sim.kernel_names.values()) == {"runtable"}
        tier = sim.timeloop.tree.node("kernel", "tier:runtable")
        assert tier.stats.calls == STEPS
        fluid = sum(int(ff.fluid_mask().sum()) for ff in sim.flags.values())
        assert sim.stepper.cells_per_step == fluid

    def test_close_to_interval(self, coronary, baseline):
        _, want = baseline
        got = _interiors(_dist(coronary, sparse_kernel="interval"))
        assert set(got) == set(want)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "mode,workers",
        [("per-face", 2), ("per-face", 4), ("coalesced", 1), ("coalesced", 4)],
    )
    def test_bit_identical_across_workers_and_modes(
        self, coronary, baseline, mode, workers
    ):
        sim = _dist(coronary, comm_mode=mode, workers=workers)
        chunks = [t for t in sim.stepper.kernel_tasks if t.name.startswith("runtable")]
        assert len(chunks) == workers
        _assert_identical(_interiors(sim), baseline[1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_spmd_bit_identical(self, coronary, baseline, workers):
        _assert_identical(
            _spmd(coronary, comm_mode="coalesced", workers=workers), baseline[1]
        )

    def test_spmd_under_faults(self, coronary, baseline):
        spec = FaultSpec.sample(7)
        result = _spmd(coronary, world={"faults": FaultInjector(spec, 7)})
        _assert_identical(result, baseline[1])

    @pytest.mark.chaos
    @pytest.mark.parametrize("mode", ["per-face", "coalesced"])
    @pytest.mark.parametrize("seed", [1, 3, 5, 11])
    def test_spmd_fault_schedules(self, coronary, baseline, mode, seed):
        spec = FaultSpec.sample(seed)
        result = _spmd(
            coronary, comm_mode=mode, workers=2,
            world={"faults": FaultInjector(spec, seed)},
        )
        _assert_identical(result, baseline[1])

    def test_single_block_simulation_uses_one_block_table(self):
        mask = MASKS["random"]

        def run(kernel):
            sim = Simulation(cells=mask.shape, collision=TRT.from_tau(0.7), kernel=kernel)
            sim.flags.data[_padded(mask)] = fl.FLUID
            sim.flags.data[~_padded(mask)] = fl.NO_SLIP
            sim.flags.interior[~mask] = fl.OUTSIDE
            sim.add_boundary(NoSlip())
            sim.finalize()
            sim.run(STEPS)
            return sim

        sim = run(None)
        assert sim.kernel_name == "runtable"
        ref = run("interval")
        np.testing.assert_allclose(
            sim.pdfs.interior_view[:, mask], ref.pdfs.interior_view[:, mask],
            rtol=0, atol=1e-13,
        )


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(compiled, "_LIBRARY", compiled._Library())
    monkeypatch.setattr(compiled, "_find_compiler", lambda: None)


def test_no_compiler_falls_back_to_interval(coronary, no_compiler, caplog):
    with caplog.at_level(logging.WARNING, logger=compiled.__name__):
        kernels = [
            make_kernel("runtable", D3Q19, SRT(0.8), mask=m) for m in MASKS.values()
        ]
        sim = _dist(coronary)
    assert all(isinstance(k, IntervalSparseKernel) for k in kernels)
    assert set(sim.kernel_names.values()) == {"interval"}
    warnings = [r for r in caplog.records if r.name == compiled.__name__]
    assert len(warnings) == 1
    assert "no C compiler" in warnings[0].getMessage()
    # Exact: the fallback is the interval tier itself.
    want = _interiors(_dist(coronary, sparse_kernel="interval"))
    _assert_identical(_interiors(sim), want)
