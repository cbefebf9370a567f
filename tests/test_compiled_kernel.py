"""The compiled D3Q19 tier: bit-identity with ``vectorized`` on full
fields, slab views and thin boxes, argument-layout checks, and the
build cache (concurrent builds, corrupt artifacts, no-compiler fallback)."""

import ctypes
import glob
import logging
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core import Simulation
from repro.errors import KernelLayoutError
from repro.lbm import NoSlip, SRT, TRT, UBB
from repro.lbm.kernels import compiled, make_kernel
from repro.lbm.kernels.compiled import CompiledD3Q19Kernel
from repro.lbm.kernels.registry import run_kernel_on_region
from repro.lbm.kernels.vectorized import VectorizedD3Q19Kernel
from repro.lbm.lattice import D3Q19
from repro.perf.timing import TimingTree

from helpers import random_pdfs

COLLISIONS = [SRT(tau=0.8), TRT.from_tau(0.65), TRT(lambda_e=-1.6, lambda_o=-0.7)]
COLLISION_IDS = ["srt", "trt", "trt2"]

needs_cc = pytest.mark.skipif(
    compiled._find_compiler() is None, reason="no C compiler on this host"
)

SRC_TREE = Path(compiled.__file__).resolve().parents[3]


@pytest.fixture
def fresh_library(monkeypatch, tmp_path):
    """A new per-process memo whose cache lives under ``tmp_path``;
    returns the cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(compiled, "_LIBRARY", compiled._Library())
    return tmp_path / "repro" / "kernels"


@pytest.fixture
def compiler_calls(monkeypatch):
    """Counts invocations of the compiler."""
    calls = []
    lock = threading.Lock()
    run = compiled._run_compiler

    def counting(*args):
        with lock:
            calls.append(args)
        run(*args)

    monkeypatch.setattr(compiled, "_run_compiler", counting)
    return calls


def _step_both(cells, collision, rng):
    src = random_pdfs(rng, D3Q19, cells)
    out = []
    for tier in ("compiled", "vectorized"):
        dst = np.zeros_like(src)
        make_kernel(tier, D3Q19, collision, cells)(src, dst)
        out.append(dst)
    return out


def _cavity(kernel, workers, collision, cells=(12, 10, 9)):
    sim = Simulation(cells=cells, collision=collision, kernel=kernel, workers=workers)
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


def _cavity_result(kernel, workers=1, collision=TRT.from_tau(0.65), steps=6):
    sim = _cavity(kernel, workers, collision)
    sim.run(steps)
    sim.close()
    return sim.kernel_name, sim.pdfs.src.copy()


@needs_cc
class TestBitIdentity:
    @pytest.mark.parametrize("collision", COLLISIONS, ids=COLLISION_IDS)
    @pytest.mark.parametrize(
        "cells",
        [(16, 16, 16), (4, 5, 3), (17, 3, 9), (1, 1, 1), (1, 12, 3), (20, 3, 1)],
        ids=str,
    )
    def test_full_field(self, cells, collision):
        got, want = _step_both(cells, collision, np.random.default_rng(7))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("collision", COLLISIONS[:2], ids=COLLISION_IDS[:2])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_slab_views_via_simulation(self, workers, collision):
        _, want = _cavity_result("vectorized", 1, collision)
        name, got = _cavity_result("compiled", workers, collision)
        assert name == "compiled"
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("collision", COLLISIONS[:2], ids=COLLISION_IDS[:2])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_thin_boxes_along_axes(self, axis, collision):
        """One-cell-thick boxes cut along axis 1 or 2 hand the kernel
        views that are strided on every axis but the innermost; swept
        box by box they must reproduce the full-field result."""
        cells = (6, 5, 7)
        src = random_pdfs(np.random.default_rng(3), D3Q19, cells)
        want = np.zeros_like(src)
        make_kernel("vectorized", D3Q19, collision, cells)(src, want)
        for tier in ("compiled", "vectorized"):
            kernel = make_kernel(tier, D3Q19, collision, cells)
            assert kernel.name == tier
            got = np.zeros_like(src)
            for i in range(cells[axis]):
                lo, hi = [0, 0, 0], list(cells)
                lo[axis], hi[axis] = i, i + 1
                run_kernel_on_region(kernel, src, got, (tuple(lo), tuple(hi)))
            assert np.array_equal(got, want), tier

    def test_instrumented_under_its_tier_name(self):
        tree = TimingTree()
        kernel = make_kernel("compiled", D3Q19, SRT(0.8), (3, 3, 3), tree=tree)
        src = random_pdfs(np.random.default_rng(0), D3Q19, (3, 3, 3))
        kernel(src, np.zeros_like(src))
        assert kernel.scope_name == "tier:compiled"


@needs_cc
class TestArgumentLayout:
    def _kernel(self):
        return make_kernel("compiled", D3Q19, SRT(0.8), (4, 4, 4))

    def test_float32_rejected(self):
        src = np.ones((19, 6, 6, 6), dtype=np.float32)
        with pytest.raises(KernelLayoutError, match="float64"):
            self._kernel()(src, np.zeros_like(src))

    def test_non_unit_innermost_stride_rejected(self):
        src = np.ones((19, 6, 6, 12))[..., ::2]
        dst = np.zeros((19, 6, 6, 6))
        with pytest.raises(KernelLayoutError, match="innermost stride"):
            self._kernel()(src, dst)
        with pytest.raises(KernelLayoutError, match="innermost stride"):
            self._kernel()(dst, np.zeros((19, 6, 6, 12))[..., ::2])

    def test_overlapping_fields_rejected(self):
        buf = np.ones((19, 6, 6, 7))
        with pytest.raises(KernelLayoutError, match="overlap"):
            self._kernel()(buf[..., :6], buf[..., 1:])

    def test_cells_required(self):
        with pytest.raises(ValueError, match="cell counts"):
            make_kernel("compiled", D3Q19, SRT(0.8))


def _artifacts(cache):
    return sorted(glob.glob(os.path.join(cache, "*.so")))


@needs_cc
class TestBuildCache:
    def test_concurrent_builds_compile_once(self, fresh_library, compiler_calls):
        n = 8
        barrier = threading.Barrier(n)
        kernels = [None] * n

        def build(i):
            barrier.wait(timeout=60)
            kernels[i] = make_kernel("compiled", D3Q19, SRT(0.8), (4, 4, 4))

        threads = [threading.Thread(target=build, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(compiler_calls) == 1
        assert all(isinstance(k, CompiledD3Q19Kernel) for k in kernels)
        (artifact,) = _artifacts(fresh_library)
        assert not glob.glob(os.path.join(fresh_library, "*.tmp"))
        ctypes.CDLL(artifact)  # loadable in its own right

    def test_warm_cache_skips_compile(self, fresh_library, compiler_calls, monkeypatch):
        make_kernel("compiled", D3Q19, SRT(0.8), (4, 4, 4))
        monkeypatch.setattr(compiled, "_LIBRARY", compiled._Library())
        make_kernel("compiled", D3Q19, SRT(0.8), (4, 4, 4))
        assert len(compiler_calls) == 1

    def test_truncated_artifact_is_rebuilt(
        self, fresh_library, compiler_calls, monkeypatch, tmp_path
    ):
        make_kernel("compiled", D3Q19, SRT(0.8), (4, 4, 4))
        (artifact,) = _artifacts(fresh_library)
        # A later process finds a truncated copy in its cache.  (The
        # original stays intact: this process has it mapped.)
        other = tmp_path / "other"
        damaged = other / "repro" / "kernels" / os.path.basename(artifact)
        damaged.parent.mkdir(parents=True)
        data = Path(artifact).read_bytes()
        damaged.write_bytes(data[: len(data) // 2])
        monkeypatch.setenv("XDG_CACHE_HOME", str(other))
        monkeypatch.setattr(compiled, "_LIBRARY", compiled._Library())
        got, want = _step_both((5, 4, 3), SRT(0.8), np.random.default_rng(1))
        assert len(compiler_calls) == 2
        (rebuilt,) = _artifacts(damaged.parent)
        assert rebuilt.endswith(f"-{compiled._digest(rebuilt)}.so")
        assert np.array_equal(got, want)

    def test_unwritable_cache_uses_temp_dir(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        library = compiled._Library()
        monkeypatch.setattr(compiled, "_LIBRARY", library)
        kernel = make_kernel("compiled", D3Q19, SRT(0.8), (4, 4, 4))
        assert isinstance(kernel, CompiledD3Q19Kernel)
        assert _artifacts(library._tmpdir)

    def test_nothing_written_inside_src(self, monkeypatch, tmp_path, compiler_calls):
        def snapshot():
            return {
                p for p in SRC_TREE.rglob("*")
                if "__pycache__" not in p.parts
            }

        before = snapshot()
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(SRC_TREE)
        monkeypatch.setattr(compiled, "_LIBRARY", compiled._Library())
        make_kernel("compiled", D3Q19, SRT(0.8), (4, 4, 4))
        assert len(compiler_calls) == 1
        assert _artifacts(tmp_path / ".cache" / "repro" / "kernels")
        assert snapshot() == before


def test_no_compiler_falls_back_to_vectorized(fresh_library, monkeypatch, caplog):
    _, want = _cavity_result("compiled")
    # Count only the fallback's records: on a host without a compiler
    # the reference run above has already logged once.
    caplog.clear()
    monkeypatch.setattr(compiled, "_LIBRARY", compiled._Library())
    monkeypatch.setattr(compiled, "_find_compiler", lambda: None)
    with caplog.at_level(logging.WARNING, logger=compiled.__name__):
        kernels = [make_kernel("compiled", D3Q19, SRT(0.8), (4, 4, 4)) for _ in range(3)]
        name, got = _cavity_result(None)
    assert all(isinstance(k, VectorizedD3Q19Kernel) for k in kernels)
    warnings = [r for r in caplog.records if r.name == compiled.__name__]
    assert len(warnings) == 1
    assert "no C compiler" in warnings[0].getMessage()
    assert name == "vectorized"
    assert np.array_equal(got, want)
