"""Compiled D3Q19 kernel tier, generated from the lattice tables.

The paper's fastest kernels (§4.1) are fused, SoA, SIMD-compiled
stream-collide loops.  waLBerla later moved from hand-written kernels to
kernels *generated* from the lattice description and compiled for the
host (arXiv:1909.13772, arXiv:1511.07261).  This module is that step:

* :func:`generate_source` emits C for one fused D3Q19 pull + TRT collide
  over a box, from ``D3Q19.velocities``, ``D3Q19.weights`` and
  :func:`~repro.lbm.kernels.d3q19.build_pair_table`.  SRT is the same
  code with ``lam_e == lam_o``.
* The C performs exactly the floating-point operation sequence of
  :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel` (same
  accumulation orders, same temporaries), and it is compiled with
  ``-ffp-contract=off`` and without ``-ffast-math``, so the two tiers
  are **bit-identical**, not merely close.
* The function takes base pointers plus per-axis element strides for
  ``src`` and ``dst`` separately, so it runs in place on the
  halo-inclusive views of :func:`~repro.lbm.kernels.common.region_view`
  (slabs, thin boxes, whole blocks) without copies,
  and it keeps no scratch arrays.
* It is loaded with :mod:`ctypes`, whose foreign calls release the GIL:
  slab tasks of the threaded :mod:`repro.exec` engine run truly in
  parallel.

Build and cache: the shared object is keyed by the SHA-256 of the
generated source, the compiler's path and ``--version``, the flags, the
machine type and the CPU model and feature flags.  It lives under ``$XDG_CACHE_HOME/repro/kernels``
(default ``~/.cache/repro/kernels``), or in a per-process temporary
directory when that is not writable.  An artifact is written atomically
(compiled to a temporary name in the same directory, then
``os.replace``), and its file name carries the digest of its own bytes,
so a truncated or corrupt artifact is detected and rebuilt instead of
being loaded.  The loaded function is memoized per process behind a
lock, so concurrently constructed kernels compile at most once; a build
failure is memoized too and logged once.
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from typing import Callable, List, Optional, Union

import numpy as np

from ...errors import KernelBuildError, KernelLayoutError
from ..collision import SRT, TRT
from ..lattice import D3Q19
from .common import check_pdf_args
from .contracts import allocation_free
from .d3q19 import build_pair_table

__all__ = ["CompiledD3Q19Kernel", "generate_source"]

log = logging.getLogger(__name__)

Collision = Union[SRT, TRT]

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds,
#: and ``-ffast-math`` is deliberately absent: both would reorder or
#: re-round the arithmetic and break bit-identity with ``vectorized``.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

#: Name of the generated C function.
SYMBOL = "repro_d3q19_pull_trt"

#: Candidate C compiler names, in order of preference.
_COMPILERS = ("cc", "gcc", "clang")

_ITEMSIZE = np.dtype(np.float64).itemsize


def _lit(x: float) -> str:
    """Exact C literal for a double (hex float, round-trips every bit)."""
    return float(x).hex()


def generate_source() -> str:
    """C source of the fused D3Q19 pull + TRT collide over one box.

    The signature is::

        void repro_d3q19_pull_trt(
            const double *src, double *dst,
            ptrdiff_t sq, ptrdiff_t sx, ptrdiff_t sy,   // src strides
            ptrdiff_t dq, ptrdiff_t dx, ptrdiff_t dy,   // dst strides
            ptrdiff_t nx, ptrdiff_t ny, ptrdiff_t nz,   // interior extents
            double lam_e, double lam_o)

    Pointers address element ``[0, 0, 0, 0]`` of halo-inclusive fields
    of shape ``(19, nx + 2, ny + 2, nz + 2)``; strides are in elements
    and the innermost axis has unit stride.
    """
    vel = D3Q19.velocities
    q = D3Q19.q
    w0 = _lit(D3Q19.weights[0])
    lines: List[str] = [
        "#include <stddef.h>",
        "",
        f"void {SYMBOL}(",
        "    const double *restrict src, double *restrict dst,",
        "    ptrdiff_t sq, ptrdiff_t sx, ptrdiff_t sy,",
        "    ptrdiff_t dq, ptrdiff_t dx, ptrdiff_t dy,",
        "    ptrdiff_t nx, ptrdiff_t ny, ptrdiff_t nz,",
        "    double lam_e, double lam_o)",
        "{",
        "  for (ptrdiff_t x = 1; x <= nx; ++x) {",
        "    for (ptrdiff_t y = 1; y <= ny; ++y) {",
        "      const double *restrict s = src + x * sx + y * sy + 1;",
        "      double *restrict d = dst + x * dx + y * dy + 1;",
    ]
    # Row pointers: direction a pulls from the cell x - e_a.
    for a in range(q):
        ex, ey, ez = (int(c) for c in vel[a])
        lines.append(
            f"      const double *restrict s{a} = "
            f"s + {a} * sq + ({-ex}) * sx + ({-ey}) * sy + ({-ez});"
        )
    for a in range(q):
        lines.append(f"      double *restrict d{a} = d + {a} * dq;")
    # The 19 load and 19 store streams exceed the compiler's budget of
    # run-time alias checks; src and dst never overlap (the caller
    # checks), so assert independence to get the SIMD loop.
    lines.append("#pragma GCC ivdep")
    lines.append("      for (ptrdiff_t z = 0; z < nz; ++z) {")
    body = lines.append
    for a in range(q):
        body(f"        const double g{a} = s{a}[z];")
    # Density: ((g0 + g1) + g2) + ... in direction order.
    body("        double rho = g0 + g1;")
    for a in range(2, q):
        body(f"        rho += g{a};")
    # First-write momentum sums: the first nonzero direction per
    # component copies or negates, the rest add or subtract in order.
    for comp, u in enumerate(("ux", "uy", "uz")):
        terms = [(a, int(vel[a, comp])) for a in range(1, q) if vel[a, comp]]
        (a0, s0), rest = terms[0], terms[1:]
        body(f"        double {u} = {'' if s0 > 0 else '-'}g{a0};")
        for a, sgn in rest:
            body(f"        {u} {'+' if sgn > 0 else '-'}= g{a};")
    body("        const double inv_rho = 1.0 / rho;")
    body("        ux *= inv_rho; uy *= inv_rho; uz *= inv_rho;")
    # usq = ((ux^2 + uy^2) + uz^2) * (-1.5) + 1
    body("        double usq = ux * ux;")
    body("        usq += uy * uy;")
    body("        usq += uz * uz;")
    body("        usq *= -1.5;")
    body("        usq += 1.0;")
    # Rest direction: g0 + lam_e * (g0 - (rho * usq) * w0).
    body("        double t0, t1, t2, t3;")
    body(f"        t0 = rho * usq; t0 *= {w0};")
    body("        t1 = g0 - t0; t1 *= lam_e;")
    body("        d0[z] = g0 + t1;")
    for a, b, w, e in build_pair_table(D3Q19):
        first = True
        for comp, u in zip(e, ("ux", "uy", "uz")):
            if comp == 0.0:
                continue
            if first:
                body(f"        t0 = {u} * {_lit(comp)};")
                first = False
            else:
                body(f"        t0 {'+' if comp == 1.0 else '-'}= {u};")
        body(f"        t1 = rho * {_lit(w)};")
        body("        t2 = t0 * t0; t2 *= 4.5; t2 += usq; t2 *= t1;")
        body("        t1 *= t0; t1 *= 3.0;")
        body(f"        t0 = g{a} + g{b}; t0 *= 0.5; t0 -= t2; t0 *= lam_e;")
        body(f"        t3 = g{a} - g{b}; t3 *= 0.5; t3 -= t1; t3 *= lam_o;")
        body(f"        t2 = g{a} + t0; t2 += t3; d{a}[z] = t2;")
        body(f"        t2 = g{b} + t0; t2 -= t3; d{b}[z] = t2;")
    lines += ["      }", "    }", "  }", "}", ""]
    return "\n".join(lines)


def _find_compiler() -> Optional[str]:
    """Absolute path of the first C compiler on ``PATH``, or ``None``."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return os.path.realpath(path)
    return None


def _run_compiler(cc: str, source: str, out: str) -> None:
    """Compile ``source`` (read from stdin) into the shared object ``out``."""
    subprocess.run(
        [cc, *FLAGS, "-x", "c", "-", "-o", out],
        input=source, capture_output=True, text=True, check=True, timeout=300,
    )


def _cpu_id() -> str:
    """CPU model and feature flags where the OS reports them.

    ``-march=native`` code can fault on an older CPU, so a cache shared
    between hosts (e.g. a networked home directory) must not hand one
    host's artifact to another.
    """
    try:
        with open("/proc/cpuinfo") as fh:
            return "".join(
                line for line in fh if line.startswith(("model name", "flags"))
            )
    except OSError:
        return platform.processor()


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


class _Library:
    """Per-process memo of the compiled kernel function (or of why it
    could not be built), filled at most once behind a lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._fn: Optional[Callable] = None
        self._error: Optional[str] = None
        self._tmpdir: Optional[str] = None

    def function(self) -> Callable:
        """The loaded kernel function; raises :class:`KernelBuildError`."""
        with self._lock:
            if self._fn is None and self._error is None:
                try:
                    self._fn = self._build()
                except (OSError, subprocess.SubprocessError, KernelBuildError) as exc:
                    detail = getattr(exc, "stderr", None) or exc
                    self._error = f"compiled kernel tier unavailable: {detail}"
                    log.warning("%s; falling back to the vectorized tier", self._error)
            if self._error is not None:
                raise KernelBuildError(self._error)
            return self._fn

    def _cache_dir(self) -> str:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        path = os.path.join(base, "repro", "kernels")
        try:
            os.makedirs(path, exist_ok=True)
            if os.access(path, os.W_OK):
                return path
        except OSError:
            pass
        if self._tmpdir is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-kernels-")
            atexit.register(shutil.rmtree, self._tmpdir, True)
        return self._tmpdir

    def _build(self) -> Callable:
        cc = _find_compiler()
        if cc is None:
            raise KernelBuildError(f"no C compiler found (tried {_COMPILERS})")
        source = generate_source()
        version = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, check=True,
            timeout=60,
        ).stdout
        key = hashlib.sha256(
            "\0".join(
                (source, cc, version, " ".join(FLAGS), platform.machine(), _cpu_id())
            ).encode()
        ).hexdigest()[:32]
        cache = self._cache_dir()
        path = None
        # The file name carries the digest of the file's own bytes: an
        # artifact that fails the check (truncated, corrupt) is removed,
        # never handed to the dynamic loader.
        for candidate in sorted(glob.glob(os.path.join(cache, f"d3q19-{key}-*.so"))):
            try:
                if candidate.endswith(f"-{_digest(candidate)}.so"):
                    path = candidate
                    break
                os.remove(candidate)
            except FileNotFoundError:  # removed by a concurrent process
                continue
        if path is None:
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=f"d3q19-{key}-", suffix=".tmp")
            os.close(fd)
            try:
                _run_compiler(cc, source, tmp)
                path = os.path.join(cache, f"d3q19-{key}-{_digest(tmp)}.so")
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        fn = getattr(ctypes.CDLL(path), SYMBOL)
        fn.argtypes = (
            [ctypes.c_void_p] * 2 + [ctypes.c_ssize_t] * 9 + [ctypes.c_double] * 2
        )
        fn.restype = None
        return fn


_LIBRARY = _Library()


def _element_strides(arr: np.ndarray, role: str):
    """Per-axis element strides of a float64 SoA field with unit
    innermost stride; raises :class:`KernelLayoutError` otherwise."""
    if arr.dtype != np.float64:
        raise KernelLayoutError(f"{role} must be float64, got {arr.dtype}")
    sq, sx, sy, sz = arr.strides
    if sz != _ITEMSIZE:
        raise KernelLayoutError(
            f"{role} innermost stride is {sz} bytes; the compiled tier "
            f"needs unit stride ({_ITEMSIZE} bytes)"
        )
    if sq % _ITEMSIZE or sx % _ITEMSIZE or sy % _ITEMSIZE:
        raise KernelLayoutError(f"{role} strides {arr.strides} are not whole elements")
    return sq // _ITEMSIZE, sx // _ITEMSIZE, sy // _ITEMSIZE


@allocation_free(steady_state=True)
class CompiledD3Q19Kernel:
    """Generated, compiled fused stream-collide kernel for D3Q19.

    Bit-identical to :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`
    on any halo-inclusive field view of any interior shape.  Construction
    builds (or loads from the cache) the shared object and raises
    :class:`~repro.errors.KernelBuildError` when that is impossible on
    this host; :func:`~repro.lbm.kernels.registry.make_kernel` then
    falls back to the vectorized tier.

    Parameters
    ----------
    collision:
        An :class:`~repro.lbm.collision.SRT` or
        :class:`~repro.lbm.collision.TRT` parameter set.
    """

    name = "compiled"
    model = D3Q19

    def __init__(self, collision: Collision):
        self.collision = collision
        if isinstance(collision, SRT):
            self._lam_e = self._lam_o = -1.0 / collision.tau
        else:
            self._lam_e, self._lam_o = collision.lambda_e, collision.lambda_o
        self._fn = _LIBRARY.function()

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Run one time step: ``dst[interior] = collide(pull(src))``."""
        check_pdf_args(D3Q19, src, dst)
        sq, sx, sy = _element_strides(src, "src")
        dq, dx, dy = _element_strides(dst, "dst")
        if not dst.flags.writeable:
            raise KernelLayoutError("dst is read-only")
        if np.may_share_memory(src, dst):
            raise KernelLayoutError("src and dst overlap in memory")
        _, nx, ny, nz = src.shape
        self._fn(
            src.ctypes.data, dst.ctypes.data, sq, sx, sy, dq, dx, dy,
            nx - 2, ny - 2, nz - 2, self._lam_e, self._lam_o,
        )
