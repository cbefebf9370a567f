"""Compiled D3Q19 kernel tier, generated from the lattice tables.

The paper's fastest kernels (§4.1) are fused, SoA, SIMD-compiled
stream-collide loops.  waLBerla later moved from hand-written kernels to
kernels *generated* from the lattice description and compiled for the
host (arXiv:1909.13772, arXiv:1511.07261).  This module is that step:

* :func:`generate_source` emits C for the fused D3Q19 pull + TRT collide
  from ``D3Q19.velocities``, ``D3Q19.weights`` and
  :func:`~repro.lbm.kernels.d3q19.build_pair_table`: one per-cell
  emitter under two loop headers, a box (dense blocks, slabs) and a
  table of contiguous fluid runs over many blocks (the sparse
  :class:`RunTableKernel`).  SRT is the same code with
  ``lam_e == lam_o``.
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
* The same shared object carries the ghost exchange's element copy
  (:class:`CopyTable`): one call moves a whole exchange phase — pack,
  same-rank copy or unpack — over a precomputed table of
  ``(dst block, dst element, src block, src element)`` rows.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import KernelBuildError, KernelLayoutError
from ..collision import SRT, TRT
from ..lattice import D3Q19
from .common import check_pdf_args
from .contracts import allocation_free
from .d3q19 import build_pair_table

__all__ = [
    "AddressTable",
    "CompiledD3Q19Kernel",
    "CopyTable",
    "RunTableKernel",
    "fluid_runs",
    "generate_source",
]

log = logging.getLogger(__name__)

Collision = Union[SRT, TRT]

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds,
#: and ``-ffast-math`` is deliberately absent: both would reorder or
#: re-round the arithmetic and break bit-identity with ``vectorized``.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

#: Name of the generated box-loop C function (dense blocks, slabs).
SYMBOL = "repro_d3q19_pull_trt"

#: Name of the generated run-table C function (sparse blocks).
RUNS_SYMBOL = "repro_d3q19_runs_trt"

#: Name of the generated element-copy C function (ghost exchange).
COPY_SYMBOL = "repro_copy_table"

#: Candidate C compiler names, in order of preference.
_COMPILERS = ("cc", "gcc", "clang")

_ITEMSIZE = np.dtype(np.float64).itemsize


def _lit(x: float) -> str:
    """Exact C literal for a double (hex float, round-trips every bit)."""
    return float(x).hex()


def _row_pointers(pad: str, dq: str) -> List[str]:
    """Declarations of the 19 pull-source and 19 destination row
    pointers, relative to the cell pointers ``s`` and ``d``, from the
    source strides ``sq``/``sx``/``sy`` and the destination ``dq``."""
    vel = D3Q19.velocities
    lines = []
    # Direction a pulls from the cell x - e_a.
    for a in range(D3Q19.q):
        ex, ey, ez = (int(c) for c in vel[a])
        lines.append(
            f"{pad}const double *restrict s{a} = "
            f"s + {a} * sq + ({-ex}) * sx + ({-ey}) * sy + ({-ez});"
        )
    for a in range(D3Q19.q):
        lines.append(f"{pad}double *restrict d{a} = d + {a} * {dq};")
    return lines


def _cell_body(pad: str) -> List[str]:
    """Pull + TRT collide of the cell at row offset ``z``: the one
    emitter shared by the box and the run-table loops."""
    vel = D3Q19.velocities
    q = D3Q19.q
    w0 = _lit(D3Q19.weights[0])
    lines: List[str] = []

    def body(text: str) -> None:
        lines.append(pad + text)

    for a in range(q):
        body(f"const double g{a} = s{a}[z];")
    # Density: ((g0 + g1) + g2) + ... in direction order.
    body("double rho = g0 + g1;")
    for a in range(2, q):
        body(f"rho += g{a};")
    # First-write momentum sums: the first nonzero direction per
    # component copies or negates, the rest add or subtract in order.
    for comp, u in enumerate(("ux", "uy", "uz")):
        terms = [(a, int(vel[a, comp])) for a in range(1, q) if vel[a, comp]]
        (a0, s0), rest = terms[0], terms[1:]
        body(f"double {u} = {'' if s0 > 0 else '-'}g{a0};")
        for a, sgn in rest:
            body(f"{u} {'+' if sgn > 0 else '-'}= g{a};")
    body("const double inv_rho = 1.0 / rho;")
    body("ux *= inv_rho; uy *= inv_rho; uz *= inv_rho;")
    # usq = ((ux^2 + uy^2) + uz^2) * (-1.5) + 1
    body("double usq = ux * ux;")
    body("usq += uy * uy;")
    body("usq += uz * uz;")
    body("usq *= -1.5;")
    body("usq += 1.0;")
    # Rest direction: g0 + lam_e * (g0 - (rho * usq) * w0).
    body("double t0, t1, t2, t3;")
    body(f"t0 = rho * usq; t0 *= {w0};")
    body("t1 = g0 - t0; t1 *= lam_e;")
    body("d0[z] = g0 + t1;")
    for a, b, w, e in build_pair_table(D3Q19):
        first = True
        for comp, u in zip(e, ("ux", "uy", "uz")):
            if comp == 0.0:
                continue
            if first:
                body(f"t0 = {u} * {_lit(comp)};")
                first = False
            else:
                body(f"t0 {'+' if comp == 1.0 else '-'}= {u};")
        body(f"t1 = rho * {_lit(w)};")
        body("t2 = t0 * t0; t2 *= 4.5; t2 += usq; t2 *= t1;")
        body("t1 *= t0; t1 *= 3.0;")
        body(f"t0 = g{a} + g{b}; t0 *= 0.5; t0 -= t2; t0 *= lam_e;")
        body(f"t3 = g{a} - g{b}; t3 *= 0.5; t3 -= t1; t3 *= lam_o;")
        body(f"t2 = g{a} + t0; t2 += t3; d{a}[z] = t2;")
        body(f"t2 = g{b} + t0; t2 -= t3; d{b}[z] = t2;")
    return lines


def generate_source() -> str:
    """C source of the two fused D3Q19 pull + TRT collide loops and of
    the ghost exchange's element copy.

    The box loop sweeps the interior of one block::

        void repro_d3q19_pull_trt(
            const double *src, double *dst,
            ptrdiff_t sq, ptrdiff_t sx, ptrdiff_t sy,   // src strides
            ptrdiff_t dq, ptrdiff_t dx, ptrdiff_t dy,   // dst strides
            ptrdiff_t nx, ptrdiff_t ny, ptrdiff_t nz,   // interior extents
            double lam_e, double lam_o)

    Pointers address element ``[0, 0, 0, 0]`` of halo-inclusive fields
    of shape ``(19, nx + 2, ny + 2, nz + 2)``; strides are in elements
    and the innermost axis has unit stride.

    The run-table loop sweeps contiguous fluid runs of many blocks::

        void repro_d3q19_runs_trt(
            const double *const *src, double *const *dst,  // per block
            const ptrdiff_t *geom,   // per block: sq, sx, sy
            const ptrdiff_t *runs,   // per run: block, flat start, length
            ptrdiff_t nruns, double lam_e, double lam_o)

    A run's flat start indexes the block's halo-padded spatial array;
    ``src`` and ``dst`` of one block share its strides.  Both loops run
    the per-cell code of :func:`_cell_body`, so they agree bit for bit.

    The element copy runs one :class:`CopyTable`::

        void repro_copy_table(
            double *const *dst, const double *const *src,  // per slot
            const ptrdiff_t *rows,   // per element: dst slot, dst element,
                                     //              src slot, src element
            ptrdiff_t n)
    """
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
        *_row_pointers("      ", "dq"),
        # The 19 load and 19 store streams exceed the compiler's budget
        # of run-time alias checks; src and dst never overlap (the
        # caller checks), so assert independence to get the SIMD loop.
        "#pragma GCC ivdep",
        "      for (ptrdiff_t z = 0; z < nz; ++z) {",
        *_cell_body("        "),
        "      }",
        "    }",
        "  }",
        "}",
        "",
        f"void {RUNS_SYMBOL}(",
        "    const double *const *src, double *const *dst,",
        "    const ptrdiff_t *geom, const ptrdiff_t *runs, ptrdiff_t nruns,",
        "    double lam_e, double lam_o)",
        "{",
        "  for (ptrdiff_t r = 0; r < nruns; ++r) {",
        "    const ptrdiff_t *run = runs + 3 * r;",
        "    const ptrdiff_t *g = geom + 3 * run[0];",
        "    const ptrdiff_t sq = g[0], sx = g[1], sy = g[2], nz = run[2];",
        "    const double *restrict s = src[run[0]] + run[1];",
        "    double *restrict d = dst[run[0]] + run[1];",
        *_row_pointers("    ", "sq"),
        "#pragma GCC ivdep",
        "    for (ptrdiff_t z = 0; z < nz; ++z) {",
        *_cell_body("      "),
        "    }",
        "  }",
        "}",
        "",
        f"void {COPY_SYMBOL}(",
        "    double *const *dst, const double *const *src,",
        "    const ptrdiff_t *rows, ptrdiff_t n)",
        "{",
        "  for (ptrdiff_t i = 0; i < n; ++i) {",
        "    const ptrdiff_t *r = rows + 4 * i;",
        "    dst[r[0]][r[1]] = src[r[2]][r[3]];",
        "  }",
        "}",
        "",
    ]
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
    """Per-process memo of the compiled kernel functions (or of why they
    could not be built), filled at most once behind a lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._fns: Optional[Dict[str, Callable]] = None
        self._error: Optional[str] = None
        self._tmpdir: Optional[str] = None

    def function(self, symbol: str = SYMBOL) -> Callable:
        """The loaded function ``symbol`` (:data:`SYMBOL`,
        :data:`RUNS_SYMBOL` or :data:`COPY_SYMBOL`); raises
        :class:`KernelBuildError`."""
        with self._lock:
            if self._fns is None and self._error is None:
                try:
                    self._fns = self._build()
                except (OSError, subprocess.SubprocessError, KernelBuildError) as exc:
                    detail = getattr(exc, "stderr", None) or exc
                    self._error = f"compiled kernel tiers unavailable: {detail}"
                    log.warning(
                        "%s; falling back to the vectorized (dense) and "
                        "interval (sparse) tiers and to NumPy ghost copies",
                        self._error,
                    )
            if self._error is not None:
                raise KernelBuildError(self._error)
            return self._fns[symbol]

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

    def _build(self) -> Dict[str, Callable]:
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
        lib = ctypes.CDLL(path)
        box, runs = getattr(lib, SYMBOL), getattr(lib, RUNS_SYMBOL)
        copy = getattr(lib, COPY_SYMBOL)
        box.argtypes = (
            [ctypes.c_void_p] * 2 + [ctypes.c_ssize_t] * 9 + [ctypes.c_double] * 2
        )
        runs.argtypes = (
            [ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] + [ctypes.c_double] * 2
        )
        copy.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t]
        box.restype = runs.restype = copy.restype = None
        return {SYMBOL: box, RUNS_SYMBOL: runs, COPY_SYMBOL: copy}


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


def fluid_runs(mask: np.ndarray) -> np.ndarray:
    """Maximal contiguous fluid runs of one block, in memory order.

    Returns an ``(n, 2)`` integer array of ``(flat start, length)``; a
    flat start indexes the halo-padded spatial array of shape
    ``mask.shape + 2``.  Ghost cells separate the lattice lines, so no
    run crosses a line, and every cell of a run is fluid.
    """
    pad = np.zeros(tuple(int(s) + 2 for s in mask.shape), dtype=np.int8)
    pad[(slice(1, -1),) * mask.ndim] = mask
    edges = np.diff(pad.ravel())
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1) + 1
    return np.column_stack((starts, ends - starts)).astype(np.intp)


class AddressTable:
    """Base addresses of one PDF grid per block, in run-table block order:
    the ``src`` or ``dst`` argument of a multi-block
    :class:`RunTableKernel` call.  It holds the arrays, so the addresses
    stay valid as long as the table lives."""

    __slots__ = ("arrays", "ptr", "_addrs")

    def __init__(self, arrays: Sequence[np.ndarray]):
        self.arrays = tuple(arrays)
        self._addrs = np.array([a.ctypes.data for a in self.arrays], dtype=np.uintp)
        self.ptr = self._addrs.ctypes.data


def _span(sel) -> np.ndarray:
    """Element indices of a :class:`CopyTable` selection."""
    return np.arange(sel.start, sel.stop) if isinstance(sel, slice) else sel


class CopyTable:
    """One phase of the ghost exchange as one element copy:
    ``dst[d][i] = src[s][j]`` for every row of a precomputed table.

    ``segments`` are ``(dst slot, dst elements, src slot, src elements)``
    tuples.  A slot is a position in the :class:`AddressTable` passed as
    ``dst`` or ``src``; the elements — an index array, or a ``slice`` for
    a contiguous span — index that slot's array flattened in C order,
    and both selections of a segment have the same length.
    ``dst_sizes``/``src_sizes`` give each slot's element count; every
    row is checked against them here, so a call never writes or reads
    out of bounds (the arrays must be C-contiguous float64 of those
    sizes).

    With the shared object a call is one ``repro_copy_table`` over all
    rows.  Without it (no C compiler; the library logs that once) a call
    runs ``np.take(..., out=)`` or ``np.put`` per segment over the same
    indices, which copies the same elements.
    """

    def __init__(self, segments, dst_sizes: Sequence[int], src_sizes: Sequence[int]):
        self._segments = tuple(segments)
        rows = np.empty((0, 4), dtype=np.intp)
        if self._segments:
            d, dsel, s, ssel = zip(*self._segments)
            dsel = [_span(x) for x in dsel]
            ssel = [_span(x) for x in ssel]
            lengths = [len(x) for x in dsel]
            if lengths != [len(x) for x in ssel]:
                raise KernelLayoutError("copy segment selections differ in length")
            rows = np.empty((sum(lengths), 4), dtype=np.intp)
            rows[:, 0] = np.repeat(d, lengths)
            rows[:, 1] = np.concatenate(dsel)
            rows[:, 2] = np.repeat(s, lengths)
            rows[:, 3] = np.concatenate(ssel)
        for col, sizes in ((0, dst_sizes), (2, src_sizes)):
            slots, elems = rows[:, col], rows[:, col + 1]
            sizes = np.asarray(sizes, dtype=np.intp)
            if len(rows) and (
                slots.min() < 0 or slots.max() >= len(sizes)
                or elems.min() < 0 or np.any(elems >= sizes[slots])
            ):
                raise KernelLayoutError("copy table indexes outside its arrays")
        self._rows = rows
        self._rows_ptr = rows.ctypes.data
        #: Elements one call copies.
        self.elements = len(rows)
        try:
            self._fn = _LIBRARY.function(COPY_SYMBOL)
        except KernelBuildError:
            self._fn = None

    def __call__(self, dst, src) -> None:
        """Copy every row from ``src`` to ``dst`` (two
        :class:`AddressTable`-like objects: ``.ptr`` and ``.arrays``)."""
        if self._fn is not None:
            self._fn(dst.ptr, src.ptr, self._rows_ptr, self.elements)
            return
        for d, dsel, s, ssel in self._segments:
            to = dst.arrays[d].reshape(-1)
            source = src.arrays[s].reshape(-1)
            if isinstance(dsel, slice):
                np.take(source, ssel, out=to[dsel])
            else:
                np.put(to, dsel, source[ssel])


@allocation_free(
    steady_state=True,
    warmup=("_init_table", "merge", "split", "address_tables"),
)
class RunTableKernel:
    """Compiled sparse tier: the fused D3Q19 pull + TRT collide over a
    table of maximal contiguous fluid runs (the paper's §4.3 interval
    kernel, without the per-line padding of ``interval``).

    Each run ``(block, flat start, length)`` is one contiguous, SIMD
    inner loop of the generated C; a table may span many blocks, whose
    grids are passed as per-block address tables, so one call sweeps a
    whole rank.  Every fluid cell gets exactly the value of the dense
    ``compiled`` tier (the same emitted per-cell code), and no other
    cell is written.

    Construction (through :func:`~repro.lbm.kernels.registry.make_kernel`)
    gives a one-block table over ``mask``, called like every kernel as
    ``kernel(src, dst)`` with the block's halo-padded C-contiguous PDF
    arrays.  :meth:`merge` joins one-block tables into a rank's table,
    :meth:`address_tables` binds it to the blocks' fields, and
    :meth:`split` cuts it into cell-balanced chunks for the worker
    pool; those are called with the :class:`AddressTable` pair of the
    current grid parity.  Raises
    :class:`~repro.errors.KernelBuildError` where the shared object
    cannot be built; ``make_kernel`` then falls back to ``interval``.
    """

    name = "runtable"
    model = D3Q19

    def __init__(self, mask: np.ndarray, collision: Collision):
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.ndim != 3:
            raise ValueError(f"fluid mask must be 3-d, got {self.mask.ndim}-d")
        padded = tuple(s + 2 for s in self.mask.shape)
        runs = fluid_runs(self.mask)
        table = np.zeros((len(runs), 3), dtype=np.intp)
        table[:, 1:] = runs
        geom = np.array([[np.prod(padded), padded[1] * padded[2], padded[2]]])
        self._init_table(collision, _LIBRARY.function(RUNS_SYMBOL), geom, table)

    def _init_table(self, collision, fn, geom: np.ndarray, runs: np.ndarray) -> None:
        self.collision = collision
        if isinstance(collision, SRT):
            self._lam = (-1.0 / collision.tau,) * 2
        else:
            self._lam = (collision.lambda_e, collision.lambda_o)
        self._fn = fn
        self._geom = np.ascontiguousarray(geom, dtype=np.intp)
        self._runs = np.ascontiguousarray(runs, dtype=np.intp)
        self._geom_ptr = self._geom.ctypes.data
        self._runs_ptr = self._runs.ctypes.data
        self._nruns = len(self._runs)
        self.blocks = len(self._geom)
        #: Cells one call updates: exactly the fluid cells of its runs.
        self.processed_cells = self.fluid_cells = int(self._runs[:, 2].sum())
        # Address pair of a one-block call (written per call, never
        # reallocated).
        self._one = np.zeros(2, dtype=np.uintp)
        self._one_ptr = self._one.ctypes.data

    def _from_table(self, geom: np.ndarray, runs: np.ndarray) -> "RunTableKernel":
        out = object.__new__(type(self))
        out._init_table(self.collision, self._fn, geom, runs)
        return out

    @classmethod
    def merge(cls, kernels: Sequence["RunTableKernel"]) -> "RunTableKernel":
        """One table over the blocks of ``kernels``, in order (block
        ``i`` of the result is the block of ``kernels[i]``).  The
        kernels must be one-block tables with the same collision."""
        if not kernels:
            raise ValueError("merge needs at least one kernel")
        first = kernels[0]
        runs = []
        for i, k in enumerate(kernels):
            if k.blocks != 1:
                raise ValueError("merge takes one-block tables")
            if k._lam != first._lam:
                raise ValueError("merged kernels must share the collision")
            r = k._runs.copy()
            r[:, 0] = i
            runs.append(r)
        return first._from_table(
            np.concatenate([k._geom for k in kernels]), np.concatenate(runs)
        )

    def split(self, n: int) -> List["RunTableKernel"]:
        """At most ``n`` tables over consecutive runs with balanced cell
        counts; they write disjoint cells, so running them in any order
        or concurrently equals one call.  ``n <= 1`` returns ``[self]``."""
        if n <= 1 or self._nruns <= 1:
            return [self]
        cum = np.cumsum(self._runs[:, 2])
        cuts = np.searchsorted(cum, cum[-1] * np.arange(1, n) / n) + 1
        bounds = np.unique(np.concatenate(([0], cuts, [self._nruns])))
        return [
            self._from_table(self._geom, self._runs[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]

    def address_tables(
        self, fields: Sequence
    ) -> Tuple[Tuple[AddressTable, AddressTable], Tuple[AddressTable, AddressTable]]:
        """The ``(src, dst)`` call arguments for both grid parities of
        ``fields`` (one :class:`~repro.core.field.PdfField` per block,
        in table order): the first pair for the grids as they are now,
        the second for after one swap.  Built once; raises
        :class:`~repro.errors.KernelLayoutError` on a field whose layout
        does not match its block's table."""
        if len(fields) != self.blocks:
            raise KernelLayoutError(
                f"table has {self.blocks} blocks, got {len(fields)} fields"
            )
        for f, g in zip(fields, self._geom):
            for arr, role in ((f.src, "src"), (f.dst, "dst")):
                self._check_layout(arr, g, role)
            if np.may_share_memory(f.src, f.dst):
                raise KernelLayoutError("src and dst overlap in memory")
        a = AddressTable([f.src for f in fields])
        b = AddressTable([f.dst for f in fields])
        return (a, b), (b, a)

    @staticmethod
    def _check_layout(arr: np.ndarray, geom: np.ndarray, role: str) -> None:
        if arr.dtype != np.float64:
            raise KernelLayoutError(f"{role} must be float64, got {arr.dtype}")
        if not arr.flags.c_contiguous:
            raise KernelLayoutError(f"{role} must be C-contiguous for the run table")
        if arr.ndim != 4 or arr.shape[0] != D3Q19.q or (
            arr[0].size, arr.shape[2] * arr.shape[3], arr.shape[3]
        ) != tuple(int(v) for v in geom):
            raise KernelLayoutError(
                f"{role} shape {arr.shape} does not match the block's run table"
            )

    def __call__(self, src, dst) -> None:
        """One sweep over the table: ``dst[fluid] = collide(pull(src))``.

        ``src``/``dst`` are one block's halo-padded PDF arrays for a
        one-block table, or the :class:`AddressTable` pair of
        :meth:`address_tables` for any table.
        """
        if isinstance(src, AddressTable):
            s, d = src.ptr, dst.ptr
        else:
            if self.blocks != 1:
                raise KernelLayoutError(
                    f"a {self.blocks}-block table needs address tables"
                )
            check_pdf_args(D3Q19, src, dst)
            self._check_layout(src, self._geom[0], "src")
            self._check_layout(dst, self._geom[0], "dst")
            if not dst.flags.writeable:
                raise KernelLayoutError("dst is read-only")
            if np.may_share_memory(src, dst):
                raise KernelLayoutError("src and dst overlap in memory")
            self._one[0] = src.ctypes.data
            self._one[1] = dst.ctypes.data
            s, d = self._one_ptr, self._one_ptr + self._one.itemsize
        self._fn(s, d, self._geom_ptr, self._runs_ptr, self._nruns, *self._lam)
