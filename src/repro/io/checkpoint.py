"""Simulation checkpointing (format v2: atomic, versioned, checksummed).

Saves and restores the complete state of a simulation — every block's
PDF ``src`` grid, the flag fields, the time-step counter, and optionally
an RNG state — in a single ``.npz`` file.  Restoring into a freshly
constructed simulation with the same forest continues the run
bit-exactly, which is the foundation of the chaos harness's
crash-recovery guarantee (``tests/chaos/``).

Format v2 (see ``docs/resilience.md`` for the full layout):

* arrays are keyed ``pdf:<block-id>`` and ``flags:<block-id>``;
* a JSON metadata record (``__meta_json__``) carries the format
  version, the step counter, the sorted key list, a CRC-32 per array,
  and the serialized RNG state;
* files are written to ``<path>.tmp`` and atomically renamed into
  place, so a crash mid-write can never corrupt the previous
  checkpoint;
* any truncation, bit corruption (CRC mismatch), or missing metadata
  raises the typed :class:`~repro.errors.CheckpointError`.

Format v1 (PDF grids + ``__meta__`` int triple, no flags/CRC) is still
readable via :func:`load_checkpoint`.

Three state shapes are supported: block simulations exposing
``.fields``/``.flags`` dicts and a ``.timeloop``
(:class:`~repro.comm.distributed.DistributedSimulation`), single-block
simulations exposing ``.pdfs``/``.flags``
(:class:`~repro.core.simulation.Simulation`), and the indirect-
addressing :class:`~repro.lbm.cellstructured.CellStructuredSolver` via
:func:`save_solver_checkpoint` / :func:`load_solver_checkpoint`.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import CheckpointError, ReproError

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_solver_checkpoint",
    "load_solver_checkpoint",
    "write_state",
    "read_state",
]

_META_KEY = "__meta__"            # v1
_META_JSON_KEY = "__meta_json__"  # v2
_FORMAT_VERSION = 2


def _block_key(block_id) -> str:
    return str(block_id)


# ---------------------------------------------------------------------------
# Low-level state container (used directly by the SPMD checkpoint path)
# ---------------------------------------------------------------------------
def write_state(
    path: str,
    arrays: Dict[str, np.ndarray],
    step: int,
    rng_state: Optional[str] = None,
) -> None:
    """Atomically write named arrays + step counter as a v2 checkpoint.

    The file is first written to ``<path>.tmp`` and then renamed over
    ``path`` (``os.replace``), so readers either see the complete old
    checkpoint or the complete new one — never a torn write.
    """
    if not arrays:
        raise CheckpointError("refusing to write an empty checkpoint")
    for key in (_META_KEY, _META_JSON_KEY):
        if key in arrays:
            raise CheckpointError(f"array key {key!r} is reserved")
    meta = {
        "version": _FORMAT_VERSION,
        "step": int(step),
        "keys": sorted(arrays),
        "crc": {k: zlib.crc32(np.ascontiguousarray(v).tobytes())
                for k, v in arrays.items()},
        "rng": rng_state or "",
    }
    meta_arr = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **{_META_JSON_KEY: meta_arr}, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_state(path: str) -> Tuple[Dict[str, np.ndarray], int, Optional[str]]:
    """Read a v2 checkpoint; returns ``(arrays, step, rng_state)``.

    Raises :class:`~repro.errors.CheckpointError` on truncated or
    corrupted files (bad zip structure, missing members, CRC mismatch)
    and on non-checkpoint ``.npz`` files.
    """
    try:
        with np.load(path) as data:
            if _META_JSON_KEY not in data:
                if _META_KEY in data:
                    raise CheckpointError(
                        "v1 checkpoint: use load_checkpoint(sim, path) "
                        "to restore it into a simulation"
                    )
                raise CheckpointError(f"{path}: not a repro checkpoint file")
            try:
                meta = json.loads(bytes(data[_META_JSON_KEY]).decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise CheckpointError(
                    f"{path}: corrupt checkpoint metadata"
                ) from exc
            version = int(meta.get("version", -1))
            if version != _FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version {version}"
                )
            arrays: Dict[str, np.ndarray] = {}
            crcs = meta.get("crc", {})
            for key in meta.get("keys", []):
                if key not in data:
                    raise CheckpointError(
                        f"{path}: truncated checkpoint — missing array {key!r}"
                    )
                arr = data[key]
                want = crcs.get(key)
                if want is not None:
                    got = zlib.crc32(np.ascontiguousarray(arr).tobytes())
                    if got != int(want):
                        raise CheckpointError(
                            f"{path}: corrupted checkpoint — CRC mismatch "
                            f"on {key!r}"
                        )
                arrays[key] = arr
            rng = meta.get("rng") or None
            return arrays, int(meta.get("step", 0)), rng
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, EOFError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise CheckpointError(
            f"{path}: truncated or corrupted checkpoint ({exc})"
        ) from exc
    except Exception as exc:  # zipfile.BadZipFile and friends
        raise CheckpointError(
            f"{path}: truncated or corrupted checkpoint ({exc})"
        ) from exc


# ---------------------------------------------------------------------------
# RNG state (de)serialization
# ---------------------------------------------------------------------------
def _rng_state_dump(rng: Optional[np.random.Generator]) -> Optional[str]:
    if rng is None:
        return None
    return json.dumps(rng.bit_generator.state)


def _rng_state_load(rng: Optional[np.random.Generator], state: Optional[str]) -> None:
    if rng is None or not state:
        return
    try:
        rng.bit_generator.state = json.loads(state)
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc


# ---------------------------------------------------------------------------
# Simulation-level wrappers
# ---------------------------------------------------------------------------
def _sim_arrays(sim) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-block (pdf_src, pdf_dst, flags) views of a driver's
    ``stepper.runtimes`` (see :class:`~repro.core.stepper.RankDriver`;
    the single-block :class:`~repro.core.simulation.Simulation` is one
    block, key ``"0"``)."""
    if getattr(sim, "stepper", None) is None:
        raise ReproError(
            f"cannot checkpoint {type(sim).__name__}: not finalized, or not a driver"
        )
    return {
        _block_key(block_id): (rt.field.src, rt.field.dst, rt.flags.data)
        for block_id, rt in sim.stepper.runtimes.items()
    }


def save_checkpoint(
    sim, path: str, rng: Optional[np.random.Generator] = None
) -> None:
    """Write all block PDF states, flag fields, and the step counter.

    The write is atomic (temp file + rename); pass ``rng`` to persist a
    NumPy generator's state alongside (restored by
    :func:`load_checkpoint`).
    """
    arrays: Dict[str, np.ndarray] = {}
    for key, (src, _dst, flags) in _sim_arrays(sim).items():
        arrays[f"pdf:{key}"] = src
        if flags is not None:
            arrays[f"flags:{key}"] = flags
    write_state(
        path, arrays, step=sim.timeloop.steps_run, rng_state=_rng_state_dump(rng)
    )


def _load_v1(sim, data) -> int:
    """Restore a legacy v1 checkpoint (PDF grids + int-triple meta)."""
    version, steps, n_blocks = (int(v) for v in data[_META_KEY])
    if version != 1:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    views = _sim_arrays(sim)
    if n_blocks != len(views):
        raise CheckpointError(
            f"checkpoint has {n_blocks} blocks, simulation has {len(views)}"
        )
    for key, (src, dst, _flags) in views.items():
        if key not in data:
            raise CheckpointError(f"checkpoint lacks block {key}")
        _restore_pdfs(key, data[key], src, dst)
    return steps


def _restore_pdfs(key: str, arr: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    if arr.shape != src.shape:
        raise CheckpointError(
            f"block {key}: checkpoint shape {arr.shape} != "
            f"field shape {src.shape}"
        )
    src[...] = arr
    dst[...] = arr


def load_checkpoint(
    sim, path: str, rng: Optional[np.random.Generator] = None
) -> int:
    """Restore block PDF states (and flags) into ``sim``; returns the
    step count.

    ``sim`` must have been built from the same balanced forest (same
    block ids and shapes).  Reads both the current v2 format and legacy
    v1 files.  Raises :class:`~repro.errors.CheckpointError` on
    mismatched structure or corrupted/truncated files.
    """
    # Legacy v1 detection first (cheap; v1 has no JSON metadata).
    try:
        with np.load(path) as data:
            if _META_KEY in data:
                steps = _load_v1(sim, data)
                sim.timeloop.steps_run = steps
                return steps
    except CheckpointError:
        raise
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"{path}: truncated or corrupted checkpoint ({exc})"
        ) from exc

    arrays, steps, rng_state = read_state(path)
    views = _sim_arrays(sim)
    ckpt_blocks = {k.split(":", 1)[1] for k in arrays if k.startswith("pdf:")}
    if ckpt_blocks != set(views):
        raise CheckpointError(
            f"checkpoint blocks {sorted(ckpt_blocks)} != simulation blocks "
            f"{sorted(views)}"
        )
    for key, (src, dst, flags) in views.items():
        _restore_pdfs(key, arrays[f"pdf:{key}"], src, dst)
        fkey = f"flags:{key}"
        if flags is not None and fkey in arrays:
            farr = arrays[fkey]
            if farr.shape != flags.shape:
                raise CheckpointError(
                    f"block {key}: checkpoint flag shape {farr.shape} != "
                    f"{flags.shape}"
                )
            flags[...] = farr
    _rng_state_load(rng, rng_state)
    sim.timeloop.steps_run = steps
    return steps


# ---------------------------------------------------------------------------
# Cell-structured (indirect addressing) solver
# ---------------------------------------------------------------------------
def save_solver_checkpoint(
    solver, path: str, rng: Optional[np.random.Generator] = None
) -> None:
    """Checkpoint a :class:`~repro.lbm.cellstructured.CellStructuredSolver`
    (packed PDF array + fluid-cell coordinates + step counter)."""
    write_state(
        path,
        {
            "cs:f": solver.f,
            "cs:coords": solver.coords,
            "cs:shape": np.asarray(solver.shape, dtype=np.int64),
        },
        step=solver.steps_run,
        rng_state=_rng_state_dump(rng),
    )


def load_solver_checkpoint(
    solver, path: str, rng: Optional[np.random.Generator] = None
) -> int:
    """Restore a cell-structured solver checkpoint; returns the step count.

    The solver must have been built from the same flag array (same fluid
    cells in the same order)."""
    arrays, steps, rng_state = read_state(path)
    for key in ("cs:f", "cs:coords", "cs:shape"):
        if key not in arrays:
            raise CheckpointError(f"not a cell-structured checkpoint: {path}")
    if tuple(arrays["cs:shape"]) != tuple(solver.shape):
        raise CheckpointError(
            f"checkpoint grid shape {tuple(arrays['cs:shape'])} != "
            f"solver shape {tuple(solver.shape)}"
        )
    if arrays["cs:f"].shape != solver.f.shape or not np.array_equal(
        arrays["cs:coords"], solver.coords
    ):
        raise CheckpointError(
            "checkpoint fluid-cell structure does not match the solver"
        )
    solver.f[...] = arrays["cs:f"]
    _rng_state_load(rng, rng_state)
    solver.steps_run = steps
    return steps
