"""SPMD distributed simulation over virtual MPI.

While :class:`~repro.comm.distributed.DistributedSimulation` executes
all virtual processes in one loop with direct-copy ghost exchange, this
module runs the *actual* message-passing program: every rank builds only
its own blocks (from :func:`~repro.blocks.forest.view_for_rank`),
exchanges ghost regions with neighboring ranks through explicit
``send``/``recv`` on a :class:`~repro.comm.vmpi.VirtualMPI`
communicator, and steps its blocks.  The tests assert the result is
bit-identical to the direct-copy driver — the strongest possible check
that the communication pattern is right.

Resilience
----------
By default the ghost exchange runs over
:class:`~repro.comm.vmpi.ReliableComm` — sequence-numbered, idempotent
messages with timeout/retransmit recovery — so the program survives any
delay/reorder/duplicate/drop schedule of an attached
:class:`~repro.comm.faults.FaultInjector` bit-identically
(``tests/chaos/`` samples such schedules).  ``checkpoint_every`` writes
periodic atomic state checkpoints (ranks gather their block PDFs to
rank 0, which writes via :func:`repro.io.checkpoint.write_state`); after
a fault-injected rank crash aborts the run with
:class:`~repro.errors.RankCrashedError`, ``restore_from`` resumes from
the last checkpoint to the exact state an uninterrupted run reaches.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from .. import flagdefs as fl
from ..blocks.forest import LocalBlock, view_for_rank
from ..blocks.setup import SetupBlockForest
from ..core.flags import FlagField
from ..core.stepper import BlockRuntime, RankStepper
from ..errors import CommunicationError, ConfigurationError
from ..exec import make_engine, resolve_exec_mode
from ..geometry.implicit import ImplicitGeometry
from ..geometry.voxelize import ColorMap
from ..lbm.boundary import Condition
from ..lbm.collision import SRT, TRT
from ..lbm.lattice import D3Q19, LatticeModel
from ..perf.timing import TimingTree
from .buffersystem import COMM_MODES, BufferSystem
from .distributed import build_block_runtime
from .ghostlayer import SpmdGhostExchange, build_rank_plan
from .vmpi import Comm, ReliableComm, VirtualMPI

__all__ = ["run_spmd_simulation", "spmd_rank_program"]

Collision = Union[SRT, TRT]


def _write_rank0_checkpoint(
    comm: Comm,
    runtimes: Dict[object, "BlockRuntime"],
    path: str,
    step: int,
) -> None:
    """Collective: gather every rank's block PDFs to rank 0, which
    writes one atomic checkpoint file tagged with ``step``."""
    from ..io.checkpoint import write_state

    shard = {str(bid): rt.field.src for bid, rt in runtimes.items()}
    gathered = comm.gather(shard, root=0)
    if comm.rank == 0:
        arrays = {
            f"pdf:{key}": arr
            for rank_shard in gathered
            for key, arr in rank_shard.items()
        }
        write_state(path, arrays, step=step)


def _restore_from_checkpoint(
    comm: Comm, runtimes: Dict[object, "BlockRuntime"], path: str
) -> int:
    """Collective: rank 0 reads the checkpoint, broadcasts it, every
    rank restores its own blocks; returns the checkpointed step."""
    from ..io.checkpoint import read_state

    payload = None
    if comm.rank == 0:
        arrays, step, _rng = read_state(path)
        payload = (arrays, step)
    arrays, step = comm.bcast(payload, root=0)
    for bid, rt in runtimes.items():
        key = f"pdf:{bid}"
        if key not in arrays:
            raise CommunicationError(
                f"checkpoint {path} lacks block {bid} owned by rank {comm.rank}"
            )
        arr = arrays[key]
        if arr.shape != rt.field.src.shape:
            raise CommunicationError(
                f"checkpoint block {bid}: shape {arr.shape} != "
                f"{rt.field.src.shape}"
            )
        rt.field.src[...] = arr
        rt.field.dst[...] = arr
    return int(step)


def spmd_rank_program(
    comm: Comm,
    forest: SetupBlockForest,
    collision: Collision,
    steps: int,
    conditions: Sequence[Condition],
    geometry: Optional[ImplicitGeometry] = None,
    flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
    colors: Optional[ColorMap] = None,
    model: LatticeModel = D3Q19,
    tree: Optional[TimingTree] = None,
    resilient: bool = True,
    retry_timeout: float = 0.05,
    max_retries: int = 10,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    restore_from: Optional[str] = None,
    comm_mode: str = "per-face",
    exec_mode: Optional[str] = None,
    workers: int = 1,
) -> Dict[object, np.ndarray]:
    """One rank's complete simulation: build local blocks, exchange
    ghosts by message passing, step, and return the final interior PDFs
    of the local blocks (keyed by block id).

    ``exec_mode`` / ``workers`` give the rank an intra-rank sweep
    engine (see :mod:`repro.exec`) — the paper's hybrid aPbT
    configurations: ``a`` virtual MPI ranks each driving ``b`` worker
    threads.  Work items are whole blocks, or interior slabs of dense
    blocks when the rank owns fewer blocks than workers (see
    :class:`~repro.core.stepper.RankStepper`, which gives the step's
    sweeps).  Results are bit-identical for
    every (exec_mode, workers) choice.  ``None`` selects ``"threads"``
    when ``workers > 1``.

    ``comm_mode`` selects the exchange strategy (both bit-identical,
    both executed by a :class:`~repro.comm.buffersystem.BufferSystem`
    from persistent buffers, so the steady state allocates no
    full-field temporaries): ``"per-face"`` sends one message per
    (block, face); ``"coalesced"`` exactly one message per peer rank
    per step.

    ``tree`` enables per-rank timing: communication (with pack / local
    copy / wire / unpack sub-scopes), boundary, kernel, swap, the
    per-step sync barrier, and checkpoint writes each get a scope, and
    cell/byte/message counters (plus the resilient layer's ``comm.timeouts`` /
    ``comm.retransmits`` / ``comm.duplicates_dropped`` recovery
    counters) are accumulated — reduce the per-rank trees afterwards
    with :func:`~repro.perf.timing.reduce_trees`.

    ``resilient`` routes the ghost exchange through
    :class:`~repro.comm.vmpi.ReliableComm` (sequence numbers, dedup,
    timeout/retransmit with backoff); disable only for overhead
    benchmarking on a known-perfect transport.  ``checkpoint_every`` /
    ``checkpoint_path`` write an atomic global checkpoint every N
    completed steps; ``restore_from`` resumes a previous run from such
    a file (bit-identically).
    """
    if checkpoint_every > 0 and not checkpoint_path:
        raise ConfigurationError("checkpoint_every needs a checkpoint_path")
    if comm_mode not in COMM_MODES:
        raise ConfigurationError(
            f"comm_mode must be one of {COMM_MODES}, got {comm_mode!r}"
        )
    # Validates exec_mode / workers before any block is built; the pool
    # threads start on the first round.
    engine = make_engine(exec_mode, workers, tree)
    view = view_for_rank(forest, comm.rank)
    runtimes: Dict[object, BlockRuntime] = {
        blk.id: build_block_runtime(
            blk, collision, conditions,
            geometry=geometry, flag_setter=flag_setter, colors=colors,
            model=model,
        )
        for blk in view.blocks
    }

    # Precompute the fluid-pruned communication plan and bind the
    # exchange executor.  Each rank sees only its own flags, so the
    # invariant the plan rests on (every ghost layer carries its
    # neighbor's FLUID bits) is not checked here; a violation that
    # changes a message's size raises in ``BufferSystem.finish``.
    fluid = {
        bid: rt.flags.mask(fl.FLUID, include_ghost=True)
        for bid, rt in runtimes.items()
    }
    plan = build_rank_plan(view, comm.rank, fluid, model)
    channel = (
        ReliableComm(
            comm, retry_timeout=retry_timeout, max_retries=max_retries,
            tree=tree,
        )
        if resilient
        else comm
    )
    fields = {bid: rt.field for bid, rt in runtimes.items()}
    executor = SpmdGhostExchange if comm_mode == "per-face" else BufferSystem
    exchange = executor(plan, fields, channel, tree=tree)

    def scope(name: str):
        return tree.scoped(name) if tree is not None else nullcontext()

    # The rank step: the exchange, then the per-block sweeps on the
    # intra-rank engine (the aPbT thread axis).
    sweeps = RankStepper(runtimes, engine, tree).sweeps(exchange.exchange)

    start_step = 0
    if restore_from is not None:
        start_step = _restore_from_checkpoint(comm, runtimes, restore_from)

    try:
        for step in range(start_step, int(steps)):
            # Fault-schedule boundary: scheduled stalls/crashes fire here.
            if resilient:
                channel.begin_step(step)
            else:
                comm.fault_tick(step)
            for name, sweep in sweeps:
                with scope(name):
                    sweep()
            # Periodic checkpoint: collective gather + atomic rank-0 write.
            if checkpoint_every > 0 and (step + 1) % checkpoint_every == 0:
                with scope("checkpoint"):
                    _write_rank0_checkpoint(
                        comm, runtimes, checkpoint_path, step + 1
                    )
            # Keep ranks in lockstep (mirrors waLBerla's per-step sync).
            with scope("sync"):
                comm.barrier()
    finally:
        engine.shutdown()

    return {
        block_id: rt.field.interior_view.copy()
        for block_id, rt in runtimes.items()
    }


def run_spmd_simulation(
    world: VirtualMPI,
    forest: SetupBlockForest,
    collision: Collision,
    steps: int,
    conditions: Optional[Sequence[Condition]] = None,
    geometry: Optional[ImplicitGeometry] = None,
    flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
    colors: Optional[ColorMap] = None,
    model: LatticeModel = D3Q19,
    timing_trees: Optional[Sequence[TimingTree]] = None,
    resilient: bool = True,
    retry_timeout: float = 0.05,
    max_retries: int = 10,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    restore_from: Optional[str] = None,
    comm_mode: str = "per-face",
    exec_mode: Optional[str] = None,
    workers: int = 1,
) -> Dict[object, np.ndarray]:
    """Run the SPMD program on every virtual rank and merge the results.

    ``exec_mode`` / ``workers`` are forwarded to every rank's
    :func:`spmd_rank_program` — ``world.size`` ranks x ``workers``
    threads is the paper's hybrid aPbT execution.

    ``world.size`` must equal the forest's process count.  Returns the
    final interior PDFs of every block, keyed by block id.

    ``timing_trees`` — one :class:`~repro.perf.timing.TimingTree` per
    rank — turns on per-rank sweep/sub-scope timing; reduce them
    afterwards with :func:`~repro.perf.timing.reduce_trees`.

    Resilience knobs (``resilient``, ``retry_timeout``, ``max_retries``,
    ``checkpoint_every``/``checkpoint_path``, ``restore_from``) are
    forwarded to :func:`spmd_rank_program`; attach a
    :class:`~repro.comm.faults.FaultInjector` to ``world`` to exercise
    them under chaos.  A fault-injected crash raises
    :class:`~repro.errors.RankCrashedError` out of this call; restart by
    calling again with ``restore_from`` pointing at the last checkpoint.
    """
    if comm_mode not in COMM_MODES:
        raise ConfigurationError(
            f"comm_mode must be one of {COMM_MODES}, got {comm_mode!r}"
        )
    exec_mode = resolve_exec_mode(exec_mode, workers)
    if world.size != forest.n_processes:
        raise CommunicationError(
            f"world size {world.size} != forest processes {forest.n_processes}"
        )
    if timing_trees is not None and len(timing_trees) != world.size:
        raise CommunicationError(
            f"need one timing tree per rank: got {len(timing_trees)} "
            f"for {world.size} ranks"
        )
    if conditions is None:
        conditions = []

    def program(comm: Comm):
        return spmd_rank_program(
            comm, forest, collision, steps, conditions,
            geometry=geometry, flag_setter=flag_setter, colors=colors,
            model=model,
            tree=timing_trees[comm.rank] if timing_trees is not None else None,
            resilient=resilient,
            retry_timeout=retry_timeout,
            max_retries=max_retries,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            restore_from=restore_from,
            comm_mode=comm_mode,
            exec_mode=exec_mode,
            workers=workers,
        )

    per_rank = world.run(program)
    merged: Dict[object, np.ndarray] = {}
    for result in per_rank:
        overlap = merged.keys() & result.keys()
        if overlap:
            raise CommunicationError(f"blocks owned by two ranks: {overlap}")
        merged.update(result)
    return merged
