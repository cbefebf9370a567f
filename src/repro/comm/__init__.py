"""Parallel substrate: virtual MPI (with deterministic fault injection
and a resilient sequence-numbered protocol layer), ghost-layer exchange,
and the distributed multi-block simulation driver."""

from .buffersystem import (
    BULK_TAG,
    COMM_MODES,
    BufferSegment,
    BufferSystem,
    CoalescedGhostExchange,
    CoalescedPlan,
    CommStats,
    PeerMessage,
    coalesce_plan,
    drain_arrival_order,
)
from .distributed import (
    BlockRuntime,
    DistributedSimulation,
    build_block_runtime,
    default_vascular_colors,
)
from .faults import FaultInjector, FaultSpec
from .spmd import run_spmd_simulation, spmd_rank_program
from .ghostlayer import (
    GhostExchange,
    RankGhostPlan,
    SpmdGhostExchange,
    build_rank_plan,
    check_ghost_flags,
    ghost_slices,
    message_tag,
    needed_directions,
    offset_code,
    send_slices,
)
from .vmpi import Comm, ReliableComm, Request, VirtualMPI

__all__ = [
    "BlockRuntime", "DistributedSimulation", "build_block_runtime",
    "default_vascular_colors",
    "BULK_TAG", "COMM_MODES", "BufferSegment", "BufferSystem",
    "CoalescedGhostExchange", "CoalescedPlan", "PeerMessage",
    "coalesce_plan",
    "FaultInjector", "FaultSpec",
    "run_spmd_simulation", "spmd_rank_program",
    "CommStats", "GhostExchange", "ghost_slices",
    "needed_directions", "send_slices",
    "RankGhostPlan", "SpmdGhostExchange", "build_rank_plan",
    "check_ghost_flags",
    "drain_arrival_order", "message_tag", "offset_code",
    "Comm", "ReliableComm", "Request", "VirtualMPI",
]
