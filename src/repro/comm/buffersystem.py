"""Ghost-layer communication: waLBerla's buffer system.

The paper never sends one message per block face: "all data exchanged
between two processes is first packed into a single buffer ... exactly
one message travels per pair of ranks per step" (§2.3).  This module is
that buffer system for the reproduction.  It lays out a rank's
:class:`~repro.comm.ghostlayer.RankGhostPlan` in messages
(:func:`coalesce_plan`) and executes the layout in two flavors:

* :class:`BufferSystem` — the SPMD executor over a virtual-MPI
  communicator (:func:`~repro.comm.spmd.spmd_rank_program`).
  Receives are drained in arrival order and unpacked straight from the
  incoming buffer into the ghost regions.
* :class:`CoalescedGhostExchange` — the in-process executor of
  :class:`~repro.comm.distributed.DistributedSimulation`, where every
  virtual rank's send message is packed and then unpacked with the
  peer's matching receive layout in one address space.

Both group a rank's traffic by peer — one message per peer rank per
step, tag :data:`BULK_TAG` — or, in the per-face subclasses of
:mod:`repro.comm.ghostlayer`, by ``(peer, tag)``: one segment per
message, carrying its per-face tag.  Either way every payload is packed
into a **persistent preallocated** send buffer, so the steady-state
exchange performs zero heap allocations of field-sized temporaries,
mirroring the allocation-free ethos of
:class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`.  Each
phase — pack, same-rank copy, unpack — is one call of a compiled
element copy (:class:`~repro.lbm.kernels.compiled.CopyTable`) over a
table of plan indices built once.

Layout determinism
------------------
Sender and receiver never exchange the layout — both derive it
independently from their (identical) rank plans: segments within a
message are ordered by the per-face message tag
(:func:`~repro.comm.ghostlayer.message_tag`), which both sides compute
to the same value for the same (destination block, side).  This is the
same trick waLBerla uses to keep its buffer system header-free.

Buffer reuse contract
---------------------
Send buffers are reused every step, so a step's payload must be fully
consumed before the next pack.  The SPMD time loop guarantees this with
its per-step sync barrier (every rank unpacks before any rank repacks) —
the exact reuse constraint of persistent MPI requests.  Under fault
injection the :class:`~repro.comm.vmpi.ReliableComm` sequence numbers
ensure stale deliveries (which alias the same buffer) are discarded
without their payload ever being read.

Timing scopes and counters: ``pack`` / ``local copy`` / ``wire`` /
``unpack`` sub-scopes under the caller's communication sweep (the
in-process executor never waits, so it has no ``wire``), plus the
``comm.remote_messages`` / ``comm.remote_bytes`` / ``comm.local_bytes``
counters, mirrored in each executor's :class:`CommStats` ledger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommunicationError, RecvTimeoutError
from ..lbm.kernels.compiled import AddressTable, CopyTable
from ..perf.timing import TimingTree

__all__ = [
    "BULK_TAG",
    "COMM_MODES",
    "CommStats",
    "BufferSegment",
    "PeerMessage",
    "CoalescedPlan",
    "coalesce_plan",
    "drain_arrival_order",
    "BufferSystem",
    "CoalescedGhostExchange",
]

#: The single tag used by coalesced per-rank-pair messages.  Negative so
#: it can never collide with a per-face tag (``root_index * 27 + code``,
#: always >= 0).
BULK_TAG = -1

#: Valid ``comm_mode`` values accepted by the simulation drivers.
COMM_MODES = ("per-face", "coalesced")


@dataclass
class CommStats:
    """Ghost-exchange ledger: bytes and messages, local vs remote."""

    local_bytes: int = 0
    remote_bytes: int = 0
    local_messages: int = 0
    remote_messages: int = 0

    def reset(self) -> None:
        self.local_bytes = 0
        self.remote_bytes = 0
        self.local_messages = 0
        self.remote_messages = 0

    @property
    def total_bytes(self) -> int:
        return self.local_bytes + self.remote_bytes


@dataclass(frozen=True)
class BufferSegment:
    """One (block, side) payload's position inside a message buffer.

    ``start``/``stop`` are *element* offsets into the flat message
    buffer; ``index`` holds the matching flat element indices into the
    block's PDF grid (see :class:`~repro.comm.ghostlayer.RankGhostPlan`).
    """

    tag: int
    block_id: object
    index: np.ndarray
    start: int
    stop: int


@dataclass(frozen=True)
class PeerMessage:
    """The segments exchanged with one peer rank as one message, sent
    under ``tag``."""

    peer: int
    tag: int
    segments: Tuple[BufferSegment, ...]
    elements: int

    @property
    def nbytes(self) -> int:
        """Payload size of the message (float64 elements)."""
        return self.elements * 8


@dataclass(frozen=True)
class CoalescedPlan:
    """A rank's plan laid out in messages by :func:`coalesce_plan`;
    fixed for the lifetime of the run."""

    sends: Tuple[PeerMessage, ...]
    recvs: Tuple[PeerMessage, ...]
    local_copies: Tuple[Tuple[object, tuple, object, tuple], ...]

    @property
    def messages_per_step(self) -> int:
        """Outgoing messages per exchange."""
        return len(self.sends)


def coalesce_plan(plan, fields, per_face: bool = False) -> CoalescedPlan:
    """Lay out a rank plan's send and receive entries in messages.

    Entries are grouped by peer rank — one message per peer, tag
    :data:`BULK_TAG` — or, with ``per_face``, by ``(peer, tag)``: one
    segment per message, sent under its per-face tag.  Messages are
    ordered by ``(peer, tag)`` and segments within a message by tag, so
    a sender's layout and its peer's receive layout agree without ever
    being exchanged.  ``fields`` maps block id to an object with a
    ``src`` grid; every block the plan names must be in it.
    """
    for dst_id, _, src_id, _ in plan.local_copies:
        for block_id in (dst_id, src_id):
            if block_id not in fields:
                raise CommunicationError(
                    f"ghost plan references unknown block {block_id}"
                )

    def layout(entries) -> Tuple[PeerMessage, ...]:
        groups: Dict[Tuple[int, int], list] = {}
        for peer, tag, block_id, index in entries:
            if block_id not in fields:
                raise CommunicationError(
                    f"ghost plan references unknown block {block_id}"
                )
            key = (peer, tag if per_face else BULK_TAG)
            groups.setdefault(key, []).append((tag, block_id, index))
        messages = []
        for (peer, msg_tag), items in sorted(groups.items()):
            segs = []
            offset = 0
            for tag, block_id, index in sorted(items, key=lambda e: e[0]):
                segs.append(
                    BufferSegment(tag, block_id, index, offset, offset + len(index))
                )
                offset += len(index)
            messages.append(PeerMessage(peer, msg_tag, tuple(segs), offset))
        return tuple(messages)

    return CoalescedPlan(
        layout(plan.sends), layout(plan.recvs), plan.local_copies
    )


def drain_arrival_order(comm, channels, probe_timeout: Optional[float] = None):
    """Receive one message per ``(source, tag)`` channel, yielding
    ``(channel_index, payload)`` in the order messages actually *arrive*
    rather than the order channels are listed.

    A fixed-order drain blocks on the first listed channel even when
    every other expected message is already waiting — head-of-line
    blocking that delay faults turn into serialized timeout rounds.
    This helper probes all outstanding channels at once
    (:meth:`~repro.comm.vmpi.Comm.probe_any`) and consumes whichever is
    ready first.  When nothing arrives within ``probe_timeout`` it falls
    back to a blocking receive on the first outstanding channel, which
    on a :class:`~repro.comm.vmpi.ReliableComm` triggers the
    timeout/ledger-retransmit recovery path.

    Ghost-region unpacks commute (each (block, side) region has exactly
    one writer and regions are disjoint), so consuming in arrival order
    is bit-identical to plan order — asserted by the chaos reorder tests.
    """
    pending = list(range(len(channels)))
    while pending:
        if len(pending) == 1:
            k = 0
        else:
            try:
                k = comm.probe_any(
                    [channels[i] for i in pending], timeout=probe_timeout
                )
            except RecvTimeoutError:
                # Nothing arrived: fall back to plan order; a resilient
                # channel then recovers via its retransmission ledger.
                k = 0
        i = pending.pop(k)
        source, tag = channels[i]
        yield i, comm.recv(source, tag)


class _Payload:
    """A persistent one-entry address table, pointed at each received
    message before it is unpacked."""

    __slots__ = ("arrays", "ptr", "_addr")

    def __init__(self):
        self._addr = np.zeros(1, dtype=np.uintp)
        self.ptr = self._addr.ctypes.data
        self.arrays = (None,)

    def bind(self, flat: np.ndarray) -> None:
        self._addr[0] = flat.ctypes.data
        self.arrays = (flat,)


class _Executor:
    """What both executors share: the blocks' address tables for both
    grid parities, the same-rank copies as one :class:`CopyTable`, and
    the byte/message accounting.

    Every phase is one :class:`~repro.lbm.kernels.compiled.CopyTable`
    call over element tables built here once; a block's slot is its
    position in ``fields``.  ``per_face`` selects the grouping
    :func:`coalesce_plan` lays out; the per-face subclasses in
    :mod:`repro.comm.ghostlayer` set it.
    """

    per_face = False

    def __init__(self, fields, local_copies, tree: Optional[TimingTree]):
        if not fields:
            raise CommunicationError("no fields to exchange")
        shapes = {f.src.shape for f in fields.values()}
        if len(shapes) != 1:
            raise CommunicationError(f"non-uniform block shapes: {shapes}")
        self.fields = fields
        self.tree = tree
        self.stats = CommStats()
        self._fields = list(fields.values())
        for f in self._fields:
            for grid in (f.src, f.dst):
                if grid.dtype != np.float64 or not grid.flags.c_contiguous:
                    raise CommunicationError(
                        "ghost exchange needs C-contiguous float64 PDF grids"
                    )
        self._slot = {block_id: i for i, block_id in enumerate(fields)}
        #: Element count of every block slot (the grids' flat sizes).
        self._sizes = [f.src.size for f in self._fields]
        # Both grid parities, bound once: tables[0] while every block's
        # ``src`` is the grid it had at construction, tables[1] after
        # an odd number of swaps.
        self._tables = (
            AddressTable([f.src for f in self._fields]),
            AddressTable([f.dst for f in self._fields]),
        )
        slot = self._slot
        self._local = CopyTable(
            [(slot[d], gi, slot[s], si) for d, gi, s, si in local_copies],
            self._sizes, self._sizes,
        )
        self._local_messages = len(local_copies)
        self._local_bytes = self._local.elements * 8

    def _blocks(self) -> AddressTable:
        """The address table of the blocks' current ``src`` grids.

        Raises :class:`CommunicationError` when the blocks are not all
        at the same parity (one swapped out of step with the others)
        or a grid was replaced: copying would read the wrong grid.
        """
        fields = self._fields
        table = self._tables[fields[0].src is not self._tables[0].arrays[0]]
        arrays = table.arrays
        for i in range(len(fields)):
            if fields[i].src is not arrays[i]:
                raise CommunicationError(
                    f"block {list(self.fields)[i]}'s src grid is not at the "
                    "parity of the others (swapped out of step or replaced)"
                )
        return table

    def _record(self, name: str, seconds: float) -> None:
        if self.tree is not None:
            self.tree.record(name, seconds)

    def _sent(self, messages: int, nbytes: int) -> None:
        """Account one step's outgoing messages."""
        self.stats.remote_messages += messages
        self.stats.remote_bytes += nbytes
        if self.tree is not None:
            self.tree.add_counter("comm.remote_messages", messages)
            self.tree.add_counter("comm.remote_bytes", nbytes)

    def local(self) -> None:
        """Direct copies between blocks owned by the same rank."""
        t0 = time.perf_counter()
        blocks = self._blocks()
        self._local(blocks, blocks)
        self._record("local copy", time.perf_counter() - t0)
        self.stats.local_messages += self._local_messages
        self.stats.local_bytes += self._local_bytes
        if self.tree is not None:
            self.tree.add_counter("comm.local_bytes", self._local_bytes)


class BufferSystem(_Executor):
    """SPMD ghost exchange over persistent message buffers.

    Parameters
    ----------
    plan:
        The rank's :class:`~repro.comm.ghostlayer.RankGhostPlan`; laid
        out by :func:`coalesce_plan` — one message per peer rank here,
        one per (block, face) in
        :class:`~repro.comm.ghostlayer.SpmdGhostExchange`.
    fields:
        Mapping block id -> object with ``src``/``dst`` PDF grids (a
        :class:`~repro.core.field.PdfField` works).
    comm:
        A :class:`~repro.comm.vmpi.Comm` or
        :class:`~repro.comm.vmpi.ReliableComm`; with the latter every
        message is sequence-numbered and recoverable, so the exchange
        stays bit-identical under any non-crash fault schedule.
    tree:
        Optional timing tree; pack/local copy/wire/unpack times are
        recorded under the caller's current scope and the ``comm.*``
        byte and message counters accumulate.

    :meth:`exchange` runs the three phases :meth:`start` (pack and
    post), :meth:`local` (same-rank copies) and :meth:`finish` (drain
    and unpack) in order.  Packing all messages is one copy call, and
    so is unpacking one received message.
    """

    def __init__(
        self,
        plan,
        fields: Dict[object, object],
        comm,
        tree: Optional[TimingTree] = None,
    ):
        self.plan = coalesce_plan(plan, fields, self.per_face)
        super().__init__(fields, self.plan.local_copies, tree)
        self.comm = comm
        # Persistent send buffers: allocated once, reused every step.
        self._send_bufs = [
            np.empty(msg.elements, dtype=np.float64) for msg in self.plan.sends
        ]
        self._send_table = AddressTable(self._send_bufs)
        slot = self._slot
        self._pack = CopyTable(
            [
                (i, slice(seg.start, seg.stop), slot[seg.block_id], seg.index)
                for i, msg in enumerate(self.plan.sends)
                for seg in msg.segments
            ],
            [msg.elements for msg in self.plan.sends], self._sizes,
        )
        self._unpacks = [
            CopyTable(
                [
                    (slot[seg.block_id], seg.index, 0, slice(seg.start, seg.stop))
                    for seg in msg.segments
                ],
                self._sizes, [msg.elements],
            )
            for msg in self.plan.recvs
        ]
        self._payload = _Payload()
        self._sent_bytes = sum(msg.nbytes for msg in self.plan.sends)
        self._recv_channels = [(msg.peer, msg.tag) for msg in self.plan.recvs]
        self._requests: list = []

    def start(self) -> None:
        """Pack all outgoing payloads and post one isend per message.

        Buffers are owned by this object and reused next step (see the
        module's buffer-reuse contract).
        """
        t0 = time.perf_counter()
        self._requests = []
        self._pack(self._send_table, self._blocks())
        for msg, buf in zip(self.plan.sends, self._send_bufs):
            self._requests.append(self.comm.isend(buf, dest=msg.peer, tag=msg.tag))
        self._record("pack", time.perf_counter() - t0)
        self._sent(len(self._send_bufs), self._sent_bytes)

    def finish(self) -> None:
        """Drain incoming messages (arrival order) and unpack.

        Wire-wait and unpack times are recorded separately, so the
        timing tree shows how long the rank waited for its peers.
        Completes the posted send requests afterwards.
        """
        wire = 0.0
        unpack = 0.0
        probe_timeout = getattr(self.comm, "retry_timeout", None)
        blocks = self._blocks()
        t0 = time.perf_counter()
        for i, data in drain_arrival_order(
            self.comm, self._recv_channels, probe_timeout
        ):
            wire += time.perf_counter() - t0
            t0 = time.perf_counter()
            msg = self.plan.recvs[i]
            flat = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
            if flat.size != msg.elements:
                raise CommunicationError(
                    f"message from rank {msg.peer} (tag {msg.tag}): got "
                    f"{flat.size} elements, expected {msg.elements}"
                )
            self._payload.bind(flat)
            self._unpacks[i](blocks, self._payload)
            unpack += time.perf_counter() - t0
            t0 = time.perf_counter()
        for req in self._requests:
            req.wait()
        self._requests = []
        self._record("wire", wire)
        self._record("unpack", unpack)

    def exchange(self) -> None:
        """One full exchange: ``start`` + ``local`` + ``finish``."""
        self.start()
        self.local()
        self.finish()


class CoalescedGhostExchange(_Executor):
    """In-process ghost exchange for the direct-copy simulation driver.

    ``plans[r]`` is virtual rank ``r``'s
    :class:`~repro.comm.ghostlayer.RankGhostPlan`.  Each rank's send
    messages (one per ordered rank pair here, one per (block, face) in
    :class:`~repro.comm.ghostlayer.GhostExchange`) are packed into a
    persistent buffer and unpacked with the peer's matching receive
    layout — the shared-address-space twin of :class:`BufferSystem`,
    byte-accounted in the same :class:`CommStats` ledger, so the
    performance models consume either mode unchanged.  Pack, local copy
    and unpack are one copy call each over all virtual ranks.

    ``exchange()`` runs ``start()`` (pack and local copies) and then
    ``finish()`` (unpack).
    """

    def __init__(
        self,
        plans: Sequence,
        fields: Dict[object, object],
        tree: Optional[TimingTree] = None,
    ):
        layouts = [coalesce_plan(p, fields, self.per_face) for p in plans]
        super().__init__(
            fields, [c for lay in layouts for c in lay.local_copies], tree
        )
        inbox = {
            (rank, msg.peer, msg.tag): msg
            for rank, lay in enumerate(layouts)
            for msg in lay.recvs
        }
        # Every message occupies its own span of one persistent buffer:
        # packed from the sender's layout, unpacked through the
        # receiver's.
        packs: list = []
        unpacks: list = []
        offset = 0
        #: Remote messages per exchange.
        self.messages_per_step = 0
        for rank, lay in enumerate(layouts):
            for msg in lay.sends:
                twin = inbox.pop((msg.peer, rank, msg.tag), None)
                if twin is None or twin.elements != msg.elements:
                    raise CommunicationError(
                        f"rank {rank}'s message to rank {msg.peer} "
                        f"(tag {msg.tag}) has no matching receive"
                    )
                for seg in msg.segments:
                    span = slice(offset + seg.start, offset + seg.stop)
                    packs.append((0, span, self._slot[seg.block_id], seg.index))
                for seg in twin.segments:
                    span = slice(offset + seg.start, offset + seg.stop)
                    unpacks.append((self._slot[seg.block_id], seg.index, 0, span))
                offset += msg.elements
                self.messages_per_step += 1
        if inbox:
            raise CommunicationError(
                f"receives without a sender: {sorted(inbox)}"
            )
        self._buffer = AddressTable([np.empty(offset, dtype=np.float64)])
        self._pack = CopyTable(packs, [offset], self._sizes)
        self._unpack = CopyTable(unpacks, self._sizes, [offset])
        self._sent_bytes = offset * 8

    def start(self) -> None:
        """Pack every message buffer and run the local copies."""
        t0 = time.perf_counter()
        self._pack(self._buffer, self._blocks())
        self._record("pack", time.perf_counter() - t0)
        self.local()
        self._sent(self.messages_per_step, self._sent_bytes)

    def finish(self) -> None:
        """Unpack every message buffer into the receivers' ghost regions."""
        t0 = time.perf_counter()
        self._unpack(self._blocks(), self._buffer)
        self._record("unpack", time.perf_counter() - t0)

    def exchange(self) -> None:
        """One full staged exchange (pack + local copies + unpack)."""
        self.start()
        self.finish()
