"""In-memory span tracer and the per-layer ledger derived from it.

The traced run wraps the public entry points of each ``repro`` layer
from here, never from ``src/``: the wrappers are installed by patching
class attributes and module globals for the duration of one phase and
restored afterwards, so the untraced measurement runs the unmodified
program (a method a driver bound while they were installed calls
straight through).

A span records ``name``, ``start``, ``end``, its ``parent`` span, the
``lane`` it belongs to and the ``run_id`` of the repetition that caused
it.  A lane is one sequential thread of control: the main thread, or
one virtual-MPI rank.  Worker threads of the intra-rank execution
engine adopt the open ``exec.round`` span as their parent, so their
kernel spans join the dispatching lane.

A layer's self time is the measure of the instants at which one of its
spans is open and none of that span's children is (children may run
concurrently on worker threads, so their intervals are merged before
they are subtracted, and a layer's own spans are merged per lane).
Within one lane the self-time sets of different layers are disjoint,
so the per-layer self times of a lane sum to at most the wall time of
its root spans.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: Value reported for a per-layer metric whose layer did not run on the
#: workload.  No metric can be negative, so it cannot be mistaken for a
#: measurement (a zero would read as "timed at zero").
ABSENT = -1.0


class Span:
    """One timed call into a layer."""

    __slots__ = ("id", "name", "start", "end", "parent", "lane", "run_id")

    def __init__(self, sid, name, start, parent, lane, run_id):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.lane = lane
        self.run_id = run_id

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans and counters in memory; thread-safe."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.run_id = "setup"
        self._ids = itertools.count()
        self._lanes = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rounds: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _root_lane(self) -> str:
        if threading.current_thread() is threading.main_thread():
            return "main"
        lane = getattr(self._local, "lane", None)
        if lane is None:
            lane = self._local.lane = f"thread{next(self._lanes)}"
        return lane

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            with self._lock:
                parent = self._rounds[-1] if self._rounds else None
        lane = parent.lane if parent is not None else self._root_lane()
        s = Span(
            next(self._ids), name, time.perf_counter(),
            parent.id if parent is not None else None, lane, self.run_id,
        )
        stack.append(s)
        is_round = name == "exec.round"
        if is_round:
            with self._lock:
                self._rounds.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                if is_round:
                    self._rounds.remove(s)
                self.spans.append(s)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value


# -- wrappers -----------------------------------------------------------------


def _array_bytes(obj) -> int:
    """Bytes of the NumPy arrays inside a message payload (envelopes are
    tuples around the array)."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(o) for o in obj)
    return 0


def _cells_of(kernel, src) -> int:
    """Cells one kernel call updates: a sparse kernel's processed cells,
    else the interior of the (possibly subregion) halo-padded field."""
    cells = getattr(kernel, "processed_cells", None)
    if cells is not None:
        return int(cells)
    n = 1
    for extent in src.shape[1:]:
        n *= extent - 2
    return n


class Instrumentation:
    """Installs and removes the span wrappers around the layers.

    A wrapper captured while installed (a driver binds some methods once
    at construction) calls straight through once the tracer is removed.

    Kernel classes are discovered from the objects
    ``lbm.kernels.registry.make_kernel`` returns (so any tier it can
    build is covered) plus the sparse kernel classes; discovered classes
    stay known across phases, so a later phase wraps kernels built in an
    earlier one.
    """

    def __init__(self):
        self.tracer: Optional[Tracer] = None
        self._saved: List[Tuple[object, str, bool, object]] = []
        self._kernel_classes: set = set()
        self.reliable_comms: list = []

    # -- patching helpers ----------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _span_method(self, owner, attr: str, name: str, hook=None) -> None:
        fn = getattr(owner, attr)
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = inst.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)

        self._set(owner, attr, wrapper)

    def _wrap_kernel_class(self, cls) -> None:
        inst = self
        call = cls.__call__

        @functools.wraps(call)
        def wrapper(kernel, src, dst):
            tracer = inst.tracer
            if tracer is None:
                return call(kernel, src, dst)
            with tracer.span("lbm.kernels"):
                call(kernel, src, dst)
            tracer.count("lbm.kernels.cells", _cells_of(kernel, src))

        self._set(cls, "__call__", wrapper)

    # -- install / remove ----------------------------------------------------
    def install(self, tracer: Tracer) -> None:
        from repro.comm import buffersystem, ghostlayer, spmd, vmpi
        from repro.core.timeloop import TimeLoop
        from repro.exec.engine import ThreadedEngine
        from repro.geometry import CapsuleTreeGeometry
        from repro.lbm.boundary import BoundaryHandling
        from repro.lbm.kernels import registry, sparse

        self.tracer = tracer
        inst = self

        for cls in (
            sparse.IntervalSparseKernel,
            sparse.IndexListSparseKernel,
            sparse.ConditionalSparseKernel,
        ):
            self._kernel_classes.add(cls)
        for cls in self._kernel_classes:
            self._wrap_kernel_class(cls)
        # Signed-distance queries: block classification during the
        # partition search and voxelization during the driver build.
        for attr in ("phi", "boundary_color"):
            self._span_method(CapsuleTreeGeometry, attr, "geometry")

        make_kernel = registry.make_kernel

        @functools.wraps(make_kernel)
        def traced_make_kernel(*args, **kwargs):
            kernel = make_kernel(*args, **kwargs)
            base = kernel.kernel if isinstance(
                kernel, registry.InstrumentedKernel) else kernel
            cls = type(base)
            if cls not in inst._kernel_classes:
                inst._kernel_classes.add(cls)
                inst._wrap_kernel_class(cls)
            return kernel

        # Drivers import make_kernel by name: patch every binding of it.
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro.")
                    and getattr(mod, "make_kernel", None) is make_kernel):
                self._set(mod, "make_kernel", traced_make_kernel)

        self._span_method(TimeLoop, "step", "core.timeloop.step")
        self._span_method(BoundaryHandling, "apply", "lbm.boundary")

        def stats_delta(tracer, fn, args, kwargs):
            stats = args[0].stats
            m0, b0 = stats.remote_messages, stats.remote_bytes
            out = fn(*args, **kwargs)
            tracer.count("comm.messages", stats.remote_messages - m0)
            tracer.count("comm.bytes", stats.remote_bytes - b0)
            return out

        self._span_method(ghostlayer.GhostExchange, "exchange",
                          "comm.exchange", stats_delta)
        self._span_method(buffersystem.CoalescedGhostExchange, "start",
                          "comm.exchange", stats_delta)
        for attr in ("exchange", "finish"):
            self._span_method(buffersystem.CoalescedGhostExchange, attr,
                              "comm.exchange")
        self._span_method(ghostlayer.SpmdGhostExchange, "exchange",
                          "comm.exchange")
        for attr in ("exchange", "start", "local", "finish"):
            self._span_method(buffersystem.BufferSystem, attr, "comm.exchange")

        for attr in ("recv", "probe_any", "barrier"):
            self._span_method(vmpi.Comm, attr, "comm.vmpi.wait")
        self._span_method(vmpi.Request, "wait", "comm.vmpi.wait")
        for attr in ("send", "isend"):
            fn = getattr(vmpi.Comm, attr)

            def counted(self_, obj, *args, _fn=fn, **kwargs):
                tracer = inst.tracer
                if tracer is not None:
                    tracer.count("comm.vmpi.messages")
                    tracer.count("comm.vmpi.bytes", _array_bytes(obj))
                return _fn(self_, obj, *args, **kwargs)

            self._set(vmpi.Comm, attr, functools.wraps(fn)(counted))
        init = vmpi.ReliableComm.__init__

        @functools.wraps(init)
        def reliable_init(self_, *args, **kwargs):
            init(self_, *args, **kwargs)
            if inst.tracer is not None:
                inst.reliable_comms.append(self_)

        self._set(vmpi.ReliableComm, "__init__", reliable_init)

        def round_delta(tracer, fn, args, kwargs):
            engine, tasks = args[0], args[1]
            s0, b0, d0 = (engine.steals, engine.busy_wall_seconds,
                          engine.dispatch_wall_seconds)
            out = fn(*args, **kwargs)
            tracer.count("exec.tasks", len(tasks))
            tracer.count("exec.steals", engine.steals - s0)
            tracer.count("exec.busy_seconds", engine.busy_wall_seconds - b0)
            tracer.count("exec.capacity_seconds", engine.workers * (
                engine.dispatch_wall_seconds - d0))
            return out

        # Only the threaded engine is the exec layer at work; the serial
        # engine runs tasks inline on the caller.
        self._span_method(ThreadedEngine, "run", "exec.round", round_delta)
        self._span_method(spmd, "spmd_rank_program", "comm.spmd.rank")

    def remove(self) -> None:
        for owner, attr, had, value in reversed(self._saved):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._saved = []
        self.tracer = None

    @contextmanager
    def active(self, tracer: Tracer):
        self.install(tracer)
        try:
            yield tracer
        finally:
            self.remove()


# -- the per-layer ledger -------------------------------------------------------


def _merge(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return merged


def _subtract(a, b, covered):
    """Parts of [a, b] outside the merged, sorted ``covered`` intervals."""
    out = []
    for c0, c1 in covered:
        if c1 <= a or c0 >= b:
            continue
        if c0 > a:
            out.append((a, c0))
        a = max(a, c1)
    if a < b:
        out.append((a, b))
    return out


def self_seconds(spans: List[Span]) -> Dict[Tuple[str, str], float]:
    """Self time per ``(lane, span name)``: the measure of the union of
    each span's interval minus its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    pieces = defaultdict(list)
    for s in spans:
        covered = _merge(children.get(s.id, ()))
        pieces[(s.lane, s.name)].extend(_subtract(s.start, s.end, covered))
    return {
        key: sum(b - a for a, b in _merge(iv)) for key, iv in pieces.items()
    }


def root_seconds(spans: List[Span]) -> Dict[str, float]:
    """Wall time of each lane's root spans (those without a parent)."""
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s.parent is None:
            out[s.lane] += s.end - s.start
    return dict(out)


def _per_layer(selfs, name):
    return sum(v for (_lane, n), v in selfs.items() if n == name)


def step_metrics(tracer: Tracer, steps: int, stream_gbps: float,
                 bytes_per_cell: int) -> Dict[str, float]:
    """Per-layer metrics of the traced time steps (``steps`` time steps
    of the simulation; span times are summed over lanes)."""
    spans = tracer.spans
    c = tracer.counters
    names = {s.name for s in spans}
    selfs = self_seconds(spans)
    out: Dict[str, float] = {}

    def per_step(v):
        return v / steps

    if "lbm.kernels" in names:
        calls = sum(1 for s in spans if s.name == "lbm.kernels")
        secs = _per_layer(selfs, "lbm.kernels")
        cells = c["lbm.kernels.cells"]
        bytes_step = per_step(cells * bytes_per_cell)
        gbps = bytes_step / per_step(secs) / 1e9
        out.update({
            "lbm.kernels.seconds": per_step(secs),
            "lbm.kernels.calls": per_step(calls),
            "lbm.kernels.cells_per_call": cells / calls,
            "lbm.kernels.bytes_modelled": bytes_step,
            "lbm.kernels.gbps": gbps,
            "lbm.kernels.stream_fraction": gbps / stream_gbps,
        })
    if "lbm.boundary" in names:
        out["lbm.boundary.seconds"] = per_step(_per_layer(selfs, "lbm.boundary"))
        out["lbm.boundary.calls"] = per_step(
            sum(1 for s in spans if s.name == "lbm.boundary"))
    if "comm.exchange" in names:
        by_id = {s.id: s for s in spans}
        top = [
            s for s in spans if s.name == "comm.exchange"
            and (s.parent is None or by_id[s.parent].name != "comm.exchange")
        ]
        if "comm.vmpi.wait" in names:
            msgs, nbytes = c["comm.vmpi.messages"], c["comm.vmpi.bytes"]
        else:
            msgs, nbytes = c["comm.messages"], c["comm.bytes"]
        out.update({
            "comm.exchange.seconds": per_step(_per_layer(selfs, "comm.exchange")),
            "comm.exchange.calls": per_step(len(top)),
            "comm.messages_per_step": per_step(msgs),
            "comm.bytes_per_step": per_step(nbytes),
        })
    if "comm.vmpi.wait" in names:
        out["comm.vmpi.wait_seconds"] = per_step(
            _per_layer(selfs, "comm.vmpi.wait"))
        out["comm.vmpi.messages"] = per_step(c["comm.vmpi.messages"])
    if "exec.round" in names:
        rounds = [s for s in spans if s.name == "exec.round"]
        out.update({
            "exec.rounds": per_step(len(rounds)),
            "exec.round_seconds": per_step(sum(s.end - s.start for s in rounds)),
            "exec.self_seconds": per_step(_per_layer(selfs, "exec.round")),
            "exec.tasks_per_round": c["exec.tasks"] / len(rounds),
            "exec.steals": per_step(c["exec.steals"]),
            "exec.busy_fraction": (
                c["exec.busy_seconds"] / c["exec.capacity_seconds"]
                if c["exec.capacity_seconds"] > 0 else 0.0
            ),
        })
    if "core.timeloop.step" in names:
        durations = sorted(
            s.end - s.start for s in spans if s.name == "core.timeloop.step")
        q = statistics.quantiles(durations, n=10) if len(durations) > 1 \
            else [durations[0]] * 9
        out.update({
            "core.timeloop.step_seconds_p50": statistics.median(durations),
            "core.timeloop.step_seconds_p90": q[8],
            "core.timeloop.self_seconds": per_step(
                _per_layer(selfs, "core.timeloop.step")),
        })
    return out


def retry_ratio(reliable_comms) -> float:
    """Retransmits per sequenced message over the traced ranks."""
    sent = sum(rc.counters.get("comm.seq_messages", 0) for rc in reliable_comms)
    retx = sum(rc.counters.get("comm.retransmits", 0) for rc in reliable_comms)
    return retx / sent if sent else 0.0


def setup_seconds(tracer: Tracer, name: str) -> Optional[float]:
    """Self seconds of the set-up layer ``name`` (None if it did not run)."""
    if not any(s.name == name for s in tracer.spans):
        return None
    return _per_layer(self_seconds(tracer.spans), name)
