"""The sweep engine: persistent worker pools with work stealing.

One engine serves one (virtual-MPI) rank.  A *round* is the execution
of a list of :class:`SweepTask` items — typically the per-block or
per-slab pieces of one sweep of one time step.  Tasks must write
disjoint regions (the decompositions in :mod:`repro.exec.partition`
and the drivers guarantee this), so execution order is irrelevant and
results are bit-identical to a serial sweep.

Scheduling (``ThreadedEngine``)
-------------------------------
Tasks are sharded deterministically onto per-worker deques by greedy
LPT (largest cost first, onto the least-loaded queue).  A worker claims
from the *front* of its own deque (counted as ``exec.claims``) and,
when empty, steals from the *back* of a peer's (``exec.steals``) — the
classic work-stealing split that keeps owner and thief on opposite
ends.  The pool is persistent: threads are started on the first round
and reused every step, so the steady state performs no thread churn and
no field-sized allocation.  The GIL is released inside the large
contiguous NumPy ufunc chunks of the kernels, so slabs and blocks
genuinely execute concurrently.

Accounting
----------
Per round the engine accumulates, per worker, busy wall seconds and
busy *CPU* seconds (``time.thread_time``).  The CPU measure is what
makes the SMT-ladder analog honest on a time-shared host: the critical
path ``max_w(cpu_w)`` is the wall time the round would take if every
worker owned a hardware thread, which is exactly the quantity the
paper's Figure 5 varies.  With a timing tree attached the engine emits
the ``exec.*`` counters and files per-worker busy times as
``worker:<i>`` children of the dispatching sweep's scope.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    # A runtime import would recurse: ``repro.perf`` initializes
    # ``repro.core``, whose simulation driver imports this package.
    from ..perf.timing import TimingNode, TimingTree

__all__ = [
    "EXEC_MODES",
    "SweepTask",
    "ExecutionEngine",
    "SerialEngine",
    "ThreadedEngine",
    "make_engine",
    "resolve_exec_mode",
]

#: The execution strategies a driver can request.
EXEC_MODES = ("serial", "threads")


class SweepTask:
    """One independent unit of sweep work.

    ``fn`` is a zero-argument callable (typically a closure over a
    kernel, a field pair, and a slab box — re-reading ``field.src`` at
    call time so the two-grid swap stays transparent).  ``cost`` guides
    the LPT sharding (use interior cell counts); ``name`` is purely
    diagnostic.
    """

    __slots__ = ("fn", "cost", "name")

    def __init__(self, fn: Callable[[], None], cost: float = 1.0, name: str = ""):
        self.fn = fn
        self.cost = float(cost)
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepTask {self.name or self.fn!r} cost={self.cost:g}>"


class ExecutionEngine:
    """Common state and reporting shared by the serial/threaded engines.

    Cumulative statistics (across all rounds since construction):

    ``tasks_run`` / ``claims`` / ``steals``
        work items executed, split by how they were acquired;
    ``busy_wall_seconds`` / ``dispatch_wall_seconds``
        summed per-worker busy wall time vs. the wall time rounds were
        in flight (their ratio over ``workers`` is the busy fraction);
    ``critical_path_seconds``
        summed per-round ``max`` over workers of busy CPU seconds — the
        parallel-execution-time analog used by the MLUPS ladder;
    ``worker_cpu_seconds``
        per-worker cumulative busy CPU seconds.
    """

    mode = "serial"

    def __init__(self, workers: int, tree: Optional[TimingTree] = None):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.tree = tree
        self.tasks_run = 0
        self.claims = 0
        self.steals = 0
        self.busy_wall_seconds = 0.0
        self.dispatch_wall_seconds = 0.0
        self.critical_path_seconds = 0.0
        self.worker_cpu_seconds = [0.0] * self.workers

    # -- the driver-facing protocol -----------------------------------------
    def run(self, tasks: Sequence[SweepTask]) -> None:
        """Execute ``tasks`` and block until all are done."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Stop worker threads (no-op for the serial engine)."""

    # -- shared bookkeeping --------------------------------------------------
    def _account_round(
        self,
        n_tasks: int,
        claims: int,
        steals: int,
        wall: Sequence[float],
        cpu: Sequence[float],
        counts: Sequence[int],
        dispatch_wall: float,
        anchor: Optional[TimingNode],
    ) -> None:
        """Fold one finished round into the cumulative statistics and
        (when a tree is attached) the timing counters/scopes."""
        self.tasks_run += n_tasks
        self.claims += claims
        self.steals += steals
        busy = 0.0
        critical = 0.0
        for w in range(self.workers):
            busy += wall[w]
            self.worker_cpu_seconds[w] += cpu[w]
            if cpu[w] > critical:
                critical = cpu[w]
        self.busy_wall_seconds += busy
        self.dispatch_wall_seconds += dispatch_wall
        self.critical_path_seconds += critical
        tree = self.tree
        if tree is None:
            return
        tree.add_counter("exec.tasks", n_tasks)
        tree.add_counter("exec.claims", claims)
        tree.add_counter("exec.steals", steals)
        tree.add_counter("exec.critical_path_seconds", critical)
        denom = self.workers * self.dispatch_wall_seconds
        if denom > 0.0:
            tree.set_counter(
                "exec.worker_busy_fraction", self.busy_wall_seconds / denom
            )
        if anchor is not None:
            for w in range(self.workers):
                if counts[w]:
                    tree.record_at(anchor, f"worker:{w}", wall[w])

    def summary(self) -> str:
        """One-line utilization summary for reports."""
        frac = (
            self.busy_wall_seconds / (self.workers * self.dispatch_wall_seconds)
            if self.dispatch_wall_seconds > 0.0
            else 0.0
        )
        return (
            f"{self.mode} engine: {self.workers} worker(s), "
            f"{self.tasks_run} tasks ({self.claims} claimed, "
            f"{self.steals} stolen), busy fraction {frac:.2f}, "
            f"critical path {self.critical_path_seconds:.4f} s"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialEngine(ExecutionEngine):
    """Inline execution on the calling thread (``exec_mode="serial"``).

    Emits the same ``exec.*`` accounting as the threaded engine (with
    every task a claim and the critical path equal to the full busy CPU
    time), so the workers=1 rung of the MLUPS ladder comes from the
    same instruments as the parallel rungs.
    """

    mode = "serial"

    def __init__(self, tree: Optional[TimingTree] = None):
        super().__init__(1, tree)

    def run(self, tasks: Sequence[SweepTask]) -> None:
        """Execute ``tasks`` inline, in order."""
        t0w = time.perf_counter()
        t0c = time.thread_time()
        for task in tasks:
            task.fn()
        wall = time.perf_counter() - t0w
        cpu = time.thread_time() - t0c
        n = len(tasks)
        anchor = self.tree.current if self.tree is not None else None
        self._account_round(
            n, n, 0, (wall,), (cpu,), (n,), wall, anchor
        )


class ThreadedEngine(ExecutionEngine):
    """Persistent worker pool with per-worker deques and stealing
    (``exec_mode="threads"``).

    Threads are daemonic and started lazily on the first round; call
    :meth:`shutdown` for a deterministic teardown (the drivers and the
    benchmarks do).  :meth:`run` returns once the round has drained.
    """

    mode = "threads"

    def __init__(self, workers: int, tree: Optional[TimingTree] = None):
        super().__init__(workers, tree)
        self._queues: List[deque] = [deque() for _ in range(self.workers)]
        self._cond = threading.Condition()
        self._pending = 0
        self._epoch = 0
        self._stop = False
        self._started = False
        self._anchor: Optional[TimingNode] = None
        self._threads: List[threading.Thread] = []
        self._errors: List[BaseException] = []
        # Per-round, per-worker accumulators (reset at dispatch, read at
        # completion; reused so the steady state allocates nothing).
        self._round_wall = [0.0] * self.workers
        self._round_cpu = [0.0] * self.workers
        self._round_claims = [0] * self.workers
        self._round_steals = [0] * self.workers
        self._round_counts = [0] * self.workers

    # -- lifecycle -----------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        for w in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop,
                args=(w,),
                name=f"repro-exec-{w}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()

    def shutdown(self) -> None:
        """Stop and join the worker threads (idempotent)."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            with self._cond:
                self._stop = True
                self._cond.notify_all()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------------
    def run(self, tasks: Sequence[SweepTask]) -> None:
        """Shard ``tasks`` onto the worker deques, wake the pool and
        block until the round drains; re-raises the first task error."""
        self._ensure_started()
        n = len(tasks)
        anchor = self.tree.current if self.tree is not None else None
        if n == 0:
            zeros = [0.0] * self.workers
            self._account_round(
                0, 0, 0, zeros, zeros, [0] * self.workers, 0.0, anchor
            )
            return
        # Deterministic greedy LPT: heaviest task first onto the
        # least-loaded queue (ties broken by worker index).
        order = sorted(range(n), key=lambda i: (-tasks[i].cost, i))
        loads = [0.0] * self.workers
        with self._cond:
            for w in range(self.workers):
                self._round_wall[w] = 0.0
                self._round_cpu[w] = 0.0
                self._round_claims[w] = 0
                self._round_steals[w] = 0
                self._round_counts[w] = 0
            del self._errors[:]
            for i in order:
                w = min(range(self.workers), key=lambda k: (loads[k], k))
                loads[w] += tasks[i].cost
                self._queues[w].append(tasks[i])
            self._anchor = anchor
            self._pending = n
            self._epoch += 1
            dispatch_t0 = time.perf_counter()
            self._cond.notify_all()
            while self._pending > 0:
                self._cond.wait()
            dispatch_wall = time.perf_counter() - dispatch_t0
            n = sum(self._round_counts)
            claims = sum(self._round_claims)
            steals = sum(self._round_steals)
            self._anchor = None
            errors = list(self._errors)
            del self._errors[:]
        self._account_round(
            n, claims, steals, self._round_wall, self._round_cpu,
            self._round_counts, dispatch_wall, anchor,
        )
        if errors:
            raise errors[0]

    # -- the worker side -----------------------------------------------------
    def _grab(self, wid: int):
        """Claim from the own queue's front, else steal from a peer's
        back; returns ``(task, stolen)`` or ``(None, False)``."""
        try:
            return self._queues[wid].popleft(), False
        except IndexError:
            pass
        for off in range(1, self.workers):
            try:
                return self._queues[(wid + off) % self.workers].pop(), True
            except IndexError:
                continue
        return None, False

    def _worker_loop(self, wid: int) -> None:
        """Persistent worker: wait for an epoch, drain, repeat."""
        last_epoch = 0
        cond = self._cond
        tree = self.tree
        while True:
            with cond:
                while not self._stop and self._epoch == last_epoch:
                    cond.wait()
                if self._stop:
                    return
                last_epoch = self._epoch
            while True:
                task, stolen = self._grab(wid)
                if task is None:
                    break
                t0w = time.perf_counter()
                t0c = time.thread_time()
                try:
                    if tree is not None and self._anchor is not None:
                        with tree.at(self._anchor):
                            task.fn()
                    else:
                        task.fn()
                except BaseException as exc:  # re-raised by run()
                    with cond:
                        self._errors.append(exc)
                finally:
                    self._round_wall[wid] += time.perf_counter() - t0w
                    self._round_cpu[wid] += time.thread_time() - t0c
                    if stolen:
                        self._round_steals[wid] += 1
                    else:
                        self._round_claims[wid] += 1
                    self._round_counts[wid] += 1
                    with cond:
                        self._pending -= 1
                        if self._pending == 0:
                            cond.notify_all()


def make_engine(
    exec_mode: Optional[str], workers: int = 1, tree: Optional[TimingTree] = None
) -> ExecutionEngine:
    """Build the engine for ``exec_mode`` (one of :data:`EXEC_MODES`,
    or ``None`` for the default of :func:`resolve_exec_mode`).

    ``"serial"`` runs inline on one worker;  ``"threads"``
    builds a :class:`ThreadedEngine` with a pool of ``workers``
    persistent threads (``workers=1`` is a valid single-worker pool —
    useful for isolating dispatch overhead).
    """
    if resolve_exec_mode(exec_mode, workers) == "serial":
        return SerialEngine(tree)
    return ThreadedEngine(workers, tree)


def resolve_exec_mode(exec_mode: Optional[str], workers: int) -> str:
    """Validate an ``exec_mode`` / ``workers`` pair and resolve the
    ``None`` default: ``"threads"`` when ``workers > 1``, else
    ``"serial"``.  Raises :class:`~repro.errors.ConfigurationError`."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if exec_mode is None:
        return "threads" if workers > 1 else "serial"
    if exec_mode not in EXEC_MODES:
        raise ConfigurationError(
            f"exec_mode must be one of {EXEC_MODES}, got {exec_mode!r}"
        )
    return exec_mode
