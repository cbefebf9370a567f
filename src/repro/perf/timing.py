"""Hierarchical timing tree: waLBerla's ``TimingPool``/``TimingTree`` (§4).

The paper's performance methodology rests on per-sweep wall-clock
accounting: every result in §4 — kernel MLUPS, communication fractions
(the dotted lines of Figure 6), bandwidth utilization — is derived from
timers that waLBerla aggregates across MPI ranks with
``timing_pool.reduce()`` (min/avg/max per timer).  This module is that
instrument for the reproduction:

* :class:`TimingTree` — nested ``with tree.scoped("name"):`` scopes with
  per-node call counts, min/max/total seconds, plus named *counters*
  (cells updated, bytes exchanged) from which derived rates (MLUPS,
  communication bandwidth) are computed.
* :func:`reduce_trees` / :func:`reduce_over_comm` — cross-rank reduction
  producing per-node min/avg/max over the ranks of a
  :class:`~repro.comm.vmpi.VirtualMPI` world, mirroring waLBerla's
  reduced timing pool.
* a process-wide registry (:func:`get_timing_tree`) so decoupled
  subsystems can share one tree by name, like waLBerla's globally
  registered timing pools.

Everything is measured with ``time.perf_counter``; recording a closed
scope costs a few microseconds, small against an LBM sweep (see
``benchmarks/bench_timing_overhead.py`` for the <5 % overhead check).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "TimerStats",
    "TimingNode",
    "TimingTree",
    "ReducedTimingNode",
    "ReducedTimingTree",
    "reduce_trees",
    "reduce_over_comm",
    "get_timing_tree",
    "clear_timing_registry",
    "best_of",
    "KNOWN_COUNTERS",
    "register_counter",
]

#: The registered counter vocabulary: every counter name used with
#: :meth:`TimingTree.add_counter` / :meth:`TimingTree.set_counter` must
#: be declared here (or via :func:`register_counter`), so the reports,
#: the network-model validation, and the static lint (rule ``HYG004``
#: in :mod:`repro.analysis.hygiene_checks`) agree on one vocabulary —
#: a typo in a counter name would otherwise silently split a metric in
#: two.  Maps name -> one-line description.
KNOWN_COUNTERS: Dict[str, str] = {
    "cells_updated": "lattice cells updated (MLUPS numerator)",
    "fluid_cell_updates": "fluid-only cell updates (MFLUPS numerator)",
    "comm.local_bytes": "ghost bytes exchanged process-locally",
    "comm.remote_bytes": "ghost bytes sent over the transport",
    "comm.remote_messages": "ghost messages sent over the transport",
    "comm.seq_messages": "sequence-numbered envelopes sent (ReliableComm)",
    "comm.timeouts": "receive timeouts observed by ReliableComm",
    "comm.retransmits": "messages recovered from the retransmission ledger",
    "comm.duplicates_dropped": "stale duplicate deliveries discarded",
    "exec.tasks": "work items executed by the intra-rank sweep engine",
    "exec.claims": "tasks claimed from a worker's own queue",
    "exec.steals": "tasks stolen from a peer worker's queue",
    "exec.worker_busy_fraction": "busy wall time / (workers x dispatch wall)",
    "exec.critical_path_seconds": "accumulated max-per-worker CPU seconds",
    "faults.delayed": "messages delayed by the fault injector",
    "faults.dropped": "messages dropped by the fault injector",
    "faults.duplicated": "messages duplicated by the fault injector",
    "faults.stalls": "rank stalls injected",
    "faults.crashes": "rank crashes injected",
}


def register_counter(name: str, description: str = "") -> None:
    """Add a counter name to the registered vocabulary.

    Call this once, at import time, next to the subsystem that emits
    the counter; the lint rule ``HYG004`` flags any literal counter
    name that was never registered.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError("counter name must be a non-empty string")
    KNOWN_COUNTERS.setdefault(name, description)


@dataclass
class TimerStats:
    """Accumulated statistics of one timer: call count, total, min, max."""

    calls: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def record(self, seconds: float) -> None:
        """Account one measured interval."""
        self.calls += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "TimerStats") -> None:
        """Fold another timer's statistics into this one."""
        self.calls += other.calls
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Average seconds per call (0 when never called)."""
        return self.total / self.calls if self.calls else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready representation."""
        return {
            "calls": self.calls,
            "total": self.total,
            "min": self.min if self.calls else 0.0,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "TimerStats":
        """Inverse of :meth:`to_dict`."""
        s = cls()
        s.calls = int(d["calls"])
        s.total = float(d["total"])
        s.min = float(d["min"]) if s.calls else float("inf")
        s.max = float(d["max"])
        return s


class TimingNode:
    """One named scope in the tree: timer statistics plus child scopes."""

    __slots__ = ("name", "stats", "children")

    def __init__(self, name: str):
        self.name = name
        self.stats = TimerStats()
        self.children: Dict[str, TimingNode] = {}

    def child(self, name: str) -> "TimingNode":
        """Get or create the child scope ``name`` (insertion-ordered)."""
        node = self.children.get(name)
        if node is None:
            node = TimingNode(name)
            self.children[name] = node
        return node

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "TimingNode"]]:
        """Depth-first (pre-order) traversal yielding ``(depth, node)``."""
        yield depth, self
        for c in self.children.values():
            yield from c.walk(depth + 1)

    def merge(self, other: "TimingNode") -> None:
        """Recursively fold ``other``'s stats and children into this node."""
        self.stats.merge(other.stats)
        for name, child in other.children.items():
            self.child(name).merge(child)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested representation."""
        return {
            "name": self.name,
            **self.stats.to_dict(),
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TimingNode":
        """Inverse of :meth:`to_dict`."""
        node = cls(str(d["name"]))
        node.stats = TimerStats.from_dict(d)
        for c in d.get("children", ()):
            node.children[str(c["name"])] = cls.from_dict(c)
        return node


class TimingTree:
    """A process-local hierarchical timing pool.

    Typical use::

        tree = TimingTree()
        with tree.scoped("communication"):
            with tree.scoped("pack"):
                ...
        tree.add_counter("cells_updated", n_cells)
        print(tree.render())

    Thread safety
    -------------
    The tree is safe to use from the hybrid intra-rank worker pool (see
    :mod:`repro.exec`): every thread owns its *own* scope stack (so
    concurrent :meth:`scoped` calls cannot corrupt each other), while
    node mutation — child creation and timer accumulation — is guarded
    by one lock.  A worker thread's stack starts at the root; the sweep
    engine re-anchors it under the dispatching sweep's node with
    :meth:`at`, so per-tier kernel timers recorded on workers nest in
    the right place.  :meth:`record` / :meth:`record_at` account an
    externally measured duration without pushing any stack; per-tier
    child timers recorded by concurrent workers accumulate CPU time,
    which may legitimately exceed the parent's wall time.
    """

    def __init__(self) -> None:
        self.root = TimingNode("total")
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._epoch = 0
        self.counters: Dict[str, float] = {}

    def _stack(self) -> List[TimingNode]:
        """This thread's scope stack (created on first use; rebuilt when
        :meth:`reset` bumps the epoch so stale stacks never resurrect a
        discarded root)."""
        tls = self._tls
        if getattr(tls, "epoch", None) != self._epoch:
            tls.stack = [self.root]
            tls.epoch = self._epoch
        return tls.stack

    # -- scope management ---------------------------------------------------
    @property
    def current(self) -> TimingNode:
        """The innermost open scope *of this thread* (root when none)."""
        return self._stack()[-1]

    @contextmanager
    def scoped(self, name: str):
        """Context manager timing a nested scope named ``name``.

        Safe to enter concurrently from several threads: each thread
        nests under its own stack, and node updates are locked.
        """
        stack = self._stack()
        with self._lock:
            node = stack[-1].child(name)
        stack.append(node)
        t0 = time.perf_counter()
        try:
            yield node
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                node.stats.record(dt)
            popped = stack.pop()
            if popped is not node:  # pragma: no cover - defensive
                raise ConfigurationError(
                    f"timing scope stack corrupted at {name!r}"
                )

    @contextmanager
    def at(self, node: TimingNode):
        """Re-anchor *this thread's* scope stack at ``node``.

        Records nothing itself — it only makes ``node`` the thread's
        :attr:`current` scope, so timers recorded inside (e.g. the
        per-tier kernel timers of :class:`InstrumentedKernel` running on
        a worker thread) nest under the dispatching sweep instead of the
        root.  Used by the :mod:`repro.exec` worker pool.
        """
        stack = self._stack()
        stack.append(node)
        try:
            yield node
        finally:
            popped = stack.pop()
            if popped is not node:  # pragma: no cover - defensive
                raise ConfigurationError("timing anchor stack corrupted")

    def record(self, name: str, seconds: float) -> None:
        """Account ``seconds`` to child ``name`` of the current scope.

        Unlike :meth:`scoped` this does not push the scope stack, so it
        is safe to call concurrently from worker threads while the
        enclosing sweep scope stays open on the main thread.
        """
        with self._lock:
            self.current.child(name).stats.record(seconds)

    def record_at(self, node: TimingNode, name: str, seconds: float) -> None:
        """Account ``seconds`` to child ``name`` of an explicit ``node``
        (thread-safe; the sweep engine uses this to file per-worker busy
        times under the sweep that dispatched them, regardless of which
        thread performs the accounting)."""
        with self._lock:
            node.child(name).stats.record(seconds)

    # -- counters -----------------------------------------------------------
    def add_counter(self, name: str, value: float = 1.0) -> None:
        """Accumulate a named quantity (cell updates, bytes, ...)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def set_counter(self, name: str, value: float) -> None:
        """Overwrite a named quantity (for gauges such as the running
        ``exec.worker_busy_fraction`` ratio, where accumulation across
        steps would be meaningless)."""
        with self._lock:
            self.counters[name] = float(value)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0.0)

    # -- queries ------------------------------------------------------------
    def node(self, *path: str) -> Optional[TimingNode]:
        """Look up a node by path from the root; ``None`` if absent."""
        node = self.root
        for name in path:
            node = node.children.get(name)
            if node is None:
                return None
        return node

    def total_seconds(self) -> float:
        """Sum of top-level scope totals (the accounted wall time)."""
        return sum(c.stats.total for c in self.root.children.values())

    def fraction(self, name: str) -> float:
        """Share of accounted time spent in top-level scope ``name``."""
        total = self.total_seconds()
        node = self.root.children.get(name)
        if total <= 0.0 or node is None:
            return 0.0
        return node.stats.total / total

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded timers and counters (open scopes survive as
        fresh nodes only if re-entered)."""
        self.root = TimingNode("total")
        self._epoch += 1
        self._tls = threading.local()
        self.counters = {}

    def merge(self, other: "TimingTree") -> "TimingTree":
        """Fold another tree's timers and counters into this one."""
        self.root.merge(other.root)
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0.0) + v
        return self

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (tree plus counters)."""
        return {
            "schema": "repro.timing-tree/1",
            "counters": dict(self.counters),
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TimingTree":
        """Inverse of :meth:`to_dict`."""
        tree = cls()
        tree.root = TimingNode.from_dict(d["root"])
        tree._epoch += 1
        tree._tls = threading.local()
        tree.counters = {k: float(v) for k, v in d.get("counters", {}).items()}
        return tree

    # -- rendering ----------------------------------------------------------
    def render(self, title: str = "timing tree") -> str:
        """Aligned plain-text rendering (waLBerla timing-pool style)."""
        total = self.total_seconds()
        rows = []
        for depth, node in self.root.walk():
            if depth == 0:
                continue
            s = node.stats
            share = s.total / total if total > 0 else 0.0
            rows.append(
                (
                    "  " * (depth - 1) + node.name,
                    str(s.calls),
                    f"{s.total:.4f}",
                    f"{1e3 * s.mean:.3f}",
                    f"{1e3 * (s.min if s.calls else 0.0):.3f}",
                    f"{1e3 * s.max:.3f}",
                    f"{100 * share:.1f}%",
                )
            )
        header = ("scope", "calls", "total s", "avg ms", "min ms", "max ms", "%")
        lines = [f"{title}: {total:.4f} s accounted"]
        lines += _align(header, rows)
        if self.counters:
            lines.append("counters:")
            for k in sorted(self.counters):
                lines.append(f"  {k:<28s} {_fmt_counter(self.counters[k])}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimingTree {len(self.root.children)} top-level scopes>"


# -- cross-rank reduction ---------------------------------------------------


@dataclass
class ReducedTimingNode:
    """Cross-rank statistics of one scope: min/avg/max of per-rank totals."""

    name: str
    calls: int = 0
    total_min: float = float("inf")
    total_avg: float = 0.0
    total_max: float = 0.0
    n_ranks: int = 0
    children: "Dict[str, ReducedTimingNode]" = field(default_factory=dict)

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "ReducedTimingNode"]]:
        """Depth-first (pre-order) traversal yielding ``(depth, node)``."""
        yield depth, self
        for c in self.children.values():
            yield from c.walk(depth + 1)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested representation."""
        return {
            "name": self.name,
            "calls": self.calls,
            "total_min": self.total_min if self.n_ranks else 0.0,
            "total_avg": self.total_avg,
            "total_max": self.total_max,
            "n_ranks": self.n_ranks,
            "children": [c.to_dict() for c in self.children.values()],
        }


@dataclass
class ReducedTimingTree:
    """A timing tree reduced over the ranks of an SPMD run.

    Per node the *total* seconds of each rank are reduced to min / avg /
    max (waLBerla's ``timing_pool.reduce()``); counters are summed
    across ranks.
    """

    root: ReducedTimingNode
    n_ranks: int
    counters: Dict[str, float] = field(default_factory=dict)

    def node(self, *path: str) -> Optional[ReducedTimingNode]:
        """Look up a node by path from the root; ``None`` if absent."""
        node = self.root
        for name in path:
            node = node.children.get(name)
            if node is None:
                return None
        return node

    def total_seconds(self) -> float:
        """Sum of top-level average totals (avg accounted wall time)."""
        return sum(c.total_avg for c in self.root.children.values())

    def fraction(self, name: str) -> float:
        """Share of (average) accounted time in top-level scope ``name``."""
        total = self.total_seconds()
        node = self.root.children.get(name)
        if total <= 0.0 or node is None:
            return 0.0
        return node.total_avg / total

    def rows(self) -> List[Dict[str, Any]]:
        """Flat per-node records (path, calls, min/avg/max) for CSV export."""
        out: List[Dict[str, Any]] = []

        def visit(node: ReducedTimingNode, path: Tuple[str, ...]) -> None:
            for c in node.children.values():
                p = path + (c.name,)
                out.append(
                    {
                        "path": "/".join(p),
                        "depth": len(p),
                        "calls": c.calls,
                        "total_min": c.total_min if c.n_ranks else 0.0,
                        "total_avg": c.total_avg,
                        "total_max": c.total_max,
                        "n_ranks": c.n_ranks,
                    }
                )
                visit(c, p)

        visit(self.root, ())
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (reduced tree plus summed counters)."""
        return {
            "schema": "repro.timing-tree-reduced/1",
            "n_ranks": self.n_ranks,
            "counters": dict(self.counters),
            "root": self.root.to_dict(),
        }

    def to_json(self, path: str, **extra: Any) -> None:
        """Write the snapshot (plus ``extra`` top-level keys) as JSON."""
        payload = self.to_dict()
        payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)

    def render(self, title: str = "reduced timing tree") -> str:
        """Aligned text tree with per-node min/avg/max across ranks."""
        total = self.total_seconds()
        rows = []
        for depth, node in self.root.walk():
            if depth == 0:
                continue
            share = node.total_avg / total if total > 0 else 0.0
            rows.append(
                (
                    "  " * (depth - 1) + node.name,
                    str(node.calls),
                    f"{(node.total_min if node.n_ranks else 0.0):.4f}",
                    f"{node.total_avg:.4f}",
                    f"{node.total_max:.4f}",
                    f"{100 * share:.1f}%",
                )
            )
        header = ("scope", "calls", "min s", "avg s", "max s", "% avg")
        lines = [
            f"{title} ({self.n_ranks} ranks): {total:.4f} s avg accounted"
        ]
        lines += _align(header, rows)
        if self.counters:
            lines.append("counters (summed over ranks):")
            for k in sorted(self.counters):
                lines.append(f"  {k:<28s} {_fmt_counter(self.counters[k])}")
        return "\n".join(lines)


def reduce_trees(trees: Sequence[TimingTree]) -> ReducedTimingTree:
    """Reduce per-rank timing trees to min/avg/max-per-node statistics.

    The node set is the union over ranks; a rank that never entered a
    scope simply does not contribute to that node's statistics
    (``n_ranks`` records how many did).
    """
    if not trees:
        raise ConfigurationError("need at least one timing tree to reduce")
    n = len(trees)

    def reduce_nodes(
        name: str, nodes: Sequence[TimingNode]
    ) -> ReducedTimingNode:
        red = ReducedTimingNode(name)
        red.n_ranks = len(nodes)
        for node in nodes:
            s = node.stats
            red.calls += s.calls
            red.total_min = min(red.total_min, s.total)
            red.total_max = max(red.total_max, s.total)
            red.total_avg += s.total
        if nodes:
            red.total_avg /= len(nodes)
        child_names: List[str] = []
        for node in nodes:
            for cname in node.children:
                if cname not in child_names:
                    child_names.append(cname)
        for cname in child_names:
            present = [n.children[cname] for n in nodes if cname in n.children]
            red.children[cname] = reduce_nodes(cname, present)
        return red

    root = reduce_nodes("total", [t.root for t in trees])
    counters: Dict[str, float] = {}
    for t in trees:
        for k, v in t.counters.items():
            counters[k] = counters.get(k, 0.0) + v
    return ReducedTimingTree(root=root, n_ranks=n, counters=counters)


def reduce_over_comm(
    tree: TimingTree, comm, root: int = 0
) -> Optional[ReducedTimingTree]:
    """Gather every rank's tree to ``root`` and reduce (waLBerla's
    ``timing_pool.reduce()`` over a real communicator).

    ``comm`` follows the :class:`~repro.comm.vmpi.Comm` (mpi4py
    lower-case) API: snapshots travel as plain dicts via ``gather`` so
    the call also works over transports that serialize.  Returns the
    :class:`ReducedTimingTree` on the root rank, ``None`` elsewhere.
    """
    gathered = comm.gather(tree.to_dict(), root=root)
    if gathered is None:
        return None
    return reduce_trees([TimingTree.from_dict(d) for d in gathered])


# -- process-wide registry ---------------------------------------------------

_REGISTRY: Dict[str, TimingTree] = {}
_REGISTRY_LOCK = threading.Lock()


def get_timing_tree(name: str = "default") -> TimingTree:
    """Return the process-wide tree registered under ``name``, creating
    it on first use (waLBerla's globally shared timing pools)."""
    with _REGISTRY_LOCK:
        tree = _REGISTRY.get(name)
        if tree is None:
            tree = TimingTree()
            _REGISTRY[name] = tree
        return tree


def clear_timing_registry() -> None:
    """Drop every registered tree (tests / fresh runs)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()


# -- measurement helper ------------------------------------------------------


def best_of(repeats: int, fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Run ``fn`` ``repeats`` times; return (best wall seconds, last result).

    The best-of-N convention of STREAM and of the paper's kernel
    measurements — minimum over repetitions rejects interference noise.
    """
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    best = float("inf")
    result: Any = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, result


def _fmt_counter(value: float) -> str:
    """Integral counters with thousands separators, fractional ones
    (busy fractions, critical-path seconds) with four decimals."""
    if value == int(value):
        return f"{value:,.0f}"
    return f"{value:,.4f}"


def _align(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    """Left-align the first column, right-align the rest."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(
            h.ljust(w) if i == 0 else h.rjust(w)
            for i, (h, w) in enumerate(zip(header, widths))
        )
    ]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                c.ljust(w) if i == 0 else c.rjust(w)
                for i, (c, w) in enumerate(zip(row, widths))
            )
        )
    return lines
