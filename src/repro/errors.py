"""Exception hierarchy for the repro framework.

All framework errors derive from :class:`ReproError` so callers can catch
framework failures without swallowing programming errors such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro framework."""


class GeometryError(ReproError):
    """Invalid or degenerate geometry input (empty mesh, zero-area triangle...)."""


class PartitioningError(ReproError):
    """Domain partitioning failed (no feasible block decomposition, bad target)."""


class CommunicationError(ReproError):
    """Virtual MPI misuse or failure (bad rank, mismatched collective...)."""


class RecvTimeoutError(CommunicationError):
    """A receive hit its deadline with no matching message delivered.

    The resilient communication layer (:class:`repro.comm.vmpi.ReliableComm`)
    catches this internally and retries with backoff; it only escapes to the
    caller on the non-resilient path or once retries are exhausted."""


class RetryExhaustedError(CommunicationError):
    """The resilient receive path gave up after its maximum number of
    timeout/retransmit attempts (the peer is presumed dead)."""


class RankCrashedError(CommunicationError):
    """A virtual rank was killed by the fault injector (or died mid-run).

    Raised out of :meth:`repro.comm.vmpi.VirtualMPI.run` so chaos
    harnesses can catch it and exercise the checkpoint-restart path."""


class GhostFlagMismatchError(CommunicationError):
    """A block's ghost-layer FLUID flags differ from its neighbor's
    interior FLUID flags, so sender and receiver of a fluid-pruned ghost
    plan would select different PDF values."""


class LoadBalanceError(ReproError):
    """Load balancing could not satisfy its constraints."""


class FileFormatError(ReproError):
    """Corrupt or incompatible block-structure file."""


class CheckpointError(FileFormatError):
    """Corrupt, truncated, or incompatible simulation checkpoint file."""


class ConfigurationError(ReproError):
    """Inconsistent simulation configuration (bad relaxation time, sizes...)."""


class NumericalError(ReproError):
    """The simulation diverged (NaN/Inf PDFs or unstable velocities)."""


class KernelBuildError(ReproError):
    """A compiled kernel tier could not be generated, compiled or loaded
    on this host (no C compiler, compiler failure, unloadable artifact).
    The kernel registry catches it and falls back to a NumPy tier."""


class KernelLayoutError(ReproError, ValueError):
    """Kernel arguments have the wrong dtype or memory layout (e.g. a
    float32 field, or a non-unit stride on the innermost axis)."""
