"""Provenance attached to every benchmark result: host, versions, source
identity and the copy bandwidth measured in the same invocation."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from repro.perf.stream import measure_copy_bandwidth


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> Optional[int]:
    """Size of the last-level cache seen by CPU 0 (None if unknown)."""
    best_level, best_size = -1, None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        entries = sorted(base.glob("index*"))
    except OSError:
        return None
    for entry in entries:
        try:
            level = int((entry / "level").read_text())
            size = (entry / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        digits = size[:-1] if size[-1:] in "KMG" else size
        if level > best_level and digits.isdigit():
            best_level, best_size = level, int(digits) * mult
    return best_size


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the repository at ``root``; None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (``src/``), which identifies the
    code under test where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stream_copy(llc: Optional[int]) -> dict:
    """STREAM copy bandwidth with arrays of four times the LLC (or
    64 MiB when the LLC size is unknown)."""
    array_bytes = 4 * llc if llc else 64 * 1024**2
    result = measure_copy_bandwidth(n_doubles=array_bytes // 8, repeats=5)
    return {
        "copy_gbps": result.bandwidth_bytes_per_s / 1e9,
        "array_bytes": array_bytes,
    }


def collect(root: Path, working_set_bytes: int) -> dict:
    """Everything a result needs to be compared across commits and hosts."""
    llc = llc_bytes()
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "llc_bytes": llc,
        "working_set_bytes": working_set_bytes,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "stream": stream_copy(llc),
    }
