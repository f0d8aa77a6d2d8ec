"""The environment stamp recorded with every result.

Recorded so that two result sets can be compared only when they were
measured alike, and so that a drifting machine shows in the calibration
probe.  Nothing here is gated on.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _git(root: Path):
    """``(sha, dirty)`` of the checkout, or ``(None, None)`` outside git."""
    if not (root / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            env=env, capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def filesystem(path: Path) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    path = path.resolve()
    best = ("", "unknown")
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount, kind = fields[1], fields[2]
                inside = path == Path(mount) or Path(mount) in path.parents
                if inside and len(mount) >= len(best[0]):
                    best = (mount, kind)
    except OSError:
        pass
    return f"{best[1]} on {best[0] or '?'}"


def calibration_probe() -> float:
    """Median seconds of a fixed pure-Python plus NumPy loop (3 tries)."""
    values = np.random.default_rng(0).random(400_000)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        np.sort(values)
        np.bincount((values * 1000).astype(np.int64), minlength=1000)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stamp(root: Path, workdir: Path) -> dict:
    from repro.core import kernel_backend

    sha, dirty = _git(root)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "REPRO_KERNEL_BACKEND": os.environ.get(kernel_backend.BACKEND_ENV),
        "selected_backend": kernel_backend.SELECTED_BACKEND,
        "git_sha": sha,
        "git_dirty": dirty,
        "csv_filesystem": filesystem(workdir),
        "calibration_s": calibration_probe(),
    }
