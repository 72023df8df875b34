"""Read-only record of the machine and software a benchmark run used."""

from __future__ import annotations

import os
import platform
from pathlib import Path

# /proc/stat "cpu" line fields, after the label, in kernel order.
_CPU_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")


def cpu_ticks() -> dict:
    """Aggregate CPU tick counters from /proc/stat (empty where unavailable)."""
    try:
        with open("/proc/stat") as fh:
            first = fh.readline().split()
    except OSError:
        return {}
    return {name: int(value) for name, value in zip(_CPU_FIELDS, first[1:])}


def tick_delta(before: dict, after: dict) -> dict:
    """Steal and iowait ticks that passed between two cpu_ticks readings."""
    return {
        f"{name}_ticks": after.get(name, 0) - before.get(name, 0)
        for name in ("steal", "iowait")
    }


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> dict:
    import numpy as np
    import scipy

    out = {}
    for lib in (np, scipy):
        try:
            blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[lib.__name__] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            out[lib.__name__] = "unknown"
    return out


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(root),
        "seed": seed,
    }
