"""Host record written with every result (a diagnostic, never gated).

The fixed reference loop, timed before and after a run, shows whether
the host was slow during it: a run whose loop time moved explains a
figure that moved with it.
"""

from __future__ import annotations

import os
import platform
import time


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: str) -> str:
    """Type of the mount holding ``path`` (longest matching mount point)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def reference_loop_s(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]


def host_record(state_dir: str) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "state_fs": _filesystem(state_dir),
    }
