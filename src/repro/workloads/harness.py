"""End-to-end timing harness for the T1–T5 experiment tables.

The paper measures end-to-end wall-clock runtimes (§6.2: "The runtimes
are, like before, end-to-end"). :func:`measure` runs a thunk once or
several times and returns a :class:`Measurement` of its median time;
resource-cap failures of the single-threaded engines are reported as
DNF rows, mirroring the capped bars of Fig. 12.

For the speedup analysis (T4 / Fig. 14) the paper also reports the
*aggregated* runtime over the cluster. We approximate aggregated
core-time as the CPU time consumed by the whole process tree (driver
python + JVM + Python workers), sampled from ``/proc`` before and
after the run (DESIGN.md §4: local-mode substitution for per-executor
task times).
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from statistics import median

from ..jsoniq.errors import ResourceCapExceeded

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _descendants(root_pid: int) -> set[int]:
    """All live descendant PIDs of ``root_pid`` (plus itself), from /proc."""
    children: dict[int, list[int]] = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                parts = f.read().rsplit(")", 1)[1].split()
            ppid = int(parts[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(pid))
    out = {root_pid}
    frontier = [root_pid]
    while frontier:
        p = frontier.pop()
        for c in children.get(p, ()):
            if c not in out:
                out.add(c)
                frontier.append(c)
    return out


def process_tree_cpu_seconds(root_pid: int | None = None) -> float:
    """Total user+system CPU seconds of the process tree rooted at
    ``root_pid`` (default: this process). Exited children are *not*
    counted, so callers should sample around a run while workers stay
    alive (Spark's python workers are reused by default)."""
    root = root_pid or os.getpid()
    total = 0.0
    for pid in _descendants(root):
        try:
            with open(f"/proc/{pid}/stat") as f:
                parts = f.read().rsplit(")", 1)[1].split()
            utime, stime = int(parts[11]), int(parts[12])
            total += (utime + stime) / _CLK_TCK
        except (OSError, IndexError, ValueError):
            continue
    return total


@dataclass
class Measurement:
    """One experiment cell: a (system, query, scale) runtime."""

    system: str
    query: str
    scale: int
    wall_s: float
    cpu_s: float | None = None
    dnf: bool = False
    dnf_reason: str = ""
    result: object = field(default=None, repr=False)

    def cell(self) -> str:
        if self.dnf:
            return f"DNF({self.dnf_reason})"
        return f"{self.wall_s:.2f}s"


def measure(system: str, query: str, scale: int, thunk, *,
            with_cpu: bool = False, repeat: int = 1) -> Measurement:
    """Run ``thunk`` end-to-end ``repeat`` times and report the median
    wall (and CPU) time, so that a small cell is not one query's noise;
    resource-cap errors become DNF rows at the first run that hits one."""
    walls, cpus = [], []
    for _ in range(repeat):
        cpu0 = process_tree_cpu_seconds() if with_cpu else None
        t0 = time.perf_counter()
        try:
            result = thunk()
        except ResourceCapExceeded as exc:
            wall = time.perf_counter() - t0
            return Measurement(system, query, scale, wall, None, True,
                               type(exc).__name__)
        walls.append(time.perf_counter() - t0)
        if with_cpu:
            cpus.append(process_tree_cpu_seconds() - cpu0)
    return Measurement(system, query, scale, median(walls), median(cpus) if cpus else None,
                       result=result)


def format_table(title: str, rows: list[Measurement],
                 columns: tuple[str, ...] = ("system", "query", "scale")) -> str:
    """Fixed-width text table of measurements, one line per cell —
    the printable reproduction of a paper figure."""
    header = " | ".join(f"{c:<14}" for c in columns) + " | runtime"
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for m in rows:
        vals = [str(getattr(m, c)) for c in columns]
        line = " | ".join(f"{v:<14}" for v in vals) + f" | {m.cell()}"
        if m.cpu_s is not None:
            line += f" (cpu {m.cpu_s:.2f}s)"
        lines.append(line)
    return "\n".join(lines)
