"""Process accounting for the benchmark: CPU time and live children."""

from __future__ import annotations

import multiprocessing
import os
import resource
from typing import List, Optional


def process_cpu_seconds() -> float:
    """User+sys CPU of this process, its reaped children, and its live
    worker processes (read from /proc: a persistent worker is never
    reaped inside an op).  Reaping moves a worker's time from the live
    sum to the reaped one, so the total only ever grows."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def live_children(parent: Optional[int] = None) -> List[int]:
    """Pids whose parent is ``parent`` (default: this process) and that
    have not exited (zombies excluded)."""
    parent = os.getpid() if parent is None else parent
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent and fields[0] != "Z":
            found.append(int(entry))
    return found
