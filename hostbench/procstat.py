"""Process-tree accounting read from ``/proc``: bytes written and peak RSS.

Both numbers are taken from outside the program: the kernel's per-process
``wchar`` counter (bytes handed to ``write``-family system calls, whatever
the file system) and ``VmHWM`` (the process's peak resident set).  Pool
workers are found as the live descendants of this process, so they must be
read before the pool that owns them shuts down.
"""

from __future__ import annotations

import os


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def descendants(root: int | None = None) -> list[int]:
    """Pids of every running process below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read(f"/proc/{entry}/stat")
        if stat is None:
            continue
        # The command name (field 2) may hold spaces; fields resume after ')'.
        state, ppid = stat[stat.rfind(")") + 2 :].split()[:2]
        if state != "Z":  # a zombie has ended; only its reaping is pending
            children.setdefault(int(ppid), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return sorted(found)


def written_bytes(pid: int) -> int:
    """Bytes ``pid`` has passed to write system calls (0 once it is gone)."""
    text = _read(f"/proc/{pid}/io") or ""
    for line in text.splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    return 0


def peak_rss_bytes(pid: int) -> int:
    """Peak resident set of ``pid`` so far (0 once it is gone)."""
    text = _read(f"/proc/{pid}/status") or ""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    return 0


class TreeSnapshot:
    """Write and peak-RSS totals of this process and its live descendants.

    ``workers()`` reads the descendants that exist now; call it while a
    farm's pool is still up.  Workers are counted whole, since each is
    forked for the pass that reads it.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.own_written = written_bytes(self.pid)
        self.worker_written = 0
        self.worker_peak = 0

    def workers(self) -> None:
        for pid in descendants(self.pid):
            self.worker_written += written_bytes(pid)
            self.worker_peak += peak_rss_bytes(pid)

    def written(self) -> int:
        return written_bytes(self.pid) - self.own_written + self.worker_written

    def peak_rss(self) -> int:
        return peak_rss_bytes(self.pid) + self.worker_peak
