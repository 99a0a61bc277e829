"""Child-process lifecycle for the benchmark: own process groups, bounded
teardown, leak checks for processes and shared-memory segments, and the
CPU-time reads behind the gated timings.

Every process the benchmark starts is the leader of a new session, so the
shard workers and resource tracker it forks share its process group and
can be signalled together.  Teardown escalates: a polite stop (close stdin,
or SIGINT to the leader so the training driver unwinds through
``executor.close()``), a bounded wait, SIGTERM to the group, another bounded
wait, then SIGKILL to the group.  After a group is down, no member may be
alive and no ``repro-shm-*`` / ``repro-xp-*`` segment created meanwhile by a
member (or by a process that is gone) may remain; a leftover is removed and
reported as a leak.  Segments of live processes outside the group belong to
someone else (a test run, another benchmark) and are left alone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Dict, List, Optional, Sequence

SHM_DIR = "/dev/shm"
SHM_PREFIXES = ("repro-shm-", "repro-xp-")


class BenchError(RuntimeError):
    """A failure that invalidates the whole run (no result is printed)."""


def shm_segments() -> set:
    try:
        names = os.listdir(SHM_DIR)
    except FileNotFoundError:
        return set()
    return {name for name in names if name.startswith(SHM_PREFIXES)}


def segment_creator(name: str) -> Optional[int]:
    """The creating pid in a ``repro-shm-<pid>-<n>`` / ``repro-xp-<pid>-<n>`` name."""
    try:
        return int(name.rsplit("-", 2)[1])
    except (IndexError, ValueError):
        return None


def process_group(pid: int) -> Optional[int]:
    """Process group of ``pid``, or ``None`` when it is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command: state ppid pgrp ...
    fields = stat[stat.rfind(")") + 2 :].split()
    if len(fields) < 3 or fields[0] == "Z":
        return None
    return int(fields[2])


def group_members(pgid: int) -> List[int]:
    """Pids in process group ``pgid`` that are not zombies."""
    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and process_group(int(entry)) == pgid
    ]


def cpu_seconds(pids) -> float:
    """CPU time the scheduler gave ``pids`` (all their threads), in seconds.

    Read from ``schedstat``, which on a paravirtualised guest leaves out the
    time the hypervisor stole from the virtual CPU.  Pids or threads that
    are gone count 0.
    """
    nanoseconds = 0
    for pid in pids:
        try:
            threads = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for thread in threads:
            try:
                with open(f"/proc/{pid}/task/{thread}/schedstat") as handle:
                    nanoseconds += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return nanoseconds / 1e9


class Child:
    """One started process (its own group) plus its resource accounting."""

    def __init__(self, argv: Sequence[str], *, env: Dict[str, str], name: str,
                 log_path: str, pipes: bool = False) -> None:
        self.name = name
        self.log_path = log_path
        self.shm_before = shm_segments()
        # Output goes to a log file, never to an unread pipe that could fill
        # up and block the child; ``pipes`` gives a stdin/stdout pair for
        # the request stream of ``repro serve``.
        with open(log_path, "wb") as log:
            self.launched = time.monotonic()
            self.proc = subprocess.Popen(
                list(argv),
                stdin=subprocess.PIPE if pipes else subprocess.DEVNULL,
                stdout=subprocess.PIPE if pipes else log,
                stderr=log,
                env=env,
                start_new_session=True,
            )
        self.pgid = self.proc.pid
        #: Every pid seen in the group; their segments are this child's.
        self.seen = {self.proc.pid}
        self.returncode: Optional[int] = None
        self.peak_rss_mb: float = 0.0

    def _reap(self, timeout: float) -> bool:
        """Wait for the leader; record its exit status and peak RSS."""
        if self.returncode is not None:
            return True
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
                # Popen must not wait on a pid that is already reaped.
                self.proc.returncode = self.returncode
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def wait(self, timeout: float) -> int:
        """Wait for a normal exit; raise (after teardown) on timeout."""
        if not self._reap(timeout):
            self.stop()
            raise BenchError(f"{self.name} did not finish within {timeout:.0f} s")
        self._wait_group(5.0)
        return self.returncode

    def log_tail(self, lines: int = 15) -> str:
        try:
            with open(self.log_path, errors="replace") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""

    def _wait_group(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while self.alive():
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.pgid, sig)
        except ProcessLookupError:
            pass

    def stop(self, grace: float = 5.0) -> None:
        """Escalating teardown; idempotent and safe on an exited process."""
        if self.returncode is None:
            if self.proc.stdin is not None and not self.proc.stdin.closed:
                try:
                    self.proc.stdin.close()
                except OSError:
                    pass
            else:
                try:
                    os.kill(self.proc.pid, signal.SIGINT)
                except ProcessLookupError:
                    pass
            self._reap(grace)
        if not self._wait_group(grace if self.returncode is None else 1.0):
            self._signal_group(signal.SIGTERM)
            self._reap(grace)
            if not self._wait_group(grace):
                self._signal_group(signal.SIGKILL)
                self._reap(grace)
                self._wait_group(grace)
        self._reap(grace)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass

    def alive(self) -> List[int]:
        members = group_members(self.pgid)
        self.seen.update(members)
        return members

    def owns_segment(self, name: str) -> bool:
        """Was segment ``name`` made by this child's group (or an orphan)?"""
        creator = segment_creator(name)
        if creator is None:
            return False
        if creator in self.seen:
            return True
        group = process_group(creator)
        return group is None or group == self.pgid


class Supervisor:
    """Owns every child of one benchmark run and checks they leave nothing."""

    def __init__(self) -> None:
        self.children: List[Child] = []
        self.leaks: List[str] = []

    def start(self, argv: Sequence[str], *, env: Dict[str, str], name: str,
              log_path: str, pipes: bool = False) -> Child:
        child = Child(argv, env=env, name=name, log_path=log_path, pipes=pipes)
        self.children.append(child)
        return child

    def finish(self, child: Child) -> None:
        """Tear ``child`` down and record any process or segment it left."""
        if child in self.children:
            self.children.remove(child)
        # The shard workers are alive until the polite stop; note their pids
        # before it, so the segments they made are recognised as this child's.
        child.alive()
        child.stop()
        for pid in child.alive():
            self.leaks.append(f"{child.name}: process {pid} still alive")
        new = sorted(shm_segments() - child.shm_before)
        for name in filter(child.owns_segment, new):
            self.leaks.append(f"{child.name}: shm segment {name} left behind")
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except FileNotFoundError:
                pass

    def close_all(self) -> None:
        for child in reversed(list(self.children)):
            self.finish(child)
