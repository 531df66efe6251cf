"""Process supervision: no process the benchmark starts outlives it.

Every child starts in a session of its own, so that it and everything it
forks share one process group the supervisor can signal as a whole.  The
benchmark process is also made a child subreaper (Linux), so a
descendant orphaned by a double fork is re-parented to it rather than to
init, and stays visible as its descendant.

:meth:`Supervisor.close` stops every child: SIGTERM to the child, then
SIGKILL to its whole group after a deadline.  :meth:`Supervisor.leftovers`
then scans ``/proc`` for any process still in one of those sessions or
still descending from this process; the run fails if it finds one.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``prctl``); False if refused."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _stat(pid: int) -> tuple[str, int, int] | None:
    """``(state, ppid, session)`` of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[3])


class Supervisor:
    """Owns the benchmark's child processes."""

    def __init__(self) -> None:
        self.children: list[subprocess.Popen] = []
        self.sessions: set[int] = set()

    def spawn(self, cmd: list[str], **kwargs) -> subprocess.Popen:
        """Start ``cmd`` in a new session (its own process group)."""
        proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
        self.children.append(proc)
        self.sessions.add(proc.pid)
        return proc

    def stop(self, proc: subprocess.Popen, grace_s: float = 10.0) -> None:
        """SIGTERM ``proc``; SIGKILL its whole group if it has not exited
        within ``grace_s``; reap it.  Its group gets SIGKILL in any case,
        so nothing it forked survives it."""
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                pass
        self._kill_group(proc.pid)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            pass
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()

    @staticmethod
    def _kill_group(pgid: int) -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def close(self) -> None:
        """Stop every child still running (idempotent)."""
        for proc in self.children:
            self.stop(proc, grace_s=5.0)

    def leftovers(self, settle_s: float = 2.0) -> list[str]:
        """Processes that are still alive in one of our sessions or below
        this process, after reaping what has exited.  Each is killed and
        reported as ``"pid cmdline"``."""
        me = os.getpid()
        deadline = time.monotonic() + settle_s
        while True:
            self._reap()
            found = self._scan(me)
            if not found or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        report = []
        for pid in found:
            report.append(f"{pid} {_cmdline(pid)}")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if found:
            time.sleep(0.1)
            self._reap()
        return report

    def _scan(self, me: int) -> list[int]:
        table = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                st = _stat(int(name))
                if st is not None:
                    table[int(name)] = st
        found = []
        for pid, (state, ppid, session) in table.items():
            if pid == me or state in ("Z", "X"):
                continue
            mine = session in self.sessions
            up, hops = ppid, 0
            while not mine and up > 1 and hops < 64:
                mine = up == me
                up = table.get(up, ("", 0, 0))[1]
                hops += 1
            if mine:
                found.append(pid)
        return found

    @staticmethod
    def _reap() -> None:
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return "?"
