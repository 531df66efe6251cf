"""The host's speed at a moment, read with a fixed reference task.

On a shared host the CPU's speed changes from second to second and from
minute to minute.  On the 2-vCPU host this benchmark was sized on it
dropped by 1.6x and at times by 3x (a fixed pure-Python loop took 5.4 ms
or 8.6 ms), and process CPU time moved the same way, so it is no steal
time.  Raw median op times then spread across ten runs by more than a
regression bound can absorb (figures in perfbench/README.md).

:meth:`HostSpeed.slowdown` times the reference task, in the process
that just did the work being measured, and says how much slower than
:data:`REFERENCE_MS` it ran.  A time divided by it is that time at the
reference speed.  The task is the benchmark's own code and calls nothing
in the program, so no change to the program moves it.

An op that keeps two processes busy for part of its time (the batch
call: validation in the caller, then the pool's two workers at once)
needs a reading of both kinds.  ``HostSpeed(processes=2)`` times the
task alone and then in two processes at once, and takes the mean of the
two.  On the 2-vCPU host two processes at once ran 1.5 to 2 times slower
each than one alone, and against the task read alone the batch call
sped up by ~20% for minutes at a time while single-process ops did not.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

#: The reference task's time at full speed on the host the benchmark was
#: sized on (its 10th percentile there).  It only sets the scale.
REFERENCE_MS = 7.3


class HostSpeed:
    """The reference task, in two halves of about equal time at full
    speed, one for each kind of work the ops do.

    - A pointer chase in Python along one random cycle through a 2 MiB
      numpy array: the ``LinkedList`` validation walk and the dynamic
      edits.  It slows the most when the host does.
    - Tight integer arithmetic in Python and two vectorized random
      gathers over the same array: the interpreter overhead, pickling
      and engine sweeps that dominate the batch call.  It slows less.

    Either half alone tracked some workloads well and others badly (see
    perfbench/README.md); their sum tracks all three in-process ones.
    """

    CHASE_STEPS = 24000
    LOOP_STEPS = 20000

    def __init__(self, processes: int = 1) -> None:
        order = np.random.default_rng(0).permutation(1 << 18)
        self.next = np.empty_like(order)
        self.next[order] = np.roll(order, -1)
        self.peers = []  # (process, pipe end) of each peer process
        self.alone_ms: list[float] = []     # every reading, for the log
        self.together_ms: list[float] = []
        ctx = multiprocessing.get_context("fork")
        for _ in range(processes - 1):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_peer, args=(self, there), daemon=True)
            proc.start()
            there.close()
            self.peers.append((proc, here))

    def task_ms(self) -> float:
        """The task's time now.  With peers: the mean of its time alone
        and its mean time in this process and every peer at once."""
        alone = self.one_task_ms()
        self.alone_ms.append(alone)
        if not self.peers:
            return alone
        for _, pipe in self.peers:
            pipe.send(True)
        together = [self.one_task_ms()]
        together += [pipe.recv() for _, pipe in self.peers]
        self.together_ms.append(sum(together) / len(together))
        return (alone + self.together_ms[-1]) / 2

    def one_task_ms(self) -> float:
        nxt = self.next
        t0 = time.perf_counter()
        v = 0
        for _ in range(self.CHASE_STEPS):
            v = int(nxt[v])
        acc = 0
        for i in range(self.LOOP_STEPS):
            acc += i * i
        nxt[nxt[nxt]].sum()
        return (time.perf_counter() - t0) * 1e3

    def slowdown(self, repeats: int = 1) -> float:
        """The task's time now (median of ``repeats``) over
        :data:`REFERENCE_MS`."""
        times = sorted(self.task_ms() for _ in range(repeats))
        return times[repeats // 2] / REFERENCE_MS

    def close(self) -> None:
        """Stop the peer processes and wait until they have exited."""
        for proc, pipe in self.peers:
            try:
                pipe.send(False)
            except OSError:
                pass
            proc.join(5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.peers = []


def _peer(speed: HostSpeed, pipe) -> None:
    """A peer process: run the task whenever asked, until told to stop."""
    while pipe.recv():
        pipe.send(speed.one_task_ms())
