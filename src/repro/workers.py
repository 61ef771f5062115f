"""Process primitives shared by every worker pool in the tree.

Two supervisors run work in child processes: the portfolio race
(:mod:`repro.analysis.portfolio`, one process per member, first
verdict wins) and the service pool (:mod:`repro.service.pool`, warm
``analyze()`` workers).  Both go through the one seam defined here:

* :class:`WorkerHarness` — start-method selection, the availability
  probe, spawning, the clock and the poll granularity.  Tests replace
  it with fakes (a virtual clock, scripted queues, a forced serial
  degradation) without touching a real process.
* :func:`reap_processes` — the one terminate → join-grace → kill
  shutdown discipline.
* :func:`resolve_workers` — ``"auto"`` | int pool sizing.
* the poll / grace / poison / respawn constants, so crash detection
  behaves the same in every pool.
"""

from __future__ import annotations

import os
import time
from typing import Optional

__all__ = [
    "WorkerHarness", "reap_processes", "resolve_workers",
    "POLL_INTERVAL", "DEAD_WORKER_GRACE_POLLS", "MAX_QUEUE_POISON",
    "MAX_RESPAWNS", "JOIN_TIMEOUT",
]

#: Result-queue poll granularity (seconds): bounds the latency of crash
#: and deadline detection, not of reply delivery (a reply wakes the
#: ``get`` immediately).
POLL_INTERVAL = 0.1
#: Empty polls a dead worker gets before it is declared crashed, so a
#: reply it flushed on the way out is not misread as a crash.
DEAD_WORKER_GRACE_POLLS = 2
#: Unreadable or malformed replies tolerated before a pool concludes
#: its result queue is unusable.
MAX_QUEUE_POISON = 3
#: Times one worker slot is restarted after a crash before it is
#: retired.
MAX_RESPAWNS = 1
#: Seconds a stopping worker gets to exit before terminate/kill.
JOIN_TIMEOUT = 2.0


def resolve_workers(workers, cpu_count: Optional[int] = None) -> int:
    """Resolve a ``workers`` setting (``"auto"`` | int) to a count.

    ``"auto"`` (or ``None``) takes ``cpu_count`` — the machine's CPU
    count when not given; explicit counts pass through.
    """
    if workers in (None, "auto"):
        return max(1, cpu_count or os.cpu_count() or 1)
    return int(workers)


class WorkerHarness:
    """The process primitives a pool runs on — the injection seam.

    The default implementation spawns real daemonic
    ``multiprocessing`` processes; tests substitute fakes.  A
    replacement must provide:

    * :meth:`available` — whether worker processes can run at all.
    * :meth:`create_queue` — a queue whose ``get(timeout=...)`` raises
      ``queue.Empty`` on timeout (any other exception is treated as a
      poisoned payload).
    * :meth:`spawn` — start ``target(*args)`` for the worker ``label``
      and return a process-like handle (``is_alive()``, ``exitcode``,
      ``pid``, ``terminate()``, ``kill()``, ``join(timeout)``).
    * :meth:`now` — the supervisor's clock (monotonic seconds).
    * :meth:`poll_interval` — how long one queue poll may block.
    * :meth:`cpu_count` — what ``workers="auto"`` resolves to.
    """

    def __init__(self, start_method: Optional[str] = None) -> None:
        self.start_method = start_method
        self._ctx = None

    def _context(self):
        if self._ctx is None:
            import multiprocessing
            self._ctx = (multiprocessing.get_context(self.start_method)
                         if self.start_method
                         else multiprocessing.get_context())
        return self._ctx

    def available(self) -> bool:
        """Whether worker processes can run at all.

        Daemonic parents (e.g. a service worker solving a portfolio
        request) cannot have children; sandboxes commonly refuse the
        semaphores a ``multiprocessing.Queue`` needs.  Probing here lets
        a supervisor degrade to serial instead of crashing mid-build.
        """
        try:
            import multiprocessing
            if multiprocessing.current_process().daemon:
                return False
            probe = self._context().Queue()
        except Exception:
            return False
        # Release the probe's feeder thread; some platforms leak it
        # otherwise.
        try:
            probe.close()
            probe.join_thread()
        except Exception:
            pass
        return True

    def create_queue(self):
        return self._context().Queue()

    def spawn(self, label, target, args):
        process = self._context().Process(
            target=target, args=args, name=f"repro-worker-{label}",
            daemon=True)
        process.start()
        return process

    def now(self) -> float:
        return time.monotonic()

    def poll_interval(self) -> float:
        return POLL_INTERVAL

    def cpu_count(self) -> int:
        return os.cpu_count() or 1


def reap_processes(processes) -> None:
    """Terminate → join-grace → kill every process (finalizer-safe).

    Every supervisor shuts its workers down through here, so shutdown
    discipline stays identical everywhere.
    """
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(JOIN_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join(JOIN_TIMEOUT)
        except Exception:
            pass
