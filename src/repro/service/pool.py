"""Warm worker pool running whole analyses in persistent processes.

The DD kernel is single-threaded by design (ROADMAP: the process pool
*is* the concurrency model), so the serving layer's unit of parallelism
is one whole ``analyze()`` call per worker process.  Each worker is
persistent — spawned once, kept warm across requests, holding a small
parsed-net cache so repeat requests against the same net skip the
parse — and speaks the same wire idiom as the portfolio workers: nets
cross the process boundary as canonical ``.pnet`` text, specs as
``AnalysisSpec.to_dict()`` payloads, results as
``AnalysisResult.to_dict()`` dicts.

The failure discipline:

* a worker that raises *inside* a request reports a structured
  ``("error", ...)`` reply and stays alive for the next request;
* a worker that dies (SIGKILL, BDD kernel abort) is detected by the
  poll loop after :data:`~repro.workers.DEAD_WORKER_GRACE_POLLS` empty
  polls — its queued reply may still be buffered — and is respawned
  with a **fresh task queue** (a dead worker's undrained tasks must
  not leak into its replacement), its pending requests resubmitted;
* after :data:`~repro.workers.MAX_RESPAWNS` respawns the slot is
  retired and its pending requests are redistributed over the
  surviving workers;
* when no workers survive (or none could ever spawn — daemonic parent,
  sandbox without semaphores) the pool reports
  ``mode="serial-fallback"`` and hands every pending request back to
  the caller as an ``("orphan", ...)`` event — the
  :class:`~repro.service.server.AnalysisService` then solves those
  in-process.

Shutdown is polite-then-forceful via
:func:`~repro.workers.reap_processes`, with a
``weakref.finalize`` safety net so a leaked pool cannot strand
processes.
"""

from __future__ import annotations

import hashlib
import queue
import weakref
from typing import Any, Dict, List, Optional, Tuple

from ..workers import (DEAD_WORKER_GRACE_POLLS, MAX_QUEUE_POISON,
                       MAX_RESPAWNS, WorkerHarness, reap_processes,
                       resolve_workers)

__all__ = ["AnalysisWorkerPool", "PoolEvent"]

#: Parsed nets one worker keeps warm before recycling the cache.
WORKER_NET_CACHE = 8

#: One pool event: ``("result", request_id, result_dict)``,
#: ``("error", request_id, {"kind", "detail"})`` or
#: ``("orphan", request_id)`` (the pool can no longer run it; the
#: caller should solve it in-process).
PoolEvent = Tuple


def _service_worker_main(worker_id: int, task_queue, result_queue) -> None:
    """One service worker: a warm analysis loop.

    Top level so it pickles under every start method.  Protocol:

    * ``("run", request_id, net_text, spec_dict)`` — parse (or reuse a
      warm parse of) the net, run ``analyze``, reply ``("result",
      worker_id, request_id, result_dict)``; a per-request exception
      replies ``("error", worker_id, request_id, info)`` and the worker
      lives on,
    * ``("stop",)`` — exit.

    Anything fatal outside a request dies silently — the parent's crash
    detection treats it exactly like a SIGKILL.
    """
    try:
        import warnings

        from ..analysis.facade import analyze
        from ..analysis.spec import AnalysisSpec
        from ..petri.parser import loads

        nets: Dict[str, Any] = {}
        while True:
            task = task_queue.get()
            if not isinstance(task, tuple) or not task:
                continue
            if task[0] == "stop":
                break
            if task[0] != "run" or len(task) != 4:
                continue
            _tag, request_id, net_text, spec_dict = task
            try:
                digest = hashlib.sha256(
                    net_text.encode("utf-8")).hexdigest()
                net = nets.get(digest)
                if net is None:
                    net = loads(net_text)
                    if len(nets) >= WORKER_NET_CACHE:
                        nets.clear()
                    nets[digest] = net
                spec = AnalysisSpec.from_dict(spec_dict)
                with warnings.catch_warnings():
                    # Inapplicable-option warnings already fired when
                    # the submitting process validated the spec.
                    warnings.simplefilter("ignore")
                    result = analyze(net, spec)
                result_queue.put(
                    ("result", worker_id, request_id, result.to_dict()))
            except Exception as exc:
                result_queue.put(("error", worker_id, request_id,
                                  {"kind": type(exc).__name__,
                                   "detail": str(exc)}))
    except BaseException:
        pass


class _ServiceSlot:
    """One pool slot: its process, queue and pending-request ledger."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.task_queue = None
        self.pending: Dict[Any, Tuple[str, Dict[str, Any]]] = {}
        self.respawns = 0
        self.completed = 0
        self.retired = False

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class AnalysisWorkerPool:
    """Persistent ``analyze()`` workers multiplexing service requests.

    Parameters
    ----------
    workers:
        Pool size: a positive integer, ``"auto"`` (CPU count) or ``0``
        to skip processes entirely (every submit is refused and the
        caller solves serially — the deterministic mode the benchmarks
        use).
    harness:
        Process-primitive seam (:class:`~repro.workers.WorkerHarness`);
        tests inject fakes or force the serial degradation here.

    The pool is lazy: processes spawn on the first :meth:`submit`.
    """

    def __init__(self, workers: "int | str" = "auto",
                 harness: Optional[WorkerHarness] = None) -> None:
        self.requested_workers = workers
        self.harness = harness if harness is not None else WorkerHarness()
        self.mode: Optional[str] = None
        self.slots: List[_ServiceSlot] = []
        self.crashes: List[Dict[str, Any]] = []
        self.poison = 0
        self._result_queue = None
        self._grace: Dict[int, int] = {}
        self._inflight: Dict[Any, int] = {}  # request_id -> worker_id
        self._processes: List = []           # every process ever spawned
        self._finalizer = weakref.finalize(self, reap_processes,
                                           self._processes)
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _activate(self) -> None:
        count = resolve_workers(self.requested_workers,
                                self.harness.cpu_count()) \
            if self.requested_workers != 0 else 0
        if count < 1 or not self.harness.available():
            self.mode = "serial-fallback"
            return
        try:
            self._result_queue = self.harness.create_queue()
            for worker_id in range(count):
                slot = _ServiceSlot(worker_id)
                self._spawn(slot)
                self.slots.append(slot)
        except Exception:
            reap_processes([s.process for s in self.slots
                            if s.process is not None])
            self.slots = []
            self.mode = "serial-fallback"
            return
        self.mode = "process"

    def _spawn(self, slot: _ServiceSlot) -> None:
        # Fresh task queue per (re)spawn — see module docstring.
        slot.task_queue = self.harness.create_queue()
        slot.process = self.harness.spawn(
            slot.worker_id, _service_worker_main,
            (slot.worker_id, slot.task_queue, self._result_queue))
        self._processes.append(slot.process)

    def close(self) -> None:
        """Stop the pool: polite stop, then terminate → join → kill."""
        if self._closed:
            return
        self._closed = True
        for slot in self.slots:
            if slot.alive():
                try:
                    slot.task_queue.put(("stop",))
                except Exception:
                    pass
        reap_processes([s.process for s in self.slots
                        if s.process is not None])

    def __enter__(self) -> "AnalysisWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------

    def _live_slots(self) -> List[_ServiceSlot]:
        return [slot for slot in self.slots
                if not slot.retired and slot.alive()]

    def submit(self, request_id, net_text: str,
               spec_dict: Dict[str, Any]) -> bool:
        """Dispatch one request to the least-loaded live worker.

        Returns ``False`` when the pool cannot take it (serial-fallback
        mode, or every worker gone) — the caller then solves
        in-process.  Never raises for a dead pool.
        """
        if self.mode is None:
            self._activate()
        if self.mode == "serial-fallback":
            return False
        live = self._live_slots()
        if not live:
            self.mode = "serial-fallback"
            return False
        slot = min(live, key=lambda s: len(s.pending))
        try:
            slot.task_queue.put(("run", request_id, net_text, spec_dict))
        except Exception:
            return False
        slot.pending[request_id] = (net_text, spec_dict)
        self._inflight[request_id] = slot.worker_id
        return True

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # -- collection ----------------------------------------------------

    def poll(self) -> List[PoolEvent]:
        """One poll round: drain ready replies, detect dead workers.

        Blocks at most one
        :meth:`~repro.workers.WorkerHarness.poll_interval`;
        returns the events that became available (possibly none).
        Callers loop while they have unresolved requests.
        """
        events: List[PoolEvent] = []
        if not self._inflight:
            # Still sweep for crashes: a worker that dies while idle
            # must be respawned (or retired), not silently shrink the
            # pool.
            self._check_crashes(events)
            return events
        try:
            message = self._result_queue.get(
                timeout=self.harness.poll_interval())
        except queue.Empty:
            self._check_crashes(events)
            return events
        except Exception:
            self.poison += 1
            if self.poison >= MAX_QUEUE_POISON:
                # The queue itself is broken: orphan everything.
                for slot in self.slots:
                    self._orphan_slot(slot, events)
                self.mode = "serial-fallback"
            return events
        if (isinstance(message, tuple) and len(message) == 4
                and message[0] in ("result", "error")):
            tag, worker_id, request_id, payload = message
            # The request's ledger entry lives with its current owner
            # (possibly not the replying worker, after a
            # redistribution); a reply for an unknown id is a stale
            # duplicate from before a crash recovery and is dropped.
            owner = self._inflight.pop(request_id, None)
            if owner is not None:
                self.slots[owner].pending.pop(request_id, None)
                self.slots[worker_id].completed += 1
                events.append((tag, request_id, payload))
        return events

    def _check_crashes(self, events: List[PoolEvent]) -> None:
        # Idle slots (empty pending) are checked too: a worker that
        # crashes between requests still needs its respawn-or-retire.
        for slot in list(self.slots):
            if slot.retired or slot.alive():
                continue
            count = self._grace.get(slot.worker_id, 0) + 1
            self._grace[slot.worker_id] = count
            if count < DEAD_WORKER_GRACE_POLLS:
                continue  # its final reply may still be buffered
            del self._grace[slot.worker_id]
            self._recover(slot, events)

    def _recover(self, slot: _ServiceSlot,
                 events: List[PoolEvent]) -> None:
        """Respawn a crashed slot (bounded) or retire it."""
        action = "respawn" if slot.respawns < MAX_RESPAWNS else "retire"
        self.crashes.append({
            "worker": slot.worker_id,
            "pending": len(slot.pending),
            "action": action,
        })
        if action == "respawn":
            slot.respawns += 1
            try:
                self._spawn(slot)
                for request_id, (net_text, spec_dict) in \
                        list(slot.pending.items()):
                    slot.task_queue.put(
                        ("run", request_id, net_text, spec_dict))
                return
            except Exception:
                slot.process = None
        self._retire(slot, events)

    def _retire(self, slot: _ServiceSlot,
                events: List[PoolEvent]) -> None:
        """Drop a slot for good; move its pending requests elsewhere."""
        slot.retired = True
        pending = list(slot.pending.items())
        slot.pending.clear()
        for request_id, (net_text, spec_dict) in pending:
            self._inflight.pop(request_id, None)
            live = self._live_slots()
            if live:
                target = min(live, key=lambda s: len(s.pending))
                try:
                    target.task_queue.put(
                        ("run", request_id, net_text, spec_dict))
                    target.pending[request_id] = (net_text, spec_dict)
                    self._inflight[request_id] = target.worker_id
                    continue
                except Exception:
                    pass
            events.append(("orphan", request_id))
        if not self._live_slots():
            self.mode = "serial-fallback"

    def _orphan_slot(self, slot: _ServiceSlot,
                     events: List[PoolEvent]) -> None:
        slot.retired = True
        for request_id in list(slot.pending):
            self._inflight.pop(request_id, None)
            events.append(("orphan", request_id))
        slot.pending.clear()

    # -- introspection -------------------------------------------------

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (the CLI's kill-a-worker hook)."""
        return [slot.process.pid for slot in self.slots
                if slot.alive() and slot.process.pid is not None]

    def stats(self) -> Dict[str, Any]:
        return {
            "mode": self.mode or "idle",
            "workers": len(self.slots),
            "live": len(self._live_slots()),
            "completed": sum(slot.completed for slot in self.slots),
            "respawns": sum(slot.respawns for slot in self.slots),
            "retired": sum(1 for slot in self.slots if slot.retired),
            "crashes": list(self.crashes),
            "inflight": len(self._inflight),
        }
