"""Unit tests for the shared process primitives (:mod:`repro.workers`).

The supervisors built on them are exercised by their own fault suites:
``tests/analysis/test_portfolio_faults.py`` (the portfolio race) and
``tests/service/`` (the service pool).
"""

import multiprocessing
import os
import queue
import signal
import time

import pytest

from repro.workers import (JOIN_TIMEOUT, POLL_INTERVAL, WorkerHarness,
                           reap_processes, resolve_workers)


def _real_harness():
    harness = WorkerHarness()
    if not harness.available():
        pytest.skip("multiprocessing unavailable in this environment")
    return harness


def test_resolve_workers():
    assert resolve_workers(3) == 3
    assert resolve_workers(1) == 1
    assert resolve_workers("auto") >= 1
    assert resolve_workers(None) >= 1


def test_resolve_workers_auto_takes_the_given_cpu_count():
    assert resolve_workers("auto", 5) == 5
    assert resolve_workers(None, 3) == 3
    assert resolve_workers(2, 8) == 2


class _StubbornProcess:
    """Ignores terminate(); only kill() stops it."""

    def __init__(self):
        self.alive = True
        self.calls = []

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.calls.append("terminate")

    def kill(self):
        self.calls.append("kill")
        self.alive = False

    def join(self, timeout=None):
        self.calls.append("join")


class _BrokenProcess:
    def is_alive(self):
        raise OSError("handle already closed")


def test_reap_escalates_to_kill_and_survives_broken_handles():
    stubborn = _StubbornProcess()
    reap_processes([_BrokenProcess(), stubborn])
    assert stubborn.calls == ["terminate", "join", "kill", "join"]
    assert not stubborn.is_alive()


def _report_availability(result_queue):
    result_queue.put(WorkerHarness().available())


def test_harness_unavailable_inside_a_daemonic_process():
    """Daemonic processes cannot have children: the probe must say so
    instead of letting a supervisor fail at spawn time."""
    harness = _real_harness()
    result_queue = harness.create_queue()
    process = harness.spawn("probe", _report_availability, (result_queue,))
    try:
        assert result_queue.get(timeout=60) is False
    finally:
        reap_processes([process])
    assert multiprocessing.active_children() == []


def _echo(value, result_queue):
    result_queue.put(("echo", os.getpid(), value))


def test_spawn_runs_the_target_in_a_named_daemonic_child():
    harness = _real_harness()
    result_queue = harness.create_queue()
    process = harness.spawn(7, _echo, ({"n": 3}, result_queue))
    try:
        assert process.daemon
        assert process.name == "repro-worker-7"
        tag, pid, value = result_queue.get(timeout=60)
        process.join(60)
    finally:
        reap_processes([process])
    assert (tag, value) == ("echo", {"n": 3})
    assert pid == process.pid != os.getpid()
    assert process.exitcode == 0


def test_queue_get_times_out_with_queue_empty():
    """Supervisors tell "no reply yet" from a poisoned payload by this
    exception type alone."""
    harness = _real_harness()
    result_queue = harness.create_queue()
    with pytest.raises(queue.Empty):
        result_queue.get(timeout=harness.poll_interval())


def test_clock_poll_interval_and_cpu_count_defaults():
    harness = WorkerHarness()
    before = harness.now()
    assert harness.now() >= before
    assert harness.poll_interval() == POLL_INTERVAL
    assert harness.cpu_count() == (os.cpu_count() or 1)


def _ignore_sigterm_then_sleep(ready_queue):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready_queue.put("ready")
    time.sleep(600)


def test_reap_kills_a_real_child_that_ignores_terminate():
    harness = _real_harness()
    ready_queue = harness.create_queue()
    process = harness.spawn("stubborn", _ignore_sigterm_then_sleep,
                            (ready_queue,))
    try:
        assert ready_queue.get(timeout=60) == "ready"
    except BaseException:
        process.kill()
        raise
    started = time.monotonic()
    reap_processes([process])
    assert not process.is_alive()
    assert process.exitcode == -signal.SIGKILL
    # One join grace before the kill, not an unbounded wait.
    assert time.monotonic() - started < JOIN_TIMEOUT + 30


def test_reap_leaves_an_exited_child_alone():
    harness = _real_harness()
    result_queue = harness.create_queue()
    process = harness.spawn("done", _echo, (None, result_queue))
    result_queue.get(timeout=60)
    process.join(60)
    reap_processes([process])
    assert process.exitcode == 0


class _RecordingHarness(WorkerHarness):
    """Spawns nothing: hands out inert process and queue stand-ins and
    reports a fixed CPU count."""

    class _Process:
        pid = None
        exitcode = None

        def is_alive(self):
            return True

        def terminate(self):
            pass

        def kill(self):
            pass

        def join(self, timeout=None):
            pass

    def __init__(self, cpus):
        super().__init__()
        self.cpus = cpus
        self.spawned = []

    def available(self):
        return True

    def create_queue(self):
        return queue.Queue()

    def spawn(self, label, target, args):
        self.spawned.append(label)
        return self._Process()

    def cpu_count(self):
        return self.cpus


def test_supervisors_run_on_the_one_harness():
    """The service pool sizes ``workers="auto"`` from the harness it
    was given, and the portfolio's public harness name is this class."""
    import repro.analysis
    from repro.service import AnalysisWorkerPool

    assert repro.analysis.WorkerHarness is WorkerHarness
    harness = _RecordingHarness(cpus=3)
    pool = AnalysisWorkerPool(workers="auto", harness=harness)
    try:
        assert pool.submit("r1", "", {})
        assert harness.spawned == [0, 1, 2]
        assert pool.stats()["workers"] == 3
    finally:
        pool.close()
