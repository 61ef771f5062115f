"""The two workloads: what each round runs and how it is checked.

Every round runs a fixed unit of work, checks each answer against the
answer table and returns per-task records; the metrics are computed
from those records in ``run.py``.

* ``verify-functional`` — what a user of the paper's method runs:
  ``Analysis(net, AnalysisSpec())`` (BDD, functional image, improved
  encoding, reordering on), then the model checker answers deadlock,
  ``AG not deadlock`` at the initial marking, home marking and the live
  transition set.
* ``service-mixed`` — a request stream through
  ``AnalysisService(workers=2)``: a closed loop at burst granularity
  (each burst is submitted at once and the next waits for it, as
  ``cli.py batch`` does).  Halfway the service is closed and a fresh
  one opens over the same checkpoint directory with an empty cache
  directory, so its first request per key resumes a sealed checkpoint.

The instance mix is fixed per workload.  The seed draws the task order
of the verify workload; the service stream is fixed (see
:func:`service_stream`) and does not depend on the seed.  Runs with
different seeds therefore measure the same amount of work, which is
what lets run-to-run spread stay inside the metric bounds.

A third workload, ``reach-relational`` (``zdd/chained`` and
``relational/chained`` solves, where partitions, the fused
``and_exists`` and the ZDD manager do the work), was dropped so that
each run of the other two can measure 52 s instead of 30 s: at 30 s,
figures spread up to 33% between runs on 2-vCPU virtual machines.
Those engines still run inside the service workers.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import time
from typing import Any, Dict, List

#: Instances of the verify mix: sizes differ by family, so a fixed cost
#: added per net shows in ``task_s_geomean`` even where ``wall_s``
#: hides it.  The median task is slot-4 or dmespec-4, which take about
#: the same time, so one outlier barely moves ``latency_s_p50``.
VERIFY_INSTANCES = ("phil-4", "phil-6", "slot-3", "slot-4", "muller-4",
                    "muller-7", "muller-8", "dmespec-3", "dmespec-4")

#: Small nets of the service key set.
SERVICE_INSTANCES = ("phil-4", "slot-3", "muller-5", "dmespec-3")

#: Engine specs by label (built lazily: ``repro`` is imported in
#: ``run.py`` after the source path is set up).
SPEC_LABELS = ("bdd", "bdd-relational", "zdd")

#: Service stream shape per service lifetime (see :func:`service_stream`).
DUPLICATES = 4
HIT_BURSTS = 5
HIT_BURST_SIZE = 8
SERVICE_WORKERS = 2

#: Task id of the spans a traced service round records while it replays
#: the checkpoint resumes in the benchmark process.
REPLAY_TASK = "replay"

#: A task or request slower than this counts as failed.
TASK_TIMEOUT = 60.0

WORKLOADS = ("verify-functional", "service-mixed")


def all_instances() -> List[str]:
    """Every instance any seed can draw (the answer table's keys)."""
    return sorted(set(VERIFY_INSTANCES) | set(SERVICE_INSTANCES))


def make_spec(label: str):
    from repro.analysis import AnalysisSpec
    return {"bdd": AnalysisSpec,
            "bdd-relational": lambda: AnalysisSpec(form="relational"),
            "zdd": lambda: AnalysisSpec(backend="zdd")}[label]()


def _counters(analysis, result) -> Dict[str, Any]:
    """A finished task's result numbers and manager counters."""
    net = analysis.symbolic_net
    manager = getattr(net, "bdd", None)
    if manager is None:
        manager = net.zdd
    return {"peak_nodes": result.peak_nodes,
            "final_nodes": result.final_nodes,
            "variables": result.variables,
            "iterations": result.iterations,
            "build_s": result.extras["build_seconds"],
            "fixpoint_s": result.extras["fixpoint_seconds"],
            "gc_count": manager.gc_count,
            "reorder_count": manager.reorder_count,
            "peak_live_nodes": manager.peak_live_nodes,
            "ae_calls": manager.ae_calls,
            "ae_cache_hits": manager.ae_cache_hits}


class Inputs:
    """The nets, specs and answer entries one workload needs."""

    def __init__(self, workload: str, seed: int,
                 answers: Dict[str, Dict]) -> None:
        from answers import build_net

        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        names = {"verify-functional": VERIFY_INSTANCES,
                 "service-mixed": SERVICE_INSTANCES}[workload]
        self.nets = {name: build_net(name) for name in names}
        self.answers = {}
        for name, net in self.nets.items():
            entry = answers.get(name)
            if entry is None or entry["transitions"] != len(net.transitions):
                raise ValueError(f"answer table has no entry matching {name}")
            self.answers[name] = entry
        self.specs = {label: make_spec(label) for label in SPEC_LABELS}
        if workload == "verify-functional":
            self.tasks = [(name, "bdd") for name in names]
            random.Random(seed).shuffle(self.tasks)
        else:
            self.tasks = [(name, label) for name in names
                          for label in SPEC_LABELS]


# ----------------------------------------------------------------------
# Solver workloads
# ----------------------------------------------------------------------

def _verify_queries(analysis, tracer) -> Dict[str, Any]:
    checker = analysis.checker()
    symnet = analysis.symbolic_net
    with tracer.span("symbolic.checker.deadlock"):
        deadlock = checker.find_deadlocks().holds
    with tracer.span("symbolic.checker.ag"):
        safe = checker.ag(~symnet.deadlock_condition())
        ag_holds = not (symnet.initial & safe).is_zero()
    with tracer.span("symbolic.checker.home"):
        home = checker.can_always_recover(symnet.initial).holds
    with tracer.span("symbolic.checker.live"):
        live = sorted(checker.live_transitions())
    return {"deadlock": deadlock, "ag_no_deadlock": ag_holds,
            "home": home, "live": live}


def _check_solver(result, answers: Dict, entry: Dict) -> str:
    """Empty when the task's answers match the table, else why not."""
    if result.status != "complete":
        return f"status {result.status}"
    if result.markings != entry["markings"]:
        return f"markings {result.markings} != {entry['markings']}"
    expected = {"deadlock": entry["deadlock"],
                "ag_no_deadlock": not entry["deadlock"],
                "home": entry["home"], "live": entry["live"]}
    wrong = [key for key, value in expected.items()
             if answers[key] != value]
    return f"wrong {', '.join(wrong)}" if wrong else ""


def solver_round(inputs: Inputs, tracer) -> Dict[str, Any]:
    """Run the task list back to back; one record per task."""
    from repro.analysis import Analysis

    records = []
    gc.collect()
    round_start = time.perf_counter()
    for name, label in inputs.tasks:
        tracer.task = f"{name}/{label}"
        record: Dict[str, Any] = {"task": tracer.task, "error": ""}
        start = time.perf_counter()
        try:
            with tracer.span("bench.task"):
                analysis = Analysis(inputs.nets[name], inputs.specs[label])
                result = analysis.run()
                answers = _verify_queries(analysis, tracer)
            record["seconds"] = time.perf_counter() - start
            record["error"] = _check_solver(result, answers,
                                            inputs.answers[name])
            record.update(_counters(analysis, result))
            # Drop the task's manager before the next task starts, or
            # two tasks' node tables would be live at once.
            del analysis, result
        except Exception as exc:  # a failed task is counted, not fatal
            record["seconds"] = time.perf_counter() - start
            record["error"] = f"{type(exc).__name__}: {exc}"
        if not record["error"] and record["seconds"] > TASK_TIMEOUT:
            record["error"] = "timeout"
        records.append(record)
        # Collect between tasks: left to the cyclic collector, freed
        # managers linger and peak RSS depends on when it runs.
        gc.collect()
    tracer.task = None
    return {"wall": time.perf_counter() - round_start, "tasks": records}


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------

def service_stream(inputs: Inputs) -> List[List[List[int]]]:
    """Two lifetimes of bursts of task indices; the same for every seed.

    Per lifetime, one cold burst asks for every key once, in a fixed
    order (a request's latency depends on its queue position, and a
    shuffled cold burst made the p90 swing from round to round), plus
    the last ``DUPLICATES`` keys again, which dedupe against the solves
    in flight.  ``HIT_BURSTS`` bursts of ``HIT_BURST_SIZE`` requests
    then cycle through the keys.  Every key is solved before its first
    repeat and the result cache's memory LRU holds far more entries
    than there are keys, so every repeat is a memory hit whichever key
    it names: the hit share (40 of 56 requests, 71%) is a choice of
    this stream, not a measurement of real traffic.
    """
    keys = list(range(len(inputs.tasks)))
    cold = keys + keys[-DUPLICATES:]
    hits = [[keys[(burst * HIT_BURST_SIZE + i) % len(keys)]
             for i in range(HIT_BURST_SIZE)]
            for burst in range(HIT_BURSTS)]
    return [[cold] + hits for _ in range(2)]


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def service_round(inputs: Inputs, tracer, workdir: str,
                  replay: bool = False) -> Dict[str, Any]:
    """One scenario: a service lifetime, a restart, a second lifetime.

    With ``replay``, every sealed checkpoint is then resumed once more
    in this process (outside the round's wall time), see
    :func:`_replay_resumes`.
    """
    from repro.service import AnalysisService

    stream = service_stream(inputs)
    checkpoints = os.path.join(workdir, "checkpoints")
    records: List[Dict[str, Any]] = []
    services: List[Dict[str, Any]] = []
    gc.collect()
    round_start = time.perf_counter()
    for lifetime, bursts in enumerate(stream):
        cache_dir = os.path.join(workdir, f"cache-{lifetime}")
        with AnalysisService(cache_dir=cache_dir,
                             workers=SERVICE_WORKERS,
                             checkpoint_dir=checkpoints) as service:
            for burst in bursts:
                records.extend(_run_burst(service, inputs, burst,
                                          lifetime, tracer))
            stats = service.stats()
        services.append(stats)
    wall = time.perf_counter() - round_start
    checkpoint_bytes = _dir_bytes(checkpoints)
    replays = _replay_resumes(inputs, records, tracer) if replay else []
    shutil.rmtree(workdir, ignore_errors=True)
    tracer.task = None
    return {"wall": wall, "tasks": records, "services": services,
            "checkpoint_bytes": checkpoint_bytes, "replays": replays}


def _replay_resumes(inputs: Inputs, records: List[Dict[str, Any]],
                    tracer) -> List[str]:
    """Resume each cold solve's sealed checkpoint once, in this process.

    The restarted service's workers load the checkpoints, but their
    spans and payload timings leave the load out (a session's
    ``build_seconds`` stops before it resumes).  The traced run
    therefore repeats each resume here, with the same net, spec and
    checkpoint file, under the ``analysis.resume`` span.  Returns one
    error string per replay (empty when it resumed with the right
    count).
    """
    from repro.analysis import Analysis

    tracer.task = REPLAY_TASK
    errors = []
    for record in records:
        if record["lifetime"] != 0 or "checkpoint" not in record:
            continue
        name, label = record["instance"], record["label"]
        try:
            result = Analysis(inputs.nets[name], inputs.specs[label].replace(
                checkpoint_path=record["checkpoint"], resume=True)).run()
            status = result.extras.get("resume", {}).get("status")
            error = ("" if status == "resumed"
                     and result.markings == inputs.answers[name]["markings"]
                     else f"replay {name}/{label}: {status}, "
                          f"{result.markings} markings")
        except Exception as exc:
            error = f"replay {name}/{label}: {type(exc).__name__}: {exc}"
        errors.append(error)
    tracer.task = None
    return errors


def _run_burst(service, inputs: Inputs, burst: List[int], lifetime: int,
               tracer) -> List[Dict[str, Any]]:
    """Submit a burst at once, then collect it in submission order.

    A request's latency runs from its submit to the moment the caller
    sees it resolved: at submit for a cache hit, else when a
    ``result_dict`` call returns (requests resolved while the caller
    waited on an earlier one are stamped then).
    """
    pending = []
    for position, index in enumerate(burst):
        name, label = inputs.tasks[index]
        tracer.task = f"L{lifetime}:{name}/{label}#{position}"
        record: Dict[str, Any] = {"task": tracer.task, "instance": name,
                                  "label": label, "lifetime": lifetime,
                                  "error": ""}
        start = time.perf_counter()
        try:
            with tracer.span("service.submit"):
                handle = service.submit(inputs.nets[name],
                                        inputs.specs[label])
        except Exception as exc:
            record["seconds"] = time.perf_counter() - start
            record["error"] = f"{type(exc).__name__}: {exc}"
            pending.append((record, None, start))
            continue
        if handle.done():
            record["seconds"] = time.perf_counter() - start
        pending.append((record, handle, start))
    for record, handle, start in pending:
        if handle is None or "seconds" in record:
            continue
        try:
            handle.result_dict(timeout=TASK_TIMEOUT)
        except Exception:
            pass  # the handle carries the error; read below
        now = time.perf_counter()
        for other, other_handle, other_start in pending:
            if (other_handle is not None and "seconds" not in other
                    and other_handle.done()):
                other["seconds"] = now - other_start
    return [_finish_request(record, handle, inputs)
            for record, handle, _start in pending]


def _finish_request(record: Dict[str, Any], handle,
                    inputs: Inputs) -> Dict[str, Any]:
    if handle is None:
        return record
    record["cache"] = handle.info["cache"]
    record["dedup"] = handle.info["dedup"]
    if handle.error is not None:
        record["error"] = f"{handle.error.kind}: {handle.error}"
        return record
    payload = handle.result_dict()
    entry = inputs.answers[record["instance"]]
    if payload.get("status") != "complete":
        record["error"] = f"status {payload.get('status')}"
    elif payload["markings"] != entry["markings"]:
        record["error"] = (f"markings {payload['markings']} != "
                           f"{entry['markings']}")
    if record["cache"] == "miss" and not record["dedup"]:
        # A solve (cold or resumed): keep its worker-side numbers.
        extras = payload.get("extras", {})
        record.update(
            solve_s=payload["seconds"],
            peak_nodes=payload["peak_nodes"],
            final_nodes=payload["final_nodes"],
            variables=payload["variables"],
            iterations=payload["iterations"],
            reorder_count=payload["reorder_count"],
            build_s=extras.get("build_seconds", 0.0),
            fixpoint_s=extras.get("fixpoint_seconds", 0.0),
            ae_calls=extras.get("ae_calls", 0),
            ae_cache_hits=extras.get("ae_cache_hits", 0),
            resumed=extras.get("resume", {}).get("status") == "resumed")
        if "checkpoint" in extras:
            record["checkpoint"] = extras["checkpoint"]["path"]
    return record


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
