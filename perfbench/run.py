"""The repository benchmark: one workload per run, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload verify-functional --seed 1 \\
        --seconds 52 --trace 0

``--workload all`` runs every workload in turn, each in a fresh
process, and ends with one combined result line.

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json`` with no hooks installed.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics from the
traced ones (self times of the spans in ``spans.py``, plus counters
read from managers and result payloads) and ``trace_overhead_frac``
from the two kinds of round, and writes the spans as JSONL under
``.perfbench/``.  The last line of standard output is the result
object; the lines before it are a readable summary and the run's
environment.  ``--record FILE`` appends the full run record (metrics,
self times, environment) for ``compare.py``.

Each run measures rounds of the workload's fixed unit of work until
``--seconds`` have passed (at least one round); :func:`end_to_end`
says how rounds are combined.  ``setup_s`` is the median over
``SETUP_REPEATS`` fresh child processes, each timed from process start
to the end of the workload's set-up; they run after the measured
rounds, once the peak RSS has been read.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    import repro.analysis  # noqa: F401
    import repro.service  # noqa: F401
    import repro.symbolic.checker  # noqa: F401


def setup(workload: str, seed: int):
    """Everything before the first timed task: nets, answers, a pool."""
    from answers import load
    from workloads import Inputs

    inputs = Inputs(workload, seed, load())
    if workload == "service-mixed":
        from repro.analysis import AnalysisSpec
        from repro.petri.generators import figure1_net
        from repro.service import AnalysisService
        from workloads import SERVICE_WORKERS

        # Start the pool once (it is lazy) with one tiny request.
        with AnalysisService(workers=SERVICE_WORKERS) as service:
            service.submit(figure1_net(), AnalysisSpec()).result_dict(
                timeout=60)
    return inputs


def measure_setup(workload: str, seed: int) -> List[float]:
    """Time ``SETUP_REPEATS`` fresh processes through :func:`setup`."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child failed with code {code}")
        times.append(elapsed)
    return times


def environment(seed: int) -> Dict[str, Any]:
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(), "source_sha256": _source_digest(),
            "start_method": multiprocessing.get_context()
            .get_start_method()}


def _source_digest() -> str:
    """Digest of ``src/**/*.py``: names the code when ``.git`` is absent."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit():
    """HEAD's commit from ``.git`` without running git, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _peak_rss_mib(workload: str) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "service-mixed":
        # Reaped children: the pool workers.  It is read before the
        # set-up timing starts its child processes.
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _p(values: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) with linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds: List[Dict], workload: str) -> Dict[str, float]:
    """The end-to-end metrics of one run, all but ``setup_s``.

    A verify task repeats in every round, so it is timed at its mean
    over rounds, and wall time, geometric mean and percentiles are taken
    over the task list.  The service's per-round figures are averaged
    over rounds.  Means, not medians: on 2-vCPU virtual machines whose
    CPU speed swings between about two levels (up to 1.7x apart) within
    seconds, a median over a dozen rounds flips between the levels
    and moved more between runs than the mean did (verify ``wall_s``,
    two sets of ten runs: 25% and 11% spread with medians, 18% and 8%
    with means).
    """
    from workloads import geomean

    first = rounds[0]["tasks"]
    if workload == "service-mixed":
        # The cold solves of the first lifetime: one per key.
        peak_nodes = sum(task.get("peak_nodes", 0) for task in first
                         if task["lifetime"] == 0)
    else:
        peak_nodes = sum(task.get("peak_nodes", 0) for task in first)
    metrics = {"peak_nodes": float(peak_nodes),
               "peak_rss_mib": _peak_rss_mib(workload)}

    def seconds(rnd: Dict) -> List[float]:
        return [task["seconds"] for task in rnd["tasks"]]

    if workload == "service-mixed":
        def mean(per_round) -> float:
            return statistics.fmean(per_round(seconds(rnd))
                                    for rnd in rounds)

        total_wall = sum(rnd["wall"] for rnd in rounds)
        metrics.update(
            wall_s=total_wall / len(rounds),
            task_s_geomean=mean(geomean),
            req_per_s=sum(len(rnd["tasks"]) for rnd in rounds) / total_wall,
            latency_s_p50=mean(statistics.median),
            latency_s_p90=mean(lambda times: _p(times, 90)))
        return metrics
    typical = [statistics.fmean(times)
               for times in zip(*map(seconds, rounds))]
    wall = sum(typical)
    metrics.update(wall_s=wall, task_s_geomean=geomean(typical),
                   req_per_s=len(typical) / wall,
                   latency_s_p50=statistics.median(typical),
                   latency_s_p90=_p(typical, 90))
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _measured(spans: List[Dict]) -> List[Dict]:
    """The spans layer metrics are taken from.

    A traced service round replays its checkpoint resumes in this
    process; of that replay only the ``analysis.resume`` spans count,
    the net and encoding builds around them are the replay's own.
    """
    from workloads import REPLAY_TASK

    return [span for span in spans if span["task"] != REPLAY_TASK
            or span["name"] == "analysis.resume"]


def per_layer_round(rnd: Dict, tracer, spans: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced round."""
    spans = _measured(spans)
    selfs = tracer.self_times(spans)
    tasks = rnd["tasks"]
    solves = [t for t in tasks if "iterations" in t]
    cold = [t for t in solves if "solve_s" in t and not t["resumed"]]

    def total(key: str) -> float:
        return float(sum(t.get(key, 0) for t in solves))

    gc_data = tracer.data("dd.gc", spans)
    sift_data = tracer.data("dd.reorder", spans)
    checker = {part: selfs.get(f"symbolic.checker.{part}", 0.0)
               for part in ("deadlock", "ag", "home", "live")}
    metrics = {
        "petri.find_smcs_s": selfs.get("petri.find_smcs", 0.0),
        "encoding.build_s": selfs.get("encoding.build", 0.0),
        "encoding.variables": total("variables"),
        "symbolic.net_build_s": selfs.get("symbolic.net_build", 0.0),
        "symbolic.image_s": selfs.get("symbolic.image", 0.0),
        "symbolic.iterations": total("iterations"),
        "symbolic.checker_s": sum(checker.values()),
        **{f"symbolic.checker.{part}_s": value
           for part, value in checker.items()},
        "dd.safe_point_s": selfs.get("dd.safe_point", 0.0),
        "dd.gc_s": selfs.get("dd.gc", 0.0),
        "dd.gc_count": total("gc_count"),
        "dd.gc_freed_ratio": _ratio(
            sum(d["freed"] for d in gc_data),
            sum(d["freed"] + d["live_after"] for d in gc_data)),
        "dd.reorder_s": selfs.get("dd.reorder", 0.0),
        "dd.reorder_count": total("reorder_count"),
        "dd.reorder_shrink_ratio": _ratio(
            sum(d["live_after"] for d in sift_data),
            sum(d["live_before"] for d in sift_data)),
        "dd.peak_live_nodes": total("peak_live_nodes") or total("peak_nodes"),
        "dd.final_nodes": total("final_nodes"),
        "dd.ae_calls": total("ae_calls"),
        # Payloads carry no recursion count, so the cache's share of
        # recursions cannot be formed; hits per call is the two counts.
        "dd.ae_cache_hits": total("ae_cache_hits"),
        "analysis.build_s": total("build_s"),
        "analysis.fixpoint_s": total("fixpoint_s"),
        "analysis.resumed": float(sum(1 for t in solves if t.get("resumed"))),
        "analysis.resume_s": selfs.get("analysis.resume", 0.0),
        "service.submit_s": selfs.get("service.submit", 0.0),
        "service.cache.get_s": selfs.get("service.cache.get", 0.0),
        "service.cache.put_s": selfs.get("service.cache.put", 0.0),
        "service.pool.wait_s": selfs.get("service.pool.wait", 0.0),
        "service.solve_s": total("solve_s"),
        "service.queue_wait_s": float(sum(
            t["seconds"] - t["solve_s"] for t in cold)),
        "service.checkpoint_bytes": float(rnd.get("checkpoint_bytes", 0)),
    }
    services = rnd.get("services", [])
    submits = sum(s["submits"] for s in services)
    metrics.update({
        "service.cache.hit_ratio": _ratio(
            sum(s["cache_hits"] for s in services), submits),
        "service.cache.hits_memory": float(sum(
            s["cache"]["hits_memory"] for s in services)),
        "service.dedup_hits": float(sum(s["dedup_hits"] for s in services)),
        "service.serial_solves": float(sum(
            s["serial_solves"] for s in services)),
        "service.respawns": float(sum(
            s["pool"]["respawns"] for s in services)),
        "service.errors": float(sum(s["errors"] for s in services)),
    })
    return metrics


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------

def _per_round(tracer, rounds: int) -> Dict[str, float]:
    return {name: seconds / rounds for name, seconds
            in tracer.self_times(_measured(tracer.spans)).items()}


def _parse_delays(items: List[str]) -> Dict[str, float]:
    delays = {}
    for item in items:
        name, _, seconds = item.partition("=")
        delays[name] = float(seconds)
    return delays


def measure(args, inputs) -> Dict[str, Any]:
    """Run rounds for ``args.seconds``; return the run record."""
    from spans import NullTracer, Tracer, layer_self_times
    from workloads import service_round, solver_round

    delays = _parse_delays(args.inject_sleep)
    tracer = Tracer(delays) if (args.trace or delays) else None
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")

    def one_round(traced: bool, index: int) -> Dict:
        active = tracer if traced else NullTracer()
        if traced:
            tracer.install()
        try:
            if inputs.workload == "service-mixed":
                return service_round(inputs, active,
                                     os.path.join(workdir, str(index)),
                                     replay=traced and bool(args.trace))
            return solver_round(inputs, active)
        finally:
            if traced:
                tracer.uninstall()

    plain: List[Dict] = []
    traced: List[Dict] = []
    start = time.perf_counter()
    index = 0
    try:
        while (index == 0 or (args.trace and not traced)
               or time.perf_counter() - start < args.seconds):
            # A traced run alternates kinds of round (untraced, traced,
            # traced, untraced, ...) so drift weighs on both alike; an
            # untraced run with injected delays keeps the hooks on.
            hooked = (bool(delays) if not args.trace
                      else index % 4 in (1, 2))
            first_span = len(tracer.spans) if tracer is not None else 0
            rnd = one_round(hooked, index)
            if hooked:
                rnd["spans"] = (first_span, len(tracer.spans))
            (traced if args.trace and hooked else plain).append(rnd)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    replays = [error for r in rounds for error in r.get("replays", [])]
    outcomes = [t["error"] for r in rounds for t in r["tasks"]] + replays
    record: Dict[str, Any] = {
        "workload": inputs.workload, "seed": args.seed,
        "trace": args.trace, "inject_sleep": delays,
        "env": environment(args.seed),
        "rounds": len(rounds),
        "round_walls": [r["wall"] for r in rounds],
        "task_times": [[t["seconds"] for t in r["tasks"]] for r in plain],
        "attempted": len(outcomes),
        "failed": sum(1 for error in outcomes if error),
        "errors": sorted({error for error in outcomes if error})[:10],
    }
    latencies = [t["seconds"] for r in plain for t in r["tasks"]]
    record["latency_samples"] = len(latencies)
    if not args.trace:
        record["metrics"] = end_to_end(plain or traced, inputs.workload)
        if tracer is not None:
            record["self_times"] = _per_round(tracer, len(plain))
        return record

    per_round = []
    for rnd in traced:
        low, high = rnd["spans"]
        per_round.append(per_layer_round(rnd, tracer,
                                         tracer.spans[low:high]))
    metrics = {name: statistics.fmean(r[name] for r in per_round)
               for name in per_round[0]}
    metrics["trace_overhead_frac"] = (
        statistics.fmean(r["wall"] for r in traced)
        / statistics.fmean(r["wall"] for r in plain) - 1.0)
    record["metrics"] = metrics
    record["self_times"] = _per_round(tracer, len(traced))
    record["layer_self_times"] = layer_self_times(record["self_times"])
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        OUT_DIR, f"trace-{inputs.workload}-s{args.seed}.jsonl")
    tracer.write_jsonl(trace_path, {"workload": inputs.workload,
                                    "env": record["env"]})
    record["trace_path"] = os.path.relpath(trace_path, ROOT)
    return record


def _units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _summary(record: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"workload {record['workload']}: {record['rounds']} rounds, "
          f"{record['attempted']} tasks, {record['failed']} failed "
          f"(fail_frac {record['failed'] / record['attempted']:.4f}), "
          f"{record['latency_samples']} latency samples")
    for error in record["errors"]:
        print(f"  failure: {error}")
    for name, unit in units.items():
        if name in record["metrics"]:
            print(f"  {name:32s} {record['metrics'][name]:14.6g} {unit}")
    for layer, seconds in sorted(record.get("layer_self_times", {}).items()):
        print(f"  self time per round, layer {layer:10s} {seconds:10.4f} s")


def run_all(args) -> int:
    """Run every workload in a fresh process; print a combined result."""
    from workloads import WORKLOADS

    combined: Dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            command += ["--record", args.record]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append the run record to this JSONL file")
    parser.add_argument("--inject-sleep", action="append", default=[],
                        metavar="SPAN=SECONDS",
                        help="sleep inside every span of that name "
                             "(gate self-tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    inputs = setup(args.workload, args.seed)
    gc.collect()
    record = measure(args, inputs)
    if not args.trace:
        record["setup_times"] = measure_setup(args.workload, args.seed)
        record["metrics"]["setup_s"] = statistics.median(
            record["setup_times"])
    units = _units()
    _summary(record, units)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                    if name in record["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
