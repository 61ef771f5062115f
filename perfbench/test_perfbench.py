"""Self-tests of the benchmark's oracle and gates.

Run from the repository root::

    python3 -m pytest perfbench -q

Every gate must be able to fail: a wrong expected answer must count as
a failed task, and a delay injected through the span hooks around one
layer call must read as a worse ``wall_s`` in the compare output and
show up in that layer's self time.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import answers  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

TABLE = answers.load()


def test_table_covers_every_instance_a_seed_can_draw():
    assert sorted(TABLE) == workloads.all_instances()


@pytest.mark.parametrize("name", workloads.all_instances())
def test_table_entry_matches_the_explicit_oracle(name):
    assert answers.derive(name) == TABLE[name]


def _inputs(workload, tasks, table=TABLE, seed=1):
    inputs = workloads.Inputs(workload, seed, table)
    inputs.tasks = tasks
    return inputs


def test_wrong_expected_answers_count_as_failures():
    table = copy.deepcopy(TABLE)
    table["muller-4"]["markings"] += 1
    table["phil-4"]["home"] = not table["phil-4"]["home"]
    inputs = _inputs("verify-functional",
                     [("muller-4", "bdd"), ("phil-4", "bdd"),
                      ("slot-3", "bdd")], table)
    errors = {t["task"]: t["error"]
              for t in workloads.solver_round(inputs, NullTracer())["tasks"]}
    assert errors["muller-4/bdd"].startswith("markings")
    assert errors["phil-4/bdd"] == "wrong home"
    assert errors["slot-3/bdd"] == ""


def test_wrong_expected_count_fails_service_requests(tmp_path):
    table = copy.deepcopy(TABLE)
    table["muller-5"]["markings"] -= 1
    inputs = _inputs("service-mixed",
                     [("muller-5", "bdd"), ("phil-4", "zdd")], table)
    records = workloads.service_round(inputs, NullTracer(),
                                      str(tmp_path / "work"))["tasks"]
    failed = [r for r in records if r["error"]]
    assert failed and all(r["instance"] == "muller-5" for r in failed)
    assert len(failed) == sum(1 for r in records
                              if r["instance"] == "muller-5")


def test_traced_service_round_replays_every_resume(tmp_path):
    inputs = _inputs("service-mixed",
                     [("muller-5", "bdd"), ("phil-4", "zdd")])
    tracer = Tracer()
    tracer.install()
    try:
        rnd = workloads.service_round(inputs, tracer, str(tmp_path / "work"),
                                      replay=True)
    finally:
        tracer.uninstall()
    assert rnd["replays"] == ["", ""]
    resumes = [s for s in tracer.spans if s["name"] == "analysis.resume"]
    assert [s["task"] for s in resumes] == [workloads.REPLAY_TASK] * 2
    metrics = run.per_layer_round(rnd, tracer, tracer.spans)
    assert metrics["analysis.resume_s"] > 0
    assert metrics["analysis.resumed"] == 2
    # The replay's own builds are not the service's layer time.
    assert metrics["symbolic.net_build_s"] == 0


def _measure(tasks, seed, trace=0, inject=()):
    args = argparse.Namespace(seed=seed, seconds=0.0, trace=trace,
                              inject_sleep=list(inject))
    record = run.measure(args, _inputs("verify-functional", tasks, seed=seed))
    if not trace:
        record["metrics"]["setup_s"] = 1.0
    return record


def test_injected_sleep_reads_as_worse_wall_and_moves_its_layer():
    tasks = [("muller-4", "bdd"), ("slot-3", "bdd")]
    delay = ["symbolic.net_build=0.1"]
    parent = [_measure(tasks, seed) for seed in (1, 2, 3)]
    parent.append(_measure(tasks, 1, trace=1))
    change = [_measure(tasks, seed, inject=delay) for seed in (1, 2, 3)]
    change.append(_measure(tasks, 1, trace=1, inject=delay))
    rows = compare.compare(parent, change, compare.load_spec())
    wall = next(r for r in rows if r["metric"] == "wall_s")
    assert wall["verdict"] == "worse"
    assert wall["moved"][0] == "symbolic.net_build"
    assert wall["moved"][1] > 0.15  # two net builds per round


@pytest.mark.parametrize("better, parent, change, expected", [
    ("lower", [10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], "better"),
    ("lower", [10, 10.1, 9.9, 10], [10.05, 10, 9.95, 10.1], "no worse"),
    ("lower", [10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "worse"),
    ("higher", [10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], "worse"),
    ("lower", [10, 14, 7, 12], [10.5, 13, 8, 11], "unresolved"),
])
def test_verdict_rule(better, parent, change, expected):
    row = compare.verdict(dict(enumerate(parent)), dict(enumerate(change)),
                          0.1, better)
    assert row["verdict"] == expected


def _result_line(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def test_one_command_prints_every_end_to_end_metric_of_every_workload():
    spec = compare.load_spec()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w['name']}/{m['name']}"
        for w in spec["workloads"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert proc.stdout.count("fail_frac 0.0000") == len(spec["workloads"])


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "verify-functional", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
