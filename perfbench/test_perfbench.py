"""Tests of the benchmark itself, on A1/A2 versions of its workloads.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import signal
import subprocess
import sys

import pytest

import run
import workloads
from refclock import REF_S, ReferenceClock
from tracer import Tracer
from workloads import EXPECTED, TINY, WORKLOADS

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def _answers(ops, seed, tracer=None):
    api, workspaces, _ = run.set_up(ops, tracer)
    _, records = run.run_pass(ops, api, workspaces, seed, random.Random(seed),
                              tracer)
    return records


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_answers_are_right_under_two_seeds(name):
    first = _answers(TINY[name], 1)
    second = _answers(TINY[name], 2)
    assert [r["op"] for r in first] != [r["op"] for r in second]
    assert all(r["ok"] for r in first + second), \
        [r for r in first + second if not r["ok"]]
    assert ({r["op"]: r["answer"] for r in first}
            == {r["op"]: r["answer"] for r in second})


def test_every_operation_has_an_expected_answer():
    for table in (WORKLOADS, TINY):
        for ops in table.values():
            assert all(op.key in EXPECTED for op in ops)
    assert set(WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


def test_s_power_verdicts_are_the_papers():
    """S^k lies in the ideal exactly when k >= g, the dual Coxeter number."""
    api = run.load_api()
    for key, answer in EXPECTED.items():
        if key.startswith("check_S_power/"):
            _, alg, k = key.split("/")
            g = api.build_root_system(alg[0], int(alg[1:])).dual_coxeter()
            assert answer[0] == (int(k[1:]) >= g), key


def test_corrupted_expected_answer_is_a_failure(monkeypatch, tmp_path,
                                                capsys):
    op = TINY["ideal-exact"][0]
    contained, rank = EXPECTED[op.key]
    monkeypatch.setitem(workloads.EXPECTED, op.key, [contained, rank + 1])
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    status = run.main(["--workload", "ideal-exact", "--seed", "3",
                       "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric(monkeypatch, tmp_path, capsys,
                                          trace):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    status = run.main(["--workload", "hat-expansion", "--seed", "5",
                       "--seconds", "1", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: m["unit"] for k, m in result["metrics"].items()}


def test_traced_counts_repeat_exactly():
    counts = []
    for seed in (1, 2):
        tracer = Tracer()
        _answers(TINY["ideal-exact"], seed, tracer)
        metrics = tracer.metrics(1.0)
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["exterior.wedge_calls"] > 0
    assert counts[0]["exactla.insert_calls"] > 0


def test_fails_without_the_package(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, the command
    exits non-zero and prints no result."""
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ideal-exact",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_seconds_rescale_gaps_between_probes():
    """Probes at 0, 1 and 2 s, the last three times as slow as the others:
    each gap runs at the mean speed of the probes around it, and probe time
    and time outside [a, b] are left out."""
    clock = ReferenceClock()
    clock.starts = [0.0, 1.0, 2.0]
    clock.durations = [REF_S, REF_S, 3 * REF_S]
    gap = 1.0 - REF_S
    assert clock.reference_seconds(0.0, 2.0) == pytest.approx(gap + gap / 2)
    assert clock.reference_seconds(0.5, 0.75) == pytest.approx(0.25)
    assert clock.reference_seconds(1.5, 1.75) == pytest.approx(0.125)
    assert clock.reference_seconds(2.0 + 3 * REF_S, 3.0 + 3 * REF_S) == \
        pytest.approx(1 / 3)


def test_reference_clock_probes_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with ReferenceClock() as clock:
        start = run.clock()
        while run.clock() - start < 0.3:
            pass
        end = run.clock()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.starts) >= 3
    probes = sum(d for s, d in zip(clock.starts, clock.durations)
                 if start <= s < end)
    expected = (end - start - probes) * REF_S / (
        sum(clock.durations) / len(clock.durations))
    assert clock.reference_seconds(start, end) == pytest.approx(
        expected, rel=0.5)
