"""Smoke test of the benchmark at tiny sizes.

Runs every workload end to end (two rounds plus the traced round, each
in its own interpreter) with traces of a few jobs, checks that the run
reports every metric ``BENCHMARK.json`` names, that the traced round
wrote a Perfetto-loadable span file and restored every wrapped method,
and drives the output-check failure path once.
"""

from __future__ import annotations

import json

import pytest

from perfbench import run
from perfbench.tracer import LAYERS
from perfbench.workloads import WORKLOADS

#: Shrinks every trace to a handful of jobs (the floor is 8).
TINY = 0.02
#: preempt-record needs a queue before anything is worth evicting.
SMOKE_SCALE = {"preempt-record": 0.2}

COARSE_SPANS = {"metrics_tick", "pass", "snapshot", "schedule", "replay"}


@pytest.fixture(scope="module")
def spec():
    return run.benchmark_spec()


def test_spec_names_the_workloads_and_metrics(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in spec["end_to_end"]
    prefixes = {m["name"].split(".")[0] for m in spec["per_layer"]}
    assert prefixes == set(LAYERS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_reports_every_metric(workload, spec, capsys):
    report = run.run(
        workload, seed=3, seconds=0, trace=True,
        scale=SMOKE_SCALE.get(workload, TINY),
    )
    assert report["verdicts"] == [None] * (run.MIN_ROUNDS + 1)
    assert (report["correct"], report["attempted"], report["failed"]) == (
        True, run.MIN_ROUNDS + 1, 0,
    )
    assert list(report["end_to_end"]) == [
        m["name"] for m in spec["end_to_end"]
    ]
    for per_layer, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(report, spec, per_layer)
        assert list(line["metrics"]) == [m["name"] for m in spec[section]]
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    assert report["end_to_end"]["jobs_completed_frac"]["median"] > 0.9

    run.print_report(report, spec)
    table = capsys.readouterr().out.splitlines()
    start = table.index(
        next(row for row in table if row.startswith("per-layer metrics"))
    )
    rows = table[start + 1:start + 1 + len(spec["per_layer"])]
    assert [row.split()[0] for row in rows] == [
        m["name"] for m in spec["per_layer"]
    ]

    with open(run.ROOT / report["trace_path"], encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    names = {event["name"] for event in events}
    assert COARSE_SPANS <= names
    assert all(event["ph"] == "X" for event in events)
    assert all("sim_time" in event["args"] for event in events)
    layers = report["layers"]
    if workload == "preempt-record":
        assert "preemption_plan" in names
        assert layers["preempt.plan_calls"] > 0
        assert layers["obs.emit_calls"] > 0 < layers["obs.ledger_mib"]
    else:
        assert layers["preempt.plan_calls"] == 0
        assert layers["obs.emit_calls"] == 0


def test_traced_round_restores_every_wrapped_method(tmp_path):
    from repro.obs.spans import SpanRecorder
    from repro.scheduler.base import Scheduler
    from repro.simulation.engine import SimulationEngine

    from perfbench.replay import run_round
    from perfbench.tracer import LayerTracer

    tracer = LayerTracer(SpanRecorder())
    tracer.install()
    wrapped = list(tracer._patched)
    tracer.restore()
    assert wrapped and all(
        owner.__dict__[name] is original
        for owner, name, original in wrapped
    )
    before = (SimulationEngine.reschedule_in, Scheduler.schedule)
    report = run_round(
        "steady", 5, TINY,
        trace_out=str(tmp_path / "t.json"), work_dir=str(tmp_path),
    )
    assert report["layers"]["progress.rearm_calls"] > 0
    assert (SimulationEngine.reschedule_in, Scheduler.schedule) == before


def test_output_check_failure_is_counted_not_dropped(monkeypatch):
    from perfbench.replay import output_problems

    calls = []
    real_child = run.run_child

    def flaky_child(workload, seed, scale, trace_out=None, root=run.ROOT):
        report = real_child(workload, seed, scale, trace_out, root)
        calls.append(report)
        if len(calls) == 2:
            # The second round diverges from the first.
            report = dict(report, digest=["0" * 64])
        return report

    monkeypatch.setattr(run, "run_child", flaky_child)
    report = run.run("steady", seed=4, seconds=0, trace=False, scale=TINY)
    assert len(calls) == report["attempted"] == run.MIN_ROUNDS == 3
    assert report["verdicts"][0] is None
    assert "differ" in report["verdicts"][1]
    assert (report["correct"], report["failed"]) == (False, 1)
    # The failed round's jobs all count as not completed.
    assert report["end_to_end"]["jobs_completed_frac"]["median"] == (
        pytest.approx(2 / 3)
    )

    from repro.api import Scenario
    from repro.orchestrator.pod import PodPhase

    result = Scenario(trace="borg-synth:seed=1,jobs=8").run()
    assert output_problems(result) == []
    pod = result.metrics.pods[0]
    pod.phase = PodPhase.RUNNING
    assert output_problems(result) == [
        f"1 pods not terminal, e.g. {pod.name}"
    ]


def test_failed_traced_round_is_charged_its_jobs(monkeypatch):
    real_child = run.run_child

    def failing_traced_child(
        workload, seed, scale, trace_out=None, root=run.ROOT
    ):
        if trace_out is not None:
            return {"error": "exit code 1: traced replay raised"}
        return real_child(workload, seed, scale, trace_out, root)

    monkeypatch.setattr(run, "run_child", failing_traced_child)
    report = run.run("steady", seed=4, seconds=0, trace=True, scale=TINY)
    assert report["verdicts"][-1] == "exit code 1: traced replay raised"
    assert (report["correct"], report["failed"]) == (False, 1)
    assert report["end_to_end"]["jobs_completed_frac"]["median"] == (
        pytest.approx(3 / 4)
    )
    assert "layers" not in report
