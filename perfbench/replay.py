"""One benchmark round in a fresh interpreter.

Run as ``python3 -m perfbench.replay --workload NAME --seed N`` from
the repository root with ``src`` on ``PYTHONPATH``.  The process

1. imports ``repro`` (timed as ``import_s``), generates the round's
   traces from the seed (``trace_s``) and builds one ``Scenario`` per
   trace (``construct_s``) -- together the round's ``setup_s``;
2. replays the scenarios one after the other through the public
   ``Scenario.run()`` and times each replay;
3. checks every replay's output: it converged (``run`` raises
   otherwise), every pod ended in a terminal phase and pods succeeded;
4. prints one JSON line: the timings, its own peak resident memory,
   the simulated metrics pooled over the round and a digest of every
   pod lifecycle, which the parent compares across rounds.

With ``--trace-out PATH`` the replays run under
:class:`perfbench.tracer.LayerTracer`, the per-layer metrics are added
to the line and the coarse spans are written to PATH as Chrome
trace-event JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

from .workloads import OVERALLOCATOR_SHARE, WORKLOADS, sub_seeds


def build_scenarios(workload, seed: int, scale: float, ledger_dir: str):
    """The round's scenarios; returns ``(scenarios, trace_seconds)``."""
    from repro.api import ObserveConfig, Scenario
    from repro.trace.borg import synthetic_scaled_trace

    jobs = workload.jobs_at(scale)
    workers = workload.workers_at(jobs)
    trace_seconds = 0.0
    scenarios = []
    for index, sub_seed in enumerate(sub_seeds(seed, workload.traces)):
        start = time.perf_counter()
        trace = synthetic_scaled_trace(
            seed=sub_seed,
            n_jobs=jobs,
            overallocators=int(jobs * OVERALLOCATOR_SHARE),
            window_seconds=workload.window_at(jobs),
        )
        trace_seconds += time.perf_counter() - start
        fields: Dict[str, object] = dict(workload.scenario)
        if workers is not None:
            fields["standard_workers"] = workers
            fields["sgx_workers"] = workers
        if workload.record_ledger:
            fields["observe"] = ObserveConfig(
                ledger_path=os.path.join(ledger_dir, f"{index}.jsonl")
            )
        scenarios.append(
            Scenario(
                name=f"{workload.name}-{sub_seed}",
                trace=trace,
                seed=sub_seed,
                **fields,
            )
        )
    return scenarios, trace_seconds


def output_problems(result) -> List[str]:
    """What is wrong with a replay's output (empty when it is sound)."""
    problems = []
    metrics = result.metrics
    stuck = [pod.name for pod in metrics.pods if not pod.phase.is_terminal]
    if stuck:
        problems.append(
            f"{len(stuck)} pods not terminal, e.g. {stuck[0]}"
        )
    if len(metrics.succeeded) < 2:
        problems.append(
            f"only {len(metrics.succeeded)} of {len(metrics.pods)} pods "
            "succeeded"
        )
    return problems


def pod_digest(result) -> str:
    """A digest of every pod's full lifecycle and the makespan."""
    text = repr((result.pod_signature(), result.metrics.makespan_seconds))
    return hashlib.sha256(text.encode()).hexdigest()


def reduce_result(name: str, result) -> Dict[str, object]:
    """What the round keeps of one replay once it has ended.

    The ``RunResult`` itself (every pod, every metrics point) is
    dropped before the next replay starts, so the round's peak memory
    is that of one replay, not of all its replays held together.
    """
    metrics = result.metrics
    return {
        "problems": [
            f"{name}: {problem}" for problem in output_problems(result)
        ],
        "digest": pod_digest(result),
        "makespan": metrics.makespan_seconds,
        "waits": list(metrics.waiting_times()),
        # Evicted pods are resubmitted under the same spec name: a job
        # is its spec name, completed when any of its pods succeeded.
        "jobs": len({pod.spec.name for pod in metrics.pods}),
        "completed": len({pod.spec.name for pod in metrics.succeeded}),
        "evictions": result.eviction_count,
        "ledger_bytes": (
            os.path.getsize(result.ledger_path)
            if result.ledger_path is not None
            else 0
        ),
    }


def simulated_metrics(replays: List[Dict[str, object]]) -> Dict[str, float]:
    """Simulated metrics pooled over the round's (sound) replays."""
    waits = [wait for replay in replays for wait in replay["waits"]]
    percentiles = statistics.quantiles(waits, n=100)
    return {
        "sim_makespan_s": statistics.mean(
            replay["makespan"] for replay in replays
        ),
        "sim_wait_mean_s": statistics.mean(waits),
        "sim_wait_p50_s": percentiles[49],
        "sim_wait_p99_s": percentiles[98],
        "jobs": sum(replay["jobs"] for replay in replays),
        "jobs_completed": sum(replay["completed"] for replay in replays),
    }


def run_round(
    workload_name: str,
    seed: int,
    scale: float,
    trace_out: Optional[str] = None,
    work_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Set up, replay and check one round; returns the report line."""
    import_start = time.perf_counter()
    import repro
    import repro.api  # noqa: F401
    import repro.trace.borg  # noqa: F401

    import_seconds = time.perf_counter() - import_start
    workload = WORKLOADS[workload_name]
    with tempfile.TemporaryDirectory(dir=work_dir) as ledger_dir:
        construct_start = time.perf_counter()
        scenarios, trace_seconds = build_scenarios(
            workload, seed, scale, ledger_dir
        )
        construct_seconds = (
            time.perf_counter() - construct_start - trace_seconds
        )
        tracer = spans = None
        if trace_out is not None:
            from repro.obs.spans import SpanRecorder

            from .tracer import LayerTracer

            spans = SpanRecorder()
            tracer = LayerTracer(spans)
            tracer.install()
        replay_seconds: List[float] = []
        replays: List[Dict[str, object]] = []
        try:
            for scenario in scenarios:
                start = time.perf_counter()
                result = scenario.run()
                replay_seconds.append(time.perf_counter() - start)
                if spans is not None:
                    spans.end(
                        start, "replay", result.metrics.makespan_seconds
                    )
                replays.append(reduce_result(scenario.name, result))
                del result
        finally:
            if tracer is not None:
                tracer.restore()
    problems = [
        problem for replay in replays for problem in replay["problems"]
    ]
    report: Dict[str, object] = {
        "import_s": import_seconds,
        "trace_s": trace_seconds,
        "construct_s": construct_seconds,
        "setup_s": import_seconds + trace_seconds + construct_seconds,
        "replay_s": sum(replay_seconds),
        "replay_each_s": replay_seconds,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
        "digest": [replay["digest"] for replay in replays],
        "problems": problems,
        "evictions": sum(replay["evictions"] for replay in replays),
        "ledger_mib": sum(
            replay["ledger_bytes"] for replay in replays
        ) / 2**20,
        "repro_version": repro.__version__,
        "numpy_version": sys.modules["numpy"].__version__,
    }
    if not problems:
        report.update(simulated_metrics(replays))
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["preempt.evictions"] = report["evictions"]
        layers["obs.ledger_mib"] = report["ledger_mib"]
        report["layers"] = layers
        report["span_count"] = spans.span_count
        spans.write(trace_out)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-out")
    parser.add_argument("--work-dir")
    args = parser.parse_args(argv)
    try:
        report = run_round(
            args.workload, args.seed, args.scale,
            trace_out=args.trace_out, work_dir=args.work_dir,
        )
    except Exception:
        # Any failure of the program under test is reported to the
        # parent, which counts the round as failed.
        traceback.print_exc()
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
