"""The repository benchmark: replay workloads, end to end and per layer.

Run from the repository root::

    python3 -m perfbench.run --workload steady --seed 1 --seconds 30 --trace 0

The run repeats *rounds* of the workload (see :mod:`perfbench.workloads`)
for about ``--seconds`` seconds, at least :data:`MIN_ROUNDS` times.  Each
round is one fresh interpreter (:mod:`perfbench.replay`), started only
after the previous one ended, that sets up and replays the round's
traces one at a time.  The run then checks the outputs -- every round
converged, left every pod terminal, and reproduced the first round's
pod lifecycles exactly -- and prints:

* a table of the end-to-end metrics (median, quartiles, round count);
* with ``--trace 1``, one more traced round and its per-layer table
  (the traced round must reproduce the same pod lifecycles too);
* an ``environment`` line: host, CPUs, Python, numpy, commit, seed;
* as the last line, one JSON object with ``correct``, ``attempted``
  and ``failed`` (rounds) and ``metrics``: the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``.

The full report, with every round's raw values, and the traced round's
Chrome trace-event JSON (open it in https://ui.perfetto.dev) are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .tracer import LAYERS
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Rounds every run makes, whatever ``--seconds`` says: the first round
#: is the reference the others must reproduce, and the quartiles need
#: three values.
MIN_ROUNDS = 3
#: A round that takes longer than this is killed and counted as failed.
ROUND_TIMEOUT_SECONDS = 60.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def program_present(root: Path = ROOT) -> bool:
    """Whether the checkout holds the program the benchmark replays."""
    return (root / "src" / "repro" / "__init__.py").is_file()


def child_env(root: Path = ROOT) -> Dict[str, str]:
    """The environment of a round: ``src`` first on the import path."""
    env = dict(os.environ)
    paths = [str(root / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(
    workload: str,
    seed: int,
    scale: float,
    trace_out: Optional[Path] = None,
    root: Path = ROOT,
) -> Dict[str, object]:
    """One round in a fresh interpreter; its report, or its failure."""
    command = [
        sys.executable, "-m", "perfbench.replay",
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--work-dir", str(OUT_DIR),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    start = time.perf_counter()
    try:
        completed = subprocess.run(
            command, cwd=root, env=child_env(root), capture_output=True,
            text=True, timeout=ROUND_TIMEOUT_SECONDS, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"round timed out after {ROUND_TIMEOUT_SECONDS}s"}
    wall = time.perf_counter() - start
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = completed.stderr.strip().splitlines()[-3:]
        return {
            "error": f"exit code {completed.returncode}: "
            + " | ".join(tail)
        }
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable round report: {lines[-1][:200]}"}
    report["wall_s"] = wall
    return report


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``) of *values*."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def check_rounds(
    rounds: List[Dict[str, object]],
) -> List[Optional[str]]:
    """Each round's failure (``None`` when sound), in order.

    A round fails when its process failed, when its own output checks
    found a problem, or when its pod lifecycles differ from those of
    the first sound round: replays are deterministic per seed, so any
    difference is a defect.
    """
    verdicts: List[Optional[str]] = []
    reference = None
    for report in rounds:
        if "error" in report:
            verdicts.append(str(report["error"]))
            continue
        if report["problems"]:
            verdicts.append("; ".join(report["problems"]))
            continue
        if reference is None:
            reference = report["digest"]
        if report["digest"] != reference:
            verdicts.append("pod lifecycles differ from the first round")
            continue
        verdicts.append(None)
    return verdicts


def end_to_end(
    rounds: List[Dict[str, object]],
    verdicts: List[Optional[str]],
    jobs_per_round: int,
) -> Dict[str, Dict[str, float]]:
    """Median and quartiles of every end-to-end metric over the rounds.

    Timings and memory come from every round that reported them, sound
    or not; the simulated metrics from the first sound round (every
    sound round agrees with it).  ``jobs_completed_frac`` charges each
    failed round with all of its jobs.  *rounds* are the untraced
    rounds: a traced round is charged by :func:`completed_fraction`.
    """
    timed = [report for report in rounds if "error" not in report]
    sound = [
        report
        for report, verdict in zip(rounds, verdicts)
        if verdict is None
    ]
    summary = {
        name: quartiles([float(report[name]) for report in timed])
        for name in ("replay_s", "setup_s", "peak_rss_mib")
    }
    if sound:
        for name in ("sim_makespan_s", "sim_wait_mean_s", "sim_wait_p99_s"):
            value = float(sound[0][name])
            summary[name] = quartiles([value])
    summary["jobs_completed_frac"] = completed_fraction(
        rounds, verdicts, jobs_per_round
    )
    return summary


def completed_fraction(
    rounds: List[Dict[str, object]],
    verdicts: List[Optional[str]],
    jobs_per_round: int,
) -> Dict[str, float]:
    """Jobs completed by sound rounds over the jobs of every round."""
    completed = sum(
        int(report["jobs_completed"])
        for report, verdict in zip(rounds, verdicts)
        if verdict is None
    )
    return quartiles([completed / (jobs_per_round * len(rounds))])


def environment(seed: int, root: Path = ROOT) -> Dict[str, object]:
    """Where and on what the numbers were measured."""
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seed": seed,
        **git_state(root),
    }


def git_state(root: Path) -> Dict[str, object]:
    """The commit of *root* and whether its tree is dirty, if known."""
    env = dict(os.environ)
    # Never let git climb above the checkout into an enclosing repo.
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def layer_table(
    layers: Dict[str, float], per_layer: List[Dict[str, str]]
) -> List[str]:
    """The per-layer metrics as text, in ``BENCHMARK.json`` order.

    Time metrics also show their share of the traced replay.
    """
    traced_s = layers["traced.replay_s"]
    rows = []
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        value = layers[name]
        share = (
            f"{100.0 * value / traced_s:6.1f}%"
            if unit == "s" and name != "traced.replay_s"
            else ""
        )
        rows.append(f"  {name:30s} {value:>16.6g} {unit:8s} {share}")
    return rows


def benchmark_spec(root: Path = ROOT) -> Dict[str, object]:
    """``BENCHMARK.json``: the metric names and units the run reports."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    root: Path = ROOT,
) -> Dict[str, object]:
    """Measure one workload; returns the full report.

    *scale* multiplies every trace's job count.  The command line always
    measures ``scale=1``; only the smoke test shrinks the traces.
    """
    if not program_present(root):
        raise BenchmarkError(f"no repro package under {root / 'src'}")
    workload = WORKLOADS[workload_name]
    OUT_DIR.mkdir(exist_ok=True)
    jobs_per_round = workload.jobs_at(scale) * workload.traces

    rounds: List[Dict[str, object]] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - start
        + statistics.mean(r.get("wall_s", 0.0) for r in rounds)
        <= seconds
    ):
        rounds.append(run_child(workload_name, seed, scale, root=root))
    verdicts = check_rounds(rounds)
    if all("error" in report for report in rounds):
        raise BenchmarkError(f"every round failed, e.g. {verdicts[0]}")
    summary = end_to_end(rounds, verdicts, jobs_per_round)

    report: Dict[str, object] = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "scale": scale,
        "jobs_per_trace": workload.jobs_at(scale),
        "traces_per_round": workload.traces,
        "rounds": rounds,
        "verdicts": verdicts,
        "end_to_end": summary,
        "environment": environment(seed, root),
    }
    first = next(r for r in rounds if "error" not in r)
    report["environment"]["numpy"] = first["numpy_version"]
    report["environment"]["repro"] = first["repro_version"]
    if "sim_wait_p50_s" in first:
        report["sim_wait_p50_s"] = first["sim_wait_p50_s"]
    if trace:
        trace_path = OUT_DIR / f"{workload_name}-seed{seed}.trace.json"
        traced = run_child(
            workload_name, seed, scale, trace_path, root=root
        )
        rounds.append(traced)
        # The traced round must reproduce the untraced rounds' pods;
        # when it fails, its jobs count as not completed.
        verdicts = check_rounds(rounds)
        report["verdicts"] = verdicts
        summary["jobs_completed_frac"] = completed_fraction(
            rounds, verdicts, jobs_per_round
        )
        if "error" not in traced:
            ran = [r for r in rounds if "error" not in r]
            layers = dict(traced["layers"])
            layers["setup.import_s"] = statistics.median(
                float(r["import_s"]) for r in ran
            )
            layers["setup.trace_s"] = statistics.median(
                float(r["trace_s"]) for r in ran
            )
            untraced = summary["replay_s"]["median"]
            layers["traced.replay_s"] = float(traced["replay_s"])
            layers["tracing_overhead_pct"] = (
                100.0 * (float(traced["replay_s"]) - untraced) / untraced
            )
            report["layers"] = layers
            report["layer_map"] = LAYERS
            report["trace_path"] = str(trace_path.relative_to(root))
    failed = sum(verdict is not None for verdict in verdicts)
    report["attempted"] = len(rounds)
    report["failed"] = failed
    report["correct"] = failed == 0
    return report


def print_report(report: Dict[str, object], spec: Dict[str, object]) -> None:
    """Print the end-to-end table, the layer table and the environment."""
    print(
        f"workload {report['workload']}: {report['traces_per_round']} "
        f"trace(s) x {report['jobs_per_trace']} jobs per round, seed "
        f"{report['seed']} -- {report['why']}"
    )
    for index, verdict in enumerate(report["verdicts"]):
        if verdict is not None:
            print(f"round {index} FAILED: {verdict}")
    print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s}  n")
    for metric in spec["end_to_end"]:
        stats = report["end_to_end"].get(metric["name"])
        if stats is not None:
            print(
                f"  {metric['name']:22s} {stats['median']:12.6g} "
                f"{stats['q1']:12.6g} {stats['q3']:12.6g}  {stats['n']}  "
                f"{metric['unit']}"
            )
    if "sim_wait_p50_s" in report:
        print(f"  {'sim_wait_p50_s':22s} {report['sim_wait_p50_s']:12.6g}")
    if "layers" in report:
        print(f"per-layer metrics (traced round, {report['trace_path']}):")
        for row in layer_table(report["layers"], spec["per_layer"]):
            print(row)
    print("environment: " + json.dumps(report["environment"]))


def result_line(
    report: Dict[str, object], spec: Dict[str, object], per_layer: bool
) -> Dict[str, object]:
    """The final JSON object: per-layer or end-to-end metrics by name."""
    if per_layer:
        values = report.get("layers", {})
        names = spec["per_layer"]
    else:
        values = {
            name: stats["median"]
            for name, stats in report["end_to_end"].items()
        }
        names = spec["end_to_end"]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
            for m in names
        },
    }


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay benchmark: end-to-end and per-layer metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like Ctrl-C: the running round's process is
    # killed and waited for instead of being orphaned.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        spec = benchmark_spec()
        report = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    print_report(report, spec)
    result = result_line(report, spec, per_layer=bool(args.trace))
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump({**report, "result": result}, handle, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
