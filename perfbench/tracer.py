"""Outside-in layer tracing: wrap each layer's public entry points.

The traced round replaces a fixed list of methods of ``src/repro``
classes with timing wrappers for the duration of the replays and
restores the originals afterwards.  Nothing inside the program is
edited, so the traced run exercises the exact code the untraced rounds
time.

Every wrapper keeps, per hook key, the call count, the inclusive time
of the outermost active call (re-entrant and nested calls of one key
are not counted twice) and the self time (inclusive minus the time of
wrapped callees).  The coarse boundaries -- metrics tick, scheduling
pass, view snapshot, strategy pass and preemption plan -- also become
Chrome trace-event spans through :class:`repro.obs.spans.SpanRecorder`,
each tagged with the simulated time of the engine event that caused
it.  The hot fine-grained calls (finish-event re-arms, ledger emits,
slowdown lookups) are only counted and timed in memory: a span per
call would cost more than the call.

Per-layer metric names, the module each comes from and the ROADMAP
layer it belongs to are listed in :data:`LAYERS`.
"""

from __future__ import annotations

import inspect
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Metric-name prefix -> (ROADMAP layer, ``src/repro`` modules).
LAYERS: Dict[str, Tuple[str, str]] = {
    "engine": ("event engine", "simulation.engine, simulation.runner"),
    "progress": (
        "progress accounting", "simulation.engine, simulation.runner"
    ),
    "sgx": ("progress accounting", "sgx.perf"),
    "ingest": ("metrics ingest", "monitoring, orchestrator.controller"),
    "snapshot": ("state snapshot", "scheduler.base"),
    "pass": (
        "scheduling pass and deferral classification", "scheduler"
    ),
    "orch": ("orchestrator bookkeeping", "orchestrator.controller"),
    "kubelet": ("orchestrator bookkeeping", "orchestrator.kubelet"),
    "cgroups": ("cgroups", "cluster.cgroups"),
    "preempt": ("preemption", "policy.preemption"),
    "obs": ("observability", "obs.ledger"),
    "setup": ("set-up (not a replay layer)", "trace, package import"),
    "traced": ("whole traced replay", "api.scenario"),
    "tracing_overhead_pct": ("whole traced replay", "api.scenario"),
}

#: Re-arms that move a finish event by at most this much are wasted.
REARM_EPSILON_SECONDS = 1e-6


class _Stat:
    """Counters of one hook key."""

    __slots__ = ("calls", "inclusive", "self_time", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.active = 0


class LayerTracer:
    """Installs timing wrappers and turns their counters into metrics."""

    def __init__(self, spans) -> None:
        #: A :class:`repro.obs.spans.SpanRecorder` for the coarse spans.
        self.spans = spans
        self.stats: Dict[str, _Stat] = {}
        #: Per-call durations of hooks whose percentiles are reported.
        self.durations: Dict[str, List[float]] = {}
        #: Counts the wrappers derive from arguments and results.
        self.counts: Dict[str, float] = {}
        #: The engine whose ``run`` is executing (for span sim times).
        self.engine = None
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[type, str, object]] = []

    # -- installation ------------------------------------------------------

    def wrap(
        self,
        owner: type,
        name: str,
        key: str,
        span: Optional[str] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        keep_durations: bool = False,
        leaf: bool = False,
    ) -> None:
        """Replace ``owner.name`` by a wrapper counting under *key*.

        *before* runs with the call's arguments; *after* runs with the
        arguments and the result once the call returned.  The method
        must be a plain function defined on *owner* itself, so a hook
        never silently wraps an inherited attribute or breaks a static
        method's binding.

        A *leaf* hook never reaches another wrapped method and never
        re-enters itself; its wrapper skips the frame bookkeeping, which
        matters for the hottest calls (hundreds of thousands per round).
        """
        original = owner.__dict__.get(name)
        if not inspect.isfunction(original):
            raise AttributeError(
                f"{owner.__name__}.{name} is not a method defined on "
                "the class"
            )
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        perf = time.perf_counter
        durations = (
            self.durations.setdefault(key, []) if keep_durations else None
        )
        spans = self.spans if span is not None else None

        def leaf_wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            start = perf()
            result = original(*args, **kwargs)
            elapsed = perf() - start
            stat.calls += 1
            stat.self_time += elapsed
            stat.inclusive += elapsed
            if stack:
                stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            outer = stat.active == 0
            stat.active += 1
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stat.active -= 1
                stack.pop()
                stat.calls += 1
                stat.self_time += elapsed - frame[0]
                if outer:
                    stat.inclusive += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if durations is not None:
                    durations.append(elapsed)
                if spans is not None:
                    spans.end(start, span, self.engine.now)
            if after is not None:
                after(args, result)
            return result

        if leaf:
            wrapper = leaf_wrapper
        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def restore(self) -> None:
        """Put every wrapped method back, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def count(self, key: str, amount: float = 1) -> None:
        """Add *amount* to the derived count *key*."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> None:
        """Wrap the public entry points of every replay layer."""
        from repro.cluster.cgroups import CgroupHierarchy
        from repro.monitoring.heapster import Heapster
        from repro.monitoring.probe import SgxMetricsProbe
        from repro.obs.ledger import DecisionLedger
        from repro.orchestrator.controller import Orchestrator
        from repro.orchestrator.kubelet import Kubelet
        from repro.policy.preemption import PreemptionPolicy
        from repro.scheduler.base import ClusterStateService, Scheduler
        from repro.sgx.perf import SgxPerfModel
        from repro.simulation.engine import SimulationEngine

        count = self.count

        def engine_started(args):
            self.engine = args[0]

        def engine_stopped(args, result):
            count("engine.events_fired", args[0].fired_events)

        def rearm_useful(args):
            engine, handle, delay = args[0], args[1], args[2]
            if (
                handle is None
                or handle.cancelled
                or handle.action is None
                or abs(handle.time - (engine.now + delay))
                > REARM_EPSILON_SECONDS
            ):
                count("progress.rearm_useful")

        def collected(args, result):
            count("ingest.points_written", result)

        def scheduled(args, outcome):
            count("pass.pods_considered", len(args[1]))
            count("pass.placed", len(outcome.assignments))
            for reason in ("epc", "memory", "cpu"):
                count(
                    f"pass.deferred_{reason}",
                    outcome.wait_reasons.get(reason, 0),
                )

        def admitted(args, result):
            if result.success:
                count("kubelet.admit_ok")

        def planned(args, plan):
            if plan is not None:
                count("preempt.plan_hit")

        wrap = self.wrap
        wrap(
            SimulationEngine, "run", "engine.loop",
            before=engine_started, after=engine_stopped,
        )
        wrap(
            SimulationEngine, "reschedule_in", "progress.rearm",
            before=rearm_useful, leaf=True,
        )
        wrap(SgxPerfModel, "paging_slowdown", "sgx.slowdown", leaf=True)
        wrap(
            Orchestrator, "collect_metrics", "ingest.collect",
            span="metrics_tick", after=collected,
        )
        wrap(Heapster, "collect", "ingest.heapster")
        wrap(SgxMetricsProbe, "collect", "ingest.probe")
        wrap(
            ClusterStateService, "build_views", "snapshot.build_views",
            span="snapshot",
        )
        wrap(ClusterStateService, "state_unchanged", "snapshot.unchanged")
        wrap(
            Orchestrator, "scheduling_pass", "orch.pass", span="pass",
        )
        wrap(
            Scheduler, "schedule", "pass.schedule", span="schedule",
            after=scheduled, keep_durations=True,
        )
        wrap(Orchestrator, "submit", "orch.submit")
        wrap(Orchestrator, "start_pod", "orch.lifecycle")
        wrap(Orchestrator, "complete_pod", "orch.lifecycle")
        wrap(Kubelet, "admit", "kubelet.admit", after=admitted)
        wrap(Kubelet, "terminate", "kubelet.terminate")
        for name in (
            "create", "remove", "exists", "get", "attach", "detach",
            "cgroup_of", "pod_cgroup_path", "create_pod_cgroup",
        ):
            wrap(CgroupHierarchy, name, "cgroups")
        wrap(
            PreemptionPolicy, "plan", "preempt.plan",
            span="preemption_plan", after=planned,
        )
        wrap(DecisionLedger, "emit", "obs.emit", leaf=True)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """The wrapped layers' metrics (names as in ``BENCHMARK.json``)."""
        stat = self.stats.__getitem__
        counts = self.counts

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        def percentile_ms(key: str, share: int) -> float:
            samples = self.durations.get(key, [])
            if len(samples) < 2:
                return 1e3 * samples[0] if samples else 0.0
            return 1e3 * statistics.quantiles(samples, n=100)[share - 1]

        rearm = stat("progress.rearm")
        schedule = stat("pass.schedule")
        admit = stat("kubelet.admit")
        plan = stat("preempt.plan")
        return {
            "engine.events_fired": counts.get("engine.events_fired", 0),
            "engine.loop_self_s": stat("engine.loop").self_time,
            "progress.rearm_calls": rearm.calls,
            "progress.rearm_s": rearm.inclusive,
            "progress.rearm_useful_ratio": ratio(
                counts.get("progress.rearm_useful", 0), rearm.calls
            ),
            "sgx.slowdown_lookups": stat("sgx.slowdown").calls,
            "ingest.collect_calls": stat("ingest.collect").calls,
            "ingest.collect_s": stat("ingest.collect").inclusive,
            "ingest.heapster_s": stat("ingest.heapster").inclusive,
            "ingest.probe_s": stat("ingest.probe").inclusive,
            "ingest.points_written": counts.get(
                "ingest.points_written", 0
            ),
            "snapshot.build_views_calls": stat(
                "snapshot.build_views"
            ).calls,
            "snapshot.build_views_s": stat(
                "snapshot.build_views"
            ).inclusive,
            "snapshot.unchanged_checks": stat("snapshot.unchanged").calls,
            "snapshot.unchanged_s": stat("snapshot.unchanged").inclusive,
            "pass.calls": schedule.calls,
            "pass.schedule_s": schedule.inclusive,
            "pass.schedule_p50_ms": percentile_ms("pass.schedule", 50),
            "pass.schedule_p99_ms": percentile_ms("pass.schedule", 99),
            "pass.pods_considered": counts.get("pass.pods_considered", 0),
            "pass.placed_ratio": ratio(
                counts.get("pass.placed", 0),
                counts.get("pass.pods_considered", 0),
            ),
            "pass.deferred_epc": counts.get("pass.deferred_epc", 0),
            "pass.deferred_memory": counts.get("pass.deferred_memory", 0),
            "pass.deferred_cpu": counts.get("pass.deferred_cpu", 0),
            "orch.pass_self_s": stat("orch.pass").self_time,
            "orch.submit_s": stat("orch.submit").inclusive,
            "orch.lifecycle_s": stat("orch.lifecycle").inclusive,
            "kubelet.admit_calls": admit.calls,
            "kubelet.admit_s": admit.inclusive,
            "kubelet.admit_ok_ratio": ratio(
                counts.get("kubelet.admit_ok", 0), admit.calls
            ),
            "kubelet.terminate_s": stat("kubelet.terminate").inclusive,
            "cgroups.ops": stat("cgroups").calls,
            "cgroups.s": stat("cgroups").inclusive,
            "preempt.plan_calls": plan.calls,
            "preempt.plan_s": plan.inclusive,
            "preempt.plan_hit_ratio": ratio(
                counts.get("preempt.plan_hit", 0), plan.calls
            ),
            "obs.emit_calls": stat("obs.emit").calls,
            "obs.emit_s": stat("obs.emit").inclusive,
        }
