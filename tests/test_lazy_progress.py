"""Lazy progress accounting against the eager oracle.

Production banks a running job's work, and re-arms its finish event,
only when the job's paging rate moves.  The oracle below is the
accounting that preceded it: every occupancy check banks every job on
the node and re-arms every finish event, whether or not its rate
changed.  Banking at one constant rate is additive, so the two agree
on every decision and differ in ``finished_at`` by float rounding only.

The oracle banks inside ``_reschedule_node`` rather than at the top of
each scheduler tick; both bank at the same ``now`` with the same
rates (a pass changes occupancy but no job's ``rate``), so the float
arithmetic is that of per-tick banking.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.api import Scenario
from repro.cells.runner import CellReplay
from repro.experiments.common import DEFAULT_RUN_SEED, default_trace
from repro.scheduler.rebalancer import (
    EpcRebalancer,
    MigrationAction,
    RebalanceReport,
)
from repro.simulation.runner import _Replay, run_replay
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib
from repro.workload.malicious import MaliciousConfig

#: Largest ``finished_at`` disagreement allowed between the two.
FINISH_TOLERANCE_S = 1e-9


class _EagerAccounting:
    """Bank every job and re-arm every finish event on every check."""

    __slots__ = ()

    def _reschedule_node(self, node_name: str, now: float) -> None:
        jobs = self._node_jobs.get(node_name)
        if not jobs:
            return
        for job in jobs.values():
            job.bank(now)
        epc_slowdown = -1.0
        for job in jobs.values():
            if job.uses_epc:
                if epc_slowdown < 0.0:
                    epc_slowdown = self._node_slowdown(node_name, True)
                slowdown = epc_slowdown
            else:
                slowdown = 1.0
            job.rate = 1.0 / slowdown
            self._rearm(job, job.remaining_work * slowdown)


class EagerReplay(_EagerAccounting, _Replay):
    __slots__ = ()


class EagerCellReplay(_EagerAccounting, CellReplay):
    __slots__ = ()


def run_eager(trace, scenario: Scenario):
    replay_type = EagerReplay if scenario.cells is None else EagerCellReplay
    return replay_type(trace, scenario).run()


class _AuditedAccounting:
    """Production accounting plus checks of the lazy rule's invariants.

    * No finish event fires early: every change of a job's finish time
      re-armed it, so no ``_finish`` has work left over.
    * After every tick, each live finish event of a sharded replay sits
      in the queue of its job's (current) cell.
    * Each job's arms, as ``(time, slowdown)``, are recorded per pod.
    """

    __slots__ = ()

    def __init__(self, trace, scenario):
        super().__init__(trace, scenario)
        self.early_finishes = []
        self.arms = {}
        self.misplaced = []

    def _finish(self, job) -> None:
        left = job.remaining_work - (
            self.engine.now - job.last_update
        ) * job.rate
        if left > 1e-6:
            self.early_finishes.append(job.pod.name)
        super()._finish(job)

    def _rearm(self, job, delay: float) -> None:
        self.arms.setdefault(job.pod.uid, []).append(
            (self.engine.now, job.armed_slowdown)
        )
        super()._rearm(job, delay)

    def _reschedule_all_nodes(self, now: float) -> None:
        super()._reschedule_all_nodes(now)
        if self.scenario.cells is None:
            return
        for job in self.running.values():
            handle = job.finish_handle
            expected = self._cell_of_node(job.node_name)
            if handle.cell != expected:
                self.misplaced.append((job.pod.name, handle.cell, expected))


class AuditedReplay(_AuditedAccounting, _Replay):
    __slots__ = ("early_finishes", "arms", "misplaced")


class AuditedCellReplay(_AuditedAccounting, CellReplay):
    __slots__ = ("early_finishes", "arms", "misplaced")


def run_audited(trace, scenario: Scenario):
    replay_type = (
        AuditedReplay if scenario.cells is None else AuditedCellReplay
    )
    replay = replay_type(trace, scenario)
    return replay, replay.run()


def pod_rows(result):
    return [
        (
            pod.name,
            pod.phase.value,
            pod.submitted_at,
            pod.bound_at,
            pod.started_at,
            pod.finished_at,
            pod.node_name,
        )
        for pod in result.metrics.pods
    ]


def assert_matches_eager(lazy, eager) -> None:
    """Identical lifecycles, except ``finished_at`` within tolerance."""
    lazy_rows, eager_rows = pod_rows(lazy), pod_rows(eager)
    assert len(lazy_rows) == len(eager_rows)
    for lazy_row, eager_row in zip(lazy_rows, eager_rows, strict=True):
        assert lazy_row[:5] + lazy_row[6:] == eager_row[:5] + eager_row[6:]
        if eager_row[5] is None:
            assert lazy_row[5] is None
        else:
            assert lazy_row[5] == pytest.approx(
                eager_row[5], rel=0.0, abs=FINISH_TOLERANCE_S
            )


def _borg(jobs: int, seed: int, window_seconds=None):
    return synthetic_scaled_trace(
        seed=seed,
        n_jobs=jobs,
        overallocators=jobs // 10,
        window_seconds=window_seconds,
    )


#: name -> (trace factory, scenario fields); the perfbench shapes are
#: shrunk to tier-1 size.
SHAPES = {
    "steady": (
        lambda: _borg(375, seed=11),
        dict(scheduler="binpack", sgx_fraction=0.5, seed=11,
             standard_workers=3, sgx_workers=3),
    ),
    "backlog": (
        lambda: _borg(200, seed=12, window_seconds=200 / 16.0),
        dict(scheduler="binpack", sgx_fraction=0.5, seed=12),
    ),
    "preempt-record": (
        lambda: _borg(150, seed=13, window_seconds=540.0),
        dict(
            scheduler="binpack",
            sgx_fraction=1.0,
            seed=13,
            epc_total_bytes=mib(64),
            workload="priority-mix",
            workload_options={
                "high_fraction": 0.15,
                "high_priority": "latency-critical",
            },
            preemption_policy="cheapest-victims",
        ),
    ),
    "fig11-limits-off-25pct": (
        default_trace,
        dict(
            scheduler="binpack",
            sgx_fraction=0.5,
            seed=DEFAULT_RUN_SEED,
            enforce_epc_limits=False,
            epc_allow_overcommit=True,
            malicious=MaliciousConfig(epc_occupancy=0.25),
        ),
    ),
    "rebalancer": (
        lambda: _borg(60, seed=7, window_seconds=60.0),
        dict(scheduler="binpack", sgx_fraction=1.0, seed=1,
             rebalance_period=15.0),
    ),
    "node-failures": (
        lambda: _borg(60, seed=7, window_seconds=60.0),
        dict(scheduler="binpack", sgx_fraction=1.0, seed=1,
             node_failures=((300.0, "sgx-worker-0"), (400.0, "worker-1"))),
    ),
    "cells-4": (
        lambda: _borg(120, seed=5, window_seconds=120.0),
        dict(scheduler="binpack", sgx_fraction=1.0, seed=5, cells=4),
    ),
    "cells-2-rebalancer": (
        lambda: _borg(60, seed=7, window_seconds=60.0),
        dict(scheduler="binpack", sgx_fraction=1.0, seed=1, cells=2,
             rebalance_period=15.0),
    ),
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    make_trace, fields = SHAPES[request.param]
    trace = make_trace()
    scenario = Scenario(name=request.param, trace=trace, **fields)
    return request.param, trace, scenario


@pytest.fixture(scope="module")
def production(shape):
    _, trace, scenario = shape
    return run_audited(trace, scenario)


class TestEagerOracle:
    def test_lifecycles_match_the_eager_oracle(self, shape, production):
        _, trace, scenario = shape
        _, lazy = production
        eager = run_eager(trace, scenario)
        assert_matches_eager(lazy, eager)
        assert lazy.metrics.makespan_seconds == pytest.approx(
            eager.metrics.makespan_seconds, rel=0.0, abs=FINISH_TOLERANCE_S
        )
        assert lazy.metrics.queue_series == eager.metrics.queue_series
        for counter in (
            "passes_executed", "passes_skipped", "migration_count",
            "preemption_count", "eviction_count", "cell_spillovers",
        ):
            assert getattr(lazy, counter) == getattr(eager, counter)
        assert lazy.wait_reasons == eager.wait_reasons
        assert len(lazy.metrics.succeeded) > 0

    def test_the_shapes_exercise_what_they_name(self, shape, production):
        name, _, _ = shape
        replay, result = production
        if "rebalancer" in name:
            assert result.migration_count > 0
        if name == "preempt-record":
            assert result.eviction_count > 0
        if name == "node-failures":
            assert any(
                "lost" in (pod.failure_reason or "")
                for pod in result.metrics.failed
            )
        if name.startswith("fig11") or name == "preempt-record":
            # Over-commit: some job ran slower than its trace duration.
            assert any(
                slowdown > 1.0
                for arms in replay.arms.values()
                for _, slowdown in arms
            )

    def test_production_matches_run_replay(self, shape, production):
        _, trace, scenario = shape
        _, audited = production
        assert pod_rows(audited) == pod_rows(run_replay(trace, scenario))


class TestLazyInvariants:
    def test_no_finish_event_fires_early(self, production):
        replay, _ = production
        assert replay.early_finishes == []

    def test_sharded_finish_events_follow_their_job(self, production):
        replay, _ = production
        assert replay.misplaced == []

    def test_unchanged_slowdown_finishes_exactly(self, production):
        """A job armed once, never re-armed, at slowdown 1, finishes at
        exactly ``started_at + duration``: no banking ever rounded it."""
        replay, result = production
        exact = 0
        for pod in result.metrics.succeeded:
            if replay.arms.get(pod.uid) != [(pod.started_at, 1.0)]:
                continue
            assert pod.finished_at == (
                pod.started_at + pod.spec.workload.duration_seconds
            ), pod.name
            exact += 1
        assert exact > 0


class _MoveOnce(EpcRebalancer):
    """Live-migrates one running enclave, once, whatever the EPC load.

    The real rebalancer only moves jobs off over-committed nodes, so
    the migrated job's slowdown nearly always changes and re-arms it
    anyway.  Moving a job between two uncontended nodes keeps its
    slowdown at 1: only the migration itself can re-arm it.
    """

    def __init__(self, replay):
        super().__init__(replay.orchestrator)
        self.replay = replay
        self.moved = None

    def _target(self, source: str) -> Optional[str]:
        replay = self.replay
        for node in replay.cluster.sgx_nodes:
            if node.name == source or node.free_epc_pages() <= 0:
                continue
            if replay.scenario.cells is not None and (
                replay._cell_of_node(node.name)
                == replay._cell_of_node(source)
            ):
                continue
            return node.name
        return None

    def rebalance(self, now: float) -> RebalanceReport:
        report = RebalanceReport()
        if self.moved is not None:
            return report
        for job in self.replay.running.values():
            target = self._target(job.node_name)
            if not job.uses_epc or target is None:
                continue
            source = job.node_name
            downtime = self.orchestrator.migrate_pod(job.pod, target, now)
            report.actions.append(
                MigrationAction(
                    pod_name=job.pod.name,
                    source_node=source,
                    target_node=target,
                    pages_moved=job.pod.spec.workload.epc_pages,
                    downtime_seconds=downtime,
                )
            )
            self.moved = (job.pod, now, downtime)
            break
        return report


class TestMigrationWithoutRateChange:
    @pytest.mark.parametrize("cells", [None, 2])
    def test_migration_rearms_at_an_unchanged_slowdown(self, cells):
        trace = _borg(40, seed=3, window_seconds=600.0)
        scenario = Scenario(
            scheduler="binpack", trace=trace, sgx_fraction=1.0, seed=3,
            rebalance_period=60.0, cells=cells,
        )

        def run(replay_type):
            replay = replay_type(trace, scenario)
            replay.rebalancer = _MoveOnce(replay)
            return replay, replay.run()

        lazy_type = AuditedReplay if cells is None else AuditedCellReplay
        eager_type = EagerReplay if cells is None else EagerCellReplay
        replay, lazy = run(lazy_type)
        _, eager = run(eager_type)
        assert replay.rebalancer.moved is not None
        pod, moved_at, downtime = replay.rebalancer.moved
        assert downtime > 0.0
        # Uncontended: every arm of the migrated job was at slowdown 1.
        assert {s for _, s in replay.arms[pod.uid]} == {1.0}
        assert len(replay.arms[pod.uid]) == 2
        assert replay.early_finishes == []
        assert replay.misplaced == []
        assert pod.finished_at == pytest.approx(
            pod.started_at + pod.spec.workload.duration_seconds + downtime,
            rel=0.0, abs=FINISH_TOLERANCE_S,
        )
        assert_matches_eager(lazy, eager)
