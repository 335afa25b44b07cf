"""Cluster-state cache through the scheduler stack.

Covers the acceptance properties of the incremental state cache:
cached ``build_views`` equals the full-scan path, a scheduling pass
issues zero window scans when the cache is active, malformed monitoring
rows are skipped visibly, and ``load_after`` matches ``load`` without
allocating hypothetical views.
"""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.cluster.resources import ResourceVector
from repro.cluster.topology import paper_cluster
from repro.errors import SchedulingError
from repro.monitoring.aggregate import WindowedAggregateCache
from repro.monitoring.heapster import MEASUREMENT_MEMORY
from repro.monitoring.probe import MEASUREMENT_EPC
from repro.monitoring.tsdb import TimeSeriesDatabase
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.scheduler.base import ClusterStateService, NodeView
from repro.scheduler.binpack import BinpackScheduler
from repro.simulation.runner import run_replay
from repro.units import gib, mib


def drive(orchestrator, n_pods=6, until=30.0):
    """Submit a pod mix, collect metrics and schedule a few rounds."""
    scheduler = BinpackScheduler()
    for index in range(n_pods):
        if index % 2 == 0:
            spec = make_pod_spec(
                f"sgx-{index}",
                duration_seconds=300.0,
                declared_epc_bytes=mib(8),
            )
        else:
            spec = make_pod_spec(
                f"std-{index}",
                duration_seconds=300.0,
                declared_memory_bytes=gib(1),
            )
        orchestrator.submit(spec, now=0.0)
    now = 0.0
    while now < until:
        orchestrator.collect_metrics(now)
        orchestrator.scheduling_pass(scheduler, now=now)
        now += 5.0
    return now


class TestBuildViewsEquivalence:
    def test_cached_views_equal_full_scan_views(self):
        orchestrator = Orchestrator(paper_cluster())
        now = drive(orchestrator)
        service = orchestrator.state_service
        cached = service.build_views(now)
        # Disable both the service-level snapshot path and the InfluxQL
        # fast path, forcing the original full window scan.
        service.cache = None
        orchestrator.db.aggregate_cache = None
        full = service.build_views(now)
        assert cached == full
        assert any(view.used != ResourceVector.zero() for view in cached)

    def test_cache_disabled_orchestrator_has_no_cache(self):
        orchestrator = Orchestrator(paper_cluster(), use_state_cache=False)
        assert orchestrator.aggregate_cache is None
        assert orchestrator.state_service.cache is None
        assert orchestrator.db.aggregate_cache is None

    def test_mismatched_cache_window_is_rejected(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=300.0)
        with pytest.raises(SchedulingError, match="window"):
            ClusterStateService([], db, window_seconds=25.0, cache=cache)

    def test_shared_db_reuses_one_cache(self):
        db = TimeSeriesDatabase(retention_seconds=3600.0)
        first = Orchestrator(paper_cluster(), db=db)
        second = Orchestrator(paper_cluster(), db=db)
        assert second.aggregate_cache is first.aggregate_cache
        assert len(db._subscribers) == 1

    def test_shared_db_window_mismatch_detaches_older_cache(self):
        db = TimeSeriesDatabase(retention_seconds=3600.0)
        first = Orchestrator(paper_cluster(), db=db)
        second = Orchestrator(
            paper_cluster(), db=db, metrics_window_seconds=60.0
        )
        assert second.aggregate_cache is not first.aggregate_cache
        assert len(db._subscribers) == 1  # old cache detached, not stacked
        # The displaced orchestrator stays correct via the full scan.
        drive(first, until=15.0)
        service = first.state_service
        cached_path = service.build_views(15.0)
        service.cache = None
        assert cached_path == service.build_views(15.0)

    def test_replay_identical_with_and_without_cache(self, small_trace):
        """End to end: the cache changes latency, never behaviour."""
        results = {}
        for use_cache in (True, False):
            config = Scenario(
                scheduler="binpack",
                sgx_fraction=0.5,
                seed=11,
                use_state_cache=use_cache,
            )
            outcome = run_replay(small_trace, config)
            results[use_cache] = (
                outcome.metrics.makespan_seconds,
                sorted(
                    (pod.name, pod.phase.value, pod.node_name)
                    for pod in outcome.orchestrator.all_pods
                ),
                len(outcome.log),
            )
        assert results[True] == results[False]


class TestZeroScanRegression:
    def test_scheduling_pass_issues_no_window_scans(self):
        orchestrator = Orchestrator(paper_cluster())
        drive(orchestrator, until=20.0)
        scheduler = BinpackScheduler()
        orchestrator.submit(
            make_pod_spec(
                "late", duration_seconds=60.0, declared_epc_bytes=mib(4)
            ),
            now=20.0,
        )
        orchestrator.collect_metrics(20.0)
        before = orchestrator.db.scan_count
        orchestrator.scheduling_pass(scheduler, now=20.0)
        assert orchestrator.db.scan_count == before

    def test_full_scan_path_does_scan(self):
        orchestrator = Orchestrator(paper_cluster(), use_state_cache=False)
        drive(orchestrator, until=20.0)
        before = orchestrator.db.scan_count
        orchestrator.state_service.build_views(20.0)
        assert orchestrator.db.scan_count > before

    def test_disabled_cache_really_scans_on_a_shared_db(self):
        """use_state_cache=False must bypass the InfluxQL fast path even
        when another orchestrator attached a cache to the shared db."""
        db = TimeSeriesDatabase(retention_seconds=3600.0)
        cached = Orchestrator(paper_cluster(), db=db)
        uncached = Orchestrator(paper_cluster(), db=db, use_state_cache=False)
        drive(cached, until=10.0)
        hits_before = cached.aggregate_cache.hits
        scans_before = db.scan_count
        uncached.state_service.build_views(10.0)
        assert db.scan_count > scans_before
        assert cached.aggregate_cache.hits == hits_before


class TestMalformedRows:
    def test_untagged_rows_are_skipped_and_counted(self, caplog):
        db = TimeSeriesDatabase()
        service = ClusterStateService([], db, window_seconds=25.0)
        db.write(MEASUREMENT_MEMORY, value=100.0, time=1.0, tags={})
        db.write(
            MEASUREMENT_MEMORY,
            value=200.0,
            time=1.0,
            tags={"pod_name": "p"},  # nodename missing
        )
        db.write(
            MEASUREMENT_EPC,
            value=50.0,
            time=1.0,
            tags={"nodename": "n"},  # pod_name missing
        )
        with caplog.at_level(logging.WARNING, logger="repro.scheduler.base"):
            measured = service._measured_usage(now=2.0)
        assert measured == {}
        assert service.malformed_rows_skipped == 3
        assert "missing nodename/pod_name" in caplog.text

    def test_well_tagged_rows_unaffected(self):
        db = TimeSeriesDatabase()
        service = ClusterStateService([], db, window_seconds=25.0)
        db.write(
            MEASUREMENT_MEMORY,
            value=100.0,
            time=1.0,
            tags={"pod_name": "p", "nodename": "n"},
        )
        measured = service._measured_usage(now=2.0)
        assert measured == {"n": {"p": (100, 0)}}
        assert service.malformed_rows_skipped == 0


_DIMS = st.integers(min_value=0, max_value=5000)


class TestLoadAfter:
    @given(
        cap=st.tuples(_DIMS, _DIMS, _DIMS),
        used=st.tuples(_DIMS, _DIMS, _DIMS),
        req=st.tuples(_DIMS, _DIMS, _DIMS),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_load_of_hypothetical_view(self, cap, used, req):
        view = NodeView(
            name="n",
            sgx_capable=cap[2] > 0,
            capacity=ResourceVector(*cap),
            used=ResourceVector(*used),
        )
        requests = ResourceVector(*req)
        hypothetical = NodeView(
            name="n",
            sgx_capable=view.sgx_capable,
            capacity=view.capacity,
            used=view.used + requests,
        )
        assert view.load_after(requests) == pytest.approx(hypothetical.load)

    def test_dimension_node_lacks_is_ignored(self):
        view = NodeView(
            name="std",
            sgx_capable=False,
            capacity=ResourceVector(cpu_millicores=1000, memory_bytes=1000),
            used=ResourceVector(cpu_millicores=500),
        )
        # EPC demand on a node with no EPC: inf ratio is ignored by
        # load(); load_after must do the same.
        assert view.load_after(ResourceVector(epc_pages=10)) == 0.5
