"""Smoke test: the event-scheduling bench harness imports and runs.

The full sweep (250–2000 pods) is ``run_bench.py``'s job; tier-1 only
proves the harness works end-to-end on one tiny configuration and that
its headline invariants — bit-for-bit equivalence, fewer passes — hold
there too.
"""

from run_bench import event_sched_config, run_event_sched


class TestEventSchedBench:
    def test_tiny_sweep_runs(self):
        report = run_event_sched(sizes=(40,))
        assert report["benchmark"] == "event_sched"
        assert set(report["environment"]) == {"python", "machine", "cpus"}
        (row,) = report["results"]
        assert row["pods"] == 40
        assert row["bit_for_bit_identical"] is True
        assert row["event_passes"] < row["periodic_passes"]
        assert (
            row["event_passes"] + row["passes_skipped"]
            == row["periodic_passes"]
        )
        assert row["events_published"] > 0

    def test_config_scales_cluster_with_load(self):
        small = event_sched_config(250, event_driven=True)
        large = event_sched_config(2000, event_driven=True)
        assert small.event_driven and large.event_driven
        assert large.sgx_workers > small.sgx_workers
        assert large.standard_workers > small.standard_workers
