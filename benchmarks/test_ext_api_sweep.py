"""Smoke test: the scenario-sweep bench harness imports and runs.

The full 4-scenario / 4-worker comparison is ``run_bench.py``'s job;
tier-1 only proves the harness works end-to-end on a tiny grid and
that its headline invariant — pool workers bit-for-bit identical to
serial execution — holds there too.
"""

from run_bench import run_api_sweep


class TestApiSweepBench:
    def test_tiny_sweep_runs(self):
        report = run_api_sweep(
            workers=2,
            jobs=40,
            grid={
                "scheduler": ("binpack",),
                "sgx_fraction": (0.0, 0.5),
            },
        )
        assert report["schema"] == "repro.sweep/1"
        assert report["benchmark"] == "api_sweep"
        assert report["count"] == 2
        assert len(report["results"]) == 2
        for row in report["results"]:
            assert row["parallel_identical"] is True
            assert row["completed"] == row["submitted"] == 40
        assert report["serial_wall_s"] > 0
        assert report["parallel_wall_s"] > 0
