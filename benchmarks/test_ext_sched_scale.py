"""Smoke test: the scheduling-pass bench harness imports and runs.

The full sweep (up to 5000 pods over 200 nodes) is ``run_bench.py``'s
job; tier-1 only proves the harness works end-to-end on tiny
configurations for every strategy and reports its gated
``pods_per_ms`` headline.
"""

from run_bench import build_sched_pass, run_sched_scale


class TestSchedScaleBench:
    def test_tiny_sweep_runs(self):
        report = run_sched_scale(
            points=(
                ("binpack", 60, 12, 1),
                ("spread", 30, 8, 1),
                ("kube-default", 60, 12, 1),
            )
        )
        assert report["benchmark"] == "sched_scale"
        assert len(report["results"]) == 3
        for row in report["results"]:
            assert row["placed"] + row["deferred"] <= row["pods"]
            assert row["pass_ms"] > 0 and row["pods_per_ms"] > 0

    def test_pass_builder_mixes_hardware_and_workloads(self):
        views, pods = build_sched_pass(n_pods=120, n_nodes=8)
        assert len(views) == 8
        assert len(pods) == 120
        assert any(view.sgx_capable for view in views)
        assert any(not view.sgx_capable for view in views)
        assert any(pod.requires_sgx for pod in pods)
        assert any(not pod.requires_sgx for pod in pods)
        # Enclave demand oversubscribes the SGX slice of the cluster,
        # so the sweep exercises the deferred tail too.
        requested_epc = sum(
            pod.spec.resources.requests.epc_pages for pod in pods
        )
        epc_capacity = sum(view.capacity.epc_pages for view in views)
        assert requested_epc > epc_capacity

    def test_pass_builder_is_deterministic(self):
        views_a, pods_a = build_sched_pass(n_pods=40, n_nodes=6)
        views_b, pods_b = build_sched_pass(n_pods=40, n_nodes=6)
        assert [(v.name, v.used) for v in views_a] == [
            (v.name, v.used) for v in views_b
        ]
        assert [p.spec.resources.requests for p in pods_a] == [
            p.spec.resources.requests for p in pods_b
        ]
