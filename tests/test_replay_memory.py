"""A finished replay is freed by reference counting alone.

Once ``Scenario.run()``'s result is dropped, nothing of the replay may
be left to the cyclic garbage collector: a reference cycle keeps the
whole replay (pods, metrics store, event queue) alive until a
generation-2 collection, so back-to-back replays would carry each
other's state.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import ObserveConfig, Scenario
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib


@pytest.fixture(scope="module")
def trace():
    return synthetic_scaled_trace(
        seed=7, n_jobs=60, overallocators=6, window_seconds=60.0
    )


SCENARIOS = {
    "flat": dict(sgx_fraction=0.5),
    "cells-4": dict(sgx_fraction=1.0, cells=4),
    "preempt-ledger": dict(
        sgx_fraction=1.0,
        epc_total_bytes=mib(64),
        workload="priority-mix",
        workload_options={
            "high_fraction": 0.15,
            "high_priority": "latency-critical",
        },
        preemption_policy="cheapest-victims",
    ),
    "rebalancer-node-failures": dict(
        sgx_fraction=1.0,
        rebalance_period=15.0,
        node_failures=((300.0, "sgx-worker-0"),),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_finished_replay_leaves_no_cycles(name, trace, tmp_path):
    fields = dict(SCENARIOS[name])
    if name == "preempt-ledger":
        fields["observe"] = ObserveConfig(
            ledger_path=str(tmp_path / "ledger.jsonl")
        )
    scenario = Scenario(scheduler="binpack", trace=trace, seed=1, **fields)
    # A first run imports whatever the scenario needs lazily; only the
    # second one is measured.
    scenario.run()
    gc.collect()
    gc.disable()
    try:
        result = scenario.run()
        assert result.metrics.succeeded
        if name == "preempt-ledger":
            assert result.eviction_count > 0
        if name == "rebalancer-node-failures":
            assert result.migration_count > 0
        del result
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
