"""The sharded replay's oracle gate: ``cells=1`` is the flat replay.

Hypothesis-checked on random bursty traces: a ``cells=1`` scenario —
which runs the *full* sharded machinery (sharded engine, cell router,
dispatcher) — produces a whole-run :meth:`RunResult.signature`
bit-for-bit identical to a scenario that never mentions cells, across
the periodic, event-driven and indexed engines and every partition
policy.  Multi-cell runs cannot match the oracle (passes interleave
differently) but must be deterministic and complete the workload.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.trace.borg import synthetic_scaled_trace

replay_settings = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bursty_trace(gen_seed, n_jobs):
    """A short-window trace: the queue backs up, so routing matters."""
    return synthetic_scaled_trace(
        seed=gen_seed,
        n_jobs=n_jobs,
        overallocators=max(1, n_jobs // 10),
        window_seconds=120.0,
    )


@given(
    gen_seed=st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=10, max_value=40),
    sgx_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    policy=st.sampled_from(["balanced", "region", "capacity-class"]),
)
@replay_settings
def test_one_cell_is_bit_for_bit_the_oracle(
    gen_seed, seed, n_jobs, sgx_fraction, policy
):
    trace = bursty_trace(gen_seed, n_jobs)
    flat = Scenario(
        trace=trace, sgx_fraction=sgx_fraction, seed=seed
    )
    sharded = flat.with_(cells=1, cell_policy=policy)
    for toggle in (
        {},
        {"event_driven": True},
        {"indexed_scheduling": True},
        {"event_driven": True, "indexed_scheduling": True},
    ):
        oracle = flat.with_(**toggle).run()
        result = sharded.with_(**toggle).run()
        assert result.signature() == oracle.signature()
        assert result.cell_spillovers == 0


@given(
    gen_seed=st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=10, max_value=40),
    cells=st.integers(min_value=2, max_value=4),
    policy=st.sampled_from(["balanced", "region", "capacity-class"]),
)
@replay_settings
def test_multi_cell_is_deterministic_and_completes(
    gen_seed, seed, n_jobs, cells, policy
):
    scenario = Scenario(
        trace=bursty_trace(gen_seed, n_jobs),
        sgx_fraction=0.5,
        seed=seed,
        cells=cells,
        cell_policy=policy,
        standard_workers=4,
        sgx_workers=4,
    )
    first = scenario.run()
    assert first.signature() == scenario.run().signature()
    metrics = first.metrics
    assert len(metrics.succeeded) == len(metrics.pods)
    assert not metrics.failed


@given(
    gen_seed=st.integers(min_value=0, max_value=500),
    seed=st.integers(min_value=0, max_value=500),
)
@replay_settings
def test_multi_cell_engine_toggles_are_deterministic(gen_seed, seed):
    base = Scenario(
        trace=bursty_trace(gen_seed, 25),
        sgx_fraction=0.5,
        seed=seed,
        cells=3,
        standard_workers=3,
        sgx_workers=3,
    )
    for toggle in (
        {"event_driven": True},
        {"indexed_scheduling": True},
    ):
        scenario = base.with_(**toggle)
        assert scenario.run().signature() == scenario.run().signature()
