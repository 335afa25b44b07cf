"""The benchmark's three replay workloads, as plain data.

A workload fixes only the shape of the scenario: the trace size and
arrival window, the cluster size, the SGX share and the policies.
Every engine toggle (``event_driven``, ``indexed_scheduling``,
``use_state_cache``, ``cells``) stays at its ``Scenario`` default, so
the benchmark times what a user of ``repro run`` gets.

One *round* replays ``traces`` independent synthetic Borg traces, each
with its own sub-seed derived from the benchmark's ``--seed``.  Several
traces per round serve two ends:

* the simulated waiting times of a contended trace depend on its
  heavy-tailed job durations, so pooling independent traces keeps the
  seed-to-seed spread of the simulated metrics inside their bounds;
* a pass over a backlog costs O(pending x nodes), so several small
  traces cost less host time than one trace of the same total size.

A round is kept to a few seconds, so that a 30-second run takes the
median over four or more rounds.

This module imports nothing from ``repro``: the replay process times
the package import itself, as part of ``setup_s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Every workload replays synthetic traces with this share of
#: over-allocating jobs (jobs that use more memory than they declare).
OVERALLOCATOR_SHARE = 0.10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the shape of every scenario it replays."""

    name: str
    #: Why the workload exists: the layers it stresses.
    why: str
    #: Jobs per trace at ``scale=1``.
    jobs: int
    #: Independent traces replayed per round.
    traces: int
    #: Arrival rate in jobs per simulated second; ``None`` spreads the
    #: jobs over ``window_seconds`` (or the generator's one-hour slice
    #: when that is ``None`` too).
    arrivals_per_second: Optional[float] = None
    window_seconds: Optional[float] = None
    #: Jobs per standard+SGX worker pair; ``None`` keeps the paper's
    #: 2+2 testbed.
    jobs_per_worker_pair: Optional[int] = None
    #: Extra ``Scenario`` fields (besides trace, seed and workers).
    scenario: Dict[str, object] = field(default_factory=dict)
    #: Record the decision ledger to a file, as ``repro record`` does.
    record_ledger: bool = False

    def jobs_at(self, scale: float) -> int:
        """Jobs per trace at *scale* (at least 8)."""
        return max(8, int(round(self.jobs * scale)))

    def window_at(self, jobs: int) -> Optional[float]:
        """The arrival window in simulated seconds for *jobs* jobs."""
        if self.arrivals_per_second is not None:
            return jobs / self.arrivals_per_second
        return self.window_seconds

    def workers_at(self, jobs: int) -> Optional[int]:
        """Workers of each kind for *jobs* jobs (``None``: 2+2)."""
        if self.jobs_per_worker_pair is None:
            return None
        return max(2, math.ceil(jobs / self.jobs_per_worker_pair))


def sub_seeds(seed: int, count: int) -> List[int]:
    """The per-trace seeds of one round: disjoint across ``seed``s."""
    return [seed * 1000 + index for index in range(count)]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="steady",
            why=(
                "uncontended scaled-Borg replay: host time goes to "
                "progress re-arms, the engine loop, view snapshots and "
                "metrics ingest; the scheduling pass is idle"
            ),
            jobs=2000,
            traces=2,
            jobs_per_worker_pair=125,
            scenario={
                "scheduler": "binpack",
                "sgx_fraction": 0.5,
                "scheduler_period": 1.0,
            },
        ),
        Workload(
            name="backlog",
            why=(
                "EPC-contended burst at 16 jobs/s: the queue backs up "
                "and every pass classifies the deferred backlog against "
                "every node, so the scheduling pass dominates"
            ),
            jobs=500,
            traces=4,
            arrivals_per_second=16.0,
            jobs_per_worker_pair=125,
            scenario={
                "scheduler": "binpack",
                "sgx_fraction": 0.5,
                "scheduler_period": 1.0,
            },
        ),
        Workload(
            name="preempt-record",
            why=(
                "2+2 testbed, 64 MiB EPC, all-SGX priority mix with "
                "cheapest-victims preemption and the decision ledger "
                "recorded: the only workload running policy and obs"
            ),
            jobs=250,
            traces=6,
            window_seconds=900.0,
            scenario={
                "epc_total_bytes": 64 * 2**20,
                "scheduler": "binpack",
                "sgx_fraction": 1.0,
                "workload": "priority-mix",
                "workload_options": {
                    "high_fraction": 0.15,
                    "high_priority": "latency-critical",
                },
                "preemption_policy": "cheapest-victims",
            },
            record_ledger=True,
        ),
    )
}
