"""The scheduling pass against a literal oracle.

``Scheduler.schedule`` is the one production pass.  It reads each
pod's request once, tests ``can_ever_fit`` inline and answers deferred
pods from lazy per-pass free-capacity maxima instead of scanning the
nodes again.  :func:`oracle_schedule` below is the naive loop those
shortcuts must reproduce: ``can_ever_fit`` -> ``feasible_candidates``
-> ``prefer_non_sgx`` -> the strategy's ``_select`` -> ``reserve``,
with every deferral classified by a fresh linear scan.  Outcomes, view
mutations, wait reasons and ledger records must match bit for bit,
for single passes, consecutive passes and whole replays.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.cluster.resources import ResourceVector
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.scheduler import (
    BinpackScheduler,
    KubeDefaultScheduler,
    NodeView,
    SpreadScheduler,
)
from repro.scheduler.base import Assignment, Scheduler, SchedulingOutcome
from repro.scheduler.filtering import (
    can_ever_fit,
    feasible_candidates,
    prefer_non_sgx,
)
from repro.simulation.runner import run_replay
from repro.trace.borg import synthetic_scaled_trace
from repro.units import gib, mib


def make_view(
    name, sgx=False, cpu=8000, mem=gib(64), epc=0, used=None, committed=None
):
    return NodeView(
        name=name,
        sgx_capable=sgx,
        capacity=ResourceVector(cpu, mem, epc),
        used=used or ResourceVector.zero(),
        committed=committed or ResourceVector.zero(),
    )


def make_pod(name, cpu=0, mem=0, epc=0, submitted_at=0.0):
    spec = PodSpec(
        name=name,
        resources=ResourceRequirements(
            requests=ResourceVector(cpu, mem, epc)
        ),
    )
    return Pod(spec, submitted_at=submitted_at)


def clone_views(views):
    return [
        NodeView(
            name=view.name,
            sgx_capable=view.sgx_capable,
            capacity=view.capacity,
            used=view.used,
            committed=view.committed,
        )
        for view in views
    ]


def outcome_signature(outcome):
    return (
        [(a.pod.name, a.node_name) for a in outcome.assignments],
        [pod.name for pod in outcome.unschedulable],
        [pod.name for pod in outcome.deferred],
        outcome.wait_reasons,
    )


def views_signature(views):
    return [(v.name, v.used, v.committed) for v in views]


# -- the oracle ----------------------------------------------------------

def oracle_wait_reason(pod, views):
    """Linear-scan deferral reason: free maxima of the eligible views.

    Rescans every view and builds each one's ``available`` vector,
    where the production pass keeps lazy per-pass maxima.  The binding
    dimension is the first, in EPC -> memory -> CPU order, whose
    request exceeds every eligible node's free amount; when none does,
    the wait is down to fragmentation.
    """
    cpu_max = memory_max = epc_max = -1
    for view in views:
        if pod.requires_sgx and not view.sgx_capable:
            continue
        available = view.available
        cpu_max = max(cpu_max, available.cpu_millicores)
        memory_max = max(memory_max, available.memory_bytes)
        epc_max = max(epc_max, available.epc_pages)
    requests = pod.spec.resources.requests
    if requests.epc_pages > epc_max:
        return "epc"
    if requests.memory_bytes > memory_max:
        return "memory"
    if requests.cpu_millicores > cpu_max:
        return "cpu"
    return "fragmentation"


def oracle_schedule(scheduler, pending, views, now):
    """The naive FCFS pass, one filter call per step, no shortcuts.

    Emits the same ledger records as the production pass into
    ``scheduler.ledger``, so record order can be compared too.
    """
    ledger = scheduler.ledger
    outcome = SchedulingOutcome()
    views = list(views)
    if not scheduler.use_measured:
        for view in views:
            view.used = view.committed

    def defer(pod, reason):
        outcome.defer(pod, reason)
        if ledger.enabled:
            ledger.emit(now, "deferral", pod=pod.name, reason=reason)

    for position, pod in enumerate(pending):
        if not can_ever_fit(pod, views):
            outcome.unschedulable.append(pod)
            continue
        candidates = feasible_candidates(pod, views)
        if scheduler.preserve_sgx_nodes:
            candidates = prefer_non_sgx(pod, candidates)
        chosen = (
            scheduler._select(pod, candidates, views) if candidates else None
        )
        if chosen is None:
            defer(pod, oracle_wait_reason(pod, views))
            if scheduler.strict_fcfs and not candidates:
                for blocked in list(pending)[position + 1:]:
                    defer(blocked, "head_of_line")
                break
            continue
        requests = pod.spec.resources.requests
        assert requests.fits_within(chosen.available)
        chosen.reserve(requests)
        outcome.assignments.append(Assignment(pod=pod, node_name=chosen.name))
        if ledger.enabled:
            ledger.emit(
                now, "placement",
                pod=pod.name, node=chosen.name,
                runner_ups=len(candidates) - 1,
            )
    return outcome


class ListLedger:
    """Ledger double keeping every record as ``(kind, fields)``."""

    enabled = True

    def __init__(self):
        self.records = []

    def emit(self, now, kind, **fields):
        self.records.append((kind, fields))


# -- schedulers under test -----------------------------------------------

class DecliningScheduler(Scheduler):
    """Test-only strategy that declines every odd-numbered pod.

    Its ``_select`` returns ``None`` even when candidates exist, which
    reaches the pass's decline branch; even pods take the first
    candidate.
    """

    name = "declining"

    def _select(self, pod, candidates, views):
        if int(pod.name[1:]) % 2:
            return None
        return candidates[0]


KINDS = ["binpack", "spread", "kube-default", "declining"]


def build_scheduler(kind, use_measured, strict, preserve):
    if kind == "declining":
        return DecliningScheduler(
            use_measured=use_measured,
            strict_fcfs=strict,
            preserve_sgx_nodes=preserve,
        )
    if kind == "kube-default":
        scheduler = KubeDefaultScheduler(strict_fcfs=strict)
        # Not a constructor knob of the baseline; toggled to cover the
        # merged candidate pool too.
        scheduler.preserve_sgx_nodes = preserve
        return scheduler
    cls = BinpackScheduler if kind == "binpack" else SpreadScheduler
    return cls(
        use_measured=use_measured,
        strict_fcfs=strict,
        preserve_sgx_nodes=preserve,
    )


def build_views(raw_views):
    return [
        NodeView(
            name=f"n{i:03d}",
            sgx_capable=raw["sgx"],
            capacity=raw["capacity"],
            used=raw["used"],
            committed=raw["committed"],
        )
        for i, raw in enumerate(raw_views)
    ]


def run_both(kind, use_measured, strict, preserve, pods, views):
    """One pass each of production and oracle on cloned views."""
    results = []
    for run in (Scheduler.schedule, oracle_schedule):
        scheduler = build_scheduler(kind, use_measured, strict, preserve)
        scheduler.ledger = ListLedger()
        pass_views = clone_views(views)
        outcome = run(scheduler, pods, pass_views, 100.0)
        results.append(
            (
                outcome_signature(outcome),
                views_signature(pass_views),
                scheduler.ledger.records,
            )
        )
    return results


# -- hypothesis: one pass, adversarial views and queues ------------------

_vec = st.builds(
    ResourceVector,
    cpu_millicores=st.integers(0, 4000),
    memory_bytes=st.sampled_from([0, mib(512), gib(1), gib(4), gib(64)]),
    epc_pages=st.integers(0, 4096),
)

_view_strategy = st.builds(
    dict,
    sgx=st.booleans(),
    capacity=_vec,
    used=_vec,
    committed=_vec,
)

_pod_strategy = st.builds(
    dict,
    cpu=st.integers(0, 4000),
    mem=st.sampled_from([0, mib(512), gib(1), gib(4), gib(32)]),
    epc=st.integers(0, 4096),
)

#: Requests with frequent zero components (a zero request fits even an
#: overcommitted dimension).
_sparse_pod_strategy = st.builds(
    dict,
    cpu=st.sampled_from([0, 0, 2000, 4000]),
    mem=st.sampled_from([0, 0, gib(4), gib(32)]),
    epc=st.sampled_from([0, 0, 1, 2048, 4096]),
)

#: Views on the same coarse grid as the sparse requests, so free
#: amounts often equal a request exactly; ``used`` often exceeds
#: capacity in some dimension.
_grid_vec = st.builds(
    ResourceVector,
    cpu_millicores=st.sampled_from([0, 2000, 4000, 6000]),
    memory_bytes=st.sampled_from([0, gib(4), gib(32), gib(64)]),
    epc_pages=st.sampled_from([0, 2048, 4096, 6144]),
)
_overcommitted_view_strategy = st.builds(
    dict,
    sgx=st.booleans(),
    capacity=_grid_vec,
    used=_grid_vec,
    committed=_grid_vec,
)

_any_view = st.one_of(_view_strategy, _overcommitted_view_strategy)
_any_pod = st.one_of(_pod_strategy, _sparse_pod_strategy)


class TestPassEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        use_measured=st.booleans(),
        strict=st.booleans(),
        preserve=st.booleans(),
        raw_views=st.lists(_any_view, min_size=0, max_size=8),
        raw_pods=st.lists(_any_pod, min_size=0, max_size=10),
    )
    def test_single_pass_matches_the_oracle(
        self, kind, use_measured, strict, preserve, raw_views, raw_pods
    ):
        views = build_views(raw_views)
        pods = [
            make_pod(f"p{i:03d}", submitted_at=float(i), **raw)
            for i, raw in enumerate(raw_pods)
        ]
        production, oracle = run_both(
            kind, use_measured, strict, preserve, pods, views
        )
        assert production == oracle

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        use_measured=st.booleans(),
        raw_views=st.lists(_any_view, min_size=1, max_size=6),
        batches=st.lists(
            st.lists(_any_pod, min_size=0, max_size=5),
            min_size=2,
            max_size=4,
        ),
    )
    def test_consecutive_passes_match_the_oracle(
        self, kind, use_measured, raw_views, batches
    ):
        """Passes over views carrying earlier passes' reservations."""
        views = build_views(raw_views)
        production = build_scheduler(kind, use_measured, False, True)
        oracle = build_scheduler(kind, use_measured, False, True)
        production_views = clone_views(views)
        oracle_views = clone_views(views)
        counter = 0
        for batch in batches:
            pods = []
            for raw in batch:
                pods.append(
                    make_pod(
                        f"p{counter:03d}",
                        submitted_at=float(counter),
                        **raw,
                    )
                )
                counter += 1
            a = production.schedule(pods, production_views, now=100.0)
            b = oracle_schedule(oracle, pods, oracle_views, now=100.0)
            assert outcome_signature(a) == outcome_signature(b)
            assert views_signature(production_views) == views_signature(
                oracle_views
            )


class TestOracleTargets:
    """Fixed cases for the pass's shortcuts, each against the oracle."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_placement_invalidates_the_maxima(self, kind):
        """A deferral's maxima are stale after any later placement."""
        views = [
            make_view("a", cpu=8000, used=ResourceVector(4000, 0, 0)),
            make_view("b", cpu=8000, used=ResourceVector(2000, 0, 0)),
        ]
        pods = [
            make_pod("p000", cpu=7000),  # defers: 6000 free at most
            make_pod("p001", cpu=6000),  # takes b (odd: declined)
            make_pod("p002", cpu=4000),  # a still has 4000 free
            make_pod("p003", cpu=4001),  # nothing left with 4001
        ]
        production, oracle = run_both(kind, True, False, True, pods, views)
        assert production == oracle

    def test_overcommitted_dimension_floors_at_zero(self):
        """Negative free capacity counts as zero, not below it: a zero
        request still fits a node whose CPU is overcommitted."""
        views = [
            make_view(
                "a", cpu=2000, mem=gib(4),
                used=ResourceVector(6000, gib(3), 0),
            ),
        ]
        pods = [
            make_pod("p000", mem=gib(2)),  # defers on memory
            make_pod("p001", mem=mib(512)),  # fits despite the cpu
        ]
        production, oracle = run_both(
            "binpack", True, False, True, pods, views
        )
        assert production == oracle
        assert production[0][0] == [("p001", "a")]
        assert production[0][3] == {"memory": 1}


# -- per-pod deferral reasons -------------------------------------------

class RecordingLedger:
    """Ledger double: each deferral next to the oracle's reason.

    The oracle runs at emit time against the pass's own views, so it
    sees exactly the in-pass reservations the scheduler saw.
    """

    enabled = True

    def __init__(self, pods, views):
        self._pods = {pod.name: pod for pod in pods}
        self._views = views
        self.deferrals = []

    def emit(self, now, kind, **fields):
        if kind != "deferral":
            return
        reason = fields["reason"]
        expected = (
            reason
            if reason == "head_of_line"
            else oracle_wait_reason(self._pods[fields["pod"]], self._views)
        )
        self.deferrals.append((fields["pod"], reason, expected))


class TestDeferralReasons:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        use_measured=st.booleans(),
        strict=st.booleans(),
        preserve=st.booleans(),
        raw_views=st.lists(_any_view, min_size=0, max_size=8),
        raw_pods=st.lists(_any_pod, min_size=0, max_size=10),
    )
    def test_each_deferral_matches_the_oracle_scan(
        self, kind, use_measured, strict, preserve, raw_views, raw_pods
    ):
        views = build_views(raw_views)
        pods = [
            make_pod(f"p{i:03d}", submitted_at=float(i), **raw)
            for i, raw in enumerate(raw_pods)
        ]
        scheduler = build_scheduler(kind, use_measured, strict, preserve)
        ledger = RecordingLedger(pods, views)
        scheduler.ledger = ledger
        outcome = scheduler.schedule(pods, views, now=100.0)
        assert [pod for pod, _, _ in ledger.deferrals] == [
            pod.name for pod in outcome.deferred
        ]
        for pod, reason, expected in ledger.deferrals:
            assert reason == expected, pod

    @pytest.mark.parametrize(
        "run", [Scheduler.schedule, oracle_schedule],
        ids=["production", "oracle"],
    )
    def test_known_maxima_boundaries(self, run):
        """A request equal to the known free maximum still fits, and
        a placement invalidates the maxima a deferral computed."""
        views = [make_view("a", cpu=8000, used=ResourceVector(4000, 0, 0))]
        pods = [
            make_pod("p000", cpu=6000),  # defers on cpu: 4000 free
            make_pod("p001", cpu=4000),  # exactly the known maximum
            make_pod("p002", cpu=1),  # nothing left after p001
        ]
        scheduler = build_scheduler("binpack", True, False, True)
        ledger = RecordingLedger(pods, views)
        scheduler.ledger = ledger
        outcome = run(scheduler, pods, views, 100.0)
        assert [a.pod.name for a in outcome.assignments] == ["p001"]
        assert ledger.deferrals == [
            ("p000", "cpu", "cpu"),
            ("p002", "cpu", "cpu"),
        ]


# -- whole replays -------------------------------------------------------

@pytest.fixture(scope="module")
def small_trace():
    return synthetic_scaled_trace(seed=7, n_jobs=40, overallocators=4)


def pod_signature(result):
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


REPLAY_CONFIGS = [
    dict(scheduler="binpack", sgx_fraction=0.5, seed=1),
    dict(scheduler="spread", sgx_fraction=0.5, seed=4),
    dict(scheduler="kube-default", sgx_fraction=0.5, seed=1),
    dict(
        scheduler="binpack",
        sgx_fraction=1.0,
        seed=1,
        enforce_epc_limits=True,
        epc_allow_overcommit=False,
    ),
    # Transient launch failures: requeues with FCFS-preserving backoff.
    dict(
        scheduler="binpack",
        sgx_fraction=1.0,
        seed=1,
        epc_allow_overcommit=False,
        requeue_backoff_seconds=30.0,
    ),
    # Node churn between passes.
    dict(
        scheduler="binpack",
        sgx_fraction=1.0,
        seed=1,
        node_failures=((600.0, "sgx-worker-0"),),
    ),
    dict(
        scheduler="spread",
        sgx_fraction=1.0,
        seed=2,
        node_failures=((400.0, "worker-1"), (900.0, "sgx-worker-1")),
    ),
    # Rebalancer live migrations change occupancy between passes.
    dict(scheduler="binpack", sgx_fraction=1.0, seed=1,
         rebalance_period=15.0),
    # The strict head-of-line variant defers whole tails.
    dict(scheduler="binpack", sgx_fraction=1.0, seed=3, strict_fcfs=True),
    # Ablations: no node preservation / declared-only feasibility.
    dict(scheduler="binpack", sgx_fraction=0.5, seed=1,
         preserve_sgx_nodes=False),
    dict(scheduler="spread", sgx_fraction=0.5, seed=1,
         use_measured=False),
]


class TestReplayEquivalence:
    @pytest.mark.parametrize(
        "kwargs", REPLAY_CONFIGS,
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bit_for_bit_replay(self, small_trace, kwargs, monkeypatch):
        """Whole replays with every pass swapped for the oracle."""
        production = run_replay(small_trace, Scenario(**kwargs))
        monkeypatch.setattr(Scheduler, "schedule", oracle_schedule)
        oracle = run_replay(small_trace, Scenario(**kwargs))
        assert pod_signature(production) == pod_signature(oracle)
        assert (
            production.metrics.makespan_seconds
            == oracle.metrics.makespan_seconds
        )
        assert production.metrics.queue_series == oracle.metrics.queue_series
        assert production.passes_executed == oracle.passes_executed
        assert production.wait_reasons == oracle.wait_reasons
