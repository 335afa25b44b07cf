"""The sharded pending queue: one FCFS queue per cell, one facade.

The orchestrator talks to *a* pending queue
(:class:`repro.orchestrator.queue.PendingQueue`); in a sharded replay
that queue is this router — the same interface, backed by one real
``PendingQueue`` per cell plus a uid -> cell assignment map.  Pushes
consult the global dispatcher for a target cell; aggregate queries sum
over the cells; per-cell snapshots feed the per-cell scheduling
passes.

With one cell every operation delegates to the single underlying
queue, so the ``cells=1`` replay sees byte-identical queue behaviour —
the oracle gate leans on that.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterator, List, Optional, Protocol

from ..errors import OrchestrationError
from ..orchestrator.pod import Pod
from ..orchestrator.queue import PendingQueue, _order_key


class CellRouter(Protocol):
    """What the queue needs from the dispatcher: a target cell."""

    def route(self, pod: Pod) -> int:  # pragma: no cover - protocol
        ...


class CellQueueRouter:
    """A :class:`PendingQueue`-shaped facade over per-cell queues."""

    __slots__ = (
        "requeue_backoff_seconds", "_queues", "_cell_of", "_router",
        # The dispatcher refers back to its queue weakly.
        "__weakref__",
    )

    def __init__(
        self,
        cells: int,
        router: CellRouter,
        requeue_backoff_seconds: float = 0.0,
    ):
        if cells < 1:
            raise OrchestrationError(f"cells must be >= 1: {cells}")
        self.requeue_backoff_seconds = requeue_backoff_seconds
        self._queues: List[PendingQueue] = [
            PendingQueue(requeue_backoff_seconds=requeue_backoff_seconds)
            for _ in range(cells)
        ]
        #: pod uid -> cell id, for every queued pod.
        self._cell_of: Dict[str, int] = {}
        self._router = router

    @property
    def cell_count(self) -> int:
        return len(self._queues)

    def cell_len(self, cell: int) -> int:
        """Queued pods (backed off or not) in one cell."""
        return len(self._queues[cell])

    # -- mutation ----------------------------------------------------------

    def push(self, pod: Pod) -> None:
        """Enqueue a new pod in the cell the dispatcher routes it to."""
        if pod.uid in self._cell_of:
            raise OrchestrationError(
                f"pod {pod.name} (uid {pod.uid}) already queued"
            )
        cell = self._router.route(pod)
        self._queues[cell].push(pod)
        self._cell_of[pod.uid] = cell

    def requeue(self, pod: Pod, now: float) -> float:
        """Reinsert a transiently failed pod, re-routed like a push.

        The failed launch already removed the pod from its cell, so the
        requeue consults the dispatcher again — a cell whose EPC just
        filled (the classic transient failure) deterministically scores
        worse than its peers.  Returns the backoff ``ready_at``.
        """
        if pod.uid in self._cell_of:
            raise OrchestrationError(
                f"pod {pod.name} (uid {pod.uid}) already queued"
            )
        cell = self._router.route(pod)
        self._cell_of[pod.uid] = cell
        return self._queues[cell].requeue(pod, now)

    def remove(self, pod: Pod) -> None:
        """Remove a pod (scheduled or rejected) from its cell."""
        cell = self._cell_of.pop(pod.uid, None)
        if cell is None:
            raise OrchestrationError(
                f"pod {pod.name} (uid {pod.uid}) is not queued"
            )
        self._queues[cell].remove(pod)

    def move(self, pod: Pod, target_cell: int) -> None:
        """Re-home a queued pod to *target_cell* (spillover).

        The pod keeps its ``(-priority, submitted_at, uid)`` order key
        — it enters the target cell exactly where its tier's FCFS
        order has it.  Only visible (non-backed-off) pods spill, so no
        ``ready_at`` state needs to travel.
        """
        cell = self._cell_of.get(pod.uid)
        if cell is None:
            raise OrchestrationError(
                f"pod {pod.name} (uid {pod.uid}) is not queued"
            )
        if not 0 <= target_cell < len(self._queues):
            raise OrchestrationError(
                f"unknown cell {target_cell}; have "
                f"[0, {len(self._queues)})"
            )
        if target_cell == cell:
            return
        self._queues[cell].remove(pod)
        self._queues[target_cell].push(pod)
        self._cell_of[pod.uid] = target_cell

    # -- membership --------------------------------------------------------

    def cell_of(self, pod: Pod) -> Optional[int]:
        """The cell holding *pod*, or ``None`` when not queued."""
        return self._cell_of.get(pod.uid)

    def __contains__(self, pod: Pod) -> bool:
        return pod.uid in self._cell_of

    def __len__(self) -> int:
        return len(self._cell_of)

    def __iter__(self) -> Iterator[Pod]:
        """Global scheduling-order iteration over a merged snapshot."""
        return iter(self.snapshot())

    def peek(self) -> Optional[Pod]:
        """The globally frontmost pending pod, or ``None``."""
        merged = self.snapshot()
        return merged[0] if merged else None

    # -- snapshots ---------------------------------------------------------

    def cell_snapshot(
        self, cell: int, now: Optional[float] = None
    ) -> List[Pod]:
        """One cell's eligible pods in scheduling order."""
        return self._queues[cell].snapshot(now)

    def snapshot(self, now: Optional[float] = None) -> List[Pod]:
        """All cells' eligible pods, merged in global scheduling order.

        The merge re-sorts by the queue's own order key, so reporting
        surfaces (queue samples, ``repro run`` summaries) see the same
        order a single flat queue would show.
        """
        if len(self._queues) == 1:
            return self._queues[0].snapshot(now)
        merged: List[Pod] = []
        for queue in self._queues:
            for pod in queue.snapshot(now):
                insort(merged, pod, key=_order_key)
        return merged

    def ready_count(self, now: float) -> int:
        """Pods eligible for scheduling at *now*, across all cells."""
        return sum(queue.ready_count(now) for queue in self._queues)

    def next_ready_at(self, now: float) -> Optional[float]:
        """Earliest backoff expiry still in the future, if any."""
        future = [
            ready_at
            for queue in self._queues
            if (ready_at := queue.next_ready_at(now)) is not None
        ]
        return min(future) if future else None

    # -- aggregates --------------------------------------------------------

    def total_requested_epc_pages(self) -> int:
        """Sum of EPC pages requested by queued pods, all cells."""
        return sum(
            queue.total_requested_epc_pages() for queue in self._queues
        )

    def total_requested_memory_bytes(self) -> int:
        """Sum of standard memory requested by queued pods, all cells."""
        return sum(
            queue.total_requested_memory_bytes()
            for queue in self._queues
        )
