"""The global dispatcher: pod -> cell routing and spillover.

Two-level scheduling splits placement into a cheap global decision —
*which cell should try this pod* — and the existing per-cell
scheduling pass.  The dispatcher owns the global decision.  Its
routing inputs are deliberately coarse and O(cells):

* **feasibility class** — per cell, the distinct node hardware shapes
  ``(sgx_capable, capacity)``; a pod is feasible in a cell iff some
  shape could ever host it (the cell-local mirror of
  :func:`repro.scheduler.filtering.can_ever_fit`);
* **load** — the cell's pending-queue length;
* **EPC availability** — for SGX pods, the cell's advertised-minus-
  committed EPC pages (integer arithmetic over kubelet commitments,
  no measurements: routing must not perturb the metrics pipeline).

Every tie breaks on the cell id, so routing is a pure deterministic
function of queue state — the replay's bit-for-bit gate extends
through it.  **Spillover** handles the misrouted remainder: a pod a
cell keeps deferring is re-routed to the next-best feasible cell, and
a pod its cell can *never* host is re-routed immediately (or rejected
when no cell can host it, exactly like the flat oracle).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.node import Node
from ..cluster.resources import ResourceVector
from ..errors import OrchestrationError
from ..orchestrator.kubelet import Kubelet
from ..orchestrator.pod import Pod
from ..scheduler.base import Scheduler
from .queue import CellQueueRouter

#: A node hardware shape: SGX capability plus total capacity.
CapacityClass = Tuple[bool, ResourceVector]


class Cell:
    """One cell: its member nodes and its private scheduler."""

    __slots__ = ("cell_id", "node_names", "scheduler", "_classes")

    def __init__(
        self,
        cell_id: int,
        node_names: Sequence[str],
        scheduler: Scheduler,
    ):
        self.cell_id = cell_id
        #: Member node names in cluster registration order.
        self.node_names: List[str] = list(node_names)
        #: The cell-local strategy instance: its own candidate index,
        #: its own statics cache — nothing shared across cells.
        self.scheduler = scheduler
        self._classes: List[CapacityClass] = []

    def rebuild_classes(self, nodes: Mapping[str, Node]) -> None:
        """Recompute the distinct hardware shapes of the live members."""
        shapes = {
            (node.sgx_capable, node.capacity)
            for name in self.node_names
            if (node := nodes.get(name)) is not None
        }
        self._classes = sorted(
            shapes,
            key=lambda cls: (
                cls[0],
                cls[1].cpu_millicores,
                cls[1].memory_bytes,
                cls[1].epc_pages,
            ),
        )

    def could_ever_fit(self, pod: Pod) -> bool:
        """Whether some member shape could ever host *pod*."""
        requests = pod.spec.resources.requests
        needs_sgx = pod.requires_sgx
        for sgx_capable, capacity in self._classes:
            if needs_sgx and not sgx_capable:
                continue
            if requests.fits_within(capacity):
                return True
        return False


class GlobalDispatcher:
    """Routes pods to cells; owns the node -> cell map."""

    __slots__ = ("cells", "cell_of_node", "_kubelets", "_queue")

    def __init__(self, cells: Sequence[Cell]):
        self.cells: List[Cell] = list(cells)
        self.cell_of_node: Dict[str, int] = {}
        for cell in self.cells:
            for name in cell.node_names:
                self.cell_of_node[name] = cell.cell_id
        self._kubelets: Mapping[str, Kubelet] = {}
        self._queue: Optional[CellQueueRouter] = None

    def bind(
        self,
        kubelets: Mapping[str, Kubelet],
        queue: CellQueueRouter,
        nodes: Mapping[str, Node],
    ) -> None:
        """Late-bind the live cluster state the routing score reads.

        *kubelets* must be the orchestrator's own dict (mutated in
        place on churn), so the dispatcher always scores live nodes.
        The queue is held through a weak proxy: it holds the
        dispatcher as its router, and the pair must not form a
        reference cycle.
        """
        self._kubelets = kubelets
        self._queue = weakref.proxy(queue)
        for cell in self.cells:
            cell.rebuild_classes(nodes)

    # -- routing -----------------------------------------------------------

    def _free_epc_pages(self, cell: Cell) -> int:
        """Advertised-minus-committed EPC pages across the cell."""
        kubelets = self._kubelets
        free = 0
        for name in cell.node_names:
            kubelet = kubelets.get(name)
            if kubelet is None:
                continue
            headroom = (
                kubelet.advertised_epc_pages()
                - kubelet.committed_requests().epc_pages
            )
            if headroom > 0:
                free += headroom
        return free

    def _score(self, cell: Cell, pod: Pod) -> Tuple[int, int, int]:
        """Routing key, lower is better: load, EPC pressure, id."""
        assert self._queue is not None
        load = self._queue.cell_len(cell.cell_id)
        epc_pressure = (
            -self._free_epc_pages(cell) if pod.requires_sgx else 0
        )
        return (load, epc_pressure, cell.cell_id)

    def route(self, pod: Pod) -> int:
        """The cell that should try *pod* next.

        Feasible cells compete on ``(load, EPC pressure, id)``.  When
        no cell could ever host the pod, the least-loaded cell takes it
        anyway: its local pass then rejects the pod exactly like the
        flat oracle's ``can_ever_fit`` check would.
        """
        feasible = [
            cell for cell in self.cells if cell.could_ever_fit(pod)
        ]
        candidates = feasible if feasible else self.cells
        best = min(candidates, key=lambda cell: self._score(cell, pod))
        return best.cell_id

    def spill_target(self, pod: Pod, current: int) -> Optional[int]:
        """The best feasible cell other than *current*, if any.

        Used both for deferral-streak spillover and for immediate
        re-routing of pods locally infeasible in their cell.  ``None``
        means no other cell could ever host the pod — the caller keeps
        (or rejects) it.
        """
        feasible = [
            cell
            for cell in self.cells
            if cell.cell_id != current and cell.could_ever_fit(pod)
        ]
        if not feasible:
            return None
        best = min(feasible, key=lambda cell: self._score(cell, pod))
        return best.cell_id

    # -- node churn --------------------------------------------------------

    def note_node_removed(
        self, node_name: str, nodes: Mapping[str, Node]
    ) -> None:
        """A node left (crash/drain): shrink its cell.

        Must run *before* the orchestrator's ``remove_node`` — that
        call resubmits the orphaned pods, and their routing must not
        see the dead node's capacity.
        """
        cell_id = self.cell_of_node.pop(node_name, None)
        if cell_id is None:
            raise OrchestrationError(
                f"no such node {node_name!r} in any cell"
            )
        cell = self.cells[cell_id]
        cell.node_names.remove(node_name)
        cell.rebuild_classes(nodes)

    def note_node_added(
        self, node: Node, nodes: Mapping[str, Node]
    ) -> None:
        """A node joined mid-run: grow the smallest cell.

        Ties break on the lowest cell id; the partition policy only
        governs the bootstrap inventory, so late joiners balance by
        size — deterministic and policy-free.
        """
        if node.name in self.cell_of_node:
            raise OrchestrationError(
                f"node {node.name!r} is already in cell "
                f"{self.cell_of_node[node.name]}"
            )
        cell = min(
            self.cells,
            key=lambda c: (len(c.node_names), c.cell_id),
        )
        cell.node_names.append(node.name)
        self.cell_of_node[node.name] = cell.cell_id
        cell.rebuild_classes(nodes)
