"""Worker pools: true multi-worker machines behind the façade.

``DeploymentNode.with_workers(n)`` gives a node *n* bus workers that
share the machine's enforcement state the way CamFlow intends — one
policy, one trail, many executors:

* **shared**: the machine's one :class:`~repro.audit.spine.AuditSpine`
  (one tamper-evident chain per node, whatever the worker count);
* **per-worker**: a :class:`~repro.middleware.bus.MessageBus` with its
  own component registry and channels, emitting audit through its own
  spine source (``bus.w0``, ``bus.w1``, ...) — one writer per staging
  ring, so emission never contends (``docs/worker_plane.md``).

Workers run as real threads via
:class:`~repro.sim.executor.WorkerExecutor` when the deployment is run
with ``concurrency="threads"``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.middleware.bus import MessageBus
from repro.sim.executor import WorkerContext, WorkerLoop, WorkerStats


class BusWorker:
    """One worker of a node's pool: a bus bound to the shared planes.

    Attributes:
        name: ``"<node>/w<i>"`` — also the executor thread name.
        index: position in the pool.
        source: this worker's audit-spine source (``"bus.w<i>"``).
        bus: the worker's :class:`~repro.middleware.bus.MessageBus`,
            sharing the machine's audit spine.
        workload: optional ``f(ctx, worker)`` body run when the
            deployment executes with ``concurrency="threads"``.
    """

    def __init__(self, node_name: str, index: int, bus: MessageBus):
        self.name = f"{node_name}/w{index}"
        self.index = index
        self.source = f"bus.w{index}"
        self.bus = bus
        self.workload: Optional[Callable[[WorkerContext, "BusWorker"], None]] = None
        self.last_stats: Optional[WorkerStats] = None

    def __repr__(self) -> str:
        return f"<BusWorker {self.name}>"

    def loop(self) -> WorkerLoop:
        """The executor body: runs :attr:`workload` with this worker."""
        if self.workload is None:
            raise ValueError(f"worker {self.name} has no workload assigned")
        workload = self.workload

        def run(ctx: WorkerContext) -> None:
            workload(ctx, self)

        return run


class WorkerPool:
    """A node's bus workers, indexable and iterable.

    Built by :meth:`DeploymentNode.build
    <repro.deploy.builder.DeploymentNode.build>` from
    ``spec.workers``; every worker's bus shares the node machine's
    audit spine but binds its own spine source.
    """

    def __init__(self, node_name: str, machine, clock, mode, count: int):
        self.node_name = node_name
        self.workers: List[BusWorker] = []
        for index in range(count):
            bus = MessageBus(
                audit=machine.audit,
                mode=mode,
                clock=clock,
                audit_source=f"bus.w{index}",
            )
            self.workers.append(BusWorker(node_name, index, bus))

    def __len__(self) -> int:
        return len(self.workers)

    def __getitem__(self, index: int) -> BusWorker:
        return self.workers[index]

    def __iter__(self) -> Iterator[BusWorker]:
        return iter(self.workers)

    def assign(
        self, workload: Callable[[WorkerContext, BusWorker], None]
    ) -> "WorkerPool":
        """Give every worker the same workload body (it receives its
        own context and worker, so per-worker behaviour lives there)."""
        for worker in self.workers:
            worker.workload = workload
        return self

    def loops(self) -> List[BusWorker]:
        """The workers that currently have a workload to run."""
        return [w for w in self.workers if w.workload is not None]

    def stats(self) -> dict:
        """Rollup of the pool's last threaded run plus bus counters."""
        per_worker = []
        ops = delivered = denied = 0
        elapsed = 0.0
        for worker in self.workers:
            run = worker.last_stats
            bus_stats = worker.bus.stats
            delivered += bus_stats.delivered
            denied += bus_stats.denied
            row = {
                "name": worker.name,
                "source": worker.source,
                "delivered": bus_stats.delivered,
                "denied": bus_stats.denied,
            }
            if run is not None:
                ops += run.ops
                elapsed = max(elapsed, run.elapsed_s)
                row.update(
                    ops=run.ops,
                    elapsed_s=round(run.elapsed_s, 4),
                    throughput=round(run.throughput, 1),
                )
            per_worker.append(row)
        return {
            "count": len(self.workers),
            "ops": ops,
            "delivered": delivered,
            "denied": denied,
            "elapsed_s": round(elapsed, 4),
            "throughput": round(ops / elapsed, 1) if elapsed > 0 else 0.0,
            "per_worker": per_worker,
        }
