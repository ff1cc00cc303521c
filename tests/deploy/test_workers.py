"""``with_workers(n)``: pool wiring, shared planes, threaded runs."""

import pytest

from repro.deploy import Deployment, DeploymentSpec, NodeSpec
from repro.errors import DiscoveryError
from repro.ifc import SecurityContext
from repro.middleware.component import Component, EndpointKind
from repro.middleware.message import MessageType

READING = MessageType.simple("reading", value=float)


def _rig_worker(worker, n_msgs=20):
    """Give a worker its own source→sink pair and a publishing workload."""
    source = Component(f"src-{worker.name}", SecurityContext.public(), owner="op")
    source.add_endpoint("out", EndpointKind.SOURCE, READING)
    sink = Component(f"dst-{worker.name}", SecurityContext.public(), owner="op")
    sink.add_endpoint("in", EndpointKind.SINK, READING)
    worker.bus.register(source)
    worker.bus.register(sink)
    worker.bus.connect("op", source, "out", sink, "in")

    def workload(ctx, me, source=source):
        for n in range(n_msgs):
            me.bus.publish(source, "out", value=float(n))
            ctx.count()

    worker.workload = workload
    return sink


class TestWorkerWiring:
    def test_pool_shares_spine(self):
        deploy = Deployment(seed=1)
        node = deploy.node("edge").with_workers(3)
        pool = node.workers
        machine = node.machine
        assert len(pool) == 3
        for worker in pool:
            # One tamper-evident chain for the whole node, however many
            # workers run on it.
            assert worker.bus.audit.spine is machine.audit

    def test_each_worker_binds_own_spine_source(self):
        deploy = Deployment(seed=1)
        pool = deploy.node("edge").with_workers(4).workers
        assert [w.bus.audit.source for w in pool] == [
            "bus.w0", "bus.w1", "bus.w2", "bus.w3"
        ]
        assert [w.name for w in pool] == [f"edge/w{i}" for i in range(4)]

    def test_workers_imply_machine(self):
        spec = NodeSpec(name="edge", machine=False, substrate=False, workers=2)
        assert spec.machine is True
        deploy = Deployment.from_spec(
            DeploymentSpec(nodes=[NodeSpec(name="edge", workers=2)])
        )
        assert len(deploy.nodes()[0].workers) == 2

    def test_workerless_node_raises(self):
        deploy = Deployment(seed=1)
        node = deploy.node("plain")
        with pytest.raises(DiscoveryError):
            node.workers

    def test_negative_workers_rejected(self):
        deploy = Deployment(seed=1)
        with pytest.raises(ValueError):
            deploy.node("edge").with_workers(-1)
        with pytest.raises(ValueError):
            NodeSpec(name="edge", workers=-2)


class TestThreadedRun:
    def test_run_threads_executes_workloads(self):
        deploy = Deployment(seed=2)
        node = deploy.node("edge").with_workers(4)
        sinks = [_rig_worker(w) for w in node.workers]
        deploy.run(seconds=5, concurrency="threads")

        for sink in sinks:
            assert [m.values["value"] for m in sink.inbox] == [
                float(n) for n in range(20)
            ]
        # The shared spine holds every worker's audit, chains intact.
        assert node.machine.audit.verify()
        heads = node.machine.audit.segment_heads()
        for i in range(4):
            position, __ = heads[f"bus.w{i}"]
            assert position >= 20

    def test_stats_rollup_reports_workers(self):
        deploy = Deployment(seed=3)
        node = deploy.node("edge").with_workers(2)
        for worker in node.workers:
            _rig_worker(worker, n_msgs=10)
        deploy.run(concurrency="threads")
        rollup = deploy.stats()

        workers = rollup["workers"]
        assert workers["count"] == 2
        assert workers["ops"] == 20
        per_node = workers["per_node"]["edge"]
        assert per_node["delivered"] == 20
        assert {row["source"] for row in per_node["per_worker"]} == {
            "bus.w0", "bus.w1"
        }
        assert "ring_overflows" in rollup["audit"]

    def test_run_threads_without_workers_is_plain_run(self):
        deploy = Deployment(seed=4)
        deploy.node("plain")
        assert deploy.run_workers() == []
        deploy.run(seconds=1, concurrency="threads")

    def test_bad_concurrency_value_rejected(self):
        deploy = Deployment(seed=5)
        with pytest.raises(ValueError):
            deploy.run(concurrency="processes")

    def test_worker_exception_propagates(self):
        deploy = Deployment(seed=6)
        node = deploy.node("edge").with_workers(1)

        def boom(ctx, worker):
            raise RuntimeError("worker crashed")

        node.workers[0].workload = boom
        with pytest.raises(RuntimeError, match="worker crashed"):
            deploy.run(concurrency="threads")
