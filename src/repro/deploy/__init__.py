"""``repro.deploy`` — the declarative deployment façade.

One place to build federated IFC deployments: machines, substrates,
spine-backed domains, gossip meshes, pinboards and discovery, correctly
cross-wired from a fluent builder or a declarative spec
(``docs/deploy_api.md``)::

    from repro.deploy import Deployment

    deploy = Deployment(seed=7)
    city = deploy.node("city", hostname="city-hq").with_domain().with_mesh()
    deploy.run(hours=2)
    verdicts = deploy.verify()
"""

from repro.deploy.builder import Deployment, DeploymentNode, VerdictMatrix
from repro.deploy.spec import DeploymentSpec, NodeSpec, SpillSpec, TransportSpec

__all__ = [
    "Deployment",
    "DeploymentNode",
    "VerdictMatrix",
    "DeploymentSpec",
    "NodeSpec",
    "SpillSpec",
    "TransportSpec",
]
