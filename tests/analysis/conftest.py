"""Shared worlds for the analysis-plane tests.

``hospital()`` is the canonical Fig. 6 shape: a medical sensor whose
readings only reach the public dashboard through the anonymising
declassifier.  The gate and query tests all interrogate the
same deployment so their expectations stay mutually consistent.
"""

import pytest

from repro.deploy import Deployment
from repro.ifc import Declassifier, PrivilegeSet, SecurityContext
from repro.middleware.component import Component


def build_hospital(seed: int = 7) -> Deployment:
    deploy = Deployment(seed=seed, name="hospital")
    ward = deploy.node("ward", hostname="ward-1").with_domain().with_substrate()
    domain = ward.domain
    domain.bus.register(
        Component("ward-sensor", context=SecurityContext.of(["medical"], []))
    )
    domain.bus.register(
        Component("public-dashboard", context=SecurityContext.public())
    )
    deploy.register_gateway(
        Declassifier(
            "anonymiser",
            input_context=SecurityContext.of(["medical"], []),
            output_context=SecurityContext.public(),
            privileges=PrivilegeSet.of(remove_secrecy=["medical"]),
        )
    )
    return deploy


@pytest.fixture
def hospital() -> Deployment:
    return build_hospital()


@pytest.fixture
def hospital_factory():
    return build_hospital
