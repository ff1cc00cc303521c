"""Machines: kernel + TPM + network identity (Fig. 9).

Fig. 9 shows the CamFlow stack on one machine: application processes
above a CamFlow-LSM kernel, a CamFlow-Messaging substrate process for
external transfers, and a TPM rooting trust in the platform.  A
:class:`Machine` assembles those pieces; the messaging substrate itself
lives in :mod:`repro.middleware.substrate` and binds to a machine.

Since the audit-spine refactor a machine also owns the audit plane the
enforcement column shares: :attr:`audit` is an
:class:`~repro.audit.spine.AuditSpine`, enforcement sites stage records
through per-source emitters (``kernel``, ``substrate``, ...) and
hashing/chaining happens off the delivery path, at drain/checkpoint time
(``docs/audit_plane.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.audit.spine import AuditSpine
from repro.cloud.kernel import (
    IFCSecurityModule,
    Kernel,
    NullSecurityModule,
    Process,
    SecurityModule,
)
from repro.crypto.attestation import TPM, AttestationVerifier
from repro.errors import AttestationError
from repro.ifc.labels import SecurityContext
from repro.ifc.privileges import PrivilegeSet

#: Measurement digests of the approved CamFlow boot chain; the verifier
#: registers the golden PCR these produce.
APPROVED_BOOT_CHAIN = ["bootloader-v2", "kernel-5.4-camflow", "lsm-ifc-1.0"]

#: PCR index used for the boot-chain measurements.
BOOT_PCR = 0


@dataclass
class MachineConfig:
    """Configuration for building a machine.

    Attributes:
        enforce_ifc: install the IFC LSM (True) or the null module
            (False, the F9 baseline).
        boot_chain: measurement digests extended into the boot PCR;
            defaults to the approved chain — pass something else to model
            a tampered platform that attestation must reject.
        audit_ring_capacity / audit_checkpoint_every: the machine
            spine's staging and checkpoint cadence.
    """

    enforce_ifc: bool = True
    boot_chain: Optional[List[str]] = None
    audit_ring_capacity: int = 1024
    audit_checkpoint_every: int = 4


class Machine:
    """One platform: hostname, kernel with LSM, TPM, audit spine.

    The audit spine is per-machine, as in CamFlow — cross-domain audit
    is assembled by :class:`repro.audit.distributed.AuditCollector`,
    which receipts the spine's segment heads.

    ``clock`` may be a plain ``() -> float`` callable (timestamps only)
    or a :class:`repro.sim.clock.Clock`, in which case the spine also
    drains on every simulated tick — deferred audit work rides the
    simulation's own notion of "background".
    """

    def __init__(
        self,
        hostname: str,
        config: Optional[MachineConfig] = None,
        clock=None,
    ):
        self.hostname = hostname
        self.config = config or MachineConfig()
        tick_source = None
        if clock is not None and hasattr(clock, "on_advance"):
            tick_source = clock
            clock = clock.now
        self.audit = AuditSpine(
            clock=clock,
            name=f"audit@{hostname}",
            ring_capacity=self.config.audit_ring_capacity,
            checkpoint_every=self.config.audit_checkpoint_every,
        )
        self._tick_source = tick_source
        if tick_source is not None:
            self.audit.attach_clock(tick_source)
        if self.config.enforce_ifc:
            # The module binds its own "kernel" segment (bind_source).
            module: SecurityModule = IFCSecurityModule(self.audit)
        else:
            module = NullSecurityModule()
        self.kernel = Kernel(hostname, module)
        self.tpm = TPM(hostname)
        for measurement in self.config.boot_chain or APPROVED_BOOT_CHAIN:
            self.tpm.extend(BOOT_PCR, measurement)

    @property
    def spine(self) -> AuditSpine:
        """The machine's audit spine (alias of :attr:`audit`)."""
        return self.audit

    def launch(
        self,
        name: str,
        security: Optional[SecurityContext] = None,
        privileges: Optional[PrivilegeSet] = None,
    ) -> Process:
        """Launch an application process in a given security context.

        In CamFlow terms this is what the privileged *application
        manager* does: "an application instance must be set up in an
        appropriate security context" (§8.2.1).
        """
        return self.kernel.spawn(name, security, privileges)

    def grant(self, pid: int, privileges: PrivilegeSet) -> None:
        """Grant privileges to a process."""
        self.kernel.grant(pid, privileges)

    def attest_to(self, verifier: AttestationVerifier) -> bool:
        """Run remote attestation of this platform against a verifier."""
        return verifier.attest(self.tpm, [BOOT_PCR])

    def decommission(self) -> None:
        """Retire the machine from the simulation.

        Drains and checkpoints the spine one last time (the audit trail
        must survive the platform) and detaches it from the simulated
        clock — a churned machine must not stay pinned in the clock's
        tick hooks forever.  Idempotent.
        """
        self.audit.checkpoint()
        if self._tick_source is not None:
            self.audit.detach_clock(self._tick_source)
            self._tick_source = None


def trusted_verifier(machines: List[Machine]) -> AttestationVerifier:
    """Build a verifier that trusts the approved boot chain for each
    machine — the 'golden values' a cloud operator would publish."""
    verifier = AttestationVerifier()
    for machine in machines:
        verifier.golden_for_measurements(
            machine.hostname, BOOT_PCR, APPROVED_BOOT_CHAIN
        )
    return verifier
