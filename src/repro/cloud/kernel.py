"""A simulated OS kernel with LSM-style IFC enforcement (§8.2.1).

CamFlow "provides a kernel level IFC-enforcement capability, to both
enforce (control) and record data flows between processes and kernel
objects (e.g. files, pipes, etc.) ... implemented as a Linux Security
Module.  LSMs use security hooks that are invoked on system calls to
decide whether a call is allowed to proceed."

This kernel simulates exactly that structure: processes and kernel
objects carry security metadata (context + privileges); every syscall
funnels through a hook table (:class:`SecurityModule`) before touching
kernel state; the default module is :class:`IFCSecurityModule` which
applies the §6 flow rule and records every attempt in an audit log.
Installing :class:`NullSecurityModule` instead gives the no-IFC baseline
for the overhead benchmark (F9) — the same syscall code path minus the
checks, mirroring how the paper measured "LSM performance overhead to be
minimal".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.audit.log import AuditLog
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.errors import FlowError, KernelError, PrivilegeError
from repro.ifc.decisions import DecisionPlane
from repro.ifc.labels import SecurityContext
from repro.ifc.privileges import PrivilegeSet


class ObjectKind(str, Enum):
    """Kinds of kernel object the simulated kernel manages."""

    FILE = "file"
    PIPE = "pipe"
    SOCKET = "socket"
    SHM = "shm"


@dataclass
class KernelObject:
    """A passive kernel object with LSM security metadata.

    The ``security`` field is the per-object structure LSMs attach:
    the object's security context (passive objects hold no privileges).
    """

    oid: int
    kind: ObjectKind
    name: str
    security: SecurityContext
    data: List[object] = field(default_factory=list)
    created_by: int = 0


@dataclass
class Process:
    """A simulated process with LSM security metadata.

    Attributes:
        pid: process id.
        name: human-readable name (appears in audit records).
        security: the process's security context.
        privileges: its label-change privileges (§6).
        alive: cleared on exit; dead processes fail syscalls.
    """

    pid: int
    name: str
    security: SecurityContext
    privileges: PrivilegeSet = field(default_factory=PrivilegeSet.none)
    alive: bool = True
    parent: Optional[int] = None


class SecurityModule:
    """The LSM hook interface: override hooks to mediate syscalls.

    Hooks return None to allow and raise :class:`FlowError` /
    :class:`PrivilegeError` to deny — mirroring LSM's allow/deny ints
    with richer diagnostics.
    """

    name = "base"

    def hook_object_create(self, process: Process, obj: KernelObject) -> None:
        """Mediate creation of a kernel object by a process."""

    def hook_read(self, process: Process, obj: KernelObject) -> None:
        """Mediate a read: information flows object → process."""

    def hook_write(self, process: Process, obj: KernelObject) -> None:
        """Mediate a write: information flows process → object."""

    def hook_ipc(self, sender: Process, receiver: Process) -> None:
        """Mediate direct inter-process communication."""

    def hook_context_change(
        self, process: Process, proposed: SecurityContext
    ) -> None:
        """Mediate a self-initiated security-context change."""

    def hook_external_send(self, process: Process) -> None:
        """Mediate unmediated external communication (§8.2.2 forbids it
        for labelled processes — the substrate must be used)."""


class NullSecurityModule(SecurityModule):
    """No-op module: the no-IFC baseline for overhead measurements."""

    name = "null"


class IFCSecurityModule(SecurityModule):
    """CamFlow-style module: §6 flow rule at every hook, full audit."""

    name = "camflow-ifc"

    def __init__(self, audit: Optional[AuditLog] = None):
        # Audit goes through the machine's spine when one is wired
        # (staged under the "kernel" segment, hashed off the syscall
        # path); a plain AuditLog keeps synchronous semantics.
        self.audit = bind_source(audit, "kernel")
        self.plane = DecisionPlane(audit=self.audit)

    def _check(self, src_name: str, src: SecurityContext,
               dst_name: str, dst: SecurityContext) -> None:
        decision = self.plane.evaluate(src, dst)
        if decision.allowed:
            self.plane.audit_allowed(src_name, dst_name, src, dst)
        else:
            self.plane.audit_denied(src_name, dst_name, decision.reason, src, dst)
            raise FlowError(src_name, dst_name, decision.reason)

    def hook_object_create(self, process: Process, obj: KernelObject) -> None:
        # Creation flows: the object inherits the creator's labels (§6),
        # so creation is always consistent; record it for provenance.
        if self.audit is not None:
            self.audit.append(
                RecordKind.ENTITY_CREATED,
                process.name,
                obj.name,
                {"kind": obj.kind.value},
                source_context=process.security,
                target_context=obj.security,
            )

    def hook_read(self, process: Process, obj: KernelObject) -> None:
        self._check(obj.name, obj.security, process.name, process.security)

    def hook_write(self, process: Process, obj: KernelObject) -> None:
        self._check(process.name, process.security, obj.name, obj.security)

    def hook_ipc(self, sender: Process, receiver: Process) -> None:
        self._check(sender.name, sender.security, receiver.name, receiver.security)

    def hook_context_change(
        self, process: Process, proposed: SecurityContext
    ) -> None:
        if not process.privileges.permits_transition(process.security, proposed):
            reason = process.privileges.explain_denial(process.security, proposed)
            if self.audit is not None:
                self.audit.append(
                    RecordKind.FLOW_DENIED,
                    process.name,
                    "",
                    {"reason": f"context change denied: {reason}"},
                    source_context=process.security,
                    target_context=proposed,
                )
            raise PrivilegeError(f"{process.name}: {reason}")
        if self.audit is not None:
            self.audit.context_change(process.name, process.security, proposed)

    def hook_external_send(self, process: Process) -> None:
        # §8.2.2: "Unmediated external communication of labelled
        # processes is prevented, since the context of security across
        # the remote machine/network is unknown to the kernel."
        if not process.security.is_public():
            if self.audit is not None:
                self.audit.flow_denied(
                    process.name,
                    "<network>",
                    "unmediated external send by labelled process",
                    process.security,
                    None,
                )
            raise FlowError(
                process.name, "<network>",
                "labelled processes must use the trusted messaging substrate",
            )


class Kernel:
    """The simulated kernel: process table, object table, syscalls.

    All syscalls validate their arguments, invoke the installed
    :class:`SecurityModule` hook, then perform the state change — the
    same shape as a real kernel with LSM: "LSMs can be incorporated with
    limited overhead, leaving the rest of the kernel unaltered and system
    calls unchanged" (§8.2.1).
    """

    def __init__(self, hostname: str, security: Optional[SecurityModule] = None):
        self.hostname = hostname
        self.security = security or NullSecurityModule()
        self._pids = itertools.count(1)
        self._oids = itertools.count(1)
        self.processes: Dict[int, Process] = {}
        self.objects: Dict[int, KernelObject] = {}
        self.syscall_count = 0

    # -- process management -----------------------------------------------------

    def spawn(
        self,
        name: str,
        security: Optional[SecurityContext] = None,
        privileges: Optional[PrivilegeSet] = None,
    ) -> Process:
        """Create a fresh process (init-style, no parent)."""
        process = Process(
            pid=next(self._pids),
            name=name,
            security=security or SecurityContext.public(),
            privileges=privileges or PrivilegeSet.none(),
        )
        self.processes[process.pid] = process
        return process

    def fork(self, pid: int, name: Optional[str] = None) -> Process:
        """Fork a child: labels inherited, privileges *not* (§6)."""
        parent = self._proc(pid)
        child = Process(
            pid=next(self._pids),
            name=name or f"{parent.name}-child",
            security=parent.security.creation_context(),
            privileges=PrivilegeSet.none(),
            parent=parent.pid,
        )
        self.processes[child.pid] = child
        self.syscall_count += 1
        return child

    def grant(self, pid: int, privileges: PrivilegeSet) -> None:
        """Explicitly pass privileges to a process (trusted operation,
        performed by the application manager — see §9.3 Challenge 1)."""
        process = self._proc(pid)
        process.privileges = process.privileges.merged(privileges)

    def exit(self, pid: int) -> None:
        """Terminate a process."""
        self._proc(pid).alive = False

    def _proc(self, pid: int) -> Process:
        process = self.processes.get(pid)
        if process is None:
            raise KernelError(f"no such process: {pid}")
        if not process.alive:
            raise KernelError(f"process {pid} has exited")
        return process

    def _obj(self, oid: int) -> KernelObject:
        obj = self.objects.get(oid)
        if obj is None:
            raise KernelError(f"no such object: {oid}")
        return obj

    # -- object syscalls -----------------------------------------------------------

    def create_object(
        self, pid: int, kind: ObjectKind, name: str
    ) -> KernelObject:
        """Create a file/pipe/socket; it inherits the creator's labels."""
        process = self._proc(pid)
        obj = KernelObject(
            oid=next(self._oids),
            kind=kind,
            name=name,
            security=process.security.creation_context(),
            created_by=process.pid,
        )
        self.security.hook_object_create(process, obj)
        self.objects[obj.oid] = obj
        self.syscall_count += 1
        return obj

    def write(self, pid: int, oid: int, data: object) -> None:
        """Write data to an object (flow process → object)."""
        process = self._proc(pid)
        obj = self._obj(oid)
        self.security.hook_write(process, obj)
        obj.data.append(data)
        self.syscall_count += 1

    def read(self, pid: int, oid: int) -> List[object]:
        """Read an object's data (flow object → process)."""
        process = self._proc(pid)
        obj = self._obj(oid)
        self.security.hook_read(process, obj)
        self.syscall_count += 1
        return list(obj.data)

    def ipc_send(self, sender_pid: int, receiver_pid: int, data: object) -> None:
        """Direct IPC between processes (flow sender → receiver)."""
        sender = self._proc(sender_pid)
        receiver = self._proc(receiver_pid)
        self.security.hook_ipc(sender, receiver)
        self.syscall_count += 1

    def change_context(self, pid: int, proposed: SecurityContext) -> SecurityContext:
        """Self-initiated context change, mediated by the LSM."""
        process = self._proc(pid)
        self.security.hook_context_change(process, proposed)
        process.security = proposed
        self.syscall_count += 1
        return proposed

    def external_send_allowed(self, pid: int) -> bool:
        """Whether the kernel permits this process to talk to the network
        directly (public processes only; labelled ones must go via the
        substrate, §8.2.2)."""
        process = self._proc(pid)
        try:
            self.security.hook_external_send(process)
            return True
        except FlowError:
            return False
