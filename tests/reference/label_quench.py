"""Reference quenching: the retired ``Label``-based message methods.

Before quenching ran on interned masks
(:meth:`repro.middleware.message.MessageType.quench`), ``Message``
computed Fig. 10's rule by building a ``Label`` union per attribute:
an attribute is kept when ``base secrecy | extra ⊆ receiver secrecy``.
These are those three methods as functions of the message, kept as the
oracle the mask-native delivery paths are checked against.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.ifc.labels import SecurityContext
from repro.middleware.message import Message


def effective_context(message: Message) -> SecurityContext:
    """Carried context plus every present attribute's extra secrecy."""
    secrecy = message.context.secrecy
    for name in message.values:
        secrecy = secrecy | message.type.attribute_secrecy(name)
    return SecurityContext(secrecy, message.context.integrity)


def quenched_for(message: Message, receiver: SecurityContext) -> Message:
    """A copy without the attributes ``receiver`` cannot take."""
    kept: Dict[str, Any] = {}
    for name, value in message.values.items():
        needed = message.context.secrecy | message.type.attribute_secrecy(name)
        if needed <= receiver.secrecy:
            kept[name] = value
    quenched = Message.__new__(Message)
    quenched.type = message.type
    quenched.values = kept
    quenched.context = message.context
    quenched.msg_id = message.msg_id
    quenched.sent_at = message.sent_at
    return quenched


def dropped_attributes(message: Message, receiver: SecurityContext) -> List[str]:
    """Names of attributes quenching would remove for ``receiver``."""
    dropped = []
    for name in message.values:
        needed = message.context.secrecy | message.type.attribute_secrecy(name)
        if not needed <= receiver.secrecy:
            dropped.append(name)
    return sorted(dropped)
