"""Policy-enforcing, reconfigurable middleware (§5, §8)."""

from repro.middleware.message import (
    AttributeSpec,
    Message,
    MessageType,
)
from repro.middleware.component import (
    Component,
    Endpoint,
    EndpointKind,
    MessageHandler,
)
from repro.middleware.channel import (
    Channel,
    ChannelState,
)
from repro.middleware.bus import (
    DeliveryReport,
    MessageBus,
    default_authoriser,
)
from repro.middleware.reconfig import (
    CommandKind,
    CommandOutcome,
    ControlMessage,
    Reconfigurator,
)
from repro.middleware.substrate import (
    MaskBatchEnvelope,
    MessagingSubstrate,
    SubstrateStats,
    TagSetEnvelope,
)
from repro.middleware.composer import (
    ChainComposer,
    Composition,
    RelaySpec,
)
from repro.middleware.discovery import (
    DiscoveryStats,
    Registration,
    ResourceDiscovery,
)

__all__ = [
    "AttributeSpec",
    "Message",
    "MessageType",
    "Component",
    "Endpoint",
    "EndpointKind",
    "MessageHandler",
    "Channel",
    "ChannelState",
    "DeliveryReport",
    "MessageBus",
    "default_authoriser",
    "CommandKind",
    "CommandOutcome",
    "ControlMessage",
    "Reconfigurator",
    "MessagingSubstrate",
    "MaskBatchEnvelope",
    "SubstrateStats",
    "TagSetEnvelope",
    "ChainComposer",
    "Composition",
    "RelaySpec",
    "DiscoveryStats",
    "Registration",
    "ResourceDiscovery",
]
