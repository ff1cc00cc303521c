"""Strongly typed messages with message-level IFC tags.

§8.2.2 ("Message-specific policy"): "Messages are strongly typed,
consisting of a set of named and typed attributes, and certain message
types, or attributes thereof, can be more sensitive than others; e.g.
for a message type person, attribute name is likely more sensitive than
country.  To achieve these more granular controls, additional tags can
be defined that only exist at the messaging level, augmenting the
OS-level security context."

:class:`MessageType` declares the schema: attribute names, Python types,
and per-attribute *extra* secrecy tags (Fig. 10's tag ``C``).
:class:`Message` instances validate against the schema and can be
*quenched* — attributes whose tags the receiving party does not satisfy
are dropped rather than the whole message being refused ("enforcement
may entail source quenching, in that messages/attribute values are not
transferred if the tags of each party do not accord").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple, Type

from repro.errors import SchemaError
from repro.ifc.labels import Label, SecurityContext
from repro.ifc.tags import Tag, as_tags

_msg_counter = itertools.count(1)


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute in a message schema.

    Attributes:
        name: attribute name.
        type: required Python type of values.
        required: whether the attribute must be present.
        extra_secrecy: message-level secrecy tags applying to this
            attribute only (beyond the carrying entity's context).
    """

    name: str
    type: Type = object
    required: bool = True
    extra_secrecy: FrozenSet[Tag] = frozenset()


class MessageType:
    """A named message schema.

    Example (the paper's ``person`` example)::

        person = MessageType("person", [
            AttributeSpec("name", str, extra_secrecy=as_tags(["pii"])),
            AttributeSpec("country", str),
        ])
    """

    def __init__(self, name: str, attributes: List[AttributeSpec]):
        self.name = name
        self.attributes: Dict[str, AttributeSpec] = {}
        for spec in attributes:
            if spec.name in self.attributes:
                raise SchemaError(
                    f"duplicate attribute {spec.name!r} in type {name!r}"
                )
            self.attributes[spec.name] = spec
        #: name → extra secrecy label, filled on first use so tags are
        #: interned (and given process-local bits) in first-use order.
        self._secrecy: Dict[str, Label] = {}

    @classmethod
    def simple(cls, name: str, **attr_types: Type) -> "MessageType":
        """Shorthand for schemas without per-attribute tags."""
        return cls(name, [AttributeSpec(k, t) for k, t in attr_types.items()])

    def validate(self, values: Mapping[str, Any]) -> None:
        """Check a value mapping against the schema.

        Raises:
            SchemaError: unknown attribute, missing required attribute,
                or wrong type.
        """
        for key in values:
            if key not in self.attributes:
                raise SchemaError(f"{self.name}: unknown attribute {key!r}")
        for spec in self.attributes.values():
            if spec.name not in values:
                if spec.required:
                    raise SchemaError(
                        f"{self.name}: missing required attribute {spec.name!r}"
                    )
                continue
            value = values[spec.name]
            if spec.type is not object and not isinstance(value, spec.type):
                raise SchemaError(
                    f"{self.name}.{spec.name}: expected {spec.type.__name__}, "
                    f"got {type(value).__name__}"
                )

    def attribute_secrecy(self, name: str) -> Label:
        """The extra secrecy label of one attribute (built once)."""
        label = self._secrecy.get(name)
        if label is None:
            spec = self.attributes.get(name)
            if spec is None:
                raise SchemaError(f"{self.name}: unknown attribute {name!r}")
            label = self._secrecy[name] = Label(spec.extra_secrecy)
        return label

    def __repr__(self) -> str:
        return f"MessageType({self.name!r}, {sorted(self.attributes)})"


@dataclass
class Message:
    """A validated instance of a :class:`MessageType`.

    Attributes:
        type: the schema.
        values: attribute values (validated on construction).
        context: IFC context the message carries — inherited from the
            emitting entity, possibly augmented with message-level tags.
        msg_id: unique id for audit correlation.
        sent_at: simulated timestamp set by the bus.
    """

    type: MessageType
    values: Dict[str, Any]
    context: SecurityContext = field(default_factory=SecurityContext.public)
    msg_id: int = field(default_factory=lambda: next(_msg_counter))
    sent_at: float = 0.0

    def __post_init__(self) -> None:
        self.type.validate(self.values)

    def effective_context(self) -> SecurityContext:
        """Carried context plus every present attribute's extra secrecy —
        the most constrained view, used when a receiver takes the whole
        message."""
        secrecy = self.context.secrecy
        for name in self.values:
            secrecy = secrecy | self.type.attribute_secrecy(name)
        return SecurityContext(secrecy, self.context.integrity)

    def quenched_for(self, receiver: SecurityContext) -> "Message":
        """Return a copy with attributes the receiver cannot take removed.

        Implements Fig. 10's source quenching: the base context must be
        satisfiable by the receiver (callers check that separately via
        the flow rule); attributes carrying *extra* secrecy tags are
        included only when ``base secrecy + extra ⊆ receiver secrecy``.
        Required attributes that must be dropped cause the copy to mark
        them absent — receivers see a partial view.
        """
        kept: Dict[str, Any] = {}
        for name, value in self.values.items():
            needed = self.context.secrecy | self.type.attribute_secrecy(name)
            if needed <= receiver.secrecy:
                kept[name] = value
        quenched = Message.__new__(Message)
        quenched.type = self.type
        quenched.values = kept
        quenched.context = self.context
        quenched.msg_id = self.msg_id
        quenched.sent_at = self.sent_at
        return quenched

    def dropped_attributes(self, receiver: SecurityContext) -> List[str]:
        """Names of attributes quenching would remove for ``receiver``."""
        dropped = []
        for name in self.values:
            needed = self.context.secrecy | self.type.attribute_secrecy(name)
            if not needed <= receiver.secrecy:
                dropped.append(name)
        return sorted(dropped)
