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
#: Widened contexts a :class:`MessageType` keeps before starting afresh.
_WIDENED_MAX = 4096


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
        #: Attributes carrying extra secrecy, by name: the only ones
        #: quenching can drop or that can widen a context.
        self._risky: Tuple[str, ...] = tuple(
            sorted(spec.name for spec in attributes if spec.extra_secrecy)
        )
        #: name → extra secrecy label / mask, filled on first use so tags
        #: are interned (and given process-local bits) in first-use order.
        self._secrecy: Dict[str, Label] = {}
        self._masks: Dict[str, int] = {}
        #: (secrecy mask, integrity mask) → widened context, shared by
        #: every delivery that audits it; cleared when full.  Masks are
        #: sound keys: the interner only appends.
        self._widened: Dict[Tuple[int, int], SecurityContext] = {}

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

    def quench(
        self, values: Mapping[str, Any], base: int, receiver: int
    ) -> Tuple[List[str], int]:
        """Fig. 10's quench rule on interned secrecy masks.

        An attribute present in ``values`` is kept when ``base | extra``
        fits ``receiver`` (``(base | extra) & ~receiver == 0``); when
        ``base`` itself does not fit, every present attribute is
        dropped.  Only attributes carrying extra secrecy are walked —
        the rest need ``base`` alone.  Returns the dropped names, sorted,
        and the effective secrecy mask: ``base`` ORed with the extra
        secrecy of every kept attribute.
        """
        if base & ~receiver:
            return sorted(values), base
        dropped: List[str] = []
        masks = self._masks
        for name in self._risky:
            if name in values:
                extra = masks.get(name)
                if extra is None:
                    extra = masks[name] = self.attribute_secrecy(name).mask
                if extra & ~receiver:
                    dropped.append(name)
                else:
                    base |= extra
        return dropped, base

    def widen(self, context: SecurityContext, secrecy: int) -> SecurityContext:
        """``context`` with its secrecy set to ``secrecy``, a superset mask
        from :meth:`quench` — the carried object itself when nothing
        widens."""
        if secrecy == context.secrecy.mask:
            return context
        key = (secrecy, context.integrity.mask)
        widened = self._widened.get(key)
        if widened is None:
            if len(self._widened) >= _WIDENED_MAX:
                self._widened.clear()
            widened = self._widened[key] = SecurityContext(
                Label.from_mask(secrecy), context.integrity
            )
        return widened

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

    @classmethod
    def _of(
        cls,
        type: MessageType,
        values: Dict[str, Any],
        context: SecurityContext,
        msg_id: int,
        sent_at: float,
    ) -> "Message":
        """Assemble a message without re-validating: quenched copies and
        wire receipts may lack required attributes the sender had."""
        message = cls.__new__(cls)
        message.type = type
        message.values = values
        message.context = context
        message.msg_id = msg_id
        message.sent_at = sent_at
        return message

    def effective_context(self) -> SecurityContext:
        """Carried context plus every present attribute's extra secrecy —
        the most constrained view, used when a receiver takes the whole
        message."""
        # A receiver holding every tag (mask -1) keeps every attribute.
        __, secrecy = self.type.quench(
            self.values, self.context.secrecy.mask, -1
        )
        return self.type.widen(self.context, secrecy)

    def quenched_for(self, receiver: SecurityContext) -> "Message":
        """Return a copy with attributes the receiver cannot take removed.

        Implements Fig. 10's source quenching (see
        :meth:`MessageType.quench`): attributes carrying *extra* secrecy
        tags are included only when ``base secrecy + extra ⊆ receiver
        secrecy``.  Required attributes that must be dropped cause the
        copy to mark them absent — receivers see a partial view.
        """
        dropped = self.dropped_attributes(receiver)
        return Message._of(
            self.type,
            {k: v for k, v in self.values.items() if k not in dropped},
            self.context,
            self.msg_id,
            self.sent_at,
        )

    def dropped_attributes(self, receiver: SecurityContext) -> List[str]:
        """Names of attributes quenching would remove for ``receiver``."""
        return self.type.quench(
            self.values, self.context.secrecy.mask, receiver.secrecy.mask
        )[0]
