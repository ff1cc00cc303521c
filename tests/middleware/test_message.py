"""Typed messages and message-level tags (§8.2.2, Fig. 10)."""

import pytest

from repro.errors import SchemaError
from repro.ifc import Label, SecurityContext, as_tags, global_interner
from repro.middleware import AttributeSpec, Message, MessageType


@pytest.fixture
def person_type() -> MessageType:
    """The paper's example: person.name is more sensitive than .country."""
    return MessageType(
        "person",
        [
            AttributeSpec("name", str, extra_secrecy=as_tags(["pii"])),
            AttributeSpec("country", str),
            AttributeSpec("age", int, required=False),
        ],
    )


class TestSchema:
    def test_valid_message(self, person_type):
        message = Message(person_type, {"name": "Ann", "country": "UK"})
        assert message.values["name"] == "Ann"

    def test_missing_required_attribute(self, person_type):
        with pytest.raises(SchemaError):
            Message(person_type, {"name": "Ann"})

    def test_optional_attribute_may_be_absent(self, person_type):
        Message(person_type, {"name": "A", "country": "UK"})  # no age: fine

    def test_unknown_attribute_rejected(self, person_type):
        with pytest.raises(SchemaError):
            Message(person_type, {"name": "A", "country": "UK", "x": 1})

    def test_wrong_type_rejected(self, person_type):
        with pytest.raises(SchemaError):
            Message(person_type, {"name": 42, "country": "UK"})

    def test_duplicate_attribute_in_schema_rejected(self):
        with pytest.raises(SchemaError):
            MessageType("t", [AttributeSpec("a"), AttributeSpec("a")])

    def test_simple_constructor(self):
        t = MessageType.simple("reading", value=float, unit=str)
        assert set(t.attributes) == {"value", "unit"}

    def test_unique_message_ids(self, person_type):
        a = Message(person_type, {"name": "A", "country": "UK"})
        b = Message(person_type, {"name": "B", "country": "UK"})
        assert a.msg_id != b.msg_id


class TestMessageLevelTags:
    def test_effective_context_includes_attribute_tags(self, person_type):
        base = SecurityContext.of(["medical"], [])
        message = Message(person_type, {"name": "Ann", "country": "UK"}, base)
        effective = message.effective_context()
        assert "pii" in effective.secrecy
        assert "medical" in effective.secrecy

    def test_quenching_drops_only_overtagged_attributes(self, person_type):
        base = SecurityContext.of(["medical"], [])
        message = Message(person_type, {"name": "Ann", "country": "UK"}, base)
        receiver = SecurityContext.of(["medical"], [])  # no pii clearance
        quenched = message.quenched_for(receiver)
        assert "name" not in quenched.values       # Fig. 10: tag C quenched
        assert quenched.values["country"] == "UK"  # untagged attr survives
        assert quenched.msg_id == message.msg_id

    def test_cleared_receiver_gets_everything(self, person_type):
        base = SecurityContext.of(["medical"], [])
        message = Message(person_type, {"name": "Ann", "country": "UK"}, base)
        receiver = SecurityContext.of(["medical", "pii"], [])
        assert message.dropped_attributes(receiver) == []
        assert message.quenched_for(receiver).values == message.values

    def test_dropped_attributes_listing(self, person_type):
        base = SecurityContext.of(["medical"], [])
        message = Message(person_type, {"name": "A", "country": "UK"}, base)
        receiver = SecurityContext.of(["medical"], [])
        assert message.dropped_attributes(receiver) == ["name"]

    def test_base_context_quenches_all_when_unsatisfied(self, person_type):
        base = SecurityContext.of(["medical"], [])
        message = Message(person_type, {"name": "A", "country": "UK"}, base)
        receiver = SecurityContext.public()
        # Base secrecy not satisfied: every attribute needs medical.
        assert set(message.dropped_attributes(receiver)) == {"name", "country"}

    def test_attribute_secrecy_lookup_errors(self, person_type):
        with pytest.raises(SchemaError):
            person_type.attribute_secrecy("ghost")
        # A miss is never memoised: the next lookup raises again.
        with pytest.raises(SchemaError):
            person_type.attribute_secrecy("ghost")

    def test_attribute_secrecy_is_built_once(self, person_type):
        first = person_type.attribute_secrecy("name")
        assert person_type.attribute_secrecy("name") is first
        assert first == Label(as_tags(["pii"]))
        assert person_type.attribute_secrecy("country") == Label.empty()

    def test_attribute_secrecy_interns_on_first_use(self):
        # Bit positions are process-local and follow interning order, so
        # declaring a schema must not intern its tags ahead of use.
        tag = "schema-memo:lazy"
        mtype = MessageType(
            "lazy", [AttributeSpec("x", int, extra_secrecy=as_tags([tag]))]
        )
        assert tag not in global_interner()
        assert tag in mtype.attribute_secrecy("x")
        assert tag in global_interner()
