"""Property: an ``AuditLog`` is the plain hash chain its records spell.

Hypothesis plays random scripts of appends, prunes, read-then-mutate
steps, verifies and queries on one log, and replays them on a model:
the appended records, and a chain built with plain ``hashlib`` over
``tests/audit/test_log.py::_reference`` encodings from the log genesis.

- the head digest, every ``export()`` string and digest, and the
  ``verify()`` verdict equal the model's;
- ``query`` (served from the log's posting lists) returns exactly what
  a flat ``record_matches`` filter over the model returns, the empty
  subject included;
- a record a read handed out, once mutated, fails ``verify()``, and
  passes again once restored.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditLog, RecordKind, record_matches
from repro.ifc import SecurityContext
from tests.audit.test_log import _reference

GENESIS = hashlib.sha256(b"repro-audit-genesis").hexdigest()
ACTORS = ["sensor", "analyser", "portal", ""]
SUBJECTS = ["analyser", "archive", ""]
KINDS = [RecordKind.FLOW_ALLOWED, RecordKind.FLOW_DENIED,
         RecordKind.RECONFIGURATION]
CONTEXTS = [
    None,
    SecurityContext.public(),
    SecurityContext.of(["medical"], []),
    SecurityContext.of(["medical", "home:tv"], ["hosp-dev"]),
]
TAGS = ["local:medical", "home:tv", "local:hosp-dev", "local:absent"]

append = st.tuples(
    st.just("append"), st.sampled_from(ACTORS), st.sampled_from(SUBJECTS),
    st.sampled_from(KINDS), st.integers(0, len(CONTEXTS) - 1),
    st.integers(0, len(CONTEXTS) - 1), st.integers(0, 3),
    st.sampled_from([0.0, 0.5, 1.0]),
)
prune = st.tuples(st.just("prune"), st.floats(0.0, 20.0))
mutate = st.tuples(
    st.just("mutate"), st.integers(0, 200), st.sampled_from(["actor", "detail"])
)
verify = st.just(("verify",))
maybe = lambda values: st.one_of(st.none(), st.sampled_from(values))  # noqa: E731
query = st.tuples(
    st.just("query"), maybe(KINDS), maybe(ACTORS), maybe(SUBJECTS),
    maybe(ACTORS + SUBJECTS), maybe(TAGS), maybe([0.0, 2.5, 5.0]),
    maybe([2.5, 5.0, 10.0]),
)
step = st.one_of(append, append, append, prune, mutate, verify, query, query)


class Model:
    """The appended records and their plain-``hashlib`` chain."""

    def __init__(self):
        self.records = []
        self.digests = []
        self.base = GENESIS

    def append(self, record):
        previous = self.digests[-1] if self.digests else self.base
        self.records.append(record)
        self.digests.append(hashlib.sha256(
            (previous + _reference(record)).encode()
        ).hexdigest())

    def prune(self, timestamp):
        k = 0
        while k < len(self.records) and self.records[k].timestamp < timestamp:
            k += 1
        if k:
            self.base = self.digests[k - 1]
            del self.records[:k], self.digests[:k]
        return k

    @property
    def head(self):
        return self.digests[-1] if self.digests else self.base


def check_query(log, model, *filters):
    got = log.query(*filters)
    want = [r for r in model.records if record_matches(r, *filters)]
    assert [r.canonical() for r in got] == [r.canonical() for r in want]


def check_chain(log, model):
    # Every name's posting list, read alone.
    for name in ACTORS:
        check_query(log, model, None, name)
    for name in SUBJECTS:
        check_query(log, model, None, None, name)
    for name in set(ACTORS + SUBJECTS):
        check_query(log, model, None, None, None, name)
    assert log.verify()
    assert log.head_digest == model.head
    exported = log.export()
    assert [e["record"] for e in exported] == [
        _reference(r) for r in model.records
    ]
    assert [e["digest"] for e in exported] == model.digests


@settings(max_examples=200, deadline=None)
@given(script=st.lists(step, min_size=8, max_size=60))
def test_log_is_the_reference_chain(script):
    now = [0.0]
    log = AuditLog(clock=lambda: now[0])
    model = Model()
    for op in script:
        kind = op[0]
        if kind == "append":
            __, actor, subject, rkind, src, tgt, rows, tick = op
            now[0] += tick
            detail = {"rows": rows} if rows else None
            model.append(log.append(
                rkind, actor, subject, detail, CONTEXTS[src], CONTEXTS[tgt]
            ))
        elif kind == "prune":
            assert log.prune_before(op[1]) == model.prune(op[1])
            assert len(log) == len(model.records)
        elif kind == "mutate":
            read = log.records()
            if not read:
                continue
            record = read[op[1] % len(read)]
            field = op[2]
            original = getattr(record, field)
            edited = "mallory" if field == "actor" else {"rows": -1}
            object.__setattr__(record, field, edited)
            assert not log.verify()
            object.__setattr__(record, field, original)
            assert log.verify()
        elif kind == "verify":
            check_chain(log, model)
        else:
            check_query(log, model, *op[1:])
    check_chain(log, model)
    assert [r.canonical() for r in log] == [
        _reference(r) for r in model.records
    ]
