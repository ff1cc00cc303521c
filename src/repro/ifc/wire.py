"""Wire-level label masks: the cross-machine interner handshake.

§8.2.2 substrates "enforce IFC in their dealings with the substrate
processes of other applications" — which means security contexts cross
the wire on every message.  Intra-machine enforcement already runs on
interned bitsets (:mod:`repro.ifc.interner`), but bit positions are
*process-local*: host A's bit 3 may be ``medical`` while host B's bit 3
is ``zeb-dev``.  Shipping raw masks between machines would silently
relabel data — the worst possible IFC failure.

This module makes masks safe on the wire by negotiating the mapping
*once*, instead of re-describing tag sets per message (the semantic-
configuration argument: peers agree a shared vocabulary up front):

* :class:`TagTable` — an exportable, versioned snapshot of an interner's
  position → tag mapping (qualified tag names, index = bit position).
* A three-step handshake (:class:`HandshakeHello` →
  :class:`HandshakeAck` → :class:`HandshakeFin`) through which two
  peers exchange tables.  Until a peer has *confirmed* receipt of our
  table, we must not send it masks — pre-handshake traffic falls back
  to the tag-set wire format.
* :class:`MaskTranslator` — the receive-side remap: a peer's wire
  position → our local single-bit mask, built by interning the peer's
  table into our interner.  Translation memoizes whole masks and whole
  context pairs, so the repeated-pair hot path is two dict hits.
* Re-sync (:class:`TableUpdate` → :class:`TableAck`): interners are
  append-only, so a tag interned *after* the handshake occupies a bit
  the peer has never heard of.  Encoding detects the overflow
  (``mask >> confirmed_len`` is non-zero), falls back to the tag-set
  format for that message — never a mislabel — and ships the table
  delta; once acked, masks resume.

The :class:`WireCodec` owns the per-peer state machine.  It is
transport-agnostic: callers (``repro.middleware.substrate``) move the
control payloads and consult the codec to encode/decode masks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ifc.interner import TagInterner, global_interner, remap_mask
from repro.ifc.labels import Label, SecurityContext

#: Re-offer a lost HELLO / TableUpdate after this many fallback sends.
REOFFER_INTERVAL = 64

#: Minimum length of a numeric-suffix run worth a range token.
_MIN_RUN = 3

_NUMERIC_SUFFIX = re.compile(r"^(.*?)(\d+)$")


def _lcp(a: str, b: str) -> int:
    """Length of the longest common prefix of two strings."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def raw_table_size(tags: Sequence[str]) -> int:
    """Wire bytes of the *uncompressed* tag-table encoding.

    The seed's format: each qualified name length-prefixed (2 bytes),
    plus a 4-byte count header.  This is the baseline every compression
    claim is measured against.
    """
    return 4 + sum(len(t) + 2 for t in tags)


@dataclass(frozen=True)
class TagBlock:
    """Delta + prefix/range compressed encoding of a tag-table slice.

    Real deployments intern thousands of machine-generated tags
    (``city:sensor-0``, ``city:sensor-1``, ...); shipping each as a raw
    string makes a 10k-tag vocabulary offer cost hundreds of kilobytes
    per peer.  A block encodes the slice ``base..base+count`` of an
    origin's table as a token stream:

    * literal token ``("t", lcp, suffix)`` — the tag is the previous
      tag's first ``lcp`` characters plus ``suffix`` (front coding);
    * range token ``("r", lcp, stem, start, n)`` — ``n`` consecutive
      tags ``prefix + stem + str(start+i)``, the machine-generated-run
      case, stored once regardless of ``n``.

    Blocks are order-preserving (positions are the whole point of a tag
    table) and self-contained: :meth:`tags` reproduces the exact slice.
    """

    base: int
    count: int
    tokens: Tuple[Tuple, ...]

    @staticmethod
    def compress(tags: Sequence[str], base: int = 0) -> "TagBlock":
        """Encode ``tags`` (the slice starting at position ``base``)."""
        tokens: List[Tuple] = []
        prev = ""
        i = 0
        n = len(tags)
        while i < n:
            tag = tags[i]
            match = _NUMERIC_SUFFIX.match(tag)
            if match is not None:
                stem, digits = match.group(1), match.group(2)
                start = int(digits)
                run = 1
                # Canonical decimal only: "07" would not survive
                # str(int(...)) round-tripping.
                if digits == str(start):
                    while (
                        i + run < n
                        and tags[i + run] == f"{stem}{start + run}"
                    ):
                        run += 1
                if run >= _MIN_RUN:
                    lcp = _lcp(prev, stem)
                    tokens.append(("r", lcp, stem[lcp:], start, run))
                    prev = f"{stem}{start + run - 1}"
                    i += run
                    continue
            lcp = _lcp(prev, tag)
            tokens.append(("t", lcp, tag[lcp:]))
            prev = tag
            i += 1
        return TagBlock(base=base, count=n, tokens=tuple(tokens))

    def tags(self) -> Tuple[str, ...]:
        """Decode the block back into the exact tag slice."""
        out: List[str] = []
        prev = ""
        for token in self.tokens:
            if token[0] == "t":
                __, lcp, suffix = token
                prev = prev[:lcp] + suffix
                out.append(prev)
            else:
                __, lcp, stem_suffix, start, run = token
                stem = prev[:lcp] + stem_suffix
                for k in range(start, start + run):
                    out.append(f"{stem}{k}")
                prev = out[-1]
        return tuple(out)

    @property
    def wire_size(self) -> int:
        """Estimated serialised bytes: 8-byte header (base, count) plus
        per-token cost (tag/op byte + lcp byte + payload)."""
        size = 8
        for token in self.tokens:
            if token[0] == "t":
                size += 3 + len(token[2])
            else:
                size += 3 + len(token[2]) + 8  # stem + start/run varints
        return size


@dataclass(frozen=True)
class TagTable:
    """A versioned snapshot of an interner's position → tag mapping.

    ``tags[i]`` is the qualified (``namespace:name``) form of the tag at
    bit position ``i``.  The version of a table is simply its length:
    interners are append-only, so a longer table from the same peer is
    always a strict extension of a shorter one.

    In memory the table is the decoded tuple; on the (simulated) wire a
    table travels as its compressed :attr:`block` — handshake offers and
    gossip deltas are sized by the compressed form.
    """

    tags: Tuple[str, ...]

    @property
    def version(self) -> int:
        return len(self.tags)

    @cached_property
    def block(self) -> TagBlock:
        """The compressed wire encoding of this table."""
        return TagBlock.compress(self.tags)

    @property
    def wire_size(self) -> int:
        return self.block.wire_size


# -- control payloads -----------------------------------------------------------


@dataclass(frozen=True)
class WireControl:
    """Base class for handshake datagram payloads (dispatch marker)."""


@dataclass(frozen=True)
class HandshakeHello(WireControl):
    """First contact: here is my whole tag table."""

    table: TagTable


@dataclass(frozen=True)
class HandshakeAck(WireControl):
    """I hold ``acked_version`` of your tags; here is my table."""

    table: TagTable
    acked_version: int


@dataclass(frozen=True)
class HandshakeFin(WireControl):
    """I hold ``acked_version`` of your tags too — both sides may mask."""

    acked_version: int


@dataclass(frozen=True)
class TableUpdate(WireControl):
    """Post-handshake delta: my tags from position ``base`` onward."""

    base: int
    tags: Tuple[str, ...]


@dataclass(frozen=True)
class TableAck(WireControl):
    """Delta applied: I now hold ``acked_version`` of your tags."""

    acked_version: int


def control_wire_size(payload: WireControl) -> int:
    """Estimated serialised bytes of a handshake control payload.

    Table-bearing payloads are sized by their compressed encoding
    (:class:`TagBlock`); bare acks are a fixed few bytes.  Gossip
    payloads (``repro.federation``) size themselves via a ``wire_size``
    property, which this helper also honours — one sizing convention
    across the whole control plane.
    """
    if isinstance(payload, (HandshakeHello, HandshakeAck)):
        size = payload.table.wire_size
        if isinstance(payload, HandshakeAck):
            size += 4
        return size
    if isinstance(payload, TableUpdate):
        return TagBlock.compress(payload.tags, base=payload.base).wire_size
    if isinstance(payload, (HandshakeFin, TableAck)):
        return 4
    size = getattr(payload, "wire_size", None)
    return size if isinstance(size, int) else 0


# -- receive-side translation ----------------------------------------------------


class MaskTranslator:
    """Remaps one peer's wire masks into a local interner's numbering.

    ``extend`` interns the peer's tags locally and records, per wire
    position, the local single-bit mask.  Because both interners are
    append-only, a translation computed once is valid forever — whole-
    mask and whole-context translations are therefore memoized
    unboundedly (bounded in practice by the number of distinct labels a
    peer ever sends).

    Cross-vocabulary flow decisions remap the foreign masks here and
    then run :func:`~repro.ifc.flow.flow_decision_masks` in the local
    numbering (passing the local interner), so denial labels
    name the real tags.
    """

    __slots__ = ("_interner", "_local_bits", "_mask_memo", "_context_memo")

    def __init__(self, interner: TagInterner):
        self._interner = interner
        self._local_bits: List[int] = []
        self._mask_memo: Dict[int, int] = {}
        self._context_memo: Dict[Tuple[int, int], SecurityContext] = {}

    @property
    def version(self) -> int:
        """How many of the peer's positions this translator can map."""
        return len(self._local_bits)

    def extend(self, tags: Sequence[str]) -> None:
        """Append newly learned peer tags (in peer-position order)."""
        self._local_bits.extend(self._interner.merge_table(tags))

    @property
    def local_bits(self) -> Sequence[int]:
        """Peer position → local single-bit mask (for
        :meth:`Label.from_foreign_mask`)."""
        return self._local_bits

    def to_local_mask(self, wire_mask: int) -> int:
        """Translate a peer-numbered mask into the local numbering.

        Raises :class:`IndexError` if the mask uses positions beyond
        this translator's version — callers gate on :attr:`version`.
        """
        local = self._mask_memo.get(wire_mask)
        if local is None:
            local = remap_mask(wire_mask, self._local_bits)
            self._mask_memo[wire_mask] = local
        return local

    def to_local_context(self, secrecy_mask: int, integrity_mask: int) -> SecurityContext:
        """Materialise a :class:`SecurityContext` from two wire masks.

        Only valid when the translator's interner is the process-global
        one backing :class:`~repro.ifc.labels.Label` (the substrate
        path); the memo returns the *same* context object for a repeated
        pair, so the receive path decodes each distinct pair once.
        """
        key = (secrecy_mask, integrity_mask)
        ctx = self._context_memo.get(key)
        if ctx is None:
            ctx = SecurityContext(
                Label.from_mask(self.to_local_mask(secrecy_mask)),
                Label.from_mask(self.to_local_mask(integrity_mask)),
            )
            self._context_memo[key] = ctx
        return ctx


# -- per-peer handshake state ----------------------------------------------------


@dataclass
class WirePeer:
    """What one codec knows about one remote peer."""

    #: How many of OUR tags the peer has confirmed holding, or None
    #: before the handshake completes.  Masks may only use bits below
    #: this.  (None and 0 are distinct: a handshaked peer with an empty
    #: table can still receive the all-clear mask 0.)
    confirmed: Optional[int] = None
    #: Receive side: remap of the peer's numbering (None before we see
    #: the peer's table).
    translator: Optional[MaskTranslator] = None
    #: A HELLO is in flight (suppress duplicates).
    hello_sent: bool = False
    #: A TableUpdate is in flight (suppress duplicates).
    resync_inflight: bool = False
    #: Sends that fell back to the tag-set format — drives re-offers of
    #: lost control datagrams.
    fallback_sends: int = 0
    #: fallback_sends thresholds at which a lost HELLO / TableUpdate is
    #: assumed and re-offered.
    next_hello_reoffer: int = 0
    next_resync_reoffer: int = 0

    @property
    def masking(self) -> bool:
        """Whether mask envelopes may currently be sent to this peer."""
        return self.confirmed is not None

    def confirm(self, acked_version: int) -> None:
        """Raise the confirmed count (acks never lower it: a stale or
        reordered ack must not revoke what a newer one established)."""
        if self.confirmed is None or acked_version > self.confirmed:
            self.confirmed = acked_version


class WireCodec:
    """The per-process end of the wire plane: one state machine per peer.

    The codec never touches the network; it hands control payloads back
    to the caller for transport.  ``handle_control`` returns
    ``(reply, event)`` — the reply to send back (or None) and a small
    dict describing what happened, for audit emission.
    """

    def __init__(self, interner: Optional[TagInterner] = None):
        self.interner = interner if interner is not None else global_interner()
        self._peers: Dict[str, WirePeer] = {}

    def peer(self, host: str) -> WirePeer:
        state = self._peers.get(host)
        if state is None:
            state = self._peers[host] = WirePeer()
        return state

    # -- table export ------------------------------------------------------

    def table(self) -> TagTable:
        """Snapshot our interner as an exportable table."""
        return TagTable(self.interner.export_table())

    # -- handshake ---------------------------------------------------------

    def greet(self, host: str) -> Optional[HandshakeHello]:
        """The HELLO to send to ``host``, or None if already in hand.

        Re-offers a HELLO every :data:`REOFFER_INTERVAL` fallback sends
        so a lost datagram does not strand the peer in tag-set mode
        forever.
        """
        state = self.peer(host)
        if state.masking:
            return None
        if state.hello_sent and state.fallback_sends < state.next_hello_reoffer:
            return None
        state.hello_sent = True
        state.next_hello_reoffer = state.fallback_sends + REOFFER_INTERVAL
        return HandshakeHello(self.table())

    def _learn(self, state: WirePeer, table: TagTable) -> None:
        """Extend the peer's translator with an absolute table."""
        if state.translator is None:
            state.translator = MaskTranslator(self.interner)
        have = state.translator.version
        if table.version > have:
            state.translator.extend(table.tags[have:])

    # -- out-of-band learning (the federation gossip path) -----------------

    def learn_table(self, host: str, base: int, tags: Sequence[str]) -> int:
        """Extend our translator for ``host`` with tags learned
        out-of-band — a gossip delta relayed by a third substrate rather
        than a handshake datagram from ``host`` itself.

        ``base`` is the absolute position of ``tags[0]`` in the origin's
        numbering.  Overlap with what we already hold is skipped; a gap
        (``base`` beyond our version) leaves state unchanged so the
        caller can re-pull from what we actually hold.  Returns the
        version held afterwards.
        """
        state = self.peer(host)
        if state.translator is None:
            state.translator = MaskTranslator(self.interner)
        have = state.translator.version
        if base > have:
            return have
        new = tags[have - base :]
        if new:
            state.translator.extend(new)
        return state.translator.version

    def note_confirmed(self, host: str, version: int) -> None:
        """Record that ``host`` holds ``version`` of OUR table, learned
        out-of-band (a gossip digest claiming the holding) — unlocks
        mask sends exactly like a handshake ack."""
        self.peer(host).confirm(version)

    def peer_version(self, host: str) -> int:
        """How many of ``host``'s positions we can currently translate."""
        translator = self.peer(host).translator
        return 0 if translator is None else translator.version

    def handle_control(
        self, host: str, payload: WireControl
    ) -> Tuple[Optional[WireControl], Optional[dict]]:
        """Advance the state machine for ``host``; see class docstring."""
        state = self.peer(host)
        if isinstance(payload, HandshakeHello):
            self._learn(state, payload.table)
            return (
                HandshakeAck(self.table(), acked_version=payload.table.version),
                {"step": "hello", "peer_tags": payload.table.version},
            )
        if isinstance(payload, HandshakeAck):
            self._learn(state, payload.table)
            state.confirm(payload.acked_version)
            return (
                HandshakeFin(acked_version=payload.table.version),
                {
                    "step": "ack",
                    "peer_tags": payload.table.version,
                    "confirmed": state.confirmed,
                },
            )
        if isinstance(payload, HandshakeFin):
            state.confirm(payload.acked_version)
            return None, {"step": "fin", "confirmed": state.confirmed}
        if isinstance(payload, TableUpdate):
            if state.translator is None:
                # Update without a handshake (reordered/lost HELLO):
                # answer with what we hold (nothing) so the sender backs
                # off to re-offering its full table.
                return TableAck(acked_version=0), {"step": "update-no-handshake"}
            have = state.translator.version
            if payload.base > have:
                # Gap: a previous delta was lost.  Ack what we actually
                # hold; the sender re-syncs from there.
                return TableAck(acked_version=have), {
                    "step": "update-gap",
                    "have": have,
                    "base": payload.base,
                }
            new_tags = payload.tags[have - payload.base :]
            if new_tags:
                state.translator.extend(new_tags)
            return (
                TableAck(acked_version=state.translator.version),
                {"step": "update", "peer_tags": state.translator.version},
            )
        if isinstance(payload, TableAck):
            state.resync_inflight = False
            state.confirm(payload.acked_version)
            return None, {"step": "update-ack", "confirmed": state.confirmed}
        return None, None  # unknown control payload: ignore

    # -- encoding ----------------------------------------------------------

    def encode_masks(self, host: str, *masks: int) -> Optional[Tuple[int, ...]]:
        """Our masks, if every one fits what the peer confirmed.

        Returns None (and counts a fallback send) when the peer is not
        handshaked or any mask uses a bit the peer has not confirmed —
        the caller must use the tag-set wire format and should offer a
        :meth:`resync`.
        """
        state = self.peer(host)
        confirmed = state.confirmed
        if confirmed is not None:
            for mask in masks:
                if mask >> confirmed:
                    break
            else:
                return masks
        state.fallback_sends += 1
        return None

    def resync(self, host: str) -> Optional[TableUpdate]:
        """The table delta to ship after an encode overflow, if any.

        None while the handshake itself is incomplete (the HELLO path
        owns that) or while a previous delta is unacknowledged.
        """
        state = self.peer(host)
        if not state.masking:
            return None
        if state.resync_inflight:
            if state.fallback_sends < state.next_resync_reoffer:
                return None
            # The previous delta is presumed lost; re-offer it.
        delta = self.interner.export_table(start=state.confirmed)
        if not delta:
            return None
        state.resync_inflight = True
        state.next_resync_reoffer = state.fallback_sends + REOFFER_INTERVAL
        return TableUpdate(base=state.confirmed, tags=delta)

    # -- decoding ----------------------------------------------------------

    def can_decode(self, host: str, *masks: int) -> bool:
        """Whether every mask fits this peer's translator."""
        translator = self.peer(host).translator
        if translator is None:
            return False
        version = translator.version
        return all(not (mask >> version) for mask in masks)

    def decode_mask(self, host: str, wire_mask: int) -> int:
        """Translate one peer mask to local numbering (see can_decode)."""
        translator = self.peer(host).translator
        if translator is None:
            raise KeyError(f"no handshake with {host}")
        return translator.to_local_mask(wire_mask)

    def decode_context(
        self, host: str, secrecy_mask: int, integrity_mask: int
    ) -> SecurityContext:
        """Materialise a peer's context pair (global-interner codecs only)."""
        translator = self.peer(host).translator
        if translator is None:
            raise KeyError(f"no handshake with {host}")
        return translator.to_local_context(secrecy_mask, integrity_mask)
