"""Cross-vocabulary flow decisions: masks numbered by another interner
are remapped through the wire vocabulary (:class:`MaskTranslator`) and
judged by the one mask-level rule (see docs/decision_plane.md)."""

from repro.ifc import (
    MaskTranslator,
    SecurityContext,
    TagInterner,
    flow_decision,
    flow_decision_masks,
)

LOW = SecurityContext.of(["medical"], [])
HIGH = SecurityContext.of(["medical", "ann"], [])


def _masks(src, dst):
    return (
        src.secrecy.mask, src.integrity.mask,
        dst.secrecy.mask, dst.integrity.mask,
    )


class TestMaskRule:
    def test_mask_evaluation_matches_flow_decision(self):
        for src, dst in [(LOW, HIGH), (HIGH, LOW)]:
            direct = flow_decision(src, dst)
            via_masks = flow_decision_masks(*_masks(src, dst))
            assert via_masks.allowed == direct.allowed
            assert via_masks.secrecy_ok == direct.secrecy_ok
            assert via_masks.integrity_ok == direct.integrity_ok
            assert via_masks.missing_secrecy == direct.missing_secrecy
            assert via_masks.missing_integrity == direct.missing_integrity

    def test_identity_consistent_allow_across_forms(self):
        by_context = flow_decision(LOW, HIGH)
        by_masks = flow_decision_masks(*_masks(LOW, HIGH))
        assert by_masks is by_context  # one shared allowed singleton


class TestCrossShardTranslation:
    """Workers with *private* interners (fully isolated numbering) agree
    on decisions through the exchanged tag-table vocabulary — never
    through a process-global interner."""

    def _two_workers(self):
        ia, ib = TagInterner(), TagInterner()
        # Divergent numbering: each worker interns in a different order.
        ib.mask_of(["zeb", "medical", "ann"])
        ia.mask_of(["medical", "ann", "zeb"])
        return ia, ib

    @staticmethod
    def _inbound(local, peer, translator, src_masks, dst_masks):
        """``src_masks`` in the peer's numbering, ``dst_masks`` in the
        local one: sync the translator, remap, then apply the rule."""
        if len(peer) > translator.version:
            translator.extend(peer.export_table(start=translator.version))
        return flow_decision_masks(
            translator.to_local_mask(src_masks[0]),
            translator.to_local_mask(src_masks[1]),
            dst_masks[0],
            dst_masks[1],
            interner=local,
        )

    def test_inbound_decision_matches_direct_rule(self):
        a, b = self._two_workers()
        translator = MaskTranslator(a)
        # b ships {medical} secrecy to a target a holds as {medical,ann}.
        src = (b.mask_of(["medical"]), 0)
        dst = (a.mask_of(["medical", "ann"]), 0)
        assert self._inbound(a, b, translator, src, dst).allowed
        # And the denied direction explains itself with real tag names.
        src = (b.mask_of(["medical", "zeb"]), 0)
        decision = self._inbound(a, b, translator, src, dst)
        assert not decision.allowed
        assert "zeb" in decision.reason
        assert "medical" not in decision.reason

    def test_same_bits_different_meaning_never_confused(self):
        a, b = self._two_workers()
        # Bit 0 means "zeb" to worker-b but "medical" to worker-a: a raw
        # mask hand-off would silently relabel; the translator must not.
        wire = b.mask_of(["zeb"])
        assert wire == a.mask_of(["medical"])  # the trap
        dst = (a.mask_of(["medical"]), 0)
        decision = self._inbound(a, b, MaskTranslator(a), (wire, 0), dst)
        assert not decision.allowed  # zeb ⊄ {medical}
        assert str(decision.missing_secrecy) == "{local:zeb}"

    def test_translator_follows_interner_growth(self):
        a, b = self._two_workers()
        translator = MaskTranslator(a)
        dst = (a.mask_of(["medical"]), 0)
        self._inbound(a, b, translator, (0, 0), dst)
        late = b.mask_of(["brand-new-tag"])
        decision = self._inbound(a, b, translator, (late, 0), dst)
        assert not decision.allowed
        assert "brand-new-tag" in decision.reason

    def test_denial_reasons_name_the_real_tags(self):
        """Integrity denials too: the missing label is rendered from the
        local vocabulary the masks are numbered in, not from whatever
        the same bits mean to the process-global interner."""
        a, b = self._two_workers()
        dst = (0, a.mask_of(["ann"]))
        src = (0, b.mask_of(["zeb"]))
        decision = self._inbound(a, b, MaskTranslator(a), src, dst)
        assert decision.secrecy_ok and not decision.integrity_ok
        assert decision.reason == "source integrity label missing {local:ann}"
