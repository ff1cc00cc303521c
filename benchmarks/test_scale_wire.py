"""S-WM — wire plane scale: mask envelopes vs tag-set envelopes.

The cross-machine substrate (F9/F10 path) used to serialise both labels
of both contexts as qualified tag strings on every message and re-intern
them on receipt.  After the tag-table handshake (``repro.ifc.wire``,
``docs/wire_plane.md``) an envelope carries four ints instead, and the
receiver remaps them through a memoized per-peer translation table.

This bench measures the repeated-pair path both ways:

* codec-level — the pure encode+decode cost per context pair;
* end-to-end — full substrate transfer (enforcement, audit, simulated
  network) across 2–8 machines at 1k/10k messages.

A machine-readable summary goes to ``BENCH_wire_masks.json``.  Target:
≥2x throughput on the repeated-pair cross-machine path (the hard
asserts sit below the target, and gate per ``strict_gate`` in
``benchmarks/conftest.py``).
"""

import time
from pathlib import Path

import pytest

from repro.deploy import Deployment
from repro.ifc import SecurityContext, TagInterner, WireCodec
from repro.middleware import Message, MessageType

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_wire_masks.json"
_results = {}

READING = MessageType.simple("reading", value=float)


def _rate(fn, rounds):
    start = time.perf_counter()
    for __ in range(rounds):
        fn()
    return rounds / (time.perf_counter() - start)


# -- codec level ------------------------------------------------------------------


def _tagset_wire_roundtrip(ctx):
    """What the tag-set format does per context: serialise each label to
    qualified strings, re-intern on receipt."""
    secrecy = tuple(t.qualified for t in ctx.secrecy.tags)
    integrity = tuple(t.qualified for t in ctx.integrity.tags)
    return SecurityContext.of(secrecy, integrity)


@pytest.mark.parametrize("n_tags", [8, 32])
def test_swm_codec_repeated_pair(report, strict_gate, n_tags):
    """Pure codec cost for the same context pair over and over."""
    tags = [f"swm{n_tags}t{i}" for i in range(n_tags)]
    ctx = SecurityContext.of(tags, tags[: n_tags // 2])

    sender = WireCodec()
    receiver = WireCodec(TagInterner())
    hello = sender.greet("rx")
    ack, __ = receiver.handle_control("tx", hello)
    fin, __ = sender.handle_control("rx", ack)
    receiver.handle_control("tx", fin)

    rounds = 100_000
    s_mask, i_mask = ctx.secrecy.mask, ctx.integrity.mask

    def mask_roundtrip():
        masks = sender.encode_masks("rx", s_mask, i_mask)
        receiver.decode_mask("tx", masks[0])
        receiver.decode_mask("tx", masks[1])

    assert sender.encode_masks("rx", s_mask, i_mask) is not None
    tagset_rate = _rate(lambda: _tagset_wire_roundtrip(ctx), rounds)
    mask_rate = _rate(mask_roundtrip, rounds)
    speedup = mask_rate / tagset_rate
    _results[f"codec_repeated_pair_{n_tags}_tags"] = {
        "tagset_ctx_per_s": round(tagset_rate),
        "mask_ctx_per_s": round(mask_rate),
        "speedup": round(speedup, 2),
    }
    report.row(
        f"{n_tags} tags/label",
        tagset=f"{tagset_rate/1e6:.2f}M/s",
        masks=f"{mask_rate/1e6:.2f}M/s",
        speedup=f"{speedup:.1f}x",
    )
    assert not strict_gate or speedup > 2.0


# -- end to end -------------------------------------------------------------------


def _pairwise_run(n_machines, n_msgs, wire_masks, enforce=True):
    """Machines paired off (0→1, 2→3, …) through the deployment façade;
    each source sends ``n_msgs`` to its sink over the simulated network.
    Returns (msgs/s, stats of the first sender, the network)."""
    deploy = Deployment(
        seed=11, name="swm", default_latency=0.0001, tick_drain=False
    )
    sim, net = deploy.sim, deploy.network
    tags = [f"swm-e2e{i}" for i in range(16)]
    ctx = SecurityContext.of(tags, tags[:8])
    pairs = []
    for i in range(0, n_machines, 2):
        src_node = deploy.node(f"swm-h{i}").with_substrate(
            enforce=enforce, wire_masks=wire_masks
        )
        dst_node = deploy.node(f"swm-h{i+1}").with_substrate(
            enforce=enforce, wire_masks=wire_masks
        )
        p_src = src_node.launch("tx", ctx, handler=lambda a, m: None)
        dst_node.launch("rx", ctx, handler=lambda a, m: None)
        pairs.append((src_node.substrate, p_src, dst_node.substrate))
    # Warm: one message per pair completes the handshakes.
    for src, p_src, dst in pairs:
        src.send(p_src, dst, "rx", Message(READING, {"value": 0.0}, context=ctx))
    sim.drain()

    message = Message(READING, {"value": 1.0}, context=ctx)
    start = time.perf_counter()
    for src, p_src, dst in pairs:
        for __ in range(n_msgs):
            src.send(p_src, dst, "rx", message)
    sim.drain()
    elapsed = time.perf_counter() - start

    total = n_msgs * len(pairs)
    for src, p_src, dst in pairs:
        assert dst.stats.delivered == n_msgs + 1
        if wire_masks:
            assert src.stats.sent_masked == n_msgs
        else:
            assert src.stats.sent_masked == 0
    return total / elapsed, pairs[0][0].stats, net


@pytest.mark.parametrize(
    "n_machines,n_msgs",
    [(2, 1_000), (2, 10_000), (4, 1_000), (8, 1_000)],
    ids=["2m-1k", "2m-10k", "4m-1k", "8m-1k"],
)
def test_swm_end_to_end(report, strict_gate, n_machines, n_msgs):
    """The full F9/F10 repeated-pair path, enforcement and audit on.

    Best-of-2 per format: wall-clock ratios of second-long runs are
    jittery when the whole suite runs alongside.
    """
    mask_rate = tagset_rate = 0.0
    net = None
    for __ in range(2):
        rate, mask_stats, run_net = _pairwise_run(n_machines, n_msgs, wire_masks=True)
        if rate > mask_rate:
            mask_rate, net = rate, run_net
        rate, __stats, ___net = _pairwise_run(n_machines, n_msgs, wire_masks=False)
        tagset_rate = max(tagset_rate, rate)
    speedup = mask_rate / tagset_rate
    _results[f"e2e_{n_machines}m_{n_msgs}msgs"] = {
        "machines": n_machines,
        "messages_per_pair": n_msgs,
        "tagset_msgs_per_s": round(tagset_rate),
        "mask_msgs_per_s": round(mask_rate),
        "speedup": round(speedup, 2),
        "handshake_datagrams": net.stats.handshake_sent,
    }
    report.row(
        f"{n_machines} machines x {n_msgs} msgs",
        tagset=f"{tagset_rate/1e3:.1f}k/s",
        masks=f"{mask_rate/1e3:.1f}k/s",
        speedup=f"{speedup:.2f}x",
        handshake_dgrams=net.stats.handshake_sent,
    )
    # Target is ≥2x (observed 2.4-2.9x); the hard assert is only a
    # tripwire, well below the target so CI jitter can't flake the suite.
    assert not strict_gate or speedup > 1.2


def test_swm_baseline_transfer(report, strict_gate):
    """Enforcement off: isolates the pure transfer+codec win (best-of-2)."""
    mask_rate = max(
        _pairwise_run(2, 5_000, wire_masks=True, enforce=False)[0] for __ in range(2)
    )
    tagset_rate = max(
        _pairwise_run(2, 5_000, wire_masks=False, enforce=False)[0] for __ in range(2)
    )
    speedup = mask_rate / tagset_rate
    _results["e2e_baseline_no_enforce"] = {
        "tagset_msgs_per_s": round(tagset_rate),
        "mask_msgs_per_s": round(mask_rate),
        "speedup": round(speedup, 2),
    }
    report.row(
        "2 machines, enforce off",
        tagset=f"{tagset_rate/1e3:.1f}k/s",
        masks=f"{mask_rate/1e3:.1f}k/s",
        speedup=f"{speedup:.2f}x",
    )
    assert not strict_gate or speedup > 2.0


def test_swm_write_summary(report, write_summary):
    """Runs last in this module: persist the summary JSON."""
    assert _results, "ratio benchmarks must run before the summary"
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               entries=len(_results))
