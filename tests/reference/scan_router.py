"""Reference router: the bus's retired linear channel scan.

:class:`ScanRouteBus` is a :class:`MessageBus` that finds a publish's
channels by walking the whole ``channels`` list and matching the source
component and endpoint by identity, as the bus did before it kept a
per-endpoint route index.  Its teardown hook and end-of-route compaction
are the old ones too, touching ``channels`` alone.  Connect, delivery
and audit are the production code, so a property that plays one script
against both buses checks the channel bookkeeping and lookup.
"""

from __future__ import annotations

from repro.middleware.bus import MessageBus


class ScanRouteBus(MessageBus):
    """A bus that routes by scanning every channel it holds."""

    _scan_compact = False

    def _channels_from(self, source, src_ep):
        # Lazy over the live list, so a channel appended mid-route is
        # reached, and dead ones stay until compaction.
        for channel in self.channels:
            if channel.source is source and channel.source_endpoint is src_ep:
                yield channel

    def _channel_torn_down(self, channel, reason):
        if self._route_depth:
            self._scan_compact = True
            return
        self.channels.remove(channel)

    def _end_route(self):
        self._route_depth -= 1
        if not self._route_depth and self._scan_compact:
            self._scan_compact = False
            self.channels = [c for c in self.channels if c.alive]
