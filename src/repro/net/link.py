"""Point-to-point links with latency, bandwidth, and a bounded queue.

A link connects exactly two endpoints (NICs or switch ports).  Frames
experience propagation latency plus serialization delay; when the queue
of in-flight bytes exceeds the configured buffer, new frames are
dropped.  This is what makes denial-of-service *mechanically* effective
against hosts it can reach: flooding a link delays and then drops
legitimate traffic.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol

from repro.net.packet import Frame
from repro.sim.simulator import Simulator


class LinkEndpoint(Protocol):
    """Anything that can be attached to a link end."""

    def on_frame(self, frame: Frame, link: "Link") -> None:
        """Deliver a frame arriving over ``link``."""

    @property
    def endpoint_name(self) -> str:
        """Stable name for logs."""
        ...


class Link:
    """A full-duplex cable between two endpoints.

    Args:
        sim: simulation kernel.
        name: label for logs.
        latency: one-way propagation delay in seconds.
        bandwidth: bytes/second per direction.
        queue_bytes: per-direction buffer before tail drop.
    """

    def __init__(self, sim: Simulator, name: str, latency: float = 0.0002,
                 bandwidth: float = 125_000_000.0, queue_bytes: int = 512_000):
        self.sim = sim
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth
        self.queue_bytes = queue_bytes
        self._ends: List[Optional[LinkEndpoint]] = [None, None]
        # Per-direction transmit state: time the transmitter is busy until,
        # and bytes currently queued.
        self._busy_until = [0.0, 0.0]
        self._queued_bytes = [0, 0]
        self.up = True
        # Degraded-cable model (fault injection): fraction of frames lost
        # at random, drawn from a deterministic stream so chaos runs
        # replay bit-identically.  0.0 / None means a healthy cable.
        self.loss = 0.0
        self.loss_rng = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.frames_lost = 0
        self._taps: List[Callable[[Frame, "Link", float], None]] = []
        self._metric_sent = sim.metrics.counter("net.link.frames_sent",
                                                component=name)
        self._metric_dropped = sim.metrics.counter("net.link.frames_dropped",
                                                   component=name)
        self._metric_lost = sim.metrics.counter("net.link.frames_lost",
                                                component=name)
        self._metric_bytes = sim.metrics.counter("net.link.bytes",
                                                 component=name)

    def attach(self, endpoint: LinkEndpoint) -> int:
        """Attach an endpoint; returns its end index (0 or 1)."""
        for idx in (0, 1):
            if self._ends[idx] is None:
                self._ends[idx] = endpoint
                return idx
        raise RuntimeError(f"link {self.name} already has two endpoints")

    def add_tap(self, tap: Callable[[Frame, "Link", float], None]) -> None:
        """Register a passive capture callback (MANA's packet feed)."""
        self._taps.append(tap)

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the cable."""
        self.up = up

    def degrade(self, latency: Optional[float] = None,
                loss: float = 0.0, rng=None) -> dict:
        """Impair the cable in place: raise propagation latency and/or
        lose a fraction of frames.  Returns the previous settings so a
        fault injector can restore them.
        """
        previous = {"latency": self.latency, "loss": self.loss,
                    "loss_rng": self.loss_rng}
        if latency is not None:
            self.latency = latency
        self.loss = loss
        self.loss_rng = rng
        return previous

    def restore(self, previous: dict) -> None:
        """Undo a :meth:`degrade` using its returned settings."""
        self.latency = previous["latency"]
        self.loss = previous["loss"]
        self.loss_rng = previous["loss_rng"]

    # ------------------------------------------------------------------
    def transmit(self, sender: LinkEndpoint, frame: Frame) -> bool:
        """Send a frame from ``sender`` toward the other end.

        Returns False if the frame was dropped (link down, queue full,
        or no peer attached).
        """
        if not self.up:
            self.frames_dropped += 1
            self._metric_dropped.inc()
            return False
        ends = self._ends
        if ends[0] is sender:
            direction, receiver = 0, ends[1]
        elif ends[1] is sender:
            direction, receiver = 1, ends[0]
        else:
            raise RuntimeError(
                f"{sender.endpoint_name} not attached to link {self.name}")
        if receiver is None:
            self.frames_dropped += 1
            self._metric_dropped.inc()
            return False
        if self.loss and self.loss_rng is not None \
                and self.loss_rng.random() < self.loss:
            self.frames_lost += 1
            self._metric_lost.inc()
            return False

        size = frame.wire_size()
        sim = self.sim
        now = sim.now
        busy_until = self._busy_until
        queued_bytes = self._queued_bytes
        busy = busy_until[direction]
        if busy <= now:
            # The transmitter has drained: reset queue accounting.
            busy = now
            queued = 0
        else:
            queued = queued_bytes[direction]

        if queued + size > self.queue_bytes:
            # A refused frame still leaves the drained state behind.
            busy_until[direction] = busy
            queued_bytes[direction] = queued
            self.frames_dropped += 1
            self._metric_dropped.inc()
            return False

        # Serialization, then propagation: the event digests see these
        # floats, so the order of the two additions is fixed.
        busy += size / self.bandwidth
        busy_until[direction] = busy
        queued_bytes[direction] = queued + size

        for tap in self._taps:
            tap(frame, self, now)

        self.frames_sent += 1
        self._metric_sent.inc(1, now)
        self._metric_bytes.inc(size, now)
        sim.post_at(busy + self.latency, self._deliver, receiver, frame,
                    direction, size)
        return True

    def _deliver(self, receiver: LinkEndpoint, frame: Frame,
                 direction: int, size: int) -> None:
        queued = self._queued_bytes[direction] - size
        self._queued_bytes[direction] = queued if queued > 0 else 0
        if self.up:
            receiver.on_frame(frame, self)

    def __repr__(self) -> str:
        a = self._ends[0].endpoint_name if self._ends[0] else "-"
        b = self._ends[1].endpoint_name if self._ends[1] else "-"
        return f"Link({self.name}: {a} <-> {b}, up={self.up})"
