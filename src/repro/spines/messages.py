"""Spines overlay message formats and service types.

Spines offers its clients several dissemination services; the two that
matter for Spire are:

* ``RELIABLE`` — routed point-to-point delivery with end-to-end
  acknowledgment and retransmission (used for ordinary traffic).
* ``IT_FLOOD`` — the intrusion-tolerant mode: source-signed,
  per-source-sequenced messages disseminated by authenticated flooding
  with per-source fairness, so no single compromised daemon can block
  or starve communication between correct daemons (Obenshain et al.,
  ICDCS 2016).

``BEST_EFFORT`` is included for completeness (monitoring traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.crypto.auth import Mac, Signature
from repro.crypto.serialize import (
    Canonical, FrozenViewMixin, cache_enabled, canonical_bytes,
)
from repro.net.packet import payload_size

BEST_EFFORT = "best-effort"
RELIABLE = "reliable"
IT_FLOOD = "it-flood"

SERVICES = (BEST_EFFORT, RELIABLE, IT_FLOOD)

OVERLAY_HEADER = 40

# An overlay address: (daemon name, client port).
OverlayAddress = Tuple[str, int]


@dataclass
class OverlayMessage(FrozenViewMixin):
    """One client message traveling through the overlay.

    The source-signed fields (``signed_view``) are frozen at
    origination; mutable transit bookkeeping (``hop_count``, the
    attached signature) is excluded from the view, so the encode-once
    cache stays valid while the message floods.
    """

    src: OverlayAddress
    dst: OverlayAddress
    service: str
    payload: Any
    seq: int                       # per-source-daemon sequence number
    src_daemon: str
    signature: Optional[Signature] = None   # IT_FLOOD source signature
    hop_count: int = 0
    sent_at: float = 0.0           # origination time (telemetry only)

    def wire_size(self) -> int:
        # The payload is frozen at origination, so its recursive size is
        # computed once per message rather than per link transmission.
        if not cache_enabled():
            return OVERLAY_HEADER + payload_size(self.payload)
        cached = self.__dict__.get("_wire_size")
        if cached is None:
            cached = OVERLAY_HEADER + payload_size(self.payload)
            self.__dict__["_wire_size"] = cached
        return cached

    def flood_key(self) -> Tuple[str, int]:
        return (self.src_daemon, self.seq)

    def link_binding(self) -> Any:
        """What a link MAC binds of this message (see
        :func:`_digest_fields`).  Every daemon of a flood wraps the same
        message object in its own envelope, so the binding is encoded
        once per message rather than once per flood step."""
        caching = cache_enabled()
        binding = self.__dict__.get("_link_binding") if caching else None
        if binding is None:
            binding = {"view": self.view_digest(),
                       "payload_id": id(self.payload)}
            if caching:
                binding = self.__dict__["_link_binding"] = Canonical(
                    canonical_bytes(binding))
        return binding

    #: The fields covered by the source signature.
    VIEW_KEYS = ("src", "dst", "service", "seq", "src_daemon")

    def view_values(self) -> tuple:
        return (list(self.src), list(self.dst), self.service, self.seq,
                self.src_daemon)


@dataclass
class LinkEnvelope(FrozenViewMixin):
    """Hop-by-hop envelope: every daemon-to-daemon transmission is
    authenticated (and in deployment, encrypted) under the overlay
    network's symmetric key.  Frames without a valid MAC are dropped on
    receipt — this is what shut out the red team's modified daemon.

    The envelope is immutable once the MAC is attached, so the MAC view
    is a frozen view: the sender encodes it once per fan-out (one
    envelope is shared by every neighbor of a flood step) and each
    receiver's ``verify_mac`` is a cached read of the same bytes.
    Tampering replaces objects (changing ``payload_id``), which forces a
    new envelope and therefore a fresh MAC that cannot validate."""

    sender: str
    kind: str                      # "data" | "ack"
    body: Any
    mac: Optional[Mac] = None

    def wire_size(self) -> int:
        if not cache_enabled():
            return 8 + payload_size(self.body)
        cached = self.__dict__.get("_wire_size")
        if cached is None:
            cached = 8 + payload_size(self.body)
            self.__dict__["_wire_size"] = cached
        return cached

    #: What the link MAC covers; the encode-once machinery (sign/verify
    #: via ``payload_bytes``) treats it as the signed view.
    VIEW_KEYS = ("sender", "kind", "body_size", "body_digest_fields")

    def view_values(self) -> tuple:
        body = self.body
        return (self.sender, self.kind, payload_size(body),
                _digest_fields(body))


def _digest_fields(body: Any) -> Any:
    """A canonicalizable projection of the envelope body.

    ``OverlayMessage`` payloads are arbitrary Python objects (Prime
    messages, Modbus frames...).  The MAC covers the routed fields
    (``src``, ``dst``, ``service``, ``seq``, ``src_daemon``) through the
    message's own ``view_digest()`` — SHA-256 over exactly those fields,
    already paid for by the source signature and cached on the message,
    so a flood step does not encode them again — plus the object
    identity of the payload via ``id``.  That is sufficient for the
    simulation because payload objects are never mutated in flight
    except through the explicit tamper APIs, which replace the object
    (changing its id) and therefore break the MAC.
    """
    if isinstance(body, OverlayMessage):
        return body.link_binding()
    if isinstance(body, dict):
        return {k: str(v) for k, v in body.items()}
    return str(body)


@dataclass
class AckBody:
    """End-to-end acknowledgment for RELIABLE service."""

    src_daemon: str
    seq: int

    def wire_size(self) -> int:
        return 16


@dataclass
class SessionStats:
    """Per-session delivery counters (exposed for tests/benchmarks)."""

    sent: int = 0
    delivered: int = 0
    acked: int = 0
    retransmissions: int = 0
    dropped_no_route: int = 0
