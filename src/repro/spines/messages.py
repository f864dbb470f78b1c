"""Spines overlay message formats and service types.

Spines offers its clients several dissemination services; the two that
matter for Spire are:

* ``RELIABLE`` — point-to-point delivery with end-to-end
  acknowledgment and retransmission (used for ordinary traffic).
* ``IT_FLOOD`` — the intrusion-tolerant mode: source-signed,
  per-source-sequenced messages disseminated over a source-chosen
  *route set* with per-source fairness, so no single compromised daemon
  can block, alter or starve communication between correct daemons
  (Obenshain et al., ICDCS 2016).

``BEST_EFFORT`` is included for completeness (monitoring traffic).

Route sets
----------
Every intrusion-tolerant message names, under its source signature, the
overlay edges it may travel: ``routes`` is either ``None`` — *all
edges*, i.e. constrained flooding — or K node-disjoint source →
destination paths (K = f + 1, so f compromised forwarders cannot cut
every path).  A daemon forwards a message on every edge of the set that
leaves it, except the one it arrived on, and drops a copy that reaches
it over an edge outside the set.  The signature also covers the digest
of the payload and the payload's own signature, if it carries one, so
what a destination delivers is what the source sent: a keyed forwarder
that swaps the payload, or strips a client's signature off it, produces
a message no correct daemon accepts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.auth import Mac, Signature
from repro.crypto.serialize import (
    FrozenValueMixin, FrozenViewMixin, UnserializableError, cache_enabled,
    payload_digest,
)
from repro.net.packet import payload_size

BEST_EFFORT = "best-effort"
RELIABLE = "reliable"
IT_FLOOD = "it-flood"

SERVICES = (BEST_EFFORT, RELIABLE, IT_FLOOD)

OVERLAY_HEADER = 40

# An overlay address: (daemon name, client port).
OverlayAddress = Tuple[str, int]


class RouteSet(FrozenValueMixin, tuple):
    """The overlay edges a message may travel: a tuple of paths, each
    the daemon names from the source to a destination.  ``None`` in its
    place means every overlay edge.

    A network memoises its route sets per topology epoch and every
    message between the same ends shares one, so what a daemon needs of
    a set is worked out once per set: its canonical bytes (through the
    encoder, :class:`FrozenValueMixin`) and its successor table.
    Neither is pickled; a restored set rebuilds them on first use.
    """

    def successors(self, daemon: str) -> Tuple[str, ...]:
        """Where the set leads from ``daemon``: its next hop on every
        path it lies on, each neighbour once (several at the source or
        where paths to several group members part, none at a
        destination or off the set)."""
        table = self.__dict__.get("_successors")
        if table is None:
            following: Dict[str, List[str]] = {}
            for path in self:
                for here, there in zip(path, path[1:]):
                    hops = following.setdefault(here, [])
                    if there not in hops:
                        hops.append(there)
            table = self.__dict__["_successors"] = {
                here: tuple(hops) for here, hops in following.items()}
        return table.get(daemon, ())

    def __reduce__(self):
        return (RouteSet, (tuple(self),))


@dataclass
class OverlayMessage(FrozenViewMixin):
    """One client message traveling through the overlay.

    The source-signed fields (``signed_view``) are frozen at
    origination; mutable transit bookkeeping (``hop_count``, the
    attached signature) is excluded from the view, so the encode-once
    cache stays valid while the message travels.
    """

    src: OverlayAddress
    dst: OverlayAddress
    service: str
    payload: Any
    seq: int                       # per-source-daemon sequence number
    src_daemon: str
    signature: Optional[Signature] = None   # source signature (IT mode)
    hop_count: int = 0
    sent_at: float = 0.0           # origination time (telemetry only)
    routes: Optional[RouteSet] = None       # None: every overlay edge
    repeats: Optional[int] = None  # seq this message retransmits

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

    def reliable_seq(self) -> int:
        """The sequence number the reliable service delivers and
        acknowledges under: a retransmission is a new message to
        forward (own ``seq``, own route set) that ``repeats`` an
        earlier one."""
        return self.seq if self.repeats is None else self.repeats

    def successors(self, daemon: str) -> Tuple[str, ...]:
        """:meth:`RouteSet.successors` of the message's route set (a
        hand-built message may carry its paths as a plain tuple)."""
        routes = self.routes
        if type(routes) is not RouteSet:
            routes = RouteSet(routes)
        return routes.successors(daemon)

    def link_binding(self) -> bytes:
        """What a link MAC binds of this message: the digest of the
        signed view, payload digest included — computed for the source
        signature and cached on the message, so a forwarding step does
        not encode the body again."""
        return self.view_digest()

    #: The fields covered by the source signature.
    VIEW_KEYS = ("src", "dst", "service", "seq", "src_daemon", "repeats",
                 "routes", "payload", "payload_signature")

    def view_values(self) -> tuple:
        payload = self.payload
        # A route set encodes as the list of lists it is, once per set.
        return (list(self.src), list(self.dst), self.service, self.seq,
                self.src_daemon, self.repeats, self.routes,
                _body_digest(payload), _body_signature(payload))


def _body_digest(payload: Any) -> bytes:
    """SHA-256 of the payload's canonical encoding (its signed view for
    a protocol message: encoded once, shared with the payload's own
    signature), or of its ``repr`` for the few payload types outside
    the canonical value space."""
    try:
        return payload_digest(payload)
    except UnserializableError:
        return hashlib.sha256(repr(payload).encode()).digest()


def _body_signature(payload: Any) -> Any:
    """The payload's own signature (a client's on its ``ClientUpdate``,
    a replica's on its ``SignedPrimeMessage``), which the payload's view
    excludes: signed next to the view's digest, so a forwarder cannot
    strip or replace it.  Anything but a :class:`Signature` in its place
    is bound by its ``repr``."""
    signature = getattr(payload, "signature", None)
    if signature is None or type(signature) is Signature:
        return signature
    return repr(signature)


@dataclass
class LinkEnvelope(FrozenViewMixin):
    """Hop-by-hop envelope: every daemon-to-daemon transmission is
    authenticated (and in deployment, encrypted) under the overlay
    network's symmetric key.  Frames without a valid MAC are dropped on
    receipt — this is what shut out the red team's modified daemon.

    The envelope is immutable once the MAC is attached, so the MAC view
    is a frozen view: the sender encodes it once per fan-out (one
    envelope is shared by every neighbor of a flood step) and each
    receiver's ``verify_mac`` is a cached read of the same bytes."""

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
    messages, Modbus frames...).  The MAC covers the message through
    its ``link_binding()``: SHA-256 over the source-signed view —
    addresses, sequence, route set and the payload's digest — so
    nothing about the binding depends on where an object lives in
    memory, and an envelope that crossed a snapshot verifies like any
    other.
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
