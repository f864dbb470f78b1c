"""Spines overlay daemon.

One daemon runs per participating host.  Daemons authenticate every
hop-by-hop transmission under the overlay network's symmetric key, so a
process without the key — the red team's recompiled daemon — cannot
join or disrupt the overlay.

In intrusion-tolerant mode there is one dissemination rule: *a message
carries a source-signed route set, and a daemon forwards it on every
edge of that set that leaves it, except the one it arrived on*
(:meth:`SpinesDaemon._forward`).  The source picks the set from its
network's link-state view (:meth:`SpinesNetwork.route_set
<repro.spines.overlay.SpinesNetwork.route_set>`): for a unicast, K = f
+ 1 node-disjoint paths through every segment between the pair's
separators, so f compromised forwarders off the separators cannot cut
every copy; for a multicast ``("*", port)``, the union of those sets to
the port's group members — the running daemons with a session on it,
which is why opening or closing a session, like stopping or starting a
daemon, starts a new epoch of the view.  *All edges* — constrained
flooding — is left to what the view cannot do better: a destination it
does not contain (such as the red team's own daemon), a daemon with no
network at all, a segment other than a single edge with fewer than K
disjoint paths, and every RELIABLE retransmission.
Relays verify the hop MAC and the source signature (which covers the
payload's digest, the payload's own signature and the route set), drop
copies that arrive off the set, dedup on ``(src_daemon, seq)`` against
a bounded per-source window whose low-water mark refuses replays, and
charge the source's fairness budget (token buckets), bounding the
damage a *keyed but malicious* member can do to other flows; the
destination delivers the first valid copy.  A relay finds where a set
leads from it with one lookup in the set's own successor table.

The daemon exposes a client session API used by Prime replicas, the
SCADA proxies, and the HMI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto.auth import (
    mac_payload, sign_payload, verify_mac, verify_signature,
)
from repro.net.host import Host
from repro.sim.process import Process
from repro.spines.messages import (
    AckBody, BEST_EFFORT, IT_FLOOD, LinkEnvelope, OverlayAddress,
    OverlayMessage, RELIABLE, RouteSet, SessionStats,
)

RELIABLE_TIMEOUT = 0.2
RELIABLE_MAX_RETRIES = 5
# Seqs a daemon remembers per source (see _SeqWindow): at least 8x the
# largest arrival lag on the shipped worlds (81 seqs, single_plant).
FLOOD_CACHE_LIMIT = 1024
PROCESSING_DELAY = 0.00005

# Per-source fairness: messages a daemon will forward for one source
# daemon within one fairness window.
FAIRNESS_WINDOW = 0.1
FAIRNESS_BUDGET = 2048


@dataclass
class _ReliableState:
    message: OverlayMessage
    retries: int = 0
    timer: Any = None


class _SeqWindow(dict):
    """What a daemon has seen of one source daemon's seqs: the newest
    ``FLOOD_CACHE_LIMIT`` of them (seq -> value), and ``floor``, the
    highest seq evicted.  Every seq at or below the floor counts as
    seen, so the state stays bounded and an old, correctly signed
    message cannot be replayed past the bound."""

    __slots__ = ("floor",)

    def __init__(self):
        super().__init__()
        self.floor = 0

    def add(self, seq: int, value: Any) -> None:
        self[seq] = value
        if len(self) > FLOOD_CACHE_LIMIT:
            evicted = next(iter(self))
            del self[evicted]
            if evicted > self.floor:
                self.floor = evicted


class SpinesSession:
    """A client endpoint attached to a daemon at a given port."""

    def __init__(self, daemon: "SpinesDaemon", port: int,
                 handler: Callable[[OverlayAddress, Any], None]):
        self.daemon = daemon
        self.port = port
        self.handler = handler
        self.stats = SessionStats()
        self.closed = False

    @property
    def address(self) -> OverlayAddress:
        return (self.daemon.name, self.port)

    def send(self, dst: OverlayAddress, payload: Any,
             service: str = RELIABLE) -> bool:
        if self.closed or not self.daemon.running:
            return False
        self.stats.sent += 1
        return self.daemon.originate(self, dst, payload, service)

    def close(self) -> None:
        self.closed = True
        if self.daemon.sessions.get(self.port) is self:
            del self.daemon.sessions[self.port]
            self.daemon._view_changed()      # it leaves the port's group


class SpinesDaemon(Process):
    """One overlay daemon bound to a UDP port on its host.

    Args:
        sim: simulation kernel.
        name: overlay node name (unique within the overlay).
        host: host machine this daemon runs on.
        port: UDP port for daemon-to-daemon traffic.
        network_key_id: symmetric key id authenticating this overlay.
        intrusion_tolerant: select IT (source-signed route sets) or
            routed operation for client data.

    ``network`` is the :class:`~repro.spines.overlay.SpinesNetwork` the
    daemon was added to — its link-state view — or ``None`` for a
    daemon started outside any (the red team's own build), which can
    only flood to the neighbours it was told about.
    """

    def __init__(self, sim, name: str, host: Host, port: int,
                 network_key_id: str, intrusion_tolerant: bool = True):
        super().__init__(sim, name)
        self.host = host
        self.port = port
        self.network_key_id = network_key_id
        self.intrusion_tolerant = intrusion_tolerant
        self.network = None
        self.neighbors: Dict[str, Tuple[str, int]] = {}   # name -> (ip, port)
        self.sessions: Dict[int, SpinesSession] = {}
        self._seq = 0
        # src daemon -> seq -> digest of the signed view first seen
        self._flood_seen: Dict[str, _SeqWindow] = {}
        self._reliable_pending: Dict[Tuple[str, int], _ReliableState] = {}
        # src daemon -> reliable seqs delivered here
        self._delivered_reliable: Dict[str, _SeqWindow] = {}
        # Per-source fairness accounting (window start, count).
        self._fairness: Dict[str, List[float]] = {}
        self.stats_forwarded = 0
        self.stats_dropped_auth = 0
        self.stats_dropped_fairness = 0
        self.stats_dropped_sig = 0
        self.stats_dropped_off_route = 0
        self.stats_dropped_stale = 0
        metrics = sim.metrics
        self._metric_forwarded = metrics.counter("spines.forwarded",
                                                 component=name)
        self._metric_delivered = metrics.counter("spines.delivered",
                                                 component=name)
        self._metric_dropped = metrics.counter("spines.dropped",
                                               component=name)
        self._metric_latency = metrics.histogram("spines.delivery_latency",
                                                 component=name)
        self._metric_hops = metrics.histogram("spines.delivery_hops",
                                              component=name)
        # Red-team hooks (see repro.redteam.attacks): a "patched" daemon
        # carries attacker code that only runs outside IT mode.
        self.patched_exploit: Optional[Callable[["SpinesDaemon", OverlayMessage], None]] = None
        host.udp_bind(port, self._udp_in)
        host.register_app(f"spines:{name}", self)

    # ------------------------------------------------------------------
    # Topology management (driven by SpinesNetwork)
    # ------------------------------------------------------------------
    def add_neighbor(self, name: str, ip: str, port: int) -> None:
        self.neighbors[name] = (ip, port)

    def remove_neighbor(self, name: str) -> None:
        self.neighbors.pop(name, None)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def create_session(self, port: int,
                       handler: Callable[[OverlayAddress, Any], None]) -> SpinesSession:
        if port in self.sessions:
            raise RuntimeError(f"{self.name}: session port {port} in use")
        session = SpinesSession(self, port, handler)
        self.sessions[port] = session
        self._view_changed()                 # it joins the port's group
        return session

    def originate(self, session: SpinesSession, dst: OverlayAddress,
                  payload: Any, service: str) -> bool:
        if dst[0] == "*" and service == RELIABLE:
            raise ValueError("overlay multicast does not support RELIABLE; "
                             "use IT_FLOOD")
        self._seq += 1
        message = OverlayMessage(
            src=session.address, dst=dst, service=service, payload=payload,
            seq=self._seq, src_daemon=self.name, sent_at=self.now,
            routes=self._route_set(dst),
        )
        if service == IT_FLOOD or (self.intrusion_tolerant and service == RELIABLE):
            # In IT mode all client data is source-signed.  Signing the
            # message object populates the encode-once cache every
            # forwarding daemon's verification then hits.
            message.signature = sign_payload(
                self.host.key_ring, self.name, message)
        if service == RELIABLE:
            state = _ReliableState(message=message)
            key = (self.name, message.seq)
            self._reliable_pending[key] = state
            state.timer = self.call_later(
                RELIABLE_TIMEOUT, self._reliable_retry, key)
        self._dispatch(message)
        return True

    # ------------------------------------------------------------------
    # Dissemination
    # ------------------------------------------------------------------
    def _route_set(self, dst: OverlayAddress) -> Optional[RouteSet]:
        """The route set this daemon signs into a message for ``dst``
        (a daemon, or ``"*"`` and the group's port), as its network's
        view offers it — ``None``, every edge, without a network."""
        if self.network is None or not self.intrusion_tolerant:
            return None
        return self.network.route_set(self.name, dst[0], dst[1])

    def _dispatch(self, message: OverlayMessage) -> None:
        if message.dst[0] == self.name:
            self._deliver_local(message)
        elif self.intrusion_tolerant or message.dst[0] == "*":
            self._forward(message, arrived_from=None)
        else:
            self._route(message)

    def _route(self, message: OverlayMessage) -> None:
        hop = None if self.network is None else self.network.next_hop(
            self.name, message.dst[0])
        if hop is None or hop not in self.neighbors:
            session = self.sessions.get(message.src[1])
            if session is not None and message.src_daemon == self.name:
                session.stats.dropped_no_route += 1
            return
        self._send_envelope(hop, LinkEnvelope(sender=self.name, kind="data",
                                              body=message), self.now)

    def _forward(self, message: OverlayMessage,
                 arrived_from: Optional[str]) -> None:
        """The dissemination rule: deliver the first copy if it is for
        this daemon, and send it on along every edge of its route set
        that leaves here, except the one it arrived on."""
        seen = self._flood_seen.get(message.src_daemon)
        if seen is None:
            seen = self._flood_seen[message.src_daemon] = _SeqWindow()
        digest = message.view_digest()
        first = seen.get(message.seq)
        if first is not None:
            if first != digest:
                # Two bodies under one (src_daemon, seq): only the
                # source's own key can sign that.
                self.metrics.counter("spines.equivocation_seen",
                                     component=self.name).inc()
            return
        if message.seq <= seen.floor:
            # Evicted long ago, or never seen and older than anything
            # kept: a replay either way.
            self.stats_dropped_stale += 1
            self._metric_dropped.inc()
            return
        seen.add(message.seq, digest)
        if message.dst[0] in ("*", self.name):
            # Multicast delivers wherever it arrives, the source
            # included; a relay outside the group has no session for it.
            self._deliver_local(message)
        if not self._fairness_admit(message.src_daemon):
            self.stats_dropped_fairness += 1
            self._metric_dropped.inc()
            return
        targets = (self.neighbors if message.routes is None
                   else message.successors(self.name))
        # One envelope (and one MAC) covers the whole fan-out: the MAC
        # depends on (sender, kind, body) but not on the receiving
        # neighbor, and the envelope is immutable once MACed.
        envelope = LinkEnvelope(sender=self.name, kind="data", body=message)
        now = self.now
        for neighbor in targets:
            if neighbor != arrived_from:
                self._send_envelope(neighbor, envelope, now)

    def _fairness_admit(self, src_daemon: str) -> bool:
        """Token-bucket fairness per source daemon."""
        window = self._fairness.get(src_daemon)
        now = self.now
        if window is None or now - window[0] >= FAIRNESS_WINDOW:
            self._fairness[src_daemon] = [now, 1]
            return True
        if window[1] >= FAIRNESS_BUDGET:
            return False
        window[1] += 1
        return True

    def _send_envelope(self, neighbor: str, envelope: LinkEnvelope,
                       now: float) -> None:
        """Send to one neighbor; ``now`` is the caller's clock reading
        (one read covers a whole fan-out) and stamps the counter."""
        target = self.neighbors.get(neighbor)
        if target is None:
            return
        if envelope.mac is None:
            envelope.mac = mac_payload(self.host.key_ring,
                                       self.network_key_id, envelope)
        ip, port = target
        self.host.udp_send(ip, port, envelope, src_port=self.port)
        self.stats_forwarded += 1
        self._metric_forwarded.inc(1, now)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _udp_in(self, src_ip: str, src_port: int, payload: Any) -> None:
        if not self.running:
            return
        if not isinstance(payload, LinkEnvelope):
            self.stats_dropped_auth += 1
            self._metric_dropped.inc()
            return
        if payload.mac is None or not verify_mac(
                self.host.key_ring, payload.mac, payload):
            # Unauthenticated daemon-to-daemon traffic: the modified
            # daemon without keys, or an injected/tampered frame.
            self.stats_dropped_auth += 1
            self._metric_dropped.inc()
            self.log("spines.auth", "dropped unauthenticated envelope",
                     from_ip=src_ip)
            return
        self.sim.post(PROCESSING_DELAY, self._envelope_in_deferred, payload)

    def _envelope_in_deferred(self, envelope: LinkEnvelope) -> None:
        # post() fast path: a fire-time liveness guard replaces
        # call_later's per-event cancellation tracking (one envelope per
        # received packet — the hottest schedule site after frames).
        if self._running:
            self._envelope_in(envelope)

    def _envelope_in(self, envelope: LinkEnvelope) -> None:
        if envelope.kind == "ack" and isinstance(envelope.body, AckBody):
            self._ack_in(envelope.body)
            return
        if not isinstance(envelope.body, OverlayMessage):
            return
        message = envelope.body
        message.hop_count += 1
        if self.intrusion_tolerant:
            if message.signature is None or not verify_signature(
                    self.host.key_ring, message.signature, message):
                self.stats_dropped_sig += 1
                self._metric_dropped.inc()
                return
            # NOTE: self.patched_exploit is intentionally NOT invoked
            # here — the vulnerable code path the red team patched lives
            # in the routed (non-IT) mode and is disabled when the
            # daemon runs intrusion-tolerant (Section IV-B).
            if (message.routes is not None and self.name
                    not in message.successors(envelope.sender)):
                # A copy on an edge the source did not sign for.
                self.stats_dropped_off_route += 1
                self._metric_dropped.inc()
                return
            self._forward(message, arrived_from=envelope.sender)
        else:
            # Routed mode: the attacker-patched code path is live here.
            if self.patched_exploit is not None:
                self.patched_exploit(self, message)
            if message.dst[0] == self.name:
                self._deliver_local(message)
            else:
                self._route(message)

    def _deliver_local(self, message: OverlayMessage) -> None:
        if message.dst[1] == -1 and isinstance(message.payload, AckBody):
            self._ack_in(message.payload)
            return
        if message.service == RELIABLE:
            delivered = self._delivered_reliable.get(message.src_daemon)
            if delivered is None:
                delivered = self._delivered_reliable[message.src_daemon] = \
                    _SeqWindow()
            seq = message.reliable_seq()
            self._send_ack(message)
            if seq in delivered or seq <= delivered.floor:
                return
            delivered.add(seq, True)
        session = self.sessions.get(message.dst[1])
        if session is None or session.closed:
            return
        session.stats.delivered += 1
        self._metric_delivered.inc()
        if message.src_daemon != self.name:
            # Remote deliveries: latency from origination, flood hops,
            # and — for traced payloads — an overlay hop span.
            self._metric_latency.observe(self.now - message.sent_at)
            self._metric_hops.observe(message.hop_count)
            trace = getattr(message.payload, "trace", None)
            if trace is None and isinstance(message.payload, dict):
                trace = message.payload.get("trace")
            if trace is not None:
                self.tracer.record("overlay.deliver", component=self.name,
                                   parent=trace, start=message.sent_at,
                                   src=message.src_daemon,
                                   hops=message.hop_count)
        session.handler(message.src, message.payload)

    # ------------------------------------------------------------------
    # Reliable service: end-to-end acks
    # ------------------------------------------------------------------
    def _send_ack(self, message: OverlayMessage) -> None:
        ack = AckBody(src_daemon=message.src_daemon,
                      seq=message.reliable_seq())
        if message.src_daemon == self.name:
            self._ack_in(ack)
            return
        if self.intrusion_tolerant:
            # Acks travel as a tiny overlay message to the source.
            self._seq += 1
            wrapper = OverlayMessage(
                src=(self.name, 0), dst=(message.src_daemon, -1),
                service=BEST_EFFORT, payload=ack, seq=self._seq,
                src_daemon=self.name,
                routes=self._route_set((message.src_daemon, -1)),
                )
            wrapper.signature = sign_payload(
                self.host.key_ring, self.name, wrapper)
            self._forward(wrapper, arrived_from=None)
        elif self.network is not None:
            hop = self.network.next_hop(self.name, message.src_daemon)
            if hop is not None:
                self._send_envelope(hop, LinkEnvelope(sender=self.name,
                                                      kind="ack", body=ack),
                                    self.now)

    def _ack_in(self, ack: AckBody) -> None:
        state = self._reliable_pending.pop((ack.src_daemon, ack.seq), None)
        if state is not None:
            if state.timer is not None:
                state.timer.cancel()
            session = self.sessions.get(state.message.src[1])
            if session is not None:
                session.stats.acked += 1

    def _reliable_retry(self, key: Tuple[str, int]) -> None:
        state = self._reliable_pending.get(key)
        if state is None:
            return
        if state.retries >= RELIABLE_MAX_RETRIES:
            del self._reliable_pending[key]
            return
        state.retries += 1
        session = self.sessions.get(state.message.src[1])
        if session is not None:
            session.stats.retransmissions += 1
        # A retransmission takes every edge: whatever swallowed the
        # first copies may sit on all K of its paths.  Its own sequence
        # number gets it past the forwarding dedup of daemons that saw
        # an earlier copy; delivery dedups on the one it repeats.
        self._seq += 1
        retry = replace(state.message, seq=self._seq, repeats=key[1],
                        routes=None, hop_count=0)
        if retry.signature is not None:
            retry.signature = sign_payload(self.host.key_ring, self.name,
                                           retry)
        self._dispatch(retry)
        state.timer = self.call_later(
            RELIABLE_TIMEOUT * (state.retries + 1), self._reliable_retry, key)

    def _deliver_ack_wrapper(self, src: OverlayAddress, payload: Any) -> None:
        if isinstance(payload, AckBody):
            self._ack_in(payload)

    # ------------------------------------------------------------------
    # Lifecycle (red-team/recovery actions)
    # ------------------------------------------------------------------
    def stop_daemon(self) -> None:
        """Stop the daemon (e.g. the red team killing the process).
        Its neighbours' link-state view loses it."""
        self.log("spines.lifecycle", "daemon stopped")
        self.host.udp_unbind(self.port)
        self.shutdown()
        self._view_changed()

    def start_daemon(self) -> None:
        """Restart a previously stopped daemon."""
        self.restart()
        self.host.udp_bind(self.port, self._udp_in)
        self._flood_seen.clear()
        self.log("spines.lifecycle", "daemon restarted")
        self._view_changed()

    def _view_changed(self) -> None:
        """The one lifecycle path into the link-state view: stop, start
        and session open/close start a new epoch of this daemon's
        network (its topology, or a port's group membership)."""
        if self.network is not None:
            self.network.recompute_routes()
