"""Cross-shard overlay bridging.

Each shard kernel's external Spines overlay gets one
:class:`GatewayDaemon` — a stand-in for the inter-region Spines link
that, in the monolithic world, connects this kernel's daemons to the
rest of the deployment.  The gateway participates in the kernel-local
overlay like any daemon, one edge from its uplink: a message for a
daemon this kernel's link-state view does not hold, or for a multicast
group (whose members the gateway speaks for,
:attr:`~repro.spines.daemon.SpinesDaemon.speaks_for_unseen`), is signed
to travel all edges, so it reaches the gateway, and
:class:`~repro.spines.messages.OverlayMessage`
bodies that *originate* in this kernel are exported (pickled at export
time, so later local hop-count mutation is invisible) to the shard
coordinator, which delivers them to peer kernels one lookahead later.

Imported messages are forwarded under the local network key via
:meth:`import_message` — along every edge, as their source signed
them; receiving daemons verify the *origin* daemon's source signature
exactly as they would for a locally originated message,
so end-to-end authentication crosses the process boundary intact (key
material is derivable in every kernel — see
:class:`~repro.crypto.keys.KeyStore` derived mode).  Hop-by-hop
:class:`~repro.spines.messages.LinkEnvelope` MACs never cross kernels:
each kernel MACs its own hops.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Set, Tuple

from repro.spines.daemon import SpinesDaemon
from repro.spines.messages import LinkEnvelope, OverlayMessage


class GatewayDaemon(SpinesDaemon):
    """A Spines daemon that exports locally-originated flood traffic.

    Args:
        export: callback ``export(kind, message, hint)`` invoked once per
            locally-originated overlay message; ``hint`` is the
            destination daemon name (or ``"*"``) so the coordinator can
            route targeted messages to the owning kernel only.
    """

    speaks_for_unseen = True

    def __init__(self, sim, name: str, host, port: int, network_key_id: str,
                 intrusion_tolerant: bool = True,
                 export: Optional[Callable[[str, OverlayMessage, str], None]] = None):
        super().__init__(sim, name, host, port, network_key_id,
                         intrusion_tolerant=intrusion_tolerant)
        self._export = export
        self._local_sources: Set[str] = set()
        self._exported: Set[Tuple[str, int]] = set()

    def set_local_sources(self, names: Iterable[str]) -> None:
        """Daemon names built in this kernel — the flood sources whose
        messages must cross to peer kernels."""
        self._local_sources = set(names)

    # ------------------------------------------------------------------
    def _envelope_in(self, envelope: LinkEnvelope) -> None:
        body = envelope.body
        if (self._export is not None
                and isinstance(body, OverlayMessage)
                and body.src_daemon in self._local_sources):
            key = body.flood_key()
            if key not in self._exported:
                self._exported.add(key)
                self._export("overlay", body, body.dst[0])
        super()._envelope_in(envelope)

    # ------------------------------------------------------------------
    def import_message(self, message: OverlayMessage) -> None:
        """Inject a message exported by a peer kernel's gateway.

        Forwards it under this kernel's network key; ``_forward`` dedups
        by the globally-unique ``(src_daemon, seq)`` flood key, and the
        imported message's source daemon is never local to this kernel,
        so import loops cannot form (this gateway never re-exports it:
        its source is not in ``_local_sources``).
        """
        if self._running:
            self._forward(message, arrived_from=None)
