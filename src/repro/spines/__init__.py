"""Spines intrusion-tolerant overlay network (simulation).

Reproduces the properties of the Spines overlay that the deployment
relied on: hop-by-hop authenticated/encrypted daemon links, client
sessions, reliable delivery, and an intrusion-tolerant dissemination
mode in which every message travels a source-signed route set — K = f +
1 node-disjoint paths through every segment between a pair's
separators for a unicast, their union over a port's group members for
a multicast, every edge (constrained flooding) only where the link-state
view cannot do better — with per-source fairness.
"""

from repro.spines.daemon import SpinesDaemon, SpinesSession
from repro.spines.messages import (
    AckBody, BEST_EFFORT, IT_FLOOD, LinkEnvelope, OverlayAddress,
    OverlayMessage, RELIABLE, SERVICES, SessionStats,
)
from repro.spines.overlay import SpinesNetwork

__all__ = [
    "SpinesDaemon", "SpinesSession", "SpinesNetwork",
    "AckBody", "BEST_EFFORT", "IT_FLOOD", "LinkEnvelope", "OverlayAddress",
    "OverlayMessage", "RELIABLE", "SERVICES", "SessionStats",
]
