"""Spines intrusion-tolerant overlay network (simulation).

Reproduces the properties of the Spines overlay that the deployment
relied on: hop-by-hop authenticated/encrypted daemon links, client
sessions, reliable delivery, and an intrusion-tolerant dissemination
mode in which every message travels a source-signed route set — K = f +
1 node-disjoint paths for a unicast, every edge (constrained flooding)
for multicast and wherever K disjoint paths are not on offer — with
per-source fairness.
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
