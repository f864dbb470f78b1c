"""Per-host stateless packet filter.

Reproduces the paper's host hardening: "we configured the firewall of
each machine to block all incoming and outgoing traffic other than the
specific IP address and port combinations used by our protocols".

Rules match (direction, protocol, remote ip, local port, remote port);
``None`` is a wildcard.  The default policy is configurable: Spire
hosts use default-deny; the commercial/ablation hosts default-allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

INBOUND = "in"
OUTBOUND = "out"

#: Flows a firewall remembers a verdict for; the memo is cleared when
#: full, so a 65 535-port scan cannot grow it without limit.
VERDICT_MEMO_SIZE = 4096


@dataclass(frozen=True)
class FirewallRule:
    """A single allow/deny rule (first match wins)."""

    action: str                       # "allow" | "deny"
    direction: str                    # INBOUND | OUTBOUND
    proto: Optional[str] = None       # "udp" | "tcp" | None (any)
    remote_ip: Optional[str] = None
    local_port: Optional[int] = None
    remote_port: Optional[int] = None

    def matches(self, direction: str, proto: str, remote_ip: str,
                local_port: int, remote_port: int) -> bool:
        if self.direction != direction:
            return False
        if self.proto is not None and self.proto != proto:
            return False
        if self.remote_ip is not None and self.remote_ip != remote_ip:
            return False
        if self.local_port is not None and self.local_port != local_port:
            return False
        if self.remote_port is not None and self.remote_port != remote_port:
            return False
        return True


class Firewall:
    """Ordered rule list with a default policy.

    A verdict depends only on the rules, the default policy and the
    five-tuple, so :meth:`check` remembers it per flow and scans the
    rules once per flow instead of once per packet.  Everything that
    can change a verdict goes through :meth:`allow`, :meth:`deny` or an
    assignment to ``rules`` / ``default_allow``, and each of those drops
    the memo; ``rules`` reads as a tuple so it cannot be edited in
    place behind it.
    """

    def __init__(self, default_allow: bool = True):
        self._verdicts: Dict[Tuple[str, str, str, int, int], bool] = {}
        self.default_allow = default_allow
        self.rules = ()
        self.packets_dropped = 0

    @property
    def rules(self) -> Tuple[FirewallRule, ...]:
        return self._rules

    @rules.setter
    def rules(self, rules: Iterable[FirewallRule]) -> None:
        self._rules = tuple(rules)
        self._verdicts.clear()

    @property
    def default_allow(self) -> bool:
        return self._default_allow

    @default_allow.setter
    def default_allow(self, default_allow: bool) -> None:
        self._default_allow = default_allow
        self._verdicts.clear()

    def allow(self, direction: str, proto: Optional[str] = None,
              remote_ip: Optional[str] = None, local_port: Optional[int] = None,
              remote_port: Optional[int] = None) -> None:
        self.rules += (FirewallRule("allow", direction, proto, remote_ip,
                                    local_port, remote_port),)

    def deny(self, direction: str, proto: Optional[str] = None,
             remote_ip: Optional[str] = None, local_port: Optional[int] = None,
             remote_port: Optional[int] = None) -> None:
        self.rules += (FirewallRule("deny", direction, proto, remote_ip,
                                    local_port, remote_port),)

    def permits(self, direction: str, proto: str, remote_ip: str,
                local_port: int, remote_port: int) -> bool:
        """First matching rule decides, else the default policy (always
        a fresh scan)."""
        for rule in self._rules:
            if rule.matches(direction, proto, remote_ip, local_port, remote_port):
                return rule.action == "allow"
        return self._default_allow

    def check(self, direction: str, proto: str, remote_ip: str,
              local_port: int, remote_port: int) -> bool:
        """Like :meth:`permits`, but counts drops (every refused packet,
        remembered verdict or not)."""
        flow = (direction, proto, remote_ip, local_port, remote_port)
        ok = self._verdicts.get(flow)
        if ok is None:
            ok = self.permits(direction, proto, remote_ip, local_port,
                              remote_port)
            if len(self._verdicts) >= VERDICT_MEMO_SIZE:
                self._verdicts.clear()
            self._verdicts[flow] = ok
        if not ok:
            self.packets_dropped += 1
        return ok


def locked_down_firewall() -> Firewall:
    """Default-deny firewall: the Section III-B posture before protocol
    allow rules are added."""
    return Firewall(default_allow=False)


def open_firewall() -> Firewall:
    """Default-allow firewall (commercial hosts / ablations)."""
    return Firewall(default_allow=True)
