"""Address types and subnet helpers for the simulated network."""

from __future__ import annotations

import ipaddress
from typing import Dict

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

ETHERTYPE_IP = "ipv4"
ETHERTYPE_ARP = "arp"

PROTO_UDP = "udp"
PROTO_TCP = "tcp"


class MacAllocator:
    """Hands out unique, readable MAC addresses (``02:00:00:00:00:NN``)."""

    def __init__(self, prefix: int = 0x02):
        self._prefix = prefix
        self._next = 1

    def allocate(self) -> str:
        n = self._next
        self._next += 1
        octets = [self._prefix, 0, (n >> 24) & 0xFF, (n >> 16) & 0xFF,
                  (n >> 8) & 0xFF, n & 0xFF]
        return ":".join(f"{o:02x}" for o in octets)


#: Bound on the process-wide address memo.  A 25-substation city has a
#: few hundred addresses; scans and spoofing campaigns add a few
#: thousand more.
_IP_INT_CAP = 65536
_ip_ints: Dict[str, int] = {}


def ip_int(ip: str) -> int:
    """Integer value of a dotted-quad address, parsed once per process.

    Malformed text raises the stdlib's ``ValueError`` every time (a
    failure is never remembered).  The memo is a pure function of its
    key, lives at module level and is never pickled, so it cannot carry
    state between simulations or into a snapshot.
    """
    value = _ip_ints.get(ip)
    if value is None:
        value = int(ipaddress.IPv4Address(ip))
        if len(_ip_ints) >= _IP_INT_CAP:
            _ip_ints.clear()
        _ip_ints[ip] = value
    return value


class SubnetExhausted(RuntimeError):
    """:meth:`Subnet.allocate` has handed out every usable address."""

    def __init__(self, cidr: str):
        super().__init__(f"subnet {cidr} exhausted")
        self.cidr = cidr


class Subnet:
    """An IPv4 subnet with sequential address allocation."""

    def __init__(self, cidr: str):
        self.network = ipaddress.ip_network(cidr)
        # Membership is tested per packet: keep the network and mask as
        # ints so contains() is one AND and one compare.
        self._net = int(self.network.network_address)
        self._mask = int(self.network.netmask)
        # Plain index cursor (not a hosts() generator): generators are
        # unpicklable and would block repro.snapshot.  Allocation order
        # is identical — first usable host address upward.
        self._next_index = 1

    @property
    def cidr(self) -> str:
        return str(self.network)

    def allocate(self) -> str:
        offset = self._next_index
        if self.network.prefixlen >= 31:
            # /31 and /32 have no reserved network address.
            offset -= 1
        address = self.network.network_address + offset
        # Same exhaustion contract as iterating hosts(): stop at the
        # last usable host (the broadcast address is never handed out).
        last = self.network.broadcast_address
        if self.network.prefixlen < 31:
            last -= 1
        if address > last:
            raise SubnetExhausted(self.cidr)
        self._next_index += 1
        return str(address)

    def contains(self, ip: str) -> bool:
        return (ip_int(ip) & self._mask) == self._net


def same_subnet(ip_a: str, ip_b: str, cidr: str) -> bool:
    subnet = Subnet(cidr)
    return subnet.contains(ip_a) and subnet.contains(ip_b)
