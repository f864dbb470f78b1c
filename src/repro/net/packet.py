"""Packet model: Ethernet frames, IP packets, UDP datagrams, TCP segments.

Layers nest by composition (``Frame.payload`` is an :class:`IpPacket`,
whose ``payload`` is a :class:`UdpDatagram` or :class:`TcpSegment`).
Each layer reports a wire size so link serialization delay and the MANA
feature extractor see realistic byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.net.addresses import ETHERTYPE_ARP, ETHERTYPE_IP, PROTO_TCP, PROTO_UDP

ETHER_HEADER = 14
IP_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20
ARP_SIZE = 28


def payload_size(payload: Any) -> int:
    """Best-effort wire size of an application payload."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    size = getattr(payload, "wire_size", None)
    if callable(size):
        return size()
    if isinstance(size, int):
        return size
    return 64  # conservative default for small control objects


@dataclass
class ArpMessage:
    """ARP request/reply body."""

    op: str                  # "request" | "reply"
    sender_mac: str
    sender_ip: str
    target_mac: str          # zero-mac on requests
    target_ip: str

    def wire_size(self) -> int:
        return ARP_SIZE


@dataclass
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: Any = None

    def wire_size(self) -> int:
        return UDP_HEADER + payload_size(self.payload)


@dataclass
class TcpSegment:
    """Simplified TCP: flags drive handshake/scan semantics; delivery is
    handled by the host's connection table (in-order, reliable)."""

    src_port: int
    dst_port: int
    flags: str = ""          # "syn" | "syn-ack" | "rst" | "fin" | "" (data)
    seq: int = 0
    payload: Any = None

    def wire_size(self) -> int:
        return TCP_HEADER + payload_size(self.payload)


@dataclass
class IpPacket:
    src_ip: str
    dst_ip: str
    proto: str               # PROTO_UDP | PROTO_TCP
    payload: Any = None
    ttl: int = 64

    def wire_size(self) -> int:
        return IP_HEADER + payload_size(self.payload)


@dataclass
class Frame:
    """Ethernet frame — the unit carried by links and switches.

    A frame and the packet, datagram and message inside it are never
    mutated once built (tampering builds new objects), so the wire size
    is worked out on first use and kept: every link the frame crosses
    and every tap that sees it reads the same int instead of recursing
    through four layers again.
    """

    src_mac: str
    dst_mac: str
    ethertype: str           # ETHERTYPE_IP | ETHERTYPE_ARP
    payload: Any = None
    _wire_size: Optional[int] = field(default=None, init=False, repr=False,
                                      compare=False)

    def wire_size(self) -> int:
        size = self._wire_size
        if size is None:
            size = self._wire_size = ETHER_HEADER + payload_size(self.payload)
        return size

    def copy(self) -> "Frame":
        """Shallow copy (for forwarding/injection); goes through
        ``__init__``, so the copy sizes itself afresh."""
        return replace(self)


def udp_frame(src_mac: str, dst_mac: str, src_ip: str, dst_ip: str,
              src_port: int, dst_port: int, payload: Any) -> Frame:
    """Convenience constructor for a full UDP frame."""
    datagram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
    packet = IpPacket(src_ip=src_ip, dst_ip=dst_ip, proto=PROTO_UDP, payload=datagram)
    return Frame(src_mac=src_mac, dst_mac=dst_mac, ethertype=ETHERTYPE_IP, payload=packet)


def describe(frame: Frame) -> str:
    """One-line human-readable summary (used in logs and debugging)."""
    if frame.ethertype == ETHERTYPE_ARP and isinstance(frame.payload, ArpMessage):
        arp = frame.payload
        return (f"ARP {arp.op} {arp.sender_ip}({arp.sender_mac}) -> {arp.target_ip}")
    if frame.ethertype == ETHERTYPE_IP and isinstance(frame.payload, IpPacket):
        pkt = frame.payload
        inner = pkt.payload
        if pkt.proto == PROTO_UDP and isinstance(inner, UdpDatagram):
            return (f"UDP {pkt.src_ip}:{inner.src_port} -> "
                    f"{pkt.dst_ip}:{inner.dst_port} ({frame.wire_size()}B)")
        if pkt.proto == PROTO_TCP and isinstance(inner, TcpSegment):
            flags = inner.flags or "data"
            return (f"TCP[{flags}] {pkt.src_ip}:{inner.src_port} -> "
                    f"{pkt.dst_ip}:{inner.dst_port} ({frame.wire_size()}B)")
        return f"IP {pkt.src_ip} -> {pkt.dst_ip} proto={pkt.proto}"
    return f"frame type={frame.ethertype} {frame.src_mac} -> {frame.dst_mac}"
