"""Simulated hosts: interfaces, ARP, firewalling, UDP/TCP endpoints.

A :class:`Host` is where every application in the reproduction runs
(Spines daemons, Prime replicas, proxies, HMIs, PLCs, attackers).  The
host implements enough of a real network stack that the red-team
attacks succeed or fail for the *mechanical* reasons the paper
describes: ARP poisoning works only against dynamic ARP tables,
spoofed frames are dropped by switch port security, port scans of a
default-deny firewall see only filtered ports, and compromising a host
yields its key ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.crypto.keys import KeyRing
from repro.net.addresses import (
    BROADCAST_MAC, ETHERTYPE_ARP, ETHERTYPE_IP, PROTO_TCP, PROTO_UDP, Subnet,
)
from repro.net.arp import ArpTable
from repro.net.firewall import Firewall, INBOUND, OUTBOUND, open_firewall
from repro.net.link import Link
from repro.net.osprofile import OsProfile, centos_minimal_latest
from repro.net.packet import (
    ETHER_HEADER, IP_HEADER, UDP_HEADER, ArpMessage, Frame, IpPacket,
    TcpSegment, UdpDatagram, describe, payload_size,
)
from repro.sim.process import Process
from repro.sim.simulator import Simulator

ARP_TIMEOUT = 1.0
PROBE_TIMEOUT = 0.5

#: Destinations a host remembers a route for; the memo is cleared when
#: full, so an address sweep cannot grow it without limit.
ROUTE_MEMO_SIZE = 4096

UdpHandler = Callable[[str, int, Any], None]


def _discard_data(conn: Any, payload: Any) -> None:
    """Data sink for OS-service connections (picklable, unlike a lambda)."""


class Interface:
    """A NIC bound to one link, with its own IP and ARP table."""

    def __init__(self, host: "Host", name: str, mac: str, ip: str, cidr: str,
                 static_arp: bool = False):
        self.host = host
        self.name = name
        self.mac = mac
        self.ip = ip
        self.subnet = Subnet(cidr)
        self.link: Optional[Link] = None
        self.arp = ArpTable(static_mode=static_arp)
        self.promiscuous = False
        # Packets parked while ARP resolution is in flight: next-hop ip
        # -> list of (packet, enqueue_time).
        self._arp_pending: Dict[str, List[Tuple[IpPacket, float]]] = {}

    @property
    def endpoint_name(self) -> str:
        return f"{self.host.name}.{self.name}"

    def attach(self, link: Link) -> None:
        if self.link is not None:
            raise RuntimeError(f"{self.endpoint_name} already attached")
        self.link = link
        link.attach(self)

    def on_frame(self, frame: Frame, link: Link) -> None:
        self.host._frame_in(self, frame)

    def send_frame(self, frame: Frame) -> bool:
        if self.link is None:
            return False
        return self.link.transmit(self, frame)

    def inject(self, frame: Frame) -> bool:
        """Raw frame injection (attacker primitive: spoofing, MITM relay)."""
        return self.send_frame(frame)


@dataclass
class _Listener:
    port: int
    on_connect: Callable[["TcpConnection"], None]
    service: Optional[str] = None


class TcpConnection:
    """One established (simplified) TCP connection endpoint.

    Delivery is in-order and reliable as long as frames are not dropped
    by links or firewalls; there is no retransmission, so under DoS a
    connection can lose data — which is realistic for the timescales
    the benchmarks measure and is surfaced via ``lost_segments``.
    """

    def __init__(self, host: "Host", iface: Interface, local_port: int,
                 remote_ip: str, remote_port: int):
        self.host = host
        self.iface = iface
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.established = False
        self.closed = False
        self.on_data: Optional[Callable[["TcpConnection", Any], None]] = None
        self.on_established: Optional[Callable[["TcpConnection"], None]] = None
        self.on_closed: Optional[Callable[["TcpConnection"], None]] = None
        self._on_failure: Optional[Callable[[str], None]] = None
        self._send_seq = 0
        self.lost_segments = 0

    @property
    def key(self) -> Tuple[str, int, str, int]:
        return (self.iface.ip, self.local_port, self.remote_ip, self.remote_port)

    def send(self, payload: Any) -> bool:
        if self.closed or not self.established:
            return False
        self._send_seq += 1
        segment = TcpSegment(src_port=self.local_port, dst_port=self.remote_port,
                             flags="", seq=self._send_seq, payload=payload)
        ok = self.host._send_ip(self.iface, self.remote_ip, PROTO_TCP, segment)
        if not ok:
            self.lost_segments += 1
        return ok

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        segment = TcpSegment(src_port=self.local_port, dst_port=self.remote_port,
                             flags="fin")
        self.host._send_ip(self.iface, self.remote_ip, PROTO_TCP, segment)
        self.host._conn_closed(self)


class Host(Process):
    """A machine on the simulated network.

    Args:
        sim: simulation kernel.
        name: host name (used in logs and as a process namespace).
        os_profile: OS posture (services + vulnerabilities); defaults to
            the hardened minimal install used by Spire components.
        firewall: packet filter; defaults to default-allow (callers that
            model Spire hosts pass a locked-down firewall).
    """

    def __init__(self, sim: Simulator, name: str,
                 os_profile: Optional[OsProfile] = None,
                 firewall: Optional[Firewall] = None):
        super().__init__(sim, name)
        self.os_profile = os_profile or centos_minimal_latest()
        self.firewall = firewall or open_firewall()
        self.interfaces: List[Interface] = []
        self._local_ips: Set[str] = set()
        # dst ip -> (interface, next hop), see _resolve().
        self._routes: Dict[str, Tuple[Optional[Interface], Optional[str]]] = {}
        # If True, any interface answers ARP requests for any local IP —
        # the default Linux behaviour the paper explicitly disabled.
        self.arp_announce_all = False
        self.ip_forwarding = False
        self._udp_handlers: Dict[int, UdpHandler] = {}
        self._tcp_listeners: Dict[int, _Listener] = {}
        self._connections: Dict[Tuple[str, int, str, int], TcpConnection] = {}
        self._ephemeral_port = 32768
        self._sniffer: Optional[Callable[[Interface, Frame], None]] = None
        self._probe_waiters: Dict[Tuple[str, int, int], Any] = {}
        self.key_ring = KeyRing()
        self.apps: Dict[str, Any] = {}
        self.compromised_level: Optional[str] = None  # None|"user"|"root"
        self._open_os_services()

    def _open_os_services(self) -> None:
        for port, service in self.os_profile.os_service_ports.items():
            self._tcp_listeners[port] = _Listener(
                port=port, on_connect=self._service_accept, service=service)

    def _service_accept(self, conn: TcpConnection) -> None:
        # OS services accept connections but run no application logic.
        conn.on_data = _discard_data

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_interface(self, name: str, mac: str, ip: str, cidr: str,
                      link: Optional[Link] = None,
                      static_arp: bool = False) -> Interface:
        iface = Interface(self, name, mac, ip, cidr, static_arp=static_arp)
        self.interfaces.append(iface)
        self._local_ips.add(ip)
        self._routes.clear()
        if link is not None:
            iface.attach(link)
        return iface

    def interface_for(self, dst_ip: str) -> Optional[Interface]:
        """Pick the interface whose subnet contains ``dst_ip``.

        Falls back to the first interface with a default gateway set —
        see :attr:`default_gateway`.
        """
        return self._resolve(dst_ip)[0]

    def _resolve(self, dst_ip: str) -> Tuple[Optional[Interface], Optional[str]]:
        """``(interface, next hop)`` toward ``dst_ip``: on-link through
        the first interface whose subnet contains it, else the default
        gateway; ``(None, None)`` with neither.

        The answer depends only on the interface list and the gateway,
        so it is remembered per destination until :meth:`add_interface`
        or :meth:`set_default_gateway` changes either (an interface's
        address and subnet are fixed at creation).  ARP is *not* part
        of it: entries age and can be poisoned, so ``_send_via`` looks
        the next hop's MAC up for every frame.
        """
        route = self._routes.get(dst_ip)
        if route is None:
            for iface in self.interfaces:
                if iface.subnet.contains(dst_ip):
                    route = (iface, dst_ip)
                    break
            else:
                route = (self._gateway_iface, self._gateway_ip)
            if len(self._routes) >= ROUTE_MEMO_SIZE:
                self._routes.clear()
            self._routes[dst_ip] = route
        return route

    def set_default_gateway(self, iface: Interface, gateway_ip: str) -> None:
        self._gateway_ip = gateway_ip
        self._gateway_iface = iface
        self._routes.clear()

    _gateway_ip: Optional[str] = None
    _gateway_iface: Optional[Interface] = None

    def local_ips(self) -> AbstractSet[str]:
        """This host's interface addresses (kept by :meth:`add_interface`)."""
        return self._local_ips

    def set_sniffer(self, fn: Optional[Callable[[Interface, Frame], None]]) -> None:
        """Install a promiscuous packet handler (attacker primitive)."""
        self._sniffer = fn
        for iface in self.interfaces:
            iface.promiscuous = fn is not None

    # ------------------------------------------------------------------
    # UDP API
    # ------------------------------------------------------------------
    def udp_bind(self, port: int, handler: UdpHandler) -> None:
        if port in self._udp_handlers:
            raise RuntimeError(f"{self.name}: UDP port {port} already bound")
        self._udp_handlers[port] = handler

    def udp_unbind(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def udp_send(self, dst_ip: str, dst_port: int, payload: Any,
                 src_port: int = 0, iface: Optional[Interface] = None,
                 spoof_src_ip: Optional[str] = None) -> bool:
        """Send a UDP datagram.  ``spoof_src_ip`` is the attacker's
        IP-spoofing primitive (honest code never sets it)."""
        if iface is None:
            iface, next_hop = self._resolve(dst_ip)
            if iface is None:
                return False
        else:
            next_hop = self._next_hop(iface, dst_ip)
        src_ip = spoof_src_ip or iface.ip
        if not self.firewall.check(OUTBOUND, PROTO_UDP, dst_ip, src_port, dst_port):
            return False
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
        packet = IpPacket(src_ip=src_ip, dst_ip=dst_ip, proto=PROTO_UDP,
                          payload=datagram)
        # The one place all three headers are known to be present: size
        # the frame here instead of recursing through the layers later.
        return self._send_via(
            iface, next_hop, packet,
            ETHER_HEADER + IP_HEADER + UDP_HEADER + payload_size(payload))

    # ------------------------------------------------------------------
    # TCP API (simplified)
    # ------------------------------------------------------------------
    def tcp_listen(self, port: int,
                   on_connect: Callable[[TcpConnection], None]) -> None:
        if port in self._tcp_listeners:
            raise RuntimeError(f"{self.name}: TCP port {port} already listening")
        self._tcp_listeners[port] = _Listener(port=port, on_connect=on_connect)

    def tcp_close_listener(self, port: int) -> None:
        self._tcp_listeners.pop(port, None)

    def listening_ports(self) -> List[int]:
        return sorted(self._tcp_listeners)

    def tcp_connect(self, dst_ip: str, dst_port: int,
                    on_established: Callable[[TcpConnection], None],
                    on_data: Optional[Callable[[TcpConnection, Any], None]] = None,
                    on_failure: Optional[Callable[[str], None]] = None) -> Optional[TcpConnection]:
        iface = self.interface_for(dst_ip)
        if iface is None:
            if on_failure:
                on_failure("no-route")
            return None
        local_port = self._alloc_port()
        conn = TcpConnection(self, iface, local_port, dst_ip, dst_port)
        conn.on_established = on_established
        conn.on_data = on_data
        conn._on_failure = on_failure
        self._connections[conn.key] = conn
        if not self.firewall.check(OUTBOUND, PROTO_TCP, dst_ip, local_port, dst_port):
            del self._connections[conn.key]
            if on_failure:
                on_failure("firewall")
            return None
        syn = TcpSegment(src_port=local_port, dst_port=dst_port, flags="syn")
        self._send_ip(iface, dst_ip, PROTO_TCP, syn)
        # Connection attempt timeout.
        self.call_later(PROBE_TIMEOUT * 4, self._connect_timeout, conn, on_failure)
        return conn

    def _connect_timeout(self, conn: TcpConnection, on_failure) -> None:
        if not conn.established and not conn.closed:
            conn.closed = True
            self._connections.pop(conn.key, None)
            if on_failure:
                on_failure("timeout")

    def tcp_probe(self, dst_ip: str, dst_port: int,
                  callback: Callable[[str], None]) -> None:
        """SYN-probe a port; callback gets "open" | "closed" | "filtered"."""
        iface = self.interface_for(dst_ip)
        if iface is None:
            callback("unreachable")
            return
        local_port = self._alloc_port()
        key = (dst_ip, dst_port, local_port)
        timeout_event = self.call_later(
            PROBE_TIMEOUT, self._probe_result, key, "filtered", callback)
        self._probe_waiters[key] = (callback, timeout_event)
        syn = TcpSegment(src_port=local_port, dst_port=dst_port, flags="syn")
        self._send_ip(iface, dst_ip, PROTO_TCP, syn)

    def _probe_result(self, key, status: str, callback) -> None:
        waiter = self._probe_waiters.pop(key, None)
        if waiter is None:
            return
        cb, timeout_event = waiter
        timeout_event.cancel()
        cb(status)

    def _alloc_port(self) -> int:
        self._ephemeral_port += 1
        if self._ephemeral_port > 60999:
            self._ephemeral_port = 32769
        return self._ephemeral_port

    def _conn_closed(self, conn: TcpConnection) -> None:
        self._connections.pop(conn.key, None)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _send_ip(self, iface: Interface, dst_ip: str, proto: str,
                 payload: Any) -> bool:
        packet = IpPacket(src_ip=iface.ip, dst_ip=dst_ip, proto=proto,
                          payload=payload)
        return self._route_out(iface, packet)

    def _next_hop(self, iface: Interface, dst_ip: str) -> Optional[str]:
        """Next hop for ``dst_ip`` out of a given interface, if any."""
        if iface.subnet.contains(dst_ip):
            return dst_ip
        if self._gateway_ip is not None and iface is self._gateway_iface:
            return self._gateway_ip
        return None

    def _route_out(self, iface: Interface, packet: IpPacket) -> bool:
        return self._send_via(iface, self._next_hop(iface, packet.dst_ip),
                              packet)

    def _send_via(self, iface: Interface, next_hop: Optional[str],
                  packet: IpPacket, wire_size: Optional[int] = None) -> bool:
        """Frame ``packet`` toward ``next_hop``.  ``wire_size`` is the
        frame's size when the caller already knows it; a packet parked
        for ARP, like every other frame, is sized on first use."""
        if next_hop is None:
            return False
        mac = iface.arp.lookup(next_hop, self.sim.now)
        if mac is None:
            if iface.arp.static_mode:
                # Static ARP with no entry: destination unreachable.
                return False
            self._arp_resolve(iface, next_hop, packet)
            return True
        frame = Frame(src_mac=iface.mac, dst_mac=mac,
                      ethertype=ETHERTYPE_IP, payload=packet)
        frame._wire_size = wire_size
        return iface.send_frame(frame)

    def _arp_resolve(self, iface: Interface, next_hop: str, packet: IpPacket) -> None:
        pending = iface._arp_pending.setdefault(next_hop, [])
        pending.append((packet, self.now))
        if len(pending) > 1:
            return  # request already in flight
        request = ArpMessage(op="request", sender_mac=iface.mac,
                             sender_ip=iface.ip, target_mac="00:00:00:00:00:00",
                             target_ip=next_hop)
        frame = Frame(src_mac=iface.mac, dst_mac=BROADCAST_MAC,
                      ethertype=ETHERTYPE_ARP, payload=request)
        iface.send_frame(frame)
        self.call_later(ARP_TIMEOUT, self._arp_expire, iface, next_hop)

    def _arp_expire(self, iface: Interface, next_hop: str) -> None:
        iface._arp_pending.pop(next_hop, None)

    def _arp_flush(self, iface: Interface, ip: str, mac: str) -> None:
        for packet, _t in iface._arp_pending.pop(ip, []):
            frame = Frame(src_mac=iface.mac, dst_mac=mac,
                          ethertype=ETHERTYPE_IP, payload=packet)
            iface.send_frame(frame)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _frame_in(self, iface: Interface, frame: Frame) -> None:
        if not self.running:
            return
        addressed_to_us = frame.dst_mac in (iface.mac, BROADCAST_MAC)
        if iface.promiscuous and self._sniffer is not None:
            self._sniffer(iface, frame)
        if not addressed_to_us:
            return
        if frame.ethertype == ETHERTYPE_ARP and isinstance(frame.payload, ArpMessage):
            self._arp_in(iface, frame.payload)
        elif frame.ethertype == ETHERTYPE_IP and isinstance(frame.payload, IpPacket):
            self._ip_in(iface, frame.payload)

    def _arp_in(self, iface: Interface, arp: ArpMessage) -> None:
        changed = iface.arp.learn(arp.sender_ip, arp.sender_mac, self.now)
        if changed and iface.arp.poisoned_updates:
            self.log("net.arp", "ARP mapping changed",
                     ip=arp.sender_ip, mac=arp.sender_mac)
        if arp.op == "request":
            answers_for = ([i.ip for i in self.interfaces]
                           if self.arp_announce_all else [iface.ip])
            if arp.target_ip in answers_for:
                reply = ArpMessage(op="reply", sender_mac=iface.mac,
                                   sender_ip=arp.target_ip,
                                   target_mac=arp.sender_mac,
                                   target_ip=arp.sender_ip)
                frame = Frame(src_mac=iface.mac, dst_mac=arp.sender_mac,
                              ethertype=ETHERTYPE_ARP, payload=reply)
                iface.send_frame(frame)
        elif arp.op == "reply":
            mac = iface.arp.lookup(arp.sender_ip, self.now)
            if mac is not None:
                self._arp_flush(iface, arp.sender_ip, mac)

    def _ip_in(self, iface: Interface, packet: IpPacket) -> None:
        if packet.dst_ip in self._local_ips:
            self._local_deliver(iface, packet)
        elif self.ip_forwarding:
            self._forward(iface, packet)

    def _forward(self, iface: Interface, packet: IpPacket) -> None:
        """Router behaviour — overridden by :class:`repro.net.router.Router`."""

    def _local_deliver(self, iface: Interface, packet: IpPacket) -> None:
        if packet.proto == PROTO_UDP and isinstance(packet.payload, UdpDatagram):
            datagram = packet.payload
            if not self.firewall.check(INBOUND, PROTO_UDP, packet.src_ip,
                                       datagram.dst_port, datagram.src_port):
                return
            handler = self._udp_handlers.get(datagram.dst_port)
            if handler is not None:
                handler(packet.src_ip, datagram.src_port, datagram.payload)
        elif packet.proto == PROTO_TCP and isinstance(packet.payload, TcpSegment):
            self._tcp_in(iface, packet.src_ip, packet.payload)

    def _tcp_in(self, iface: Interface, src_ip: str, segment: TcpSegment) -> None:
        if not self.firewall.check(INBOUND, PROTO_TCP, src_ip,
                                   segment.dst_port, segment.src_port):
            return  # dropped silently -> prober sees "filtered"
        key = (iface.ip, segment.dst_port, src_ip, segment.src_port)
        if segment.flags == "syn":
            listener = self._tcp_listeners.get(segment.dst_port)
            if listener is None:
                rst = TcpSegment(src_port=segment.dst_port,
                                 dst_port=segment.src_port, flags="rst")
                self._send_ip(iface, src_ip, PROTO_TCP, rst)
                return
            conn = TcpConnection(self, iface, segment.dst_port, src_ip,
                                 segment.src_port)
            conn.established = True
            self._connections[key] = conn
            synack = TcpSegment(src_port=segment.dst_port,
                                dst_port=segment.src_port, flags="syn-ack")
            self._send_ip(iface, src_ip, PROTO_TCP, synack)
            listener.on_connect(conn)
            return
        if segment.flags == "syn-ack":
            probe_key = (src_ip, segment.src_port, segment.dst_port)
            if probe_key in self._probe_waiters:
                self._probe_result(probe_key, "open", None)
                rst = TcpSegment(src_port=segment.dst_port,
                                 dst_port=segment.src_port, flags="rst")
                self._send_ip(iface, src_ip, PROTO_TCP, rst)
                return
            conn = self._connections.get(key)
            if conn is not None and not conn.established:
                conn.established = True
                if conn.on_established:
                    conn.on_established(conn)
            return
        if segment.flags == "rst":
            probe_key = (src_ip, segment.src_port, segment.dst_port)
            if probe_key in self._probe_waiters:
                self._probe_result(probe_key, "closed", None)
                return
            conn = self._connections.pop(key, None)
            if conn is not None:
                was_pending = not conn.established
                conn.closed = True
                if was_pending and getattr(conn, "_on_failure", None):
                    conn._on_failure("refused")
                elif conn.on_closed:
                    conn.on_closed(conn)
            return
        if segment.flags == "fin":
            conn = self._connections.pop(key, None)
            if conn is not None:
                conn.closed = True
                if conn.on_closed:
                    conn.on_closed(conn)
            return
        conn = self._connections.get(key)
        if conn is not None and conn.established and conn.on_data is not None:
            conn.on_data(conn, segment.payload)

    # ------------------------------------------------------------------
    # Application registry & compromise surface
    # ------------------------------------------------------------------
    def register_app(self, name: str, app: Any) -> None:
        self.apps[name] = app

    def compromise(self, level: str) -> KeyRing:
        """Mark the host compromised at ``level`` ("user" or "root") and
        return a copy of its key material (the attacker's loot)."""
        order = {"user": 0, "root": 1}
        if self.compromised_level is None or order[level] > order[self.compromised_level]:
            self.compromised_level = level
        self.log("net.compromise", f"host compromised at {level} level",
                 level=level)
        return self.key_ring.clone()
