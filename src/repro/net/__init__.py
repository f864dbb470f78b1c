"""L2/L3 network substrate: packets, links, switches, hosts, routers,
firewalls, ARP, OS profiles, passive capture, and LAN builders."""

from repro.net.addresses import (
    BROADCAST_MAC, ETHERTYPE_ARP, ETHERTYPE_IP, PROTO_TCP, PROTO_UDP,
    MacAllocator, Subnet, SubnetExhausted,
)
from repro.net.arp import ArpTable
from repro.net.firewall import (
    Firewall, FirewallRule, INBOUND, OUTBOUND, locked_down_firewall,
    open_firewall,
)
from repro.net.host import Host, Interface, TcpConnection
from repro.net.lan import Lan
from repro.net.link import Link
from repro.net.osprofile import (
    OsProfile, centos_minimal_latest, commercial_appliance,
    ubuntu_desktop_2016, VULN_DIRTYCOW, VULN_SSHD_CVE, VULN_SMB_REMOTE,
    VULN_WEBADMIN_DEFAULT_CREDS,
)
from repro.net.packet import (
    ArpMessage, Frame, IpPacket, TcpSegment, UdpDatagram, describe, udp_frame,
)
from repro.net.router import ForwardRule, Router
from repro.net.scan import PortScanner, ScanReport
from repro.net.switch import Switch
from repro.net.tap import Capture, PacketRecord, record_from_frame

__all__ = [
    "BROADCAST_MAC", "ETHERTYPE_ARP", "ETHERTYPE_IP", "PROTO_TCP", "PROTO_UDP",
    "MacAllocator", "Subnet", "SubnetExhausted", "ArpTable",
    "Firewall", "FirewallRule", "INBOUND", "OUTBOUND",
    "locked_down_firewall", "open_firewall",
    "Host", "Interface", "TcpConnection", "Lan", "Link",
    "OsProfile", "centos_minimal_latest", "commercial_appliance",
    "ubuntu_desktop_2016", "VULN_DIRTYCOW", "VULN_SSHD_CVE",
    "VULN_SMB_REMOTE", "VULN_WEBADMIN_DEFAULT_CREDS",
    "ArpMessage", "Frame", "IpPacket", "TcpSegment", "UdpDatagram",
    "describe", "udp_frame",
    "ForwardRule", "Router", "PortScanner", "ScanReport", "Switch",
    "Capture", "PacketRecord", "record_from_frame",
]
