"""Additional network-substrate coverage: TCP lifecycle, packet
descriptions, scan reports, spines sessions."""

import pytest

from repro.net import (
    ArpMessage, BROADCAST_MAC, ETHERTYPE_ARP, Frame, Host, IpPacket, Lan,
    ScanReport, TcpSegment, UdpDatagram, describe, udp_frame,
)
from repro.api import Simulator


@pytest.fixture
def pair():
    sim = Simulator(seed=66)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    a = Host(sim, "a")
    b = Host(sim, "b")
    lan.connect(a)
    lan.connect(b)
    return sim, lan, a, b


# ---------------------------------------------------------------------------
# TCP lifecycle
# ---------------------------------------------------------------------------
def test_tcp_close_notifies_peer(pair):
    sim, lan, a, b = pair
    closed = []
    server_conns = []

    def on_connect(conn):
        server_conns.append(conn)
        conn.on_closed = lambda c: closed.append("server-side")

    b.tcp_listen(8080, on_connect)
    conns = {}
    a.tcp_connect(lan.ip_of(b), 8080, lambda c: conns.setdefault("c", c))
    sim.run(until=2.0)
    conns["c"].close()
    sim.run(until=3.0)
    assert closed == ["server-side"]
    assert conns["c"].closed


def test_send_on_closed_connection_fails(pair):
    sim, lan, a, b = pair
    b.tcp_listen(8080, lambda conn: None)
    conns = {}
    a.tcp_connect(lan.ip_of(b), 8080, lambda c: conns.setdefault("c", c))
    sim.run(until=2.0)
    conns["c"].close()
    assert conns["c"].send("too-late") is False


def test_listener_close_stops_new_connections(pair):
    sim, lan, a, b = pair
    b.tcp_listen(8080, lambda conn: None)
    b.tcp_close_listener(8080)
    failures = []
    a.tcp_connect(lan.ip_of(b), 8080, lambda c: pytest.fail("no"),
                  on_failure=failures.append)
    sim.run(until=3.0)
    assert failures == ["refused"]


def test_data_in_both_directions(pair):
    sim, lan, a, b = pair
    transcript = []

    def on_connect(conn):
        conn.on_data = lambda c, p: (transcript.append(("srv", p)),
                                     c.send(p * 2))

    b.tcp_listen(8080, on_connect)

    def established(conn):
        conn.send(1)
        conn.send(2)

    a.tcp_connect(lan.ip_of(b), 8080, established,
                  on_data=lambda c, p: transcript.append(("cli", p)))
    sim.run(until=2.0)
    assert ("srv", 1) in transcript and ("srv", 2) in transcript
    assert ("cli", 2) in transcript and ("cli", 4) in transcript


def test_duplicate_binds_rejected(pair):
    sim, lan, a, b = pair
    b.udp_bind(5000, lambda *args: None)
    with pytest.raises(RuntimeError):
        b.udp_bind(5000, lambda *args: None)
    b.tcp_listen(8080, lambda conn: None)
    with pytest.raises(RuntimeError):
        b.tcp_listen(8080, lambda conn: None)


def test_udp_unbind_stops_delivery(pair):
    sim, lan, a, b = pair
    got = []
    b.udp_bind(5000, lambda *args: got.append(args))
    a.udp_send(lan.ip_of(b), 5000, "one", src_port=1)
    sim.run(until=1.0)
    b.udp_unbind(5000)
    a.udp_send(lan.ip_of(b), 5000, "two", src_port=1)
    sim.run(until=2.0)
    assert len(got) == 1


# ---------------------------------------------------------------------------
# Packet descriptions (log/debug surface)
# ---------------------------------------------------------------------------
def test_describe_udp():
    frame = udp_frame("m1", "m2", "10.0.0.1", "10.0.0.2", 5, 6, "x" * 10)
    text = describe(frame)
    assert "UDP 10.0.0.1:5 -> 10.0.0.2:6" in text


def test_describe_tcp_and_arp():
    tcp = Frame(src_mac="m1", dst_mac="m2", ethertype="ipv4",
                payload=IpPacket(src_ip="1.1.1.1", dst_ip="2.2.2.2",
                                 proto="tcp",
                                 payload=TcpSegment(src_port=1, dst_port=2,
                                                    flags="syn")))
    assert "TCP[syn]" in describe(tcp)
    arp = Frame(src_mac="m1", dst_mac=BROADCAST_MAC,
                ethertype=ETHERTYPE_ARP,
                payload=ArpMessage(op="request", sender_mac="m1",
                                   sender_ip="1.1.1.1",
                                   target_mac="00:00:00:00:00:00",
                                   target_ip="2.2.2.2"))
    assert "ARP request" in describe(arp)


def test_frame_copy_is_a_new_frame_sharing_the_payload():
    frame = udp_frame("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2, "p")
    clone = frame.copy()
    assert clone is not frame and clone == frame
    assert clone.payload is frame.payload


def test_wire_sizes_monotone_in_payload():
    small = udp_frame("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2, "x")
    big = udp_frame("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2, "x" * 500)
    assert big.wire_size() > small.wire_size() >= 42


# ---------------------------------------------------------------------------
# Scan reports
# ---------------------------------------------------------------------------
def test_scan_report_classification():
    report = ScanReport(target_ip="1.1.1.1",
                        results={22: "open", 23: "closed", 80: "filtered"})
    assert report.open_ports == [22]
    assert report.closed_ports == [23]
    assert report.filtered_ports == [80]
    assert report.any_visibility


def test_scan_report_all_filtered_is_blind():
    report = ScanReport(target_ip="1.1.1.1",
                        results={p: "filtered" for p in (22, 80, 443)})
    assert not report.any_visibility


# ---------------------------------------------------------------------------
# Spines session lifecycle
# ---------------------------------------------------------------------------
def test_session_close_stops_delivery_and_send():
    from repro.crypto import KeyStore
    from repro.spines import SpinesNetwork
    sim = Simulator(seed=67)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    ks = KeyStore(sim.rng.child("k"))
    overlay = SpinesNetwork(sim, "s", lan, ks)
    hosts = [Host(sim, f"h{i}") for i in range(2)]
    for h in hosts:
        lan.connect(h)
        overlay.add_daemon(h)
    overlay.connect_full_mesh()
    names = sorted(overlay.daemons)
    got = []
    dst = overlay.daemons[names[1]].create_session(50,
                                                   lambda s, p: got.append(p))
    src = overlay.daemons[names[0]].create_session(51, lambda s, p: None)
    src.send((names[1], 50), "before")
    sim.run(until=1.0)
    dst.close()
    src.send((names[1], 50), "after")
    sim.run(until=2.0)
    assert got == ["before"]
    assert src.stats.sent == 2
    src.close()
    assert src.send((names[1], 50), "dead") is False


def test_duplicate_session_port_rejected():
    from repro.crypto import KeyStore
    from repro.spines import SpinesNetwork
    sim = Simulator(seed=68)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    overlay = SpinesNetwork(sim, "s", lan, KeyStore(sim.rng.child("k")))
    host = Host(sim, "h")
    lan.connect(host)
    daemon = overlay.add_daemon(host)
    daemon.create_session(50, lambda s, p: None)
    with pytest.raises(RuntimeError):
        daemon.create_session(50, lambda s, p: None)
