"""Differential tests for the per-hop fast path (PR 13).

Each fast path is held against the slow computation it replaced:
integer subnet membership against the stdlib ``ipaddress`` module, the
size a frame keeps against a fresh recursive sizing, and the link MAC
that reuses the body's view digest against every way the body can
differ.  There is no switch that turns these paths off — the reference
implementations live here.
"""

import ipaddress
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.api import GridSpec, Simulator, build_world
from repro.crypto import KeyStore, mac_payload, set_cache_enabled, verify_mac
from repro.net import Host, Lan, Subnet, udp_frame
from repro.net.addresses import ip_int, same_subnet
from repro.net.host import ROUTE_MEMO_SIZE, Interface
from repro.net.packet import (
    ETHER_HEADER, ArpMessage, TcpSegment, UdpDatagram, payload_size,
)
from repro.spines.messages import IT_FLOOD, RELIABLE, LinkEnvelope, OverlayMessage


# ---------------------------------------------------------------------------
# Subnet.contains == ipaddress membership
# ---------------------------------------------------------------------------
addresses = st.integers(0, 2**32 - 1).map(
    lambda value: str(ipaddress.IPv4Address(value)))
cidrs = st.tuples(st.integers(0, 2**32 - 1), st.integers(8, 32)).map(
    lambda pair: str(ipaddress.ip_network((pair[0], pair[1]), strict=False)))


@given(cidrs, addresses, st.data())
def test_subnet_contains_matches_ipaddress(cidr, outside, data):
    network = ipaddress.ip_network(cidr)
    # A uniformly random address almost never falls inside a long
    # prefix: draw one from inside the network as well.
    inside = str(network[data.draw(
        st.integers(0, network.num_addresses - 1))])
    subnet = Subnet(cidr)
    for ip in (outside, inside, str(network.network_address),
               str(network.broadcast_address)):
        expected = ipaddress.ip_address(ip) in network
        assert subnet.contains(ip) is expected
        assert same_subnet(ip, inside, cidr) is expected
    assert subnet.cidr == cidr


@given(st.text(max_size=20).filter(lambda text: not _parses(text)))
def test_malformed_addresses_raise_value_error(text):
    subnet = Subnet("10.0.0.0/8")
    # Twice: a failed parse is never remembered as an answer.
    for _ in range(2):
        with pytest.raises(ValueError):
            subnet.contains(text)
    with pytest.raises(ValueError):
        same_subnet("10.0.0.1", text, "10.0.0.0/8")


def _parses(text: str) -> bool:
    try:
        ipaddress.IPv4Address(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("bad", ["", "10.0.0", "10.0.0.256", "10.0.0.1/24",
                                 "::1", "ten.0.0.1", "010.0.0.1"])
def test_known_malformed_addresses(bad):
    with pytest.raises(ValueError):
        ip_int(bad)
    with pytest.raises(ValueError):
        Subnet("10.0.0.0/24").contains(bad)


# ---------------------------------------------------------------------------
# Frame.wire_size(): kept size == fresh recursive size
# ---------------------------------------------------------------------------
def test_kept_frame_sizes_match_fresh_sizes_over_a_plant_run():
    world = build_world(GridSpec.single_plant())
    seen = []

    def tap(frame, link, now):
        fresh = ETHER_HEADER + payload_size(frame.payload)
        # On a LAN every frame crosses two links (host -> switch ->
        # host): the first reading is computed, the second is the kept
        # one.  Both must equal the recursive sizing, as must a copy's.
        seen.append((frame.wire_size(), frame.copy().wire_size(), fresh))

    for lan in (world.internal_lan, world.external_lan):
        for iface in lan.members:
            iface.link.add_tap(tap)
    world.run(until=2.0)
    assert len(seen) > 10_000
    assert len({fresh for _kept, _copied, fresh in seen}) > 10
    assert all(kept == fresh and copied == fresh
               for kept, copied, fresh in seen)


@pytest.fixture
def born(monkeypatch):
    """``(size the frame was built with, fresh recursive size, payload
    type)`` of every frame a NIC sends, read before the link sizes it."""
    seen = []
    send_frame = Interface.send_frame

    def spy(iface, frame):
        inner = frame.payload
        seen.append((frame._wire_size, frame.copy().wire_size(),
                     type(getattr(inner, "payload", inner))))
        return send_frame(iface, frame)

    monkeypatch.setattr(Interface, "send_frame", spy)
    return seen


def test_udp_frames_are_born_with_the_recursive_size(born):
    """``Host.udp_send`` sizes the frame from the three headers and the
    payload before the frame exists; ARP and TCP frames still size on
    first use."""
    world = build_world(GridSpec.single_plant())
    # Six sim-s: with route sets for every Spines message, two carry
    # under 7 000 UDP frames.
    world.run(until=6.0)
    sized = [(size, fresh) for size, fresh, _kind in born if size is not None]
    assert len(sized) > 10_000 and len(set(sized)) > 10
    assert all(size == fresh for size, fresh in sized)
    assert ({kind for size, _fresh, kind in born if size is not None}
            == {UdpDatagram})
    assert ({kind for size, _fresh, kind in born if size is None}
            == {TcpSegment, ArpMessage})


def test_arp_parked_datagram_sizes_on_first_use(born):
    sim = Simulator()
    lan = Lan(sim, "lan", "10.0.0.0/24")
    sender, receiver = Host(sim, "a"), Host(sim, "b")
    lan.connect(sender)
    lan.connect(receiver)
    got = []
    receiver.udp_bind(9, lambda ip, port, payload: got.append(payload))
    assert sender.udp_send(lan.ip_of(receiver), 9, "x" * 100)   # parked
    sim.run(until=1.0)
    assert sender.udp_send(lan.ip_of(receiver), 9, "y" * 50)
    sim.run(until=2.0)
    assert got == ["x" * 100, "y" * 50]
    assert born == [(None, 42, ArpMessage), (None, 42, ArpMessage),
                    (None, 142, UdpDatagram), (92, 92, UdpDatagram)]


def test_frame_copy_never_carries_a_stale_size():
    frame = udp_frame("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2, "x" * 10)
    size = frame.wire_size()
    clone = frame.copy()
    assert clone._wire_size is None            # nothing carried over
    # The kept size is not part of a frame's identity or its repr.
    assert clone == frame and "_wire_size" not in repr(frame)
    assert clone.wire_size() == size
    # A tampered copy (new payload through replace) sizes itself.
    grown = replace(frame, payload="y" * 500)
    assert grown.wire_size() == ETHER_HEADER + 500
    assert frame.wire_size() == size


# ---------------------------------------------------------------------------
# Host._resolve: remembered route == interface scan
# ---------------------------------------------------------------------------
def _scan(host, dst_ip):
    """The parent commit's ``Host._resolve``, word for word."""
    for iface in host.interfaces:
        if iface.subnet.contains(dst_ip):
            return iface, dst_ip
    return host._gateway_iface, host._gateway_ip


@given(st.lists(cidrs, min_size=1, max_size=4),
       st.lists(addresses, min_size=1, max_size=6), st.data())
def test_remembered_routes_match_the_interface_scan(nets, outside, data):
    host = Host(Simulator(), "h")
    # Destinations inside each network-to-be as well as anywhere.
    inside = [str(network[data.draw(
        st.integers(0, network.num_addresses - 1))])
        for network in map(ipaddress.ip_network, nets)]
    destinations = outside + inside

    def check():
        for _ in range(2):              # the scan, then the memo
            for dst in destinations:
                assert host._resolve(dst) == _scan(host, dst)
                assert host.interface_for(dst) is _scan(host, dst)[0]

    check()                             # no interface: (None, None)
    for index, cidr in enumerate(nets):
        iface = host.add_interface(f"eth{index}", f"m{index}",
                                   inside[index], cidr)
        check()
        if data.draw(st.booleans()):
            host.set_default_gateway(iface, inside[index])
            check()


def test_route_memo_is_bounded_and_forgets_nothing_it_should_keep():
    host = Host(Simulator(), "h")
    lan = host.add_interface("eth0", "m0", "10.0.0.1", "10.0.0.0/8")
    for value in range(ROUTE_MEMO_SIZE * 3):
        dst = str(ipaddress.IPv4Address(ip_int("10.0.0.0") + value))
        assert host._resolve(dst) == (lan, dst)
        assert len(host._routes) <= ROUTE_MEMO_SIZE
    assert host._resolve("11.0.0.1") == (None, None)
    wan = host.add_interface("eth1", "m1", "11.0.0.9", "11.0.0.0/24")
    assert host._resolve("11.0.0.1") == (wan, "11.0.0.1")
    assert host._resolve("12.0.0.1") == (None, None)
    host.set_default_gateway(wan, "11.0.0.254")
    assert host._resolve("12.0.0.1") == (wan, "11.0.0.254")
    # A failed parse is never remembered as an answer.
    for _ in range(2):
        with pytest.raises(ValueError):
            host._resolve("12.0.0")


# ---------------------------------------------------------------------------
# LinkEnvelope MAC over the body's view digest
# ---------------------------------------------------------------------------
KEY = "spines.internal"


@pytest.fixture
def ring():
    store = KeyStore()
    store.create_symmetric(KEY)
    return store.ring_for(symmetric_ids=[KEY])


@pytest.fixture
def caches_restored():
    yield
    set_cache_enabled(True)


def _message(payload, **changes) -> OverlayMessage:
    fields = dict(src=("d1", 7), dst=("d2", 9), service=IT_FLOOD,
                  payload=payload, seq=41, src_daemon="d1")
    fields.update(changes)
    return OverlayMessage(**fields)


@pytest.mark.parametrize("changes", [
    {"src": ("d1", 8)}, {"src": ("d3", 7)}, {"dst": ("d2", 10)},
    {"dst": ("*", 9)}, {"service": RELIABLE}, {"seq": 42},
    {"src_daemon": "d3"}, {"repeats": 40},
    {"routes": (("d1", "d2"), ("d1", "d4", "d2"))},
])
def test_mac_fails_when_any_routed_field_of_the_body_differs(ring, changes):
    payload = {"op": "status"}
    envelope = LinkEnvelope(sender="d1", kind="data", body=_message(payload))
    envelope.mac = mac_payload(ring, KEY, envelope)
    assert verify_mac(ring, envelope.mac, envelope)
    swapped = LinkEnvelope(sender="d1", kind="data",
                           body=_message(payload, **changes),
                           mac=envelope.mac)
    assert not verify_mac(ring, swapped.mac, swapped)


def test_mac_binds_the_payload_by_content_and_the_sender(ring):
    payload, twin = {"op": "status"}, {"op": "status"}   # equal, not identical
    envelope = LinkEnvelope(sender="d1", kind="data", body=_message(payload))
    envelope.mac = mac_payload(ring, KEY, envelope)
    # An equal payload at another address is the same payload: what an
    # envelope restored from a snapshot carries.
    for same in (_message(payload), _message(twin)):
        rebuilt = LinkEnvelope(sender="d1", kind="data", body=same,
                               mac=envelope.mac)
        assert verify_mac(ring, rebuilt.mac, rebuilt)
    for other in (
            LinkEnvelope(sender="d1", kind="data",
                         body=_message({"op": "trip"})),
            LinkEnvelope(sender="d9", kind="data", body=_message(payload)),
            LinkEnvelope(sender="d1", kind="ack", body=_message(payload))):
        other.mac = envelope.mac
        assert not verify_mac(ring, other.mac, other)


def test_mac_interoperates_between_cached_and_naive_encoding(
        ring, caches_restored):
    payload = {"op": "status"}
    for make_cached, check_cached in ((True, False), (False, True)):
        set_cache_enabled(make_cached)
        envelope = LinkEnvelope(sender="d1", kind="data",
                                body=_message(payload))
        envelope.mac = mac_payload(ring, KEY, envelope)
        set_cache_enabled(check_cached)
        # Same objects (cached state and all) and freshly built ones.
        assert verify_mac(ring, envelope.mac, envelope)
        rebuilt = LinkEnvelope(sender="d1", kind="data",
                               body=_message(payload), mac=envelope.mac)
        assert verify_mac(ring, rebuilt.mac, rebuilt)
