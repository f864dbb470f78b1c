"""Tests for the Spines overlay: delivery, authentication, IT mode."""

from dataclasses import replace

import pytest

from repro.crypto import KeyStore, sign_payload
from repro.net import Host, Lan, locked_down_firewall
from repro.api import Simulator
from repro.spines import (
    BEST_EFFORT, IT_FLOOD, LinkEnvelope, OverlayMessage, RELIABLE,
    SpinesNetwork,
)
from repro.spines import daemon as spines_daemon


@pytest.fixture
def sim():
    return Simulator(seed=3)


def build_overlay(sim, n=4, intrusion_tolerant=True, mesh=True):
    lan = Lan(sim, "net", "10.0.0.0/24")
    keystore = KeyStore(sim.rng.child("keys"))
    hosts = []
    for i in range(n):
        host = Host(sim, f"host{i}", firewall=locked_down_firewall())
        lan.connect(host)
        hosts.append(host)
    overlay = SpinesNetwork(sim, "test", lan, keystore, port=8100,
                            intrusion_tolerant=intrusion_tolerant)
    for host in hosts:
        overlay.add_daemon(host)
    if mesh:
        overlay.connect_full_mesh()
    return lan, keystore, hosts, overlay


def names(overlay):
    return sorted(overlay.daemons)


def test_reliable_delivery_it_mode(sim):
    lan, ks, hosts, overlay = build_overlay(sim)
    d = names(overlay)
    received = []
    dst = overlay.daemons[d[1]].create_session(50, lambda src, p: received.append((src, p)))
    src = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    src.send(dst.address, {"msg": "hello"}, service=RELIABLE)
    sim.run(until=1.0)
    assert received == [((d[0], 51), {"msg": "hello"})]
    assert src.stats.acked == 1


def test_reliable_delivery_routed_mode(sim):
    lan, ks, hosts, overlay = build_overlay(sim, intrusion_tolerant=False)
    d = names(overlay)
    received = []
    dst = overlay.daemons[d[2]].create_session(50, lambda src, p: received.append(p))
    src = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    src.send(dst.address, "data", service=RELIABLE)
    sim.run(until=1.0)
    assert received == ["data"]
    assert src.stats.acked == 1


def test_multihop_line_topology_routed(sim):
    lan, ks, hosts, overlay = build_overlay(sim, n=4, intrusion_tolerant=False,
                                            mesh=False)
    d = names(overlay)
    for a, b in zip(d, d[1:]):
        overlay.add_edge(a, b)
    received = []
    overlay.daemons[d[3]].create_session(50, lambda src, p: received.append(p))
    src = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    src.send((d[3], 50), "end-to-end", service=RELIABLE)
    sim.run(until=2.0)
    assert received == ["end-to-end"]


def test_multihop_line_topology_flooding(sim):
    lan, ks, hosts, overlay = build_overlay(sim, n=5, mesh=False)
    d = names(overlay)
    for a, b in zip(d, d[1:]):
        overlay.add_edge(a, b)
    received = []
    overlay.daemons[d[4]].create_session(50, lambda src, p: received.append(p))
    src = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    src.send((d[4], 50), "flooded", service=IT_FLOOD)
    sim.run(until=2.0)
    assert received == ["flooded"]


def test_flood_deduplicates(sim):
    """In a full mesh the destination receives each message exactly once
    despite many flood copies."""
    lan, ks, hosts, overlay = build_overlay(sim, n=5)
    d = names(overlay)
    received = []
    overlay.daemons[d[1]].create_session(50, lambda src, p: received.append(p))
    src = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    for i in range(10):
        src.send((d[1], 50), f"m{i}", service=RELIABLE)
    sim.run(until=2.0)
    assert sorted(received) == sorted(f"m{i}" for i in range(10))


def test_unkeyed_daemon_cannot_participate(sim):
    """The red team's modified daemon (no network key) is shut out."""
    lan, ks, hosts, overlay = build_overlay(sim)
    d = names(overlay)
    rogue_host = Host(sim, "rogue")
    lan.connect(rogue_host)
    # A rogue daemon with its own (wrong) keystore.
    rogue_ks = KeyStore(sim.rng.child("roguekeys"))
    rogue_net = SpinesNetwork(sim, "test", lan, rogue_ks, port=8101,
                              intrusion_tolerant=True)
    rogue = rogue_net.add_daemon(rogue_host)
    target = overlay.daemons[d[0]]
    rogue.add_neighbor(target.name, lan.ip_of(target.host), 8100)
    received = []
    target.create_session(50, lambda src, p: received.append(p))
    session = rogue.create_session(51, lambda src, p: None)
    session.send((target.name, 50), "malicious", service=RELIABLE)
    before = target.stats_dropped_auth
    sim.run(until=2.0)
    assert received == []
    assert target.stats_dropped_auth > before or target.stats_dropped_auth == before
    # The envelope was either dropped by the host firewall or by auth;
    # either way nothing was delivered and nothing was forwarded for it.


def test_injected_raw_udp_dropped_by_auth(sim):
    """Garbage on the daemon port never reaches sessions."""
    lan, ks, hosts, overlay = build_overlay(sim)
    d = names(overlay)
    target = overlay.daemons[d[0]]
    received = []
    target.create_session(50, lambda src, p: received.append(p))
    outsider = Host(sim, "outsider")
    lan.connect(outsider)
    outsider.udp_send(lan.ip_of(target.host), 8100, "not-an-envelope",
                      src_port=9)
    fake = OverlayMessage(src=("x", 1), dst=(target.name, 50),
                          service=BEST_EFFORT, payload="spoof", seq=1,
                          src_daemon="x")
    outsider.udp_send(lan.ip_of(target.host), 8100,
                      LinkEnvelope(sender="x", kind="data", body=fake),
                      src_port=9)
    sim.run(until=1.0)
    assert received == []


def test_stopped_daemon_stops_other_traffic_flows(sim):
    """Killing one daemon must not prevent the others communicating
    (the first red-team excursion action)."""
    lan, ks, hosts, overlay = build_overlay(sim, n=4)
    d = names(overlay)
    received = []
    overlay.daemons[d[2]].create_session(50, lambda src, p: received.append(p))
    src = overlay.daemons[d[1]].create_session(51, lambda src, p: None)
    overlay.stop_daemon(d[0])
    src.send((d[2], 50), "still-works", service=RELIABLE)
    sim.run(until=2.0)
    assert received == ["still-works"]


def test_stopped_daemon_sessions_silent(sim):
    lan, ks, hosts, overlay = build_overlay(sim, n=3)
    d = names(overlay)
    received = []
    overlay.daemons[d[1]].create_session(50, lambda src, p: received.append(p))
    victim_session = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    overlay.stop_daemon(d[0])
    assert not victim_session.send((d[1], 50), "dead", service=RELIABLE)
    sim.run(until=1.0)
    assert received == []


def test_daemon_restart_rejoins(sim):
    lan, ks, hosts, overlay = build_overlay(sim, n=3)
    d = names(overlay)
    received = []
    overlay.daemons[d[1]].create_session(50, lambda src, p: received.append(p))
    overlay.stop_daemon(d[0])
    sim.run(until=1.0)
    overlay.start_daemon(d[0])
    src = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    src.send((d[1], 50), "back", service=RELIABLE)
    sim.run(until=2.0)
    assert received == ["back"]


def test_fairness_bounds_flooding_member(sim):
    """A keyed but malicious member flooding traffic cannot starve
    other sources: per-source fairness drops only the flooder's excess."""
    lan, ks, hosts, overlay = build_overlay(sim, n=4)
    d = names(overlay)
    received_honest = []
    overlay.daemons[d[3]].create_session(50, lambda src, p: received_honest.append(p))
    flooder = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    honest = overlay.daemons[d[1]].create_session(52, lambda src, p: None)
    # Flooder exceeds the fairness budget within one window.
    for i in range(5000):
        flooder.send((d[3], 50), f"junk{i}", service=IT_FLOOD)
    for i in range(20):
        honest.send((d[3], 50), f"real{i}", service=RELIABLE)
    sim.run(until=3.0)
    reals = [p for p in received_honest if str(p).startswith("real")]
    assert len(reals) == 20
    dropped = sum(dm.stats_dropped_fairness for dm in overlay.daemons.values())
    assert dropped > 0


def test_reliable_retransmits_through_lossy_period(sim):
    """Reliable service retries; after a brief outage the message still
    arrives exactly once."""
    lan, ks, hosts, overlay = build_overlay(sim, n=2)
    d = names(overlay)
    received = []
    dst_daemon = overlay.daemons[d[1]]
    dst_daemon.create_session(50, lambda src, p: received.append(p))
    src = overlay.daemons[d[0]].create_session(51, lambda src, p: None)
    link = lan.link_of(dst_daemon.host)
    link.set_up(False)
    src.send((d[1], 50), "persistent", service=RELIABLE)
    sim.schedule(0.35, link.set_up, True)
    sim.run(until=5.0)
    assert received == ["persistent"]
    assert src.stats.retransmissions >= 1


def test_forwarder_on_the_short_path_cannot_swap_the_payload(sim):
    """a - m - b is the short way round, a - x - y - b the long one, and
    m — keyed, so its link MACs verify — swaps the payload of what it
    relays, genuine source signature attached.  With the payload
    outside the source signature, b took m's copy for the message and
    dropped the genuine one arriving from y as a duplicate."""
    lan, ks, hosts, overlay = build_overlay(sim, n=5, mesh=False)
    a, b, m, x, y = names(overlay)
    for edge in ((a, m), (m, b), (a, x), (x, y), (y, b)):
        overlay.add_edge(*edge)
    received = []
    overlay.daemons[b].create_session(50, lambda src, p: received.append(p))
    relay = overlay.daemons[m]
    send_genuine = relay._send_envelope

    def send_forged(neighbor, envelope, now):
        forged = replace(envelope.body, payload="forged")
        send_genuine(neighbor, LinkEnvelope(sender=m, kind="data",
                                            body=forged), now)

    relay._send_envelope = send_forged
    sender = overlay.daemons[a].create_session(51, lambda src, p: None)
    for dst in (b, "*"):
        sender.send((dst, 50), "genuine", service=IT_FLOOD)
    sim.run(until=1.0)
    assert received == ["genuine", "genuine"]
    assert overlay.daemons[b].stats_dropped_sig == 2


def test_forwarder_cannot_strip_a_client_updates_own_signature():
    """The client's daemon reaches every replica's external daemon in
    two hops through m, and the first replica in three through x and y.
    m — keyed — strips the client signature off every ``ClientUpdate``
    it relays.  With that inner signature outside the overlay's signed
    view, every replica took m's copy first, Prime rejected it, and
    Spines dropped the genuine copy behind it as a duplicate: nothing
    was ordered before the client's first retry, which m strips again.
    Bound into the view, the stripped copies die at the next correct
    daemon and the genuine one gets through."""
    from repro.core.wiring import Deployment
    from repro.faults.harness import ReplayApp
    from repro.prime.client import PrimeClient
    from repro.prime.config import build_config
    from repro.prime.messages import ClientUpdate

    sim = Simulator(seed=5)
    deployment = Deployment(sim, "strip", build_config(f=1, k=1))
    deployment.wire_networks("192.168.112.0/24", external_ports=16,
                             internal_cidr="192.168.111.0/24")
    deployment.wire_replicas(lambda name: ReplayApp())
    external = deployment.external
    replicas = sorted(replica.external_daemon.name
                      for replica in deployment.replicas.values())
    client_daemon = deployment.wire_client_host("client", principal="client")
    m, x, y = (deployment.wire_client_host(label).name
               for label in ("m", "x", "y"))
    for index, first in enumerate(replicas):
        for second in replicas[index + 1:]:
            external.add_edge(first, second)
        external.add_edge(m, first)
    for edge in ((client_daemon.name, m), (client_daemon.name, x), (x, y),
                 (y, replicas[0])):
        external.add_edge(*edge)
    client = PrimeClient(sim, "client", deployment.prime_config,
                         client_daemon, 7601)

    relay = external.daemons[m]
    send_genuine = relay._send_envelope
    stripped = []

    def send_stripped(neighbor, envelope, now):
        body = envelope.body
        if isinstance(body, OverlayMessage) and isinstance(body.payload,
                                                           ClientUpdate):
            body = replace(body, payload=replace(body.payload,
                                                 signature=None))
            envelope = LinkEnvelope(sender=m, kind="data", body=body)
            stripped.append(neighbor)
        send_genuine(neighbor, envelope, now)

    relay._send_envelope = send_stripped
    sim.at(0.2, client.submit, {"set": ("B57", True)})
    # The first retry is due no earlier than 0.8 s after submission.
    sim.run(until=0.95)
    assert stripped
    assert 1 in client.confirmed
    assert sim.metrics.total("prime.client.retries") == 0
    assert sum(external.daemons[name].stats_dropped_sig
               for name in replicas) == len(stripped)


def test_keyed_relay_cannot_replay_past_the_flood_cache(sim, monkeypatch):
    """m relays everything a sends b, and keeps the first message.  Once
    b has seen more than FLOOD_CACHE_LIMIT newer ones from a, m — keyed,
    so its link MAC verifies — sends the old message to b again, source
    signature intact.  A seen-cache cleared at the limit took it for new
    and delivered it a second time."""
    monkeypatch.setattr(spines_daemon, "FLOOD_CACHE_LIMIT", 4)
    lan, ks, hosts, overlay = build_overlay(sim, n=3, mesh=False)
    a, b, m = names(overlay)
    overlay.add_edge(a, m)
    overlay.add_edge(m, b)
    received = []
    overlay.daemons[b].create_session(50, lambda src, p: received.append(p))
    relay = overlay.daemons[m]
    kept = []
    forward = relay._forward

    def keep_first(message, arrived_from):
        if not kept:
            kept.append(message)
        forward(message, arrived_from)

    relay._forward = keep_first
    sender = overlay.daemons[a].create_session(51, lambda src, p: None)
    sent = [f"m{i}" for i in range(10)]
    for payload in sent:
        sender.send((b, 50), payload, service=IT_FLOOD)
    sim.run(until=1.0)
    assert received == sent
    relay._send_envelope(b, LinkEnvelope(sender=m, kind="data",
                                         body=kept[0]), sim.now)
    sim.run(until=2.0)
    assert received == sent


def test_delivered_reliable_stays_bounded_and_refuses_a_repeat(
        sim, monkeypatch):
    """The reliable service's delivered set is a window like the flood
    cache: bounded, with everything at or below its floor delivered."""
    monkeypatch.setattr(spines_daemon, "FLOOD_CACHE_LIMIT", 4)
    lan, ks, hosts, overlay = build_overlay(sim, n=2)
    a, b = names(overlay)
    received = []
    overlay.daemons[b].create_session(50, lambda src, p: received.append(p))
    source = overlay.daemons[a]
    sender = source.create_session(51, lambda src, p: None)
    for i in range(10):
        sender.send((b, 50), f"r{i}", service=RELIABLE)
    sim.run(until=1.0)
    assert received == [f"r{i}" for i in range(10)]
    delivered = overlay.daemons[b]._delivered_reliable[a]
    assert len(delivered) == 4 and delivered.floor > 1
    # A retransmission of the first message: a new seq, repeating one
    # that has left the window.
    again = OverlayMessage(src=(a, 51), dst=(b, 50), service=RELIABLE,
                           payload="r0", seq=source._seq + 1,
                           src_daemon=a, repeats=1,
                           routes=source._route_set((b, 50)))
    again.signature = sign_payload(source.host.key_ring, a, again)
    source._seq += 1
    source._dispatch(again)
    sim.run(until=2.0)
    assert received == [f"r{i}" for i in range(10)]


@pytest.mark.parametrize("world, until", [
    ("single_plant", 3.0), ("town5", 4.0), ("city25", 8.0)])
def test_shipped_worlds_never_drop_a_stale_seq(world, until, monkeypatch):
    """Over each world's tier-1 horizon: no daemon counts a copy as a
    replay, and FLOOD_CACHE_LIMIT is at least 8x the largest arrival
    lag — how far behind the highest seq a daemon has seen from a
    source a first copy arrives."""
    from repro.api import GridSpec, build_world, make_town_spec

    spec = {"single_plant": GridSpec.single_plant(),
            "town5": make_town_spec(5),
            "city25": make_town_spec(25)}[world]
    highest = {}
    lags = [0]
    forward = spines_daemon.SpinesDaemon._forward

    def measured(daemon, message, arrived_from):
        key = (daemon.name, message.src_daemon)
        top = highest.get(key, 0)
        seen = daemon._flood_seen.get(message.src_daemon, {})
        if message.seq < top and message.seq not in seen:
            lags.append(top - message.seq)
        highest[key] = max(top, message.seq)
        forward(daemon, message, arrived_from)

    monkeypatch.setattr(spines_daemon.SpinesDaemon, "_forward", measured)
    built = build_world(spec)
    built.run(until=until)
    daemons = [daemon for network in (built.internal, built.external)
               for daemon in network.daemons.values()]
    assert sum(daemon.stats_dropped_stale for daemon in daemons) == 0
    assert 8 * max(lags) <= spines_daemon.FLOOD_CACHE_LIMIT
