"""K node-disjoint paths: the path computer, the one forwarding rule and
its flood fall-backs, and what a compromised forwarder can no longer do.
"""

import os
import subprocess
import sys

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.api import GridSpec, Simulator, build_world
from repro.crypto import KeyStore, sign_payload
from repro.net import Host, Lan, locked_down_firewall
from repro.spines import (
    IT_FLOOD, LinkEnvelope, OverlayMessage, RELIABLE, SpinesNetwork,
)
from repro.spines.overlay import disjoint_paths


# ---------------------------------------------------------------------------
# The path computer against networkx
# ---------------------------------------------------------------------------
@st.composite
def connected_graphs(draw):
    """A random connected graph on up to 30 named nodes: a random
    spanning tree plus random extra edges."""
    n = draw(st.integers(2, 30))
    names = [f"n{index:02d}" for index in range(n)]
    edges = {(names[draw(st.integers(0, index - 1))], names[index])
             for index in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    edges |= {(names[min(a, b)], names[max(a, b)])
              for a, b in extra if a != b}
    src, dst = draw(st.permutations(names))[:2]
    return names, sorted(edges), src, dst


def _adjacency(names, edges):
    adj = {name: [] for name in names}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


@given(connected_graphs(), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_disjoint_paths_match_networkx(graph, k):
    names, edges, src, dst = graph
    adj = _adjacency(names, edges)
    reference = nx.Graph(edges)
    paths = disjoint_paths(adj, src, dst, k)

    if reference.has_edge(src, dst):
        # networkx defines node connectivity for non-adjacent pairs;
        # the direct edge is one more path next to those around it.
        around = reference.copy()
        around.remove_edge(src, dst)
        connectivity = 1 + (len(list(nx.node_disjoint_paths(
            around, src, dst))) if nx.has_path(around, src, dst) else 0)
    else:
        connectivity = len(list(nx.node_disjoint_paths(reference, src, dst)))
    assert len(paths) == min(k, connectivity)

    interiors = []
    for path in paths:
        assert path[0] == src and path[-1] == dst
        assert len(set(path)) == len(path)                     # simple
        assert all(reference.has_edge(a, b)
                   for a, b in zip(path, path[1:]))
        interiors.extend(path[1:-1])
    assert len(set(interiors)) == len(interiors)               # disjoint
    assert [len(path) for path in paths] == sorted(map(len, paths))

    # Shortest first — unless the shortest path is itself what stands
    # between the pair and that many disjoint paths.
    shortest, = disjoint_paths(adj, src, dst, 1)
    if len(paths[0]) > len(shortest):
        without = reference.copy()
        without.remove_nodes_from(shortest[1:-1])
        if len(shortest) == 2:
            without.remove_edge(src, dst)
        rest = (len(list(nx.node_disjoint_paths(without, src, dst)))
                if nx.has_path(without, src, dst) else 0)
        assert 1 + rest < len(paths)


def test_the_shortest_path_yields_when_it_blocks_the_disjoint_pair():
    """The trap: s-a-b-t is shortest, but the only two disjoint paths
    are s-a-x-y-t and s-c-d-b-t, which it crosses."""
    edges = [("s", "a"), ("a", "b"), ("b", "t"), ("a", "x"), ("x", "y"),
             ("y", "t"), ("s", "c"), ("c", "d"), ("d", "b")]
    adj = _adjacency("sabtxycd", sorted(edges))
    assert disjoint_paths(adj, "s", "t", 1) == [("s", "a", "b", "t")]
    assert disjoint_paths(adj, "s", "t", 2) == [
        ("s", "a", "x", "y", "t"), ("s", "c", "d", "b", "t")]
    assert len(disjoint_paths(adj, "s", "t", 3)) == 2


_HASHSEED_PROBE = """
import hashlib, random
from repro.spines.overlay import disjoint_paths
rng = random.Random(7)
out = []
for _ in range(40):
    n = rng.randint(4, 30)
    names = [f"ext.node-{i}" for i in range(n)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    edges |= {tuple(sorted(rng.sample(names, 2))) for _ in range(2 * n)}
    adj = {name: [] for name in names}
    for a, b in sorted(edges):
        adj[a].append(b); adj[b].append(a)
    out.append(disjoint_paths(adj, names[0], names[-1], 3))
print(hashlib.sha256(repr(out).encode()).hexdigest())
"""


def test_paths_are_identical_under_two_hash_seeds():
    digests = set()
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        digests.add(subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert len(digests) == 1


# ---------------------------------------------------------------------------
# The forwarding rule on small overlays
# ---------------------------------------------------------------------------
def build(edges, seed=5, **options):
    """An IT-mode overlay over the daemons ``edges`` name."""
    sim = Simulator(seed=seed)
    names = sorted({name for edge in edges for name in edge})
    lan = Lan(sim, "net", "10.0.0.0/24", ports=len(names) + 2)
    overlay = SpinesNetwork(sim, "t", lan, KeyStore(sim.rng.child("keys")),
                            **options)
    for name in names:
        host = Host(sim, name, firewall=locked_down_firewall())
        lan.connect(host)
        overlay.add_daemon(host, name)
    for a, b in edges:
        overlay.add_edge(a, b)
    lan.harden()        # static ARP: a downed link loses frames, not ARP
    return sim, overlay


def forwards(overlay):
    return {name: daemon.stats_forwarded
            for name, daemon in overlay.daemons.items()
            if daemon.stats_forwarded}


def listen(overlay, name, port=50):
    received = []
    overlay.daemons[name].create_session(
        port, lambda src, payload: received.append(payload))
    return received


#: a - m - b is the short way round, a - x - y - b the long one; p hangs
#: off b alone.
DIAMOND = [("a", "m"), ("m", "b"), ("a", "x"), ("x", "y"), ("y", "b"),
           ("b", "p")]


def test_unicast_takes_k_disjoint_paths_and_nothing_else():
    sim, overlay = build(DIAMOND)
    assert overlay.route_set("a", "b") == (("a", "m", "b"),
                                           ("a", "x", "y", "b"))
    received = listen(overlay, "b")
    sender = overlay.daemons["a"].create_session(51, lambda s, p: None)
    sender.send(("b", 50), "hello", service=IT_FLOOD)
    sim.run(until=1.0)
    assert received == ["hello"]                 # first copy, once
    # Two copies leave a, one each leaves m, x and y; b forwards
    # nothing and p never hears of it.
    assert forwards(overlay) == {"a": 2, "m": 1, "x": 1, "y": 1}


def test_multicast_cut_vertex_and_unknown_destination_flood():
    sim, overlay = build(DIAMOND)
    assert overlay.route_set("a", "p") is None          # b is a cut vertex
    assert overlay.route_set("a", "elsewhere") is None  # not in the view
    sender = overlay.daemons["a"].create_session(51, lambda s, p: None)
    heard = {name: listen(overlay, name) for name in overlay.daemons}
    for index, dst in enumerate(["p", "elsewhere", "*"]):
        before = sum(forwards(overlay).values())
        sender.send((dst, 50), f"m{index}", service=IT_FLOOD)
        sim.run(until=index + 1.0)
        # Every daemon sends on every edge but the one it first heard
        # the message on (the source has none): 2|E| - (|V| - 1).
        assert sum(forwards(overlay).values()) - before == 2 * 6 - 5
    assert heard.pop("p") == ["m0", "m2"]
    assert all(payloads == ["m2"] for payloads in heard.values())


def test_reliable_retry_floods_and_delivery_still_dedups():
    """Both first copies are lost (b's link is down).  The
    retransmission takes every edge — p, on no path, forwards it too —
    arrives once the link is back and is acknowledged; a further
    retransmission of the same message is forwarded and acknowledged
    afresh but not delivered twice."""
    sim, overlay = build(DIAMOND)
    received = listen(overlay, "b")
    a, b = overlay.daemons["a"], overlay.daemons["b"]
    sender = a.create_session(51, lambda s, p: None)
    link = overlay.lan.link_of(b.host)
    link.set_up(False)
    sender.send(("b", 50), "persistent", service=RELIABLE)
    sim.schedule(0.1, link.set_up, True)
    sim.run(until=0.15)
    assert received == []
    assert forwards(overlay) == {"a": 2, "m": 1, "x": 1, "y": 1}
    sim.run(until=0.5)
    assert received == ["persistent"]
    assert sender.stats.retransmissions == 1 and sender.stats.acked == 1
    assert overlay.daemons["p"].stats_forwarded == 0    # a leaf: nowhere on
    assert b.stats_forwarded > 0                        # the retry flooded on

    first, = b._delivered_reliable
    again = OverlayMessage(src=("a", 51), dst=("b", 50), service=RELIABLE,
                           payload="persistent", seq=a._seq + 1,
                           src_daemon="a", repeats=first[1])
    again.signature = sign_payload(a.host.key_ring, "a", again)
    acks_before = b._seq
    a._dispatch(again)
    sim.run(until=1.0)
    assert received == ["persistent"]
    assert b._seq == acks_before + 1


def test_off_route_copy_is_dropped_and_counted():
    """A keyed daemon replays a path-routed message onto an edge its
    source did not sign for."""
    sim, overlay = build(DIAMOND + [("m", "x")])
    received = listen(overlay, "b")
    a, m, x = (overlay.daemons[name] for name in "amx")
    message = OverlayMessage(
        src=("a", 51), dst=("b", 50), service=IT_FLOOD, payload="routed",
        seq=1, src_daemon="a", routes=overlay.route_set("a", "b"))
    message.signature = sign_payload(a.host.key_ring, "a", message)
    assert "x" not in message.successors("m")
    m._send_envelope("x", LinkEnvelope(sender="m", kind="data",
                                       body=message), sim.now)
    sim.run(until=1.0)
    assert x.stats_dropped_off_route == 1
    assert received == [] and forwards(overlay) == {"m": 1}


def test_second_body_under_one_sequence_number_is_counted():
    """Only the source can sign two bodies under one ``(src_daemon,
    seq)``; whoever sees both counts it and keeps the first."""
    sim, overlay = build(DIAMOND)
    received = listen(overlay, "b")
    a = overlay.daemons["a"]
    for payload in ("first", "second", "first"):
        message = OverlayMessage(
            src=("a", 51), dst=("b", 50), service=IT_FLOOD, payload=payload,
            seq=7, src_daemon="a", routes=overlay.route_set("a", "b"))
        message.signature = sign_payload(a.host.key_ring, "a", message)
        for neighbor in message.successors("a"):
            a._send_envelope(neighbor, LinkEnvelope(
                sender="a", kind="data", body=message), sim.now)
        sim.run(until=sim.now + 0.5)
    assert received == ["first"]
    # Every daemon on the route saw "second" after "first" — and the
    # repeat of "first" is an ordinary duplicate.
    assert {metric.component: metric.value for metric in
            sim.metrics.find("spines.equivocation_seen")} == {
                "m": 1, "x": 1}


def test_payload_outside_the_canonical_value_space_still_travels():
    sim, overlay = build(DIAMOND)
    received = listen(overlay, "b")
    sender = overlay.daemons["a"].create_session(51, lambda s, p: None)
    sender.send(("b", 50), {"tags": {"x", "y"}}, service=IT_FLOOD)
    sim.run(until=1.0)
    assert received == [{"tags": {"x", "y"}}]


# ---------------------------------------------------------------------------
# Daemon lifecycle reaches the link-state view
# ---------------------------------------------------------------------------
def test_recovering_replicas_daemon_is_routed_around_while_it_is_down():
    world = build_world(GridSpec.single_plant())
    external = world.external
    recomputes = world.sim.metrics.get("spines.route_recomputes",
                                       external.name)
    # A replica whose external daemon relays for a correct pair.
    relay, src, dst = next(
        (path[1], path[0], path[-1])
        for replica in world.replicas.values()
        for hmi in world.hmis
        for path in external.route_set(replica.external_daemon.name,
                                       hmi.daemon.name)
        if len(path) > 2 and path[1].startswith("ext.replica"))
    target = next(t for t in world.start_proactive_recovery().targets
                  if relay in [daemon.name for daemon in t.daemons])
    world.run(until=1.0)
    before = recomputes.value
    world.recovery.begin_recovery(target)
    assert recomputes.value == before + 1
    down = external.route_set(src, dst)
    assert down is not None and len(down) == 2
    assert all(relay not in path for path in down)
    world.run(until=world.sim.now + 2.0)        # downtime is 0.8 s
    assert recomputes.value == before + 2
    assert any(relay in path for path in external.route_set(src, dst))


# ---------------------------------------------------------------------------
# The budget, without a clock
# ---------------------------------------------------------------------------
def test_single_plant_forwarding_budget():
    """Counts, not clocks, so it holds on a loud box.  Whole-overlay
    flooding spent 73 826 forwards on this window's 2 058 deliveries
    (35.9 each) and 226 997 kernel events; K = 2 paths spend 13 943
    (6.8) and 47 348, most of what is left being the two multicast
    streams, which still flood."""
    world = build_world(GridSpec.single_plant())
    world.run(until=3.0)
    metrics = world.sim.metrics
    assert metrics.total("spines.forwarded") \
        / metrics.total("spines.delivered") <= 8.0
    assert world.sim.events_executed < 60_000
