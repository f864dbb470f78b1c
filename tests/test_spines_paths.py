"""K node-disjoint paths: the path computer, the one forwarding rule and
its flood fall-backs, and what a compromised forwarder can no longer do.
"""

import itertools
import os
import subprocess
import sys

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.api import GridSpec, Simulator, build_world, make_town_spec
from repro.crypto import KeyStore, sign_payload
from repro.net import Host, Lan, locked_down_firewall
from repro.spines import (
    IT_FLOOD, LinkEnvelope, OverlayMessage, RELIABLE, SpinesNetwork,
)
from repro.spines.overlay import disjoint_paths, join_segments, segment_paths


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


def _connectivity(reference, src, dst):
    """How many node-disjoint ``src`` - ``dst`` paths ``reference``
    holds.  networkx defines node connectivity for non-adjacent pairs;
    a direct edge is one more path next to those around it."""
    if reference.has_edge(src, dst):
        around = reference.copy()
        around.remove_edge(src, dst)
        return 1 + (len(list(nx.node_disjoint_paths(around, src, dst)))
                    if nx.has_path(around, src, dst) else 0)
    return len(list(nx.node_disjoint_paths(reference, src, dst)))


@given(connected_graphs(), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_disjoint_paths_match_networkx(graph, k):
    names, edges, src, dst = graph
    adj = _adjacency(names, edges)
    reference = nx.Graph(edges)
    paths = disjoint_paths(adj, src, dst, k)
    assert len(paths) == min(k, _connectivity(reference, src, dst))

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


# ---------------------------------------------------------------------------
# Separators and segments against networkx
# ---------------------------------------------------------------------------
@st.composite
def graphs_with_cut_vertices(draw):
    """A random connected graph glued from up to five random blocks,
    each sharing one daemon with what came before — every shared daemon
    a cut vertex — and two distinct ends."""
    names, edges = ["n00"], set()
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 6))
        block = [draw(st.sampled_from(names))] + [
            f"n{len(names) + index:02d}" for index in range(size)]
        names += block[1:]
        pairs = [(draw(st.integers(0, index - 1)), index)
                 for index in range(1, size + 1)]
        pairs += draw(st.lists(st.tuples(st.integers(0, size),
                                         st.integers(0, size)),
                               max_size=2 * size))
        edges |= {tuple(sorted((block[a], block[b])))
                  for a, b in pairs if a != b}
    src, dst = draw(st.permutations(names))[:2]
    return names, sorted(edges), src, dst


@given(graphs_with_cut_vertices(), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_segments_cross_every_separator_in_order(graph, k):
    names, edges, src, dst = graph
    reference = nx.Graph(edges)
    separators = [
        node for node in nx.shortest_path(reference, src, dst)[1:-1]
        if not nx.has_path(nx.restricted_view(reference, [node], []),
                           src, dst)]
    ends = [src] + separators + [dst]
    segments = segment_paths(_adjacency(names, edges), src, dst, k)
    assert len(segments) == len(ends) - 1
    for (a, b), found in zip(zip(ends, ends[1:]), segments):
        connectivity = _connectivity(reference, a, b)
        assert len(found) == min(k, connectivity)
        if connectivity == 1:
            assert found == [(a, b)]                           # a bridge
        assert all(path[0] == a and path[-1] == b for path in found)
        interiors = [node for path in found for node in path[1:-1]]
        assert len(set(interiors)) == len(interiors)           # disjoint

    paths = join_segments(segments)
    assert len(paths) == max(map(len, segments))
    for path in paths:
        assert path[0] == src and path[-1] == dst
        assert len(set(path)) == len(path)                     # simple
        assert all(reference.has_edge(a, b) for a, b in zip(path, path[1:]))
        crossed = [path.index(node) for node in separators]
        assert crossed == sorted(crossed)                      # in order

    # Once every segment but a bridge has k paths (the route set is
    # not a flood), no k - 1 daemons off the separators cut them all.
    if all(len(found) in (1, k) for found in segments):
        off = sorted({node for path in paths for node in path} - set(ends))
        for bad in itertools.combinations(off, min(k - 1, len(off))):
            assert any(not set(bad) & set(path) for path in paths)


@given(graphs_with_cut_vertices(), st.data())
@settings(max_examples=40, deadline=None)
def test_multicast_union_reaches_every_member_once(graph, data):
    names, edges, src, _dst = graph
    sim, overlay = build(edges)
    members = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                 unique=True))
    for member in members:
        listen(overlay, member)
    union = overlay.route_set(src, "*", 50)
    assert union == tuple(dict.fromkeys(
        path for member in sorted(members) if member != src
        for path in overlay.route_set(src, member)))
    reached = [src]
    for node in reached:
        following = union.successors(node)
        assert len(set(following)) == len(following)           # once each
        reached += [hop for hop in following if hop not in reached]
    assert set(members) <= set(reached)
    assert {(a, b) for path in union for a, b in zip(path, path[1:])} == {
        (node, hop) for node in reached for hop in union.successors(node)}


_HASHSEED_PROBE = """
import hashlib, random
from repro.api import build_world, make_town_spec
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
# Route sets through separators, and group unions, on a federated grid.
world = build_world(make_town_spec(5))
for network in (world.internal, world.external):
    names = list(network.daemons)
    out += [network.route_set(a, b) for a in names for b in names]
    out += [network.route_set(a, "*", port) for a in names
            for port in (7000, 7100)]
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


def sent(sim, overlay, sender, dst, payload, port=50):
    """Forwards, per daemon, that one message from ``sender`` costs."""
    before = forwards(overlay)
    sender.send((dst, port), payload, service=IT_FLOOD)
    sim.run(until=sim.now + 1.0)
    return {name: count - before.get(name, 0)
            for name, count in forwards(overlay).items()
            if count != before.get(name, 0)}


def test_a_cut_vertex_is_crossed_on_k_paths_and_the_unknown_floods():
    sim, overlay = build(DIAMOND)
    # b is on every a - p path: both paths to it, then its one edge on.
    assert overlay.route_set("a", "p") == (("a", "m", "b", "p"),
                                           ("a", "x", "y", "b", "p"))
    assert overlay.route_set("a", "elsewhere") is None  # not in the view
    received = listen(overlay, "p")
    sender = overlay.daemons["a"].create_session(51, lambda s, p: None)
    # b sends once, on to p, whichever path its first copy came by.
    assert sent(sim, overlay, sender, "p", "m0") == {
        "a": 2, "m": 1, "x": 1, "y": 1, "b": 1}
    # Every daemon sends on every edge but the one it first heard the
    # message on (the source has none): 2|E| - (|V| - 1).
    assert sum(sent(sim, overlay, sender, "elsewhere", "m1").values()) \
        == 2 * 6 - 5
    assert received == ["m0"]


def test_multicast_touches_its_members_and_their_paths_only():
    sim, overlay = build(DIAMOND)
    group = listen(overlay, "b")
    elsewhere = listen(overlay, "p", port=52)      # another port's group
    sender = overlay.daemons["a"].create_session(51, lambda s, p: None)
    assert overlay.route_set("a", "*", 50) == overlay.route_set("a", "b")
    assert sent(sim, overlay, sender, "*", "to b") == {
        "a": 2, "m": 1, "x": 1, "y": 1}
    # p joins: a new epoch, and the union of both members' route sets,
    # its shared first hops sent once.
    recomputes = sim.metrics.get("spines.route_recomputes", overlay.name)
    before = recomputes.value
    joined = listen(overlay, "p")
    assert recomputes.value == before + 1
    union = overlay.route_set("a", "*", 50)
    assert union == overlay.route_set("a", "b") + overlay.route_set("a", "p")
    assert union.successors("a") == ("m", "x")
    assert sent(sim, overlay, sender, "*", "to b and p") == {
        "a": 2, "m": 1, "x": 1, "y": 1, "b": 1}
    assert group == ["to b", "to b and p"] and joined == ["to b and p"]
    assert elsewhere == []
    # ... and leaves again.
    overlay.daemons["p"].sessions[50].close()
    assert recomputes.value == before + 2
    assert overlay.route_set("a", "*", 50) == overlay.route_set("a", "b")


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

    first, = b._delivered_reliable["a"]
    again = OverlayMessage(src=("a", 51), dst=("b", 50), service=RELIABLE,
                           payload="persistent", seq=a._seq + 1,
                           src_daemon="a", repeats=first)
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
    (35.9 each) and 226 997 kernel events; K = 2 paths for unicast only
    spent 13 943 (6.8) and 47 348; route sets for the two multicast
    streams as well spend 8 350 (4.06) and 30 569."""
    world = build_world(GridSpec.single_plant())
    world.run(until=3.0)
    metrics = world.sim.metrics
    assert metrics.total("spines.forwarded") \
        / metrics.total("spines.delivered") <= 4.1
    assert world.sim.events_executed < 31_000


def test_city25_forwarding_budget():
    """The core lead daemon is the only way from the replicas into the
    regions, so with route sets for well-connected pairs only, nearly
    every message flooded all 34 daemons: 146 560 forwards and 452 016
    kernel events in these 8 sim-s.  Through the separators: 13 178 and
    54 156."""
    world = build_world(make_town_spec(25))
    world.run(until=8.0)
    assert world.sim.metrics.total("spines.forwarded") <= 20_000
    assert world.sim.events_executed < 80_000
