"""Overlay network construction and route computation.

A :class:`SpinesNetwork` groups the daemons of one overlay (Spire uses
two: *internal* for replica-to-replica traffic, *external* for
replica↔proxy/HMI traffic), manages their shared symmetric key, the
overlay topology, and the link-state view every daemon routes from.

The view is held centrally.  In the real system each daemon runs a
link-state protocol (and a group-membership one) and converges to the
same picture; the centralized stand-in models post-convergence
behaviour: a topology or membership change (edge added or removed,
daemon stopped or started, session opened or closed) starts a new
epoch, and the routes a daemon asks for — an intrusion-tolerant route
set, the shortest path's next hop in routed mode — are computed from
the current epoch's view the first time a source needs them for a
destination or a group and remembered until the next change.  Nothing
is computed while a world is being wired.

Route sets (:meth:`SpinesNetwork.route_set`): a unicast travels K
node-disjoint paths through every *segment* between the pair's
*separators* — the daemons every path between them crosses, which a
flood has to cross as well — and a multicast the union of the unicast
sets to its group's members.  Flooding is left to what the view cannot
see or cannot split K ways.

Topologies in the tree: the internal overlay is a full mesh of the
replicas; a site's external overlay (the plant: 27 daemons, 54 edges)
and each region of a federated grid are a ring plus chords
(:meth:`SpinesNetwork.connect_sparse`), with region leads hanging off
the core by a single uplink — the core lead is then a separator
between every replica and every proxy of a region.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.keys import KeyStore
from repro.net.firewall import INBOUND, OUTBOUND
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulator import Simulator
from repro.spines.daemon import SpinesDaemon
from repro.spines.messages import RouteSet

Adjacency = Dict[str, List[str]]

_UNKNOWN = object()     # not yet in a memo (``None`` is a route set)


def _max_disjoint_paths(adj: Adjacency, src: str, dst: str,
                        k: int) -> List[Tuple[str, ...]]:
    """Up to ``k`` node-disjoint ``src`` → ``dst`` paths by augmenting
    paths over the unit-capacity graph in which every node but the two
    ends is split into an entry and an exit half (``(name, 0)`` →
    ``(name, 1)``) — the textbook reduction of vertex connectivity to
    maximum flow, small enough for overlays of a few dozen daemons.
    Searches are breadth-first, so a single path is a shortest one,
    ties going to the neighbour ``adj`` lists first."""
    flow: Set[Tuple[tuple, tuple]] = set()      # saturated arcs
    source, sink = (src, 1), (dst, 1)

    def arcs(node: tuple) -> List[tuple]:
        name, half = node
        if half == 0:
            return [(name, 1)]
        return [(neighbor, 1 if neighbor in (src, dst) else 0)
                for neighbor in adj.get(name, ())]

    for _ in range(k):
        # Unit capacities: at most one unit enters any node but the
        # sink, and the residual graph lets a search cancel it.
        entered_from = {head: tail for tail, head in flow if head != sink}
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            targets = [target for target in arcs(node)
                       if (node, target) not in flow]
            if node in entered_from:
                targets.append(entered_from[node])
            for target in targets:
                if target not in parent:
                    parent[target] = node
                    queue.append(target)
        if sink not in parent:
            break
        node = sink
        while parent[node] is not None:
            if (node, parent[node]) in flow:
                flow.discard((node, parent[node]))      # cancelled
            else:
                flow.add((parent[node], node))
            node = parent[node]
    following = {tail: head for tail, head in flow}
    paths = []
    for first in sorted(head for tail, head in flow if tail == source):
        path, node = [src], first
        while node != sink:
            if node[1] == 1:
                path.append(node[0])
            node = following[node]
        path.append(dst)
        paths.append(tuple(path))
    return paths


def disjoint_paths(adj: Adjacency, src: str, dst: str,
                   k: int) -> List[Tuple[str, ...]]:
    """``min(k, connectivity)`` simple ``src`` → ``dst`` paths that
    share no node but their ends, shortest first.

    The first path is a shortest path whenever the rest can be found
    around it — a copy sent along the set then arrives as early as a
    flood's would — and the remaining ones are as many as maximum flow
    finds once its interior is set aside.  Only when that shortest path
    itself stands in the way of ``k`` disjoint ones (it crosses two
    paths that would otherwise be disjoint) is the whole set taken from
    maximum flow instead: tolerating ``k - 1`` bad forwarders comes
    before the last hop of latency.  ``adj`` lists each node's
    neighbours in the order ties are to be broken (sorted, in this
    module); nothing here iterates a set or a dict of the caller's.
    """
    if src == dst:
        return []
    return _around_shortest(adj, src, dst, k,
                            _max_disjoint_paths(adj, src, dst, 1))


def _around_shortest(adj: Adjacency, src: str, dst: str, k: int,
                     paths: List[Tuple[str, ...]]) -> List[Tuple[str, ...]]:
    """:func:`disjoint_paths`, its shortest path (``paths``, or no path)
    already in hand."""
    if k <= 1 or not paths:
        return paths[:k]
    first = paths[0]
    interior = set(first[1:-1])
    direct = {src, dst} if len(first) == 2 else None
    around = {node: [n for n in neighbors
                     if n not in interior and {node, n} != direct]
              for node, neighbors in adj.items() if node not in interior}
    paths = paths + _max_disjoint_paths(around, src, dst, k - 1)
    if len(paths) < k:
        rival = _max_disjoint_paths(adj, src, dst, k)
        if len(rival) > len(paths):
            paths = rival
    return sorted(paths, key=len)


def _reaches(adj: Adjacency, src: str, dst: str, avoiding: str) -> bool:
    """Whether ``dst`` can be reached from ``src`` without ``avoiding``."""
    seen = {src, avoiding}
    queue = [src]
    for node in queue:
        for neighbor in adj[node]:
            if neighbor == dst:
                return True
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return False


def segment_paths(adj: Adjacency, src: str, dst: str, k: int,
                  memo: Optional[Dict[Tuple[str, str], list]] = None,
                  ) -> List[List[Tuple[str, ...]]]:
    """The ``src`` → ``dst`` route in pieces, one per *segment*.

    A *separator* is a daemon every ``src`` → ``dst`` path crosses (a
    cut vertex between them); a flood has to cross it too.  Every one
    lies on a shortest path, separators are crossed in one order, and
    consecutive ones — with ``src`` and ``dst`` at the ends — bound the
    segments, each inside one biconnected block of the view.  A segment
    gets :func:`disjoint_paths`: ``min(k, c)`` node-disjoint paths,
    shortest first, ``c`` its own connectivity — one path, a single
    edge, for a bridge.  Between well-connected daemons there is one
    segment, and its paths are the pair's.  Empty when ``dst`` cannot
    be reached.

    A segment's paths depend on its two ends alone, so many pairs share
    them (every replica → proxy route crosses the same core lead):
    ``memo`` keeps them by ``(start, end)`` for as long as ``adj`` and
    ``k`` hold.
    """
    shortest = _max_disjoint_paths(adj, src, dst, 1)
    if not shortest:
        return []
    ends = [src] + [node for node in shortest[0][1:-1]
                    if not _reaches(adj, src, dst, node)] + [dst]
    memo = {} if memo is None else memo
    segments = []
    for ends_of in zip(ends, ends[1:]):
        found = memo.get(ends_of)
        if found is None:
            found = memo[ends_of] = (
                _around_shortest(adj, src, dst, k, shortest)
                if len(ends) == 2 else disjoint_paths(adj, *ends_of, k))
        segments.append(found)
    return segments


def join_segments(
        segments: List[List[Tuple[str, ...]]]) -> List[Tuple[str, ...]]:
    """Whole paths through the segments: the ``i``-th takes each
    segment's ``i``-th path (its last, where a segment has fewer), so
    the first is a shortest path and ``f`` daemons off the separators
    lie on at most ``f`` of them once every segment but a bridge has
    ``f + 1``."""
    count = max((len(found) for found in segments), default=0)
    joined = []
    for index in range(count):
        path: Tuple[str, ...] = segments[0][min(index, len(segments[0]) - 1)]
        for found in segments[1:]:
            path += found[min(index, len(found) - 1)][1:]
        joined.append(path)
    return sorted(joined, key=len)


class SpinesNetwork:
    """One Spines overlay over a set of hosts on a LAN.

    Args:
        sim: simulation kernel.
        name: overlay name; also used to derive the network key id
            (``"spines.<name>"``).
        lan: the underlying LAN carrying daemon-to-daemon UDP.
        keystore: deployment key authority (creates the network key).
        port: UDP port daemons bind (8100 internal, 8120 external in the
            deployed system).
        intrusion_tolerant: run daemons in IT mode (source-signed route
            sets) rather than routed mode.
        disjoint_paths: K, the number of node-disjoint paths an IT-mode
            unicast travels — ``f + 1`` to tolerate ``f`` compromised
            forwarders.
    """

    def __init__(self, sim: Simulator, name: str, lan: Lan, keystore: KeyStore,
                 port: int = 8100, intrusion_tolerant: bool = True,
                 disjoint_paths: int = 2):
        self.sim = sim
        self.name = name
        self.lan = lan
        self.keystore = keystore
        self.port = port
        self.intrusion_tolerant = intrusion_tolerant
        self.disjoint_paths = disjoint_paths
        self.key_id = f"spines.{name}"
        if not keystore.has_symmetric(self.key_id):
            keystore.create_symmetric(self.key_id)
        self.daemons: Dict[str, SpinesDaemon] = {}
        self.edges: Set[Tuple[str, str]] = set()
        # The current epoch's link-state view, and the route sets
        # ((src, dst) for a pair, (src, "*", port) for a group), the
        # segments they were joined from and routed-mode next hops
        # computed from it so far; all derived, all rebuilt on demand.
        self._adjacency: Optional[Adjacency] = None
        self._routes: Dict[tuple, Optional[RouteSet]] = {}
        self._segments: Dict[Tuple[str, str], list] = {}
        self._hops: Dict[Tuple[str, str], Optional[str]] = {}

    def __getstate__(self) -> dict:
        # Like the verify memo, the route memos are a function of state
        # a snapshot already holds: leave them behind.
        state = dict(self.__dict__)
        state["_adjacency"] = None
        state["_routes"] = {}
        state["_segments"] = {}
        state["_hops"] = {}
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_daemon(self, host: Host,
                   daemon_name: Optional[str] = None) -> SpinesDaemon:
        """Create a daemon on ``host`` and provision its keys.

        The daemon's signing key (for IT-mode source signatures) and the
        network symmetric key are installed into the *host* key ring —
        compromising the host therefore leaks them, as in a real
        deployment.
        """
        daemon_name = daemon_name or f"{self.name}.{host.name}"
        if daemon_name in self.daemons:
            raise RuntimeError(f"duplicate daemon {daemon_name}")
        if not host.key_ring.has_symmetric(self.key_id):
            host.key_ring.install_symmetric(
                self.key_id, self.keystore.symmetric(self.key_id))
        self.keystore.create_signing(daemon_name)
        host.key_ring.install_signing(
            daemon_name, self.keystore.signing(daemon_name))
        if host.key_ring._verifier is None:
            host.key_ring._verifier = self.keystore
        daemon = SpinesDaemon(self.sim, daemon_name, host, self.port,
                              self.key_id,
                              intrusion_tolerant=self.intrusion_tolerant)
        daemon.network = self
        self.daemons[daemon_name] = daemon
        # Firewall allowance: daemons accept overlay traffic on their port.
        host.firewall.allow(INBOUND, "udp", local_port=self.port)
        host.firewall.allow(OUTBOUND, "udp", remote_port=self.port)
        return daemon

    def connect_full_mesh(self) -> None:
        names = list(self.daemons)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.add_edge(a, b)

    def connect_sparse(self, degree: int = 4) -> None:
        """Build a ring-plus-chords overlay of roughly ``degree``
        neighbors per daemon.

        Deployed Spines overlays are sparse: flooding cost scales with
        the edge count, so a full mesh is wasteful beyond a handful of
        nodes.  A ring guarantees connectivity (and survives daemon
        failures thanks to the chords); chords cut the diameter and
        give every pair the disjoint paths K-path routing needs.
        """
        names = sorted(self.daemons)
        n = len(names)
        if n <= degree + 1:
            self.connect_full_mesh()
            return
        for i, a in enumerate(names):
            self.add_edge(a, names[(i + 1) % n])           # ring
            for c in range(2, degree // 2 + 1):
                stride = max(2, (n // degree) * c)
                self.add_edge(a, names[(i + stride) % n])   # chords

    def add_edge(self, a: str, b: str) -> None:
        if a == b or (a, b) in self.edges or (b, a) in self.edges:
            return
        self.edges.add((a, b))
        daemon_a, daemon_b = self.daemons[a], self.daemons[b]
        ip_a = self.lan.ip_of(daemon_a.host)
        ip_b = self.lan.ip_of(daemon_b.host)
        daemon_a.add_neighbor(b, ip_b, self.port)
        daemon_b.add_neighbor(a, ip_a, self.port)
        self.recompute_routes()

    def remove_edge(self, a: str, b: str) -> None:
        self.edges.discard((a, b))
        self.edges.discard((b, a))
        if a in self.daemons:
            self.daemons[a].remove_neighbor(b)
        if b in self.daemons:
            self.daemons[b].remove_neighbor(a)
        self.recompute_routes()

    # ------------------------------------------------------------------
    # The link-state view
    # ------------------------------------------------------------------
    def recompute_routes(self) -> None:
        """A topology or membership change — an edge added or removed,
        a daemon stopped or started, a session opened or closed: the
        link-state view re-converges, so every route computed from the
        old one is forgotten."""
        self.sim.metrics.counter("spines.route_recomputes",
                                 component=self.name).inc()
        self._adjacency = None
        self._routes.clear()
        self._segments.clear()
        self._hops.clear()

    def _view(self) -> Adjacency:
        adj = self._adjacency
        if adj is None:
            adj = self._adjacency = {name: [] for name in self.daemons}
            # Sorted: edge-set iteration order is hash-seed dependent,
            # and neighbor order tie-breaks equal-cost paths.
            for a, b in sorted(self.edges):
                if self.daemons[a].running and self.daemons[b].running:
                    adj[a].append(b)
                    adj[b].append(a)
        return adj

    def route_set(self, src: str, dst: str,
                  port: Optional[int] = None) -> Optional[RouteSet]:
        """The route set an IT-mode message from ``src`` to ``dst`` is
        signed to travel — for ``dst == "*"``, to the group of daemons
        with a session on ``port``.

        A unicast takes K node-disjoint paths through every segment
        between the pair's separators (:func:`segment_paths`), an empty
        set when the view cannot reach ``dst``.  A multicast takes the
        de-duplicated union of the unicast sets to its group members:
        the running daemons with a session on ``port``.  ``None`` — every
        edge — only where the view cannot do better: ``dst`` outside the
        view (such as the red team's own daemon), and a segment other
        than a single edge with fewer than K disjoint paths."""
        key = (src, dst) if dst != "*" else (src, dst, port)
        found = self._routes.get(key, _UNKNOWN)
        if found is _UNKNOWN:
            found = self._routes[key] = (
                self._group_routes(src, port) if dst == "*"
                else self._pair_routes(src, dst))
        return found

    def _pair_routes(self, src: str, dst: str) -> Optional[RouteSet]:
        adj = self._view()
        if dst not in adj:
            return None
        k = self.disjoint_paths
        segments = segment_paths(adj, src, dst, k, self._segments)
        if any(1 < len(found) < k for found in segments):
            return None
        return RouteSet(join_segments(segments))

    def _group_routes(self, src: str, port: int) -> Optional[RouteSet]:
        union: Dict[Tuple[str, ...], None] = {}
        for name, daemon in self.daemons.items():
            if name != src and daemon.running and port in daemon.sessions:
                found = self.route_set(src, name)
                if found is None:
                    return None
                union.update(dict.fromkeys(found))
        return RouteSet(union)

    def next_hop(self, src: str, dst: str) -> Optional[str]:
        """Routed mode: the neighbour of ``src`` on its shortest path
        to ``dst``."""
        key = (src, dst)
        hop = self._hops.get(key, _UNKNOWN)
        if hop is _UNKNOWN:
            found = disjoint_paths(self._view(), src, dst, 1)
            hop = self._hops[key] = found[0][1] if found else None
        return hop

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def daemon_on(self, host: Host) -> SpinesDaemon:
        for daemon in self.daemons.values():
            if daemon.host is host:
                return daemon
        raise KeyError(f"no {self.name} daemon on {host.name}")

    def stop_daemon(self, name: str) -> None:
        self.daemons[name].stop_daemon()

    def start_daemon(self, name: str) -> None:
        self.daemons[name].start_daemon()
