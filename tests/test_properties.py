"""Property-based tests (hypothesis) for core data structures and
protocol invariants."""


from hypothesis import given, settings, strategies as st

from repro.crypto import (
    KeyStore, canonical_bytes, digest, mac_payload, seal, sign_payload,
    verify_mac, verify_signature,
)
from repro.mana.features import FEATURE_NAMES, FeatureExtractor
from repro.net.arp import ArpTable
from repro.net.firewall import (
    Firewall, FirewallRule, INBOUND, OUTBOUND, VERDICT_MEMO_SIZE,
)
from repro.net.tap import PacketRecord
from repro.plc.topology import PowerTopology
from repro.prime.config import PrimeConfig, replicas_required
from repro.api import Simulator


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------
json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=20) | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


@given(json_like)
def test_canonical_bytes_deterministic(value):
    assert canonical_bytes(value) == canonical_bytes(value)


@given(json_like, json_like)
def test_canonical_bytes_injective_on_digests(a, b):
    # Different values -> different encodings (collision would mean the
    # signature layer can be confused).
    if canonical_bytes(a) == canonical_bytes(b):
        assert a == b or (a == b)  # only equal values may collide
    else:
        assert digest(a) != digest(b) or canonical_bytes(a) != canonical_bytes(b)


@given(st.dictionaries(st.text(min_size=1, max_size=6),
                       st.integers(-100, 100), min_size=1, max_size=6))
def test_canonical_bytes_dict_order_invariant(d):
    items = list(d.items())
    reversed_dict = dict(reversed(items))
    assert canonical_bytes(d) == canonical_bytes(reversed_dict)


# ---------------------------------------------------------------------------
# Crypto layer
# ---------------------------------------------------------------------------
@given(json_like)
@settings(max_examples=30)
def test_mac_roundtrip_any_payload(payload):
    ks = KeyStore()
    ks.create_symmetric("k")
    ring = ks.ring_for(symmetric_ids=["k"])
    mac = mac_payload(ring, "k", payload)
    assert verify_mac(ring, mac, payload)


@given(json_like, json_like)
@settings(max_examples=30)
def test_mac_tamper_detection(payload, other):
    ks = KeyStore()
    ks.create_symmetric("k")
    ring = ks.ring_for(symmetric_ids=["k"])
    mac = mac_payload(ring, "k", payload)
    if canonical_bytes(payload) != canonical_bytes(other):
        assert not verify_mac(ring, mac, other)


@given(json_like)
@settings(max_examples=30)
def test_signature_roundtrip_any_payload(payload):
    ks = KeyStore()
    ks.create_signing("alice")
    signer = ks.ring_for(signing_principals=["alice"])
    verifier = ks.ring_for()
    sig = sign_payload(signer, "alice", payload)
    assert verify_signature(verifier, sig, payload)


@given(json_like)
@settings(max_examples=30)
def test_seal_roundtrip_any_payload(payload):
    ks = KeyStore()
    ks.create_symmetric("k")
    ring = ks.ring_for(symmetric_ids=["k"])
    assert seal(ring, "k", payload).open(ring) == payload


# ---------------------------------------------------------------------------
# Simulator ordering
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=40))
def test_simulator_executes_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# ARP table
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.sampled_from(["10.0.0.1", "10.0.0.2"]),
                          st.sampled_from(["m1", "m2", "m3"])),
                max_size=20))
def test_static_arp_entries_never_change(updates):
    table = ArpTable(static_mode=False)
    table.add_static("10.0.0.1", "real-mac")
    for i, (ip, mac) in enumerate(updates):
        table.learn(ip, mac, now=float(i))
    assert table.lookup("10.0.0.1", now=999.0) == "real-mac"


@given(st.lists(st.tuples(st.sampled_from(["10.0.0.1", "10.0.0.2"]),
                          st.sampled_from(["m1", "m2"])), max_size=20))
def test_static_mode_rejects_all_learning(updates):
    table = ArpTable(static_mode=True)
    for i, (ip, mac) in enumerate(updates):
        assert not table.learn(ip, mac, now=float(i))
    assert table.entries() == {}


# ---------------------------------------------------------------------------
# Firewall semantics
# ---------------------------------------------------------------------------
rule_strategy = st.builds(
    FirewallRule,
    action=st.sampled_from(["allow", "deny"]),
    direction=st.sampled_from([INBOUND, OUTBOUND]),
    proto=st.sampled_from([None, "udp", "tcp"]),
    remote_ip=st.sampled_from([None, "10.0.0.1", "10.0.0.2"]),
    local_port=st.sampled_from([None, 80, 8100]),
    remote_port=st.sampled_from([None, 80, 8100]))


@given(st.lists(rule_strategy, max_size=8),
       st.sampled_from([INBOUND, OUTBOUND]),
       st.sampled_from(["udp", "tcp"]),
       st.sampled_from(["10.0.0.1", "10.0.0.2"]),
       st.sampled_from([80, 8100]), st.sampled_from([80, 8100]),
       st.booleans())
def test_firewall_first_match_wins(rules, direction, proto, ip, lport,
                                   rport, default_allow):
    fw = Firewall(default_allow=default_allow)
    fw.rules = list(rules)
    expected = default_allow
    for rule in rules:
        if rule.matches(direction, proto, ip, lport, rport):
            expected = rule.action == "allow"
            break
    assert fw.permits(direction, proto, ip, lport, rport) == expected


def _first_match(rules, default_allow, flow):
    """The reference ``Firewall.check`` is held against: a fresh scan,
    first matching rule decides, ``None`` in a rule is a wildcard."""
    for rule in rules:
        fields = (rule.direction, rule.proto, rule.remote_ip,
                  rule.local_port, rule.remote_port)
        if fields[0] == flow[0] and all(
                want is None or want == got
                for want, got in zip(fields[1:], flow[1:])):
            return rule.action == "allow"
    return default_allow


flow_strategy = st.tuples(
    st.sampled_from([INBOUND, OUTBOUND]), st.sampled_from(["udp", "tcp"]),
    st.sampled_from(["10.0.0.1", "10.0.0.2"]),
    st.sampled_from([80, 8100]), st.sampled_from([80, 8100]))

firewall_ops = st.lists(st.one_of(
    st.tuples(st.just("check"), flow_strategy),
    st.tuples(st.just("check"), flow_strategy),
    st.tuples(st.just("add"), rule_strategy),
    st.tuples(st.just("rules"), st.lists(rule_strategy, max_size=4)),
    st.tuples(st.just("default"), st.booleans())), max_size=40)


@given(firewall_ops, st.booleans())
def test_firewall_remembered_verdicts_follow_every_rule_change(
        ops, default_allow):
    fw = Firewall(default_allow=default_allow)
    rules, dropped = [], 0
    for op, value in ops:
        if op == "check":
            expected = _first_match(rules, default_allow, value)
            # Twice: the scan, then the remembered verdict.
            for _ in range(2):
                assert fw.check(*value) is expected
                dropped += not expected
            assert fw.permits(*value) is expected
        elif op == "add":
            add = fw.allow if value.action == "allow" else fw.deny
            add(value.direction, value.proto, value.remote_ip,
                value.local_port, value.remote_port)
            rules.append(value)
        elif op == "rules":
            fw.rules = value
            rules = list(value)
        else:
            fw.default_allow = default_allow = value
        assert list(fw.rules) == rules
        assert fw.packets_dropped == dropped


def test_firewall_verdict_memo_is_bounded_under_a_port_sweep():
    fw = Firewall(default_allow=False)
    fw.deny(INBOUND, "tcp", remote_port=4444)
    fw.allow(INBOUND, "tcp", "10.0.0.1")
    fw.allow(OUTBOUND, "udp", local_port=8100)
    rules = list(fw.rules)
    refused = 0
    for port in range(70_000):
        for flow in ((INBOUND, "tcp", "10.0.0.1", port, 4440 + port % 8),
                     (INBOUND, "tcp", "10.0.0.2", port, 80),
                     (OUTBOUND, "udp", "10.0.0.1", 8100, port)):
            expected = _first_match(rules, False, flow)
            assert fw.check(*flow) is expected
            refused += not expected
        assert len(fw._verdicts) <= VERDICT_MEMO_SIZE
    assert fw.packets_dropped == refused > 70_000
    # Its rules cannot be edited in place behind the memo.
    assert isinstance(fw.rules, tuple)


# ---------------------------------------------------------------------------
# Power topology monotonicity
# ---------------------------------------------------------------------------
@st.composite
def topologies(draw):
    n_buses = draw(st.integers(2, 6))
    topo = PowerTopology("prop")
    buses = [f"b{i}" for i in range(n_buses)]
    topo.add_bus(buses[0], source=True)
    for bus in buses[1:]:
        topo.add_bus(bus)
    n_breakers = draw(st.integers(1, 8))
    for i in range(n_breakers):
        a = draw(st.sampled_from(buses))
        b = draw(st.sampled_from(buses))
        if a == b:
            continue
        closed = draw(st.booleans())
        topo.add_breaker(f"k{i}", a, b, closed=closed)
    topo.add_load("load", buses[-1])
    return topo


@given(topologies())
def test_closing_breakers_never_deenergizes(topo):
    before = topo.energized_buses()
    for name in topo.breaker_names():
        topo.set_breaker(name, True)
    after = topo.energized_buses()
    assert before <= after


@given(topologies())
def test_opening_all_breakers_leaves_only_sources(topo):
    for name in topo.breaker_names():
        topo.set_breaker(name, False)
    assert topo.energized_buses() == topo.sources


@given(topologies())
def test_sources_always_energized(topo):
    assert topo.sources <= topo.energized_buses()


# ---------------------------------------------------------------------------
# Feature extraction invariants
# ---------------------------------------------------------------------------
records_strategy = st.lists(
    st.builds(
        PacketRecord,
        time=st.floats(0.0, 4.99, allow_nan=False),
        network=st.just("t"),
        ethertype=st.sampled_from(["ipv4", "arp"]),
        src_mac=st.sampled_from(["m1", "m2", "m3"]),
        dst_mac=st.sampled_from(["m1", "ff:ff:ff:ff:ff:ff"]),
        size=st.integers(40, 1500),
        src_ip=st.sampled_from([None, "10.0.0.1"]),
        dst_ip=st.sampled_from([None, "10.0.0.2"]),
        proto=st.sampled_from([None, "udp", "tcp"]),
        src_port=st.just(1), dst_port=st.sampled_from([None, 80, 502]),
        tcp_flags=st.sampled_from([None, "syn", "rst", ""]),
        is_arp=st.booleans(),
        arp_op=st.sampled_from([None, "request", "reply"])),
    max_size=30)


@given(records_strategy)
def test_feature_vector_invariants(records):
    window = FeatureExtractor(window=5.0).featurize_window(records, 0.0, "t")
    named = window.named()
    assert window.vector.shape == (len(FEATURE_NAMES),)
    assert (window.vector >= 0).all()
    assert named["packets"] == len(records)
    assert 0.0 <= named["broadcast_fraction"] <= 1.0
    assert 0.0 <= named["udp_fraction"] <= 1.0
    assert 0.0 <= named["max_talker_fraction"] <= 1.0
    assert named["arp_replies"] <= named["arp_packets"]
    if records:
        assert named["bytes"] >= named["packets"] * 40


# ---------------------------------------------------------------------------
# Prime configuration invariants
# ---------------------------------------------------------------------------
@given(st.integers(0, 4), st.integers(0, 4))
def test_quorum_intersection_contains_a_correct_replica(f, k):
    n = replicas_required(f, k)
    if n < 1:
        return
    config = PrimeConfig(f=f, k=k,
                         replica_names=[f"r{i}" for i in range(n)])
    # Two quorums intersect in at least f+1 replicas -> at least one
    # correct even with f faulty: the PBFT-style safety core.
    assert 2 * config.quorum - config.n >= f + 1
    # Quorums remain available with f faulty + k recovering.
    assert config.n - f - k >= config.quorum


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 30))
def test_leader_rotation_covers_all_replicas(f, k, view):
    n = replicas_required(f, k)
    config = PrimeConfig(f=f, k=k,
                         replica_names=[f"r{i}" for i in range(n)])
    leaders = {config.leader_of(v) for v in range(view, view + n)}
    assert leaders == set(config.replica_names)
