"""Differential and golden tests for the authentication fast path (PR 14).

Each new path is held against the computation it replaced: the
type-dispatched encoder against the parent's ``isinstance`` ladder, the
per-class view layouts against ``canonical_bytes(signed_view())``, the
keyed-pad HMAC against ``hmac.new``.  Neither the ladder nor ``hmac.new``
exists under ``src/`` any more — the reference implementations live
here, next to tag literals captured on the parent commit.
"""

import collections
import dataclasses
import enum
import hashlib
import hmac
import struct
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulator
from repro.crypto import (
    KeyRing, KeyStore, Mac, Signature, UnserializableError, cache_stats,
    canonical_bytes, mac_payload, reset_cache_stats, set_cache_enabled,
    sign_payload, verify_mac, verify_signature,
)
from repro.crypto import auth
from repro.crypto.auth import _tag
from repro.crypto.serialize import payload_bytes
from repro.crypto.threshold import (
    PartialSignature, ThresholdError, ThresholdScheme, ThresholdSignature,
)
from repro.net import Host, Lan, locked_down_firewall
from repro.prime.messages import (
    ClientUpdate, PoRequestBatch, PrePrepare, SignedPrimeMessage,
)
from repro.scada.events import CommandDirective
from repro.spines import SpinesNetwork
from repro.spines.messages import IT_FLOOD, LinkEnvelope, OverlayMessage


@pytest.fixture(autouse=True)
def _caches_on():
    set_cache_enabled(True)
    reset_cache_stats()
    yield
    set_cache_enabled(True)
    reset_cache_stats()


# ---------------------------------------------------------------------------
# Reference: the parent commit's encoder, verbatim
# ---------------------------------------------------------------------------
_PACK_U32 = struct.Struct(">I").pack
_PACK_F64 = struct.Struct(">d").pack


def ladder_bytes(value: Any) -> bytes:
    out = bytearray()
    _ladder(value, out)
    return bytes(out)


def _ladder(value: Any, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        data = str(value).encode()
        out += b"i" + _PACK_U32(len(data)) + data
    elif isinstance(value, float):
        out += b"f" + _PACK_F64(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += b"s" + _PACK_U32(len(data)) + data
    elif isinstance(value, bytes):
        out += b"b" + _PACK_U32(len(value)) + value
    elif isinstance(value, (list, tuple)):
        out += b"l" + _PACK_U32(len(value))
        for item in value:
            _ladder(item, out)
    elif isinstance(value, dict):
        items = []
        for key, item in value.items():
            key_bytes = bytearray()
            _ladder(key, key_bytes)
            items.append((bytes(key_bytes), item))
        items.sort(key=lambda pair: pair[0])
        out += b"d" + _PACK_U32(len(items))
        for key_bytes, item in items:
            out += key_bytes
            _ladder(item, out)
    elif isinstance(value, frozenset):
        encoded = sorted(ladder_bytes(item) for item in value)
        out += b"S" + _PACK_U32(len(encoded))
        for item in encoded:
            out += item
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [(f.name, getattr(value, f.name))
                  for f in dataclasses.fields(value)]
        out += b"D"
        _ladder(type(value).__name__, out)
        _ladder(dict(fields), out)
    else:
        raise UnserializableError(
            f"cannot canonically serialize {type(value).__name__}: {value!r}")


# ---------------------------------------------------------------------------
# Table dispatch == ladder
# ---------------------------------------------------------------------------
class Point(NamedTuple):
    x: int
    y: Any


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 40


class Service(str, enum.Enum):
    FLOOD = "it-flood"
    RELIABLE = "reliable"


class Tagged(frozenset):
    pass


@dataclasses.dataclass(frozen=True)
class Reading:
    plc: str
    value: Any
    level: Level = Level.LOW


@dataclasses.dataclass(frozen=True)
class Wrapped(Reading):
    # A dataclass inheriting another: own name, all fields.
    extra: Any = None


@dataclasses.dataclass
class DictRecord(dict):
    # The ladder tests ``dict`` before ``is_dataclass``.
    note: str = ""


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=False), st.text(max_size=12), st.binary(max_size=12),
    st.sampled_from(list(Level) + list(Service)))
hashables = st.one_of(
    scalars, st.frozensets(st.integers(0, 9), max_size=3),
    st.tuples(st.integers(0, 9), st.text(max_size=3)))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(hashables, children, max_size=4),
        st.dictionaries(hashables, children, max_size=3).map(
            collections.OrderedDict),
        st.frozensets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3).map(Tagged),
        st.tuples(st.integers(), children).map(lambda pair: Point(*pair)),
        st.tuples(st.text(max_size=4), children).map(
            lambda pair: Reading(*pair)),
        st.tuples(st.text(max_size=4), children, children).map(
            lambda triple: Wrapped(triple[0], triple[1], Level.HIGH,
                                   triple[2])))


values = st.recursive(scalars, _containers, max_leaves=12)


@given(values)
def test_table_dispatch_matches_the_ladder(value):
    assert canonical_bytes(value) == ladder_bytes(value)


def test_subclasses_resolve_like_the_ladder():
    record = DictRecord(note="ignored")
    record["k"] = 1
    cases = [
        True, 1, Level.HIGH, Service.FLOOD, Point(1, "y"),
        collections.OrderedDict([("b", 1), ("a", 2)]),
        collections.defaultdict(list, {"a": [1]}), Tagged({1, 2}), record,
        Reading("plc1", {"B57": True}), Wrapped("plc1", 2.5, Level.HIGH, b"x"),
        [True, 1, 1.0, "1", b"1"],
    ]
    for value in cases:
        assert canonical_bytes(value) == ladder_bytes(value), value
    # bool is an int subclass and must not encode as one.
    assert canonical_bytes(True) != canonical_bytes(1)
    assert canonical_bytes(Level.LOW) == canonical_bytes(1)


@pytest.mark.parametrize("value", [
    object(), {1, 2}, bytearray(b"x"), 1j, Reading, int,
    [1, object()], {"k": {1, 2}}, Reading("p", object()),
], ids=["object", "set", "bytearray", "complex", "dataclass-type", "type",
        "in-list", "in-dict", "in-dataclass"])
def test_unknown_types_raise_every_time(value):
    # The verdict for a type is memoised; the error is not swallowed.
    for _ in range(2):
        with pytest.raises(UnserializableError):
            canonical_bytes(value)
        with pytest.raises(UnserializableError):
            ladder_bytes(value)


# ---------------------------------------------------------------------------
# Layout-encoded view_bytes() == canonical_bytes(signed_view())
# ---------------------------------------------------------------------------
names = st.text(max_size=10)
ports = st.integers(0, 65535)
addresses = st.tuples(names, ports)
ops = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), names),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(names, inner, max_size=3)),
    max_leaves=8)

overlay_messages = st.builds(
    OverlayMessage, src=addresses, dst=addresses,
    service=st.sampled_from(["best-effort", "reliable", IT_FLOOD]),
    payload=ops, seq=st.integers(0, 2**40), src_daemon=names,
    hop_count=st.integers(0, 9),
    repeats=st.one_of(st.none(), st.integers(0, 2**40)),
    routes=st.one_of(st.none(), st.lists(
        st.lists(names, min_size=2, max_size=4).map(tuple),
        max_size=3).map(tuple)))
client_updates = st.builds(
    ClientUpdate, client_id=names, client_seq=st.integers(0, 2**40), op=ops,
    reply_to=st.one_of(st.none(), addresses),
    trace=st.one_of(st.none(), st.just({"trace_id": "t", "span_id": "s"})))
pre_prepares = st.builds(
    PrePrepare, view=st.integers(0, 99), gseq=st.integers(0, 2**40),
    matrix=st.dictionaries(
        names, st.dictionaries(names, st.integers(0, 2**40), max_size=4),
        max_size=4))
directives = st.builds(
    CommandDirective, command_id=st.tuples(names, st.integers(0, 2**40)),
    plc=names, breaker=names, close=st.booleans(), replica=names)
# A body the canonical encoder refuses (a set inside) takes the repr
# fallback; dataclass bodies and plain values take the encoder.
prime_bodies = st.one_of(
    ops, pre_prepares, st.just({"unserialisable": {1, 2}}),
    st.builds(PoRequestBatch, originator=names,
              start_seq=st.integers(0, 99),
              updates=st.lists(client_updates, max_size=2)))
signed_prime_messages = st.builds(SignedPrimeMessage, sender=names,
                                  body=prime_bodies)
# Envelope bodies: the routed message, an ack-like dict, anything else.
envelopes = st.builds(
    LinkEnvelope, sender=names, kind=st.sampled_from(["data", "ack"]),
    body=st.one_of(overlay_messages, st.dictionaries(names, ops, max_size=3),
                   names, st.none()))

views = st.one_of(overlay_messages, client_updates, pre_prepares, directives,
                  signed_prime_messages, envelopes)


@given(views)
def test_layout_view_matches_generic_encoding(message):
    before = cache_stats()
    encoded = message.view_bytes()
    again = message.view_bytes()
    after = cache_stats()
    oracle = canonical_bytes(message.signed_view())
    assert encoded == again == oracle == ladder_bytes(message.signed_view())
    assert message.view_digest() == hashlib.sha256(oracle).digest()
    # One miss for the first call on this object, one hit for the next.
    # A body that keeps its own encoding (an envelope's routed message,
    # a dataclass inside a Prime envelope) counts for itself, as ever.
    body = getattr(message, "body", None)
    inner = isinstance(body, OverlayMessage) or (
        isinstance(message, SignedPrimeMessage)
        and dataclasses.is_dataclass(body))
    assert after["encode_misses"] - before["encode_misses"] == 1 + inner
    assert after["encode_hits"] - before["encode_hits"] == 1
    # The switched-off path is the oracle itself.
    set_cache_enabled(False)
    try:
        assert message.view_bytes() == oracle
        assert payload_bytes(message) == oracle
    finally:
        set_cache_enabled(True)


def test_link_binding_is_encoded_once_per_message_and_splices():
    message = OverlayMessage(src=("a", 1), dst=("*", 2), service=IT_FLOOD,
                             payload={"op": 1}, seq=3, src_daemon="a")
    binding = message.link_binding()
    # The digest the source signature already paid for — which covers
    # the payload — and nothing that depends on an object's address.
    assert binding is message.link_binding() is message.view_digest()
    assert binding == hashlib.sha256(ladder_bytes(dict(
        message.signed_view(),
        payload=hashlib.sha256(ladder_bytes({"op": 1})).digest()))).digest()
    first = LinkEnvelope(sender="a", kind="data", body=message)
    second = LinkEnvelope(sender="b", kind="data", body=message)
    for envelope in (first, second):
        assert envelope.view_bytes() == ladder_bytes({
            "sender": envelope.sender, "kind": "data",
            "body_size": message.wire_size(), "body_digest_fields": binding})
    set_cache_enabled(False)
    assert message.link_binding() == binding


@pytest.mark.parametrize("caching", [True, False])
def test_source_signature_covers_the_payload(caching):
    """Sign one message, verify the signature against its twin carrying
    another payload: ``True`` for as long as the signed view stopped at
    the addresses (the seed's hole, ROADMAP 1a)."""
    set_cache_enabled(caching)
    ring = _golden_ring()
    fields = dict(src=("d1", 7000), dst=("d2", 7100), service=IT_FLOOD,
                  seq=41, src_daemon="d1")
    genuine = OverlayMessage(payload={"breaker": "B57", "close": True},
                             **fields)
    forged = OverlayMessage(payload={"breaker": "B57", "close": False},
                            **fields)
    signature = sign_payload(ring, "replica1", genuine)
    assert verify_signature(ring, signature, genuine)
    assert not verify_signature(ring, signature, forged)
    # ... nor the route set it was signed to travel.
    rerouted = OverlayMessage(payload=genuine.payload,
                              routes=(("d1", "d9", "d2"),), **fields)
    assert not verify_signature(ring, signature, rerouted)


# ---------------------------------------------------------------------------
# Keyed-pad HMAC == hmac.new
# ---------------------------------------------------------------------------
@given(st.integers(0, 200).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)), values)
@settings(max_examples=300)
def test_tag_is_hmac_sha256(key, message):
    expected = hmac.new(key, payload_bytes(message), hashlib.sha256).digest()
    assert _tag(key, message) == expected
    assert _tag(key, message) == expected       # from the memoised pads


@pytest.mark.parametrize("size", [0, 1, 31, 32, 63, 64, 65, 128, 200])
def test_tag_is_hmac_sha256_at_block_boundaries(size):
    key = bytes(range(256))[:size]
    update = ClientUpdate(client_id="c", client_seq=size, op={"set": size})
    assert _tag(key, update) == hmac.new(
        key, canonical_bytes(update.signed_view()), hashlib.sha256).digest()


def test_pad_memo_is_bounded_and_eviction_is_harmless():
    keys = [hashlib.sha256(str(i).encode()).digest()
            for i in range(auth.PAD_MEMO_SIZE + 50)]
    for key in keys:
        _tag(key, "m")
    assert len(auth._pads) <= auth.PAD_MEMO_SIZE
    assert keys[0] not in auth._pads
    assert _tag(keys[0], "m") == hmac.new(
        keys[0], canonical_bytes("m"), hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# Golden tags, captured on the parent commit (b66b28d) — all but the
# overlay message's source signature, re-captured twice: when its signed
# view gained the payload's digest, the route set and ``repeats``, and
# again when it gained the payload's own signature (``None`` here).  The
# other five do not involve an ``OverlayMessage`` and did not move.
# ---------------------------------------------------------------------------
def _golden_key(tag: bytes, name: str) -> bytes:
    return hashlib.sha256(tag + name.encode() + b"authpath-golden").digest()


def _golden_ring():
    """A ring holding ``spines.internal`` and the signing keys of
    ``replica1`` and ``proxy-a``, each a fixed function of its name; a
    second ring with the same signing keys is its public-key registry."""
    registry = KeyRing()
    ring = KeyRing(verifier=registry)
    ring.install_symmetric("spines.internal",
                           _golden_key(b"sym:", "spines.internal"))
    for principal in ("replica1", "proxy-a"):
        key = _golden_key(b"sig:", principal)
        registry.install_signing(principal, key)
        ring.install_signing(principal, key)
    return ring


def test_golden_tags_are_byte_identical_to_the_parent():
    ring = _golden_ring()
    overlay = OverlayMessage(
        src=("d1", 7000), dst=("*", 7000), service="it-flood",
        payload={"op": 1}, seq=41, src_daemon="d1")
    assert sign_payload(ring, "replica1", overlay) == Signature(
        "replica1", bytes.fromhex(
            "54e7a61d9c837155cdd3466168b91453ce9192a21150982cd815e598184057f3"))

    update = ClientUpdate(
        client_id="proxy-a", client_seq=9,
        op={"type": "breaker_command", "plc": "plc3", "breaker": "B57",
            "close": False},
        reply_to=("d2", 7100))
    signature = sign_payload(ring, "proxy-a", update)
    assert signature == Signature("proxy-a", bytes.fromhex(
        "db4ebe64bce9cdea7548d627caa9bb43a936a963a10aafbb8156dfa58f54e61f"))
    # The envelope signs the dataclass encoding of its body, which
    # nests the update *and* its Signature.
    batch = SignedPrimeMessage(sender="replica1", body=PoRequestBatch(
        originator="replica1", start_seq=3,
        updates=[dataclasses.replace(update, signature=signature)]))
    assert sign_payload(ring, "replica1", batch).tag.hex() == \
        "2dfed3ee33c66150aef121c5f9f06692ecaeae8bbfc2b4ccce542e6d25b99a05"

    # A non-OverlayMessage body: no object identity in the MAC view.
    envelope = LinkEnvelope(sender="d1", kind="ack",
                            body={"seq": 41, "src_daemon": "d1"})
    assert mac_payload(ring, "spines.internal", envelope) == Mac(
        "spines.internal", bytes.fromhex(
            "2f5152f85d3811e14f2cc1a229186e1b71cf9c2cc8d0b0dea05574320341707e"))

    directive = CommandDirective(command_id=("hmi1", 4), plc="plc3",
                                 breaker="B57", close=True, replica="replica1")
    assert sign_payload(ring, "replica1", directive).tag.hex() == \
        "e57cc90b03b8fbdefa80457fe8f527806d4dd604738b66337750fd9ae781f519"

    plain = {"a": [1, 2.5, None, True, b"x"], 2: ("t",)}
    assert mac_payload(ring, "spines.internal", plain).tag.hex() == \
        "b7c2fdc09e544df1dee9bd596b165334d16f6d3b133e61fe907dfb887fd6c2f9"


# ---------------------------------------------------------------------------
# A malformed tag is a rejected tag, not a crash
# ---------------------------------------------------------------------------
MALFORMED_TAGS = [None, "text", 7, ["not", "hashable"], bytearray(32)]
TAG_IDS = ["none", "str", "int", "list", "bytearray"]


@pytest.mark.parametrize("tag", MALFORMED_TAGS, ids=TAG_IDS)
@pytest.mark.parametrize("caching", [True, False])
def test_malformed_mac_tag_is_rejected(tag, caching):
    ring = _golden_ring()
    set_cache_enabled(caching)
    payload = {"reading": 1}
    assert mac_payload(ring, "spines.internal", payload).tag != tag
    assert verify_mac(ring, Mac("spines.internal", tag), payload) is False
    assert verify_mac(ring, Mac("no-such-key", tag), payload) is False


@pytest.mark.parametrize("tag", MALFORMED_TAGS, ids=TAG_IDS)
@pytest.mark.parametrize("caching", [True, False])
def test_malformed_signature_tag_is_rejected_and_not_memoised(tag, caching):
    ring = _golden_ring()
    set_cache_enabled(caching)
    update = ClientUpdate(client_id="proxy-a", client_seq=1, op={"set": 1})
    good = sign_payload(ring, "proxy-a", update)
    for _ in range(2):
        assert verify_signature(ring, Signature("proxy-a", tag), update) is False
        assert verify_signature(ring, Signature("nobody", tag), update) is False
    assert not ring._verify_cache.get("proxy-a")
    assert cache_stats()["verify_misses"] == 0
    assert verify_signature(ring, good, update) is True


def test_malformed_threshold_tags_are_rejected():
    scheme = ThresholdScheme("masters", ["r1", "r2", "r3"], threshold=2)
    payload = {"close": True}
    good = [scheme.share_for(name).sign_partial(payload)
            for name in ("r1", "r2")]
    combined = scheme.combine(good, payload)
    assert scheme.verify(combined, payload)
    for tag in MALFORMED_TAGS:
        assert scheme.verify(ThresholdSignature(
            "masters", combined.signers, tag), payload) is False
        with pytest.raises(ThresholdError):
            scheme.combine([good[0], PartialSignature("masters", "r2", tag)],
                           payload)


def test_injected_envelope_with_garbage_mac_is_counted_not_fatal():
    """One frame whose ``mac.tag`` is not bytes used to raise out of the
    receiving daemon's callback; it is one more unauthenticated frame."""
    sim = Simulator(seed=11)
    lan = Lan(sim, "net", "10.0.0.0/24")
    keystore = KeyStore(sim.rng.child("keys"))
    hosts = []
    for i in range(3):
        host = Host(sim, f"host{i}", firewall=locked_down_firewall())
        lan.connect(host)
        hosts.append(host)
    overlay = SpinesNetwork(sim, "test", lan, keystore, port=8100,
                            intrusion_tolerant=True)
    for host in hosts:
        overlay.add_daemon(host)
    overlay.connect_full_mesh()
    first, second = sorted(overlay.daemons)[:2]
    target = overlay.daemons[first]
    received = []
    target.create_session(50, lambda src, payload: received.append(payload))
    sender = overlay.daemons[second].create_session(51, lambda src, p: None)

    spoof = OverlayMessage(src=(second, 51), dst=(first, 50),
                           service=IT_FLOOD, payload="spoof", seq=1,
                           src_daemon=second)
    for tag in MALFORMED_TAGS:
        overlay.daemons[second].host.udp_send(
            lan.ip_of(target.host), 8100,
            LinkEnvelope(sender=second, kind="data", body=spoof,
                         mac=Mac(target.network_key_id, tag)),
            src_port=8100)
    before = target.stats_dropped_auth
    sim.run(until=0.5)
    assert target.stats_dropped_auth == before + len(MALFORMED_TAGS)
    assert received == []
    # The daemon is still up and authenticates real traffic.
    sender.send((first, 50), "genuine", service=IT_FLOOD)
    sim.run(until=1.5)
    assert received == ["genuine"]
