"""Tests for utility modules: event log, id generation, RNG trees."""

import pickle

import pytest

from repro.api import Simulator
from repro.util import DeterministicRng, EventLog, IdGenerator


# ---------------------------------------------------------------------------
# EventLog
# ---------------------------------------------------------------------------
def test_eventlog_filters_by_category_prefix():
    log = EventLog()
    log.log("a", "prime.execute", "x")
    log.log("a", "prime.commit", "y")
    log.log("b", "net.arp", "z")
    assert log.count(category="prime") == 2
    assert log.count(category="prime.execute") == 1
    assert log.count(category="net") == 1
    assert log.count() == 3


def test_eventlog_category_prefix_respects_dotted_boundary():
    """"prime" must not match "primex" — only exact or dotted children."""
    log = EventLog()
    log.log("a", "prime", "root")
    log.log("a", "prime.execute", "child")
    log.log("a", "primex", "lookalike")
    assert log.count(category="prime") == 2
    assert log.count(category="primex") == 1
    assert {r.category for r in log.records(category="prime")} == {
        "prime", "prime.execute"}


def test_eventlog_filters_by_source_and_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.log.log("r1", "c", "early"))
    sim.schedule(5.0, lambda: sim.log.log("r1", "c", "late"))
    sim.schedule(5.0, lambda: sim.log.log("r2", "c", "other"))
    sim.run()
    assert len(sim.log.records(source="r1")) == 2
    assert len(sim.log.records(source="r1", since=2.0)) == 1
    assert sim.log.records(source="r2")[0].message == "other"


def test_eventlog_listeners_stream_records():
    log = EventLog()
    seen = []
    log.subscribe(seen.append)
    log.log("s", "c", "m", value=3)
    assert len(seen) == 1
    assert seen[0].data["value"] == 3


def test_eventlog_clear_and_len():
    log = EventLog()
    log.log("s", "c", "m")
    assert len(log) == 1
    log.clear()
    assert len(log) == 0


def test_eventlog_iteration():
    log = EventLog()
    for i in range(3):
        log.log("s", "c", f"m{i}")
    assert [r.message for r in log] == ["m0", "m1", "m2"]


# ---------------------------------------------------------------------------
# IdGenerator
# ---------------------------------------------------------------------------
def test_idgen_monotonic():
    gen = IdGenerator()
    values = [gen.next_int() for _ in range(5)]
    assert values == [1, 2, 3, 4, 5]


def test_idgen_prefix():
    gen = IdGenerator(prefix="pkt-")
    assert gen.next_id() == "pkt-1"
    assert gen.next_id() == "pkt-2"


def test_idgen_unprefixed_ids_are_plain_numbers():
    gen = IdGenerator()
    assert gen.next_id() == "1"


# ---------------------------------------------------------------------------
# DeterministicRng
# ---------------------------------------------------------------------------
def test_rng_same_path_same_stream():
    a = DeterministicRng(7).child("x").child("y")
    b = DeterministicRng(7).child("x").child("y")
    assert [a.randint(0, 100) for _ in range(10)] == \
        [b.randint(0, 100) for _ in range(10)]


def test_rng_different_seeds_differ():
    a = DeterministicRng(7).child("x")
    b = DeterministicRng(8).child("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_rng_adding_child_does_not_perturb_sibling():
    root_a = DeterministicRng(7)
    sibling_a = root_a.child("sib")
    first = [sibling_a.random() for _ in range(5)]

    root_b = DeterministicRng(7)
    _extra = root_b.child("new-consumer")   # added before the sibling
    sibling_b = root_b.child("sib")
    second = [sibling_b.random() for _ in range(5)]
    assert first == second


def test_rng_utilities():
    rng = DeterministicRng(5).child("u")
    assert len(rng.bytes(16)) == 16
    assert rng.choice([1, 2, 3]) in (1, 2, 3)
    assert 0 <= rng.uniform(0, 1) <= 1
    sample = rng.sample(range(10), 3)
    assert len(set(sample)) == 3
    items = [1, 2, 3, 4]
    rng.shuffle(items)
    assert sorted(items) == [1, 2, 3, 4]
    assert rng.expovariate(1.0) > 0
    assert isinstance(rng.gauss(0, 1), float)
    assert "path=" in repr(rng)


def test_rng_undrawn_child_pickles_as_seed_and_path():
    """A stream nobody has drawn from holds no Mersenne state (3.8 KB
    pickled); most streams of a world are never drawn from."""
    child = DeterministicRng(7).child("sub-03").child("proxy-poll")
    assert len(pickle.dumps(child)) < 200
    assert repr(child) == ("DeterministicRng(seed=7, "
                           "path='root/sub-03/proxy-poll')")
    assert child.path == "root/sub-03/proxy-poll"


@pytest.mark.parametrize("drawn", [0, 1, 1000])
def test_rng_save_restore_continues_the_stream(drawn):
    uninterrupted = DeterministicRng(11).child("x")
    saved = DeterministicRng(11).child("x")
    for _ in range(drawn):
        uninterrupted.random()
        saved.random()
    restored = pickle.loads(pickle.dumps(saved))
    assert [restored.random() for _ in range(20)] == \
        [uninterrupted.random() for _ in range(20)]
    assert repr(restored) == repr(uninterrupted)
    assert restored.path == "root/x"
