"""Prime edge cases: equivocation, partitions, reconciliation, view
evidence, content fetching, and stable checkpoints."""

from dataclasses import replace

from repro.crypto.auth import sign_payload
from repro.prime import ClientUpdate
from repro.prime.messages import AruExchange, PoAckBatch, PoRequestBatch
from repro.prime.replica import CHECKPOINT_INTERVAL


def make_signed_update(cluster, client_id, seq, op):
    cluster.keystore.create_signing(client_id)
    ring = cluster.keystore.ring_for(signing_principals=[client_id])
    update = ClientUpdate(client_id=client_id, client_seq=seq, op=op)
    return ClientUpdate(client_id=client_id, client_seq=seq, op=op,
                        signature=sign_payload(ring, client_id,
                                               update.signed_view()))


def feed(cluster, client, period=0.2):
    """Submit an update every ``period`` sim-s until the returned timer
    stops: each orders in a gseq of its own, so a checkpoint comes every
    ``CHECKPOINT_INTERVAL`` updates."""
    count = iter(range(1, 1 << 30))

    def submit():
        n = next(count)
        client.submit({"set": (f"fed{n}", n)})
    return cluster.sim.every(period, submit)


def test_equivocating_originator_cannot_certify_two_contents(cluster):
    """An originator sending different client updates for the same
    preorder slot to different replicas: at most one content can gather
    a 2f+k+1 certificate (quorum intersection)."""
    update_a = make_signed_update(cluster, "client-a", 1, {"set": ("x", 1)})
    update_b = make_signed_update(cluster, "client-b", 1, {"set": ("x", 2)})
    evil = cluster.replica(0)
    slot_key = (evil.originator_id, 1)
    # Deliver conflicting po-requests directly to split the replicas.
    batch_a = PoRequestBatch(originator=evil.originator_id, start_seq=1,
                             updates=[update_a])
    batch_b = PoRequestBatch(originator=evil.originator_id, start_seq=1,
                             updates=[update_b])
    names = cluster.config.replica_names
    for name in names[1:4]:
        cluster.replicas[name]._po_request_in(evil.name, batch_a)
    for name in names[4:]:
        cluster.replicas[name]._po_request_in(evil.name, batch_b)
    cluster.sim.run(until=3.0)
    certified = set()
    for name in names[1:]:
        slot = cluster.replicas[name].po_slots.get(slot_key)
        if slot is not None and slot.certified is not None:
            certified.add(slot.certified)
    assert len(certified) <= 1, "two contents certified for one slot"


def test_po_request_under_foreign_incarnation_rejected(cluster):
    """A replica may only introduce updates under its own originator id."""
    update = make_signed_update(cluster, "client-x", 1, {"set": ("y", 1)})
    victim_incarnation = cluster.replica(1).originator_id
    batch = PoRequestBatch(originator=victim_incarnation, start_seq=99,
                           updates=[update])
    target = cluster.replica(2)
    target._po_request_in(cluster.replica(0).name, batch)   # wrong sender
    assert (victim_incarnation, 99) not in target.po_slots


def test_partitioned_replica_catches_up_via_reconciliation(cluster):
    client = cluster.add_client("hmi")
    lagger = cluster.replica(5)
    link = cluster.internal_lan.link_of(lagger.internal_daemon.host)
    link.set_up(False)
    for i in range(5):
        client.submit({"set": (f"p{i}", i)})
    cluster.sim.run(until=3.0)
    assert cluster.app(5).store == {}
    link.set_up(True)
    cluster.sim.run(until=8.0)
    for i in range(5):
        assert cluster.app(5).store.get(f"p{i}") == i
    assert lagger.last_executed >= 1

    # A longer partition: the others order past stable checkpoints and
    # truncate the history the lagger lacks, so reconciliation alone
    # cannot bring it back.  It installs a stable checkpoint from f+1
    # matching answers and reconciles forward from there.
    link.set_up(False)
    behind = lagger.last_executed
    feeder = feed(cluster, client)
    cluster.sim.run(until=14.0)
    feeder.stop()
    peers = [rep for rep in cluster.replicas.values() if rep is not lagger]
    stable = min(peer.stable_checkpoint.gseq for peer in peers)
    assert stable > behind + CHECKPOINT_INTERVAL
    assert all(behind + 1 not in peer.slots for peer in peers)
    link.set_up(True)
    cluster.sim.run(until=20.0)
    assert lagger.stable_checkpoint.gseq >= stable
    assert lagger.last_executed == cluster.replica(0).last_executed
    assert cluster.app(5).store == cluster.app(0).store
    assert cluster.app(5).oplog == cluster.app(0).oplog


def test_partition_heals_with_consistent_order(cluster):
    """Updates executed during and after a partition appear in the same
    order at the healed replica as everywhere else."""
    client = cluster.add_client("hmi")
    lagger = cluster.replica(4)
    link = cluster.internal_lan.link_of(lagger.internal_daemon.host)
    for i in range(3):
        client.submit({"set": (f"pre{i}", i)})
    cluster.sim.run(until=2.0)
    link.set_up(False)
    for i in range(3):
        client.submit({"set": (f"mid{i}", i)})
    cluster.sim.run(until=4.0)
    link.set_up(True)
    for i in range(3):
        client.submit({"set": (f"post{i}", i)})
    cluster.sim.run(until=10.0)
    logs = {tuple(cluster.apps[name].oplog)
            for name in cluster.config.replica_names}
    assert len(logs) == 1
    assert len(next(iter(logs))) == 9


def test_view_evidence_heals_stale_view(cluster):
    """A replica that missed a view change adopts the evident view from
    peer gossip (f+1 claims)."""
    client = cluster.add_client("hmi")
    client.submit({"set": ("warm", 1)})
    cluster.sim.run(until=2.0)
    # Take one replica offline while the others rotate views.
    sleeper = cluster.replica(3)
    link = cluster.internal_lan.link_of(sleeper.internal_daemon.host)
    link.set_up(False)
    leader = cluster.replicas[cluster.config.leader_of(0)]
    leader.byzantine = "mute-leader"
    client.submit({"set": ("force-rotation", 1)})
    cluster.sim.run(until=6.0)
    others_view = max(rep.view for name, rep in cluster.replicas.items()
                      if rep is not sleeper)
    assert others_view >= 1
    assert sleeper.view == 0
    link.set_up(True)
    cluster.sim.run(until=12.0)
    assert sleeper.view >= 1


def test_missing_update_content_fetched_before_execution(cluster):
    """A replica that has the ordering but not an update's content must
    fetch it (f+1 matching) before executing."""
    client = cluster.add_client("hmi")
    victim = cluster.replica(2)
    # Drop the content from victim's preorder store after certification.
    client.submit({"set": ("fetched", 42)})
    cluster.sim.run(until=0.02)   # po-requests in flight

    # Surgically remove any stored content at the victim.
    def strip():
        for slot in victim.po_slots.values():
            slot.updates.clear()
    cluster.sim.schedule(0.05, strip)
    cluster.sim.run(until=4.0)
    assert cluster.app(2).store.get("fetched") == 42


def test_client_gives_up_after_max_retries(cluster):
    """With the whole system down, a client stops retrying eventually.

    The horizon covers the full capped exponential-backoff schedule:
    1+2+4+8+8... seconds with up to +20% jitter across 10 retries.
    """
    for i in range(6):
        cluster.replica(i).crash()
    client = cluster.add_client("hmi")
    client.submit({"set": ("void", 1)})
    cluster.sim.run(until=100.0)
    assert client.pending == {}
    assert 1 not in client.confirmed


def test_client_retries_back_off_exponentially(cluster):
    """Retransmission gaps grow (doubling toward the cap, with ±20%
    jitter) and every retry is counted in telemetry."""
    from repro.prime.client import CLIENT_RETRY, CLIENT_RETRY_CAP

    for i in range(6):
        cluster.replica(i).crash()
    client = cluster.add_client("hmi")
    sent_at = []
    original = client._transmit
    client._transmit = lambda update: (sent_at.append(cluster.sim.now),
                                       original(update))
    client.submit({"set": ("void", 1)})
    cluster.sim.run(until=25.0)
    gaps = [b - a for a, b in zip(sent_at, sent_at[1:])]
    assert len(gaps) >= 4
    for i, gap in enumerate(gaps):
        expected = min(CLIENT_RETRY * (2 ** i), CLIENT_RETRY_CAP)
        # The 0.25s retry tick quantises the jittered deadline upward.
        assert expected * 0.8 <= gap <= expected * 1.2 + 0.25, \
            f"gap {i}: {gap}"
    assert cluster.sim.metrics.total("prime.client.retries") == len(gaps)


def test_replies_require_matching_results(cluster):
    """A single replica sending a wrong reply cannot make the client
    accept it."""
    client = cluster.add_client("hmi")
    seq = client.submit({"set": ("honest", 1)})
    # One replica lies: intercept its app to return garbage.
    liar_app = cluster.app(0)
    original = liar_app.execute_update
    liar_app.execute_update = lambda update: {"ok": False, "evil": True}
    cluster.sim.run(until=3.0)
    liar_app.execute_update = original
    assert client.confirmed[seq] == {"ok": True, "key": "honest"}


def test_duplicate_client_seq_executes_once_across_originators(cluster):
    """The same signed update introduced by every replica executes once."""
    update = make_signed_update(cluster, "dup-client", 7, {"set": ("d", 1)})
    for name in cluster.config.replica_names:
        cluster.replicas[name].submit_update(update)
    cluster.sim.run(until=4.0)
    for app in cluster.apps.values():
        count = sum(1 for (cid, cseq, _) in app.oplog
                    if cid == "dup-client" and cseq == 7)
        assert count == 1


def test_recovered_replica_view_adoption(cluster):
    """A replica recovering into a cluster that moved to a later view
    installs a recent view from its donors."""
    client = cluster.add_client("hmi")
    client.submit({"set": ("a", 1)})
    cluster.sim.run(until=2.0)
    leader = cluster.replicas[cluster.config.leader_of(0)]
    leader.byzantine = "mute-leader"
    client.submit({"set": ("b", 2)})
    cluster.sim.run(until=5.0)
    victim = cluster.replica(3)
    if victim is leader:
        victim = cluster.replica(4)
    victim.crash()
    cluster.sim.run(until=6.0)
    victim.recover()
    cluster.sim.run(until=10.0)
    assert victim.state == "normal"
    assert victim.view >= 1


# ---------------------------------------------------------------------------
# Stable checkpoints
# ---------------------------------------------------------------------------
def test_checkpoint_is_stable_only_with_a_quorum_of_matching_reports(
        cluster):
    """Four replicas run — the 2f+k+1 quorum — and one of them reports a
    bogus digest for each checkpoint it takes, while echoing the true
    one in the names of the two replicas that are down.  Three honest
    reports are not a quorum, and a report counts only for the replica
    that signed it: no honest replica truncates anything.  Once the
    fourth reports what it holds, every honest replica does."""
    down = [cluster.replica(index) for index in (4, 5)]
    for replica in down:
        replica.crash()
    honest = [cluster.replica(index) for index in range(3)]
    liar = cluster.replica(3)
    broadcast = liar._broadcast
    lying = [True]

    def report(body):
        if lying[0] and isinstance(body, AruExchange) and body.checkpoint:
            for replica in down:
                broadcast(replace(body, replica=replica.name))
            body = replace(body, checkpoint=(body.checkpoint[0],
                                             b"\0" * 32))
        broadcast(body)

    liar._broadcast = report
    feed(cluster, cluster.add_client("hmi"))
    cluster.sim.run(until=5.0)
    for replica in honest:
        assert replica.checkpoint.gseq >= 2 * CHECKPOINT_INTERVAL
        assert replica.stable_checkpoint is None
        assert 1 in replica.slots
    lying[0] = False
    cluster.sim.run(until=7.0)
    for replica in honest:
        stable = replica.stable_checkpoint
        assert stable is not None and 1 not in replica.slots
        assert min(replica.slots) == stable.gseq
        assert all(seq > stable.state.exec_aru.get(incarnation, 0)
                   for incarnation, seq in replica.po_slots)


def test_late_po_request_and_ack_below_the_floor_revive_nothing(cluster):
    """After every replica truncated at a stable checkpoint, replica 0
    retransmits a PO-Request for a slot the checkpoint covers and
    replica 1 acks it again.  Revived, the slot would certify a second
    time, never execute, and sit certified-but-pending until the
    replicas suspected the leader."""
    client = cluster.add_client("hmi")
    feeder = feed(cluster, client)
    cluster.sim.run(until=3.0)
    feeder.stop()
    cluster.sim.run(until=3.5)
    originator, acker = cluster.replica(0), cluster.replica(1)
    key = (originator.originator_id, 1)
    for replica in cluster.replicas.values():
        assert replica.stable_checkpoint.state.exec_aru[key[0]] >= key[1]
        assert key not in replica.po_slots
    view_changes = cluster.sim.metrics.total("prime.view_changes")
    update = make_signed_update(cluster, "late", 1, {"set": ("late", 1)})
    request = PoRequestBatch(originator=key[0], start_seq=key[1],
                             updates=[update])
    originator._po_request_in(originator.name, request)
    originator._broadcast(request)
    acker._broadcast(PoAckBatch(acker=acker.name,
                                acks=[(key[0], key[1], update.view_digest())],
                                po_aru=dict(acker.po_aru)))
    cluster.sim.run(until=7.0)
    for replica in cluster.replicas.values():
        assert key not in replica.po_slots
        assert key not in replica._certified_pending
    assert cluster.sim.metrics.total("prime.view_changes") == view_changes
