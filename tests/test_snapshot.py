"""Tests for the checkpoint/restore layer (:mod:`repro.snapshot`).

The load-bearing property everything else leans on: **restoring a
snapshot taken at T/2 and running to T is byte-identical to an
uninterrupted run to T** — the event digest (every executed event) and
the campaign report digest are the witnesses.  Holds for grid worlds
across seeds, and for crash-resumed campaigns.
"""

import gc
import json
import os
import pickle
from dataclasses import replace

import pytest

from repro.crypto import (
    KeyRing, KeyStore, forge_signature, sign_payload, verify_signature,
)
from repro.faults.campaign import report_digest, run_campaign
from repro.grid.spec import GridSpec, make_town_spec
from repro.grid.world import build_world
from repro.prime.messages import ClientUpdate
from repro.snapshot import (
    SnapshotError, nearest_snapshot, read_header, replay_dump,
    restore_world, restore_world_bytes, run_with_checkpoints, save_world,
    save_world_bytes,
)
from repro.snapshot import format as snapshot_format
from repro.util.atomicio import write_bytes, write_text

T_FULL = 3.0
T_HALF = 1.5


def _build(spec, seed):
    world = build_world(spec, seed=seed)
    world.start_workload(6, start=0.3, interval=0.6)
    return world


def _specs():
    return {
        "single-plant": GridSpec.single_plant(),
        "town5": make_town_spec(5, seed=3),
    }


# ----------------------------------------------------------------------
# Container format
# ----------------------------------------------------------------------
class TestFormat:
    def test_round_trip_and_header(self, tmp_path):
        path = str(tmp_path / "x.snap")
        payload = {"hello": [1, 2, 3], "nested": {"a": (4, 5)}}
        header = snapshot_format.dump(path, "world", payload,
                                      {"now": 1.25})
        assert header["schema"] == snapshot_format.SCHEMA_VERSION
        assert header["kind"] == "world"
        # The header is readable without unpickling anything.
        assert read_header(path)["meta"]["now"] == 1.25
        loaded_header, loaded = snapshot_format.load(path)
        assert loaded == payload
        assert loaded_header == header

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "x.snap")
        snapshot_format.dump(path, "world", {}, {})
        with pytest.raises(SnapshotError, match="expected"):
            snapshot_format.load(path, expect_kind="campaign-checkpoint")

    def test_corruption_detected(self, tmp_path):
        path = str(tmp_path / "x.snap")
        snapshot_format.dump(path, "world", {"key": "value"}, {})
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        write_bytes(path, bytes(blob))
        with pytest.raises(SnapshotError, match="digest"):
            snapshot_format.load(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "x.snap")
        snapshot_format.dump(path, "world", {"key": "value"}, {})
        blob = open(path, "rb").read()
        write_bytes(path, blob[:-4])
        with pytest.raises(SnapshotError):
            snapshot_format.load(path)

    def test_not_a_snapshot_rejected(self, tmp_path):
        path = str(tmp_path / "x.snap")
        write_text(path, "just some text\n")
        with pytest.raises(SnapshotError, match="magic|not a"):
            read_header(path)

    def test_future_schema_rejected(self, tmp_path):
        path = str(tmp_path / "x.snap")
        snapshot_format.dump(path, "world", {}, {})
        magic, header_line, rest = open(path, "rb").read().split(b"\n", 2)
        header = json.loads(header_line)
        # Any other schema, older as well as newer: up to PR 14 heap
        # entries were (time, seq, event), and a schema-1 payload would
        # otherwise unpickle and fail somewhere inside run(); schema 2
        # worlds were not yet ``repro.core.wiring.Deployment``s; schema
        # 3 daemons kept a flat set of seen flood keys and no network;
        # schema 4 messages signed a view without the payload's own
        # signature, and networks memoised unicast paths only; schema 5
        # replicas kept all ordered history and every random stream a
        # Mersenne state.
        assert snapshot_format.SCHEMA_VERSION == 6
        for schema in (1, 2, 3, 4, 5, snapshot_format.SCHEMA_VERSION + 1):
            header["schema"] = schema
            data = b"\n".join([
                magic, json.dumps(header, sort_keys=True).encode(), rest])
            write_bytes(path, data)
            for read in (lambda: read_header(path),
                         lambda: snapshot_format.load(path),
                         lambda: snapshot_format.loads(data)):
                with pytest.raises(SnapshotError,
                                   match=f"schema {schema} is not"):
                    read()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "x.snap")
        snapshot_format.dump(path, "world", {"key": "value"}, {})
        assert sorted(os.listdir(tmp_path)) == ["x.snap"]


# ----------------------------------------------------------------------
# A town's ordered history stops growing with simulated time
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def town5_over_time():
    """``make_town_spec(5)`` to t = 39: the six replicas' preorder slots
    at every whole second from t = 4, and the snapshot size at t = 9 and
    t = 39."""
    world = build_world(make_town_spec(5))
    po_slots, sizes = {}, {}
    for second in range(4, 40):
        world.run(until=float(second))
        po_slots[second] = sum(len(replica.po_slots)
                               for replica in world.replicas.values())
        if second in (9, 39):
            sizes[second] = len(save_world_bytes(world))
    return po_slots, sizes


class TestOrderedHistoryIsBounded:
    """Clock-free budgets.  With all ordered history kept, the replicas
    held 3 528 preorder slots at t = 39 (972 at t = 9) and the snapshot
    grew 547 KB between t = 9 and t = 39."""

    def test_preorder_slots_stay_under_a_fixed_bound(self, town5_over_time):
        # Stable checkpoints truncate everything CHECKPOINT_INTERVAL
        # gseqs back; at most 1 008 slots are held at any quarter second.
        po_slots, _ = town5_over_time
        assert max(po_slots.values()) <= 1200

    def test_snapshot_growth_stays_within_budget(self, town5_over_time):
        # 192 KB: what still grows is bounded elsewhere — each Spines
        # daemon's seen window per source (up to FLOOD_CACHE_LIMIT seqs,
        # at most 181 here) and the telemetry histograms' raw samples
        # (up to their cap).
        _, sizes = town5_over_time
        assert sizes[39] - sizes[9] <= 8_000 * (39 - 9)


# ----------------------------------------------------------------------
# Monolithic worlds: restore + run == uninterrupted run
# ----------------------------------------------------------------------
class TestWorldRestoreDeterminism:
    @pytest.mark.parametrize("spec_name", ["single-plant", "town5"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_restore_then_run_is_byte_identical(self, tmp_path, spec_name,
                                                seed):
        spec = _specs()[spec_name]
        straight = _build(spec, seed)
        straight.run(until=T_FULL)
        reference = straight.sim.event_digest()

        world = _build(spec, seed)
        world.run(until=T_HALF)
        path = str(tmp_path / "half.snap")
        save_world(path, world)
        # Saving is side-effect free: the saver continues identically.
        world.run(until=T_FULL)
        assert world.sim.event_digest() == reference

        restored = restore_world(path)
        assert restored.sim.now == pytest.approx(T_HALF)
        restored.run(until=T_FULL)
        assert restored.sim.event_digest() == reference

    def test_save_meta_describes_the_world(self, tmp_path):
        spec = make_town_spec(5, seed=3)
        world = _build(spec, 3)
        world.run(until=1.0)
        path = str(tmp_path / "w.snap")
        save_world(path, world)
        meta = read_header(path)["meta"]
        assert meta["spec_name"] == spec.name
        assert meta["now"] == pytest.approx(1.0)
        assert meta["events_executed"] == world.sim.events_executed
        assert meta["event_digest"] == world.sim.event_digest()

    def test_worldless_object_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="no .sim"):
            save_world(str(tmp_path / "x.snap"), object())

    def test_unpicklable_world_is_a_snapshot_error(self):
        world = build_world(GridSpec.single_plant())
        world.sim.every(1.0, lambda: None)
        with pytest.raises(SnapshotError, match="cannot snapshot this "
                                                "'world' payload.*lambda"):
            save_world_bytes(world)

    @pytest.mark.parametrize("site", ["plant", "redteam"])
    def test_site_world_snapshots_before_registration(self, site):
        # The registration event pending at t = 0 used to be a closure
        # local to build_spire, which does not pickle.
        spec = GridSpec.single_site(site)
        straight = build_world(spec)
        straight.run(until=1.0)
        world = build_world(spec)
        restored = restore_world_bytes(save_world_bytes(world))
        for copy in (world, restored):
            copy.run(until=1.0)
            assert (copy.sim.event_digest(), copy.sim.events_executed) == (
                straight.sim.event_digest(), straight.sim.events_executed)


# ----------------------------------------------------------------------
# The signature-verdict memo is a cache: it stays out of snapshots
# ----------------------------------------------------------------------
class TestVerifyMemoStaysOut:
    def test_pickled_ring_keeps_keys_and_drops_the_memo(self):
        store = KeyStore()
        store.create_signing("replica1")
        store.create_symmetric("spines.internal")
        ring = store.ring_for(symmetric_ids=["spines.internal"],
                              signing_principals=["replica1"])
        update = ClientUpdate(client_id="replica1", client_seq=1, op={"k": 1})
        signature = sign_payload(ring, "replica1", update)
        assert verify_signature(ring, signature, update)
        assert ring._verify_cache["replica1"]

        restored = pickle.loads(pickle.dumps(ring))
        assert restored._verify_cache == {}
        assert ring._verify_cache["replica1"]       # the live ring keeps its own
        assert restored.symmetric("spines.internal") == \
            ring.symmetric("spines.internal")
        assert restored.signing("replica1") == ring.signing("replica1")
        assert restored.verification_key("replica1") == \
            ring.verification_key("replica1")
        # A cold memo refills, and answers as the warm one did.
        assert verify_signature(restored, signature, update)
        assert restored._verify_cache["replica1"]

    def test_snapshot_size_does_not_depend_on_the_memo(self):
        world = _build(make_town_spec(5, seed=3), 3)
        world.run(until=T_HALF)
        rings = [obj for obj in gc.get_objects() if isinstance(obj, KeyRing)]
        assert sum(len(memo) for ring in rings
                   for memo in ring._verify_cache.values()) > 100
        with_memo = save_world_bytes(world)
        for ring in rings:
            ring._verify_cache.clear()
        assert len(save_world_bytes(world)) == len(with_memo)

    def test_restored_world_still_tells_forged_from_valid(self):
        world = _build(make_town_spec(5, seed=3), 3)
        world.run(until=T_HALF)
        restored = restore_world_bytes(save_world_bytes(world))
        replica = restored.replicas[sorted(restored.replicas)[0]]
        ring = replica.key_ring
        assert ring._verify_cache == {}
        update = ClientUpdate(client_id=replica.name, client_seq=10**6,
                              op={"type": "noop"})
        signature = sign_payload(ring, replica.name, update)
        tampered = replace(update, op={"type": "open-everything"})
        for _ in range(2):                          # cold, then memoised
            assert verify_signature(ring, signature, update) is True
            assert verify_signature(ring, signature, tampered) is False
            assert verify_signature(
                ring, forge_signature(replica.name), update) is False


# ----------------------------------------------------------------------
# Periodic checkpointing + time travel
# ----------------------------------------------------------------------
class TestCheckpointsAndReplay:
    def test_checkpointed_run_equals_straight_run(self, tmp_path):
        spec = make_town_spec(3, seed=11)
        straight = _build(spec, 11)
        straight.run(until=T_FULL)
        reference = straight.sim.event_digest()

        world = _build(spec, 11)
        paths = run_with_checkpoints(world, T_FULL, str(tmp_path),
                                     every=1.0)
        assert world.sim.event_digest() == reference
        assert len(paths) == 3
        times = [read_header(p)["meta"]["now"] for p in paths]
        assert times == pytest.approx([1.0, 2.0, 3.0])

    def test_nearest_snapshot_picks_latest_at_or_before(self, tmp_path):
        spec = make_town_spec(3, seed=11)
        world = _build(spec, 11)
        run_with_checkpoints(world, T_FULL, str(tmp_path), every=1.0)
        path, header = nearest_snapshot(str(tmp_path), 2.7)
        assert header["meta"]["now"] == pytest.approx(2.0)
        # Before the first checkpoint: fall back to the earliest.
        path, header = nearest_snapshot(str(tmp_path), 0.2)
        assert header["meta"]["now"] == pytest.approx(1.0)
        assert nearest_snapshot(str(tmp_path / "empty"), 1.0) is None

    def test_replay_dump_reproduces_a_window(self, tmp_path):
        spec = make_town_spec(3, seed=11)
        world = _build(spec, 11)
        run_with_checkpoints(world, T_FULL, str(tmp_path), every=1.0)
        dump_doc = {"window": {"since": 1.4, "until": 2.6},
                    "reason": "violation: test", "fault_ids": []}
        snapshot, _ = nearest_snapshot(str(tmp_path),
                                       dump_doc["window"]["since"])
        replayed = replay_dump(dump_doc, snapshot)
        assert replayed["reason"] == "replay"
        assert replayed["trigger"]["snapshot"] == snapshot
        assert replayed["trigger"]["original_reason"] == "violation: test"
        assert replayed["window"]["until"] == pytest.approx(2.6)

    def test_replay_rejects_snapshot_inside_window(self, tmp_path):
        spec = make_town_spec(3, seed=11)
        world = _build(spec, 11)
        paths = run_with_checkpoints(world, T_FULL, str(tmp_path),
                                     every=1.0)
        with pytest.raises(SnapshotError, match="earlier checkpoint"):
            replay_dump({"window": {"since": 1.5, "until": 2.5}},
                        paths[-1])


# ----------------------------------------------------------------------
# Campaign checkpoint/resume
# ----------------------------------------------------------------------
class TestCampaignResume:
    KW = dict(scenarios=["baseline", "partition"], seeds=[1, 2],
              duration=6.0)

    def test_resume_is_byte_identical(self, tmp_path):
        checkpoint = str(tmp_path / "camp.ckpt")
        reference = report_digest(run_campaign(jobs=1, **self.KW))

        full = run_campaign(jobs=1, checkpoint=checkpoint, **self.KW)
        assert report_digest(full) == reference
        _, payload = snapshot_format.load(
            checkpoint, expect_kind="campaign-checkpoint")
        assert sorted(payload["results"]) == [
            "baseline:1", "baseline:2", "partition:1", "partition:2"]

        # Simulate a crash after two cells: truncate the checkpoint,
        # then resume — the report must not change by a byte.
        partial = dict(sorted(payload["results"].items())[:2])
        snapshot_format.dump(checkpoint, "campaign-checkpoint",
                             {"config_key": payload["config_key"],
                              "results": partial}, {})
        resumed = run_campaign(jobs=1, checkpoint=checkpoint, resume=True,
                               **self.KW)
        assert report_digest(resumed) == reference

        # Fully-cached resume: nothing dispatched, same bytes.
        again = run_campaign(jobs=1, checkpoint=checkpoint, resume=True,
                             **self.KW)
        assert report_digest(again) == reference

    def test_config_mismatch_rejected(self, tmp_path):
        checkpoint = str(tmp_path / "camp.ckpt")
        run_campaign(scenarios=["baseline"], seeds=[1], duration=6.0,
                     jobs=1, checkpoint=checkpoint)
        with pytest.raises(SnapshotError, match="different"):
            run_campaign(scenarios=["baseline"], seeds=[1, 2],
                         duration=6.0, jobs=1, checkpoint=checkpoint,
                         resume=True)

    def test_missing_checkpoint_starts_fresh(self, tmp_path):
        checkpoint = str(tmp_path / "never-written.ckpt")
        report = run_campaign(scenarios=["baseline"], seeds=[1],
                              duration=6.0, jobs=1,
                              checkpoint=checkpoint, resume=True)
        assert report["passed"]
        assert os.path.exists(checkpoint)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicIO:
    def test_write_replaces_atomically(self, tmp_path):
        path = str(tmp_path / "out.txt")
        write_text(path, "first")
        write_text(path, "second")
        assert open(path).read() == "second"
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]

    def test_failure_leaves_original_intact(self, tmp_path):
        path = str(tmp_path / "out.txt")
        write_text(path, "original")
        with pytest.raises(TypeError):
            write_bytes(path, "not-bytes")
        assert open(path).read() == "original"
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]
