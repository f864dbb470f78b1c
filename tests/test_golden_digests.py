"""Golden digests: the witness that a change to ``src/`` left the
simulated program the same.

Every other identity check in the tree compares two runs of the *same*
commit (jobs 1 vs 2, warm vs cold, sharded vs monolithic, traced vs
untraced).  These literals were captured on the commit *before* the
per-hop fast path (PR 13) and must only ever be re-captured by a PR
that means to change behaviour and says so.

Re-captured once, by PR 21 (K node-disjoint paths in Spines): a unicast
no longer floods the overlay, so every Spire world sends fewer frames
and runs fewer events — ``single_plant`` 226 997 -> 47 348 in 3 sim-s.
The eight event/report literals below moved in that commit and in no
other of that PR (its payload-covering signatures changed tags, which
feed no event); what had to stay put while they moved is pinned by
``tests/test_outcome_witness.py``, captured before the change.  The
commercial LAN runs no Spines and kept its literal.

Captured on CPython 3.11 (the only interpreter in the build container)
under three ``PYTHONHASHSEED`` values.  What is hashed is ``repr`` of
floats, ints and strings and canonical JSON, none of which differs
between 3.10 and 3.12; if CI's interpreter matrix ever disagrees, find
the source of the difference and record it here — do not loosen a
literal to a count.
"""

import hashlib

from repro.api import (
    GridSpec, ShardedGridWorld, Simulator, build_redteam_testbed,
    build_world, make_town_spec, report_digest, run_campaign,
)
from repro.net import Host, Lan
from repro.plc import PlcDevice, redteam_topology
from repro.redteam.commercial import CommercialHmi, CommercialScadaServer


def _commercial_lan(systems: int) -> Simulator:
    """``systems`` x (PLC, primary, backup, HMI) on one LAN (Fig. 1)."""
    sim = Simulator(seed=0)
    lan = Lan(sim, "ops", "10.0.0.0/16", ports=4 * systems + 4)
    for index in range(systems):
        topology = redteam_topology()
        plc_host, primary_host, backup_host, hmi_host = (
            Host(sim, f"{role}-{index}")
            for role in ("plc", "primary", "backup", "hmi"))
        for host in (plc_host, primary_host, backup_host, hmi_host):
            lan.connect(host)
        PlcDevice(sim, f"plc-{index}", plc_host, topology, physical=True)
        for name, host, peer, primary in (
                ("primary", primary_host, backup_host, True),
                ("backup", backup_host, primary_host, False)):
            server = CommercialScadaServer(
                sim, f"{name}-{index}", host, lan.ip_of(plc_host),
                lan.ip_of(hmi_host), primary=primary,
                peer_ip=lan.ip_of(peer))
            server.set_coil_names(topology.breaker_names())
        CommercialHmi(sim, f"hmi-{index}", hmi_host, lan.ip_of(primary_host))
    return sim


def _witness(sim: Simulator) -> tuple:
    return sim.event_digest(), sim.events_executed


def test_single_plant_3s():
    world = build_world(GridSpec.single_plant())
    world.run(until=3.0)
    assert _witness(world.sim) == (
        "588560862adaf6b4a354fb0de9c128bd07951d07940a6114e8faac97726ca593",
        47348)


def test_single_plant_3s_metrics_export():
    # event_digest does not cover a metric's ``updated_at``; the export
    # does: a change to who stamps a counter must not move a timestamp.
    world = build_world(GridSpec.single_plant())
    world.run(until=3.0)
    export = world.sim.metrics.to_json()
    assert hashlib.sha256(export.encode()).hexdigest() == (
        "4ecee1b5edcc8cf5c09fe44f2ed93be5940d742fc845ae5f0fa0b25d78f32613")


def test_town5_2s():
    world = build_world(make_town_spec(5))
    world.run(until=2.0)
    assert _witness(world.sim) == (
        "ff3532fb8821eb6fee78193b601533e351e09b7143cd9b66c1400c170bbab640",
        38287)


def test_commercial_lan_30s():
    sim = _commercial_lan(4)
    sim.run(until=30.0)
    assert _witness(sim) == (
        "258791fb8d9906e1d49fd390df29f97159e14062bd423c873f37fd1cdb694630",
        2368)


def test_crash_recover_campaign_cell_with_mana():
    report = run_campaign(["crash-recover"], seeds=[1], mana=True)
    assert report_digest(report) == (
        "06f42487f6cb27219b7b213189c1da660aa3932db0aa995898c3076b2795bd48")


# The four below cover the builders no literal above reaches: the shard
# kernels, the Fig. 3 testbed, a grid campaign cell (warm restore,
# cell-started proactive recovery), and a site on the DNP3 proxy with
# threshold-signed directives.
def test_sharded_town5_3s():
    with ShardedGridWorld(make_town_spec(5), shards=1) as world:
        world.start_workload(4, start=0.3, interval=0.6)
        world.run(until=3.0)
        digest = world.event_digest()
    assert digest == (
        "9e92d8d8572cd2601864b96444212eb9c99232a7b03a6ed5a8c8409afab69498")


def test_redteam_testbed_3s():
    sim = Simulator(seed=3)
    testbed = build_redteam_testbed(sim)
    testbed.start_cyclers()
    sim.run(until=3.0)
    assert _witness(sim) == (
        "17f08392b2251982e7ae5571c2e4a4183deba8860c63eb429c3b77696c80e94a",
        10526)


def test_recovery_collision_grid_campaign_cell():
    report = run_campaign(["recovery-collision"], seeds=[1],
                          grid=make_town_spec(2), duration=8.0)
    assert report_digest(report) == (
        "b1fad6aa846ab62e14bec5b91419b5aa882cc31c68cd0800cf95d500ab397145")


def test_single_plant_dnp3_threshold_2s():
    world = build_world(GridSpec.single_plant(
        generation_protocol="dnp3", use_threshold_directives=True))
    world.run(until=2.0)
    assert _witness(world.sim) == (
        "b3e62c68b1df7aa65c0b03f7ed530c5fe55353cf06a29f2700fd60355055ed7a",
        38371)
