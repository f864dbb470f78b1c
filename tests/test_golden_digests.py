"""Golden digests: the witness that a change to ``src/`` left the
simulated program the same.

Every other identity check in the tree compares two runs of the *same*
commit (jobs 1 vs 2, warm vs cold, sharded vs monolithic, traced vs
untraced).  These literals were captured on the commit *before* the
per-hop fast path (PR 13) and must only ever be re-captured by a PR
that means to change behaviour and says so.

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
        "370cdf733bff779bbdbd9f5bc864f7dde394a38f7e0c363e15a836910ac0b23a",
        226997)


def test_single_plant_3s_metrics_export():
    # event_digest does not cover a metric's ``updated_at``; the export
    # does.  Captured on the commit before PR 15 (caller-stamped
    # counters), which must not move a single timestamp.
    world = build_world(GridSpec.single_plant())
    world.run(until=3.0)
    export = world.sim.metrics.to_json()
    assert hashlib.sha256(export.encode()).hexdigest() == (
        "da1844db971bc944ec56ad483d1198bf9e268da974cbaf32259431aebf76f549")


def test_town5_2s():
    world = build_world(make_town_spec(5))
    world.run(until=2.0)
    assert _witness(world.sim) == (
        "928383beb8a1ad466bea14561a18fab791db8cd97e7cc2ac840c4f81cb6e793f",
        73387)


def test_commercial_lan_30s():
    sim = _commercial_lan(4)
    sim.run(until=30.0)
    assert _witness(sim) == (
        "258791fb8d9906e1d49fd390df29f97159e14062bd423c873f37fd1cdb694630",
        2368)


def test_crash_recover_campaign_cell_with_mana():
    report = run_campaign(["crash-recover"], seeds=[1], mana=True)
    assert report_digest(report) == (
        "9254f68ddb9550e181abcd141ae43b80255216225d2c7acfcffa5c49a924acfd")


# The four below were captured on the commit before the wiring kernel
# (PR 20) and cover the builders no literal above reaches: the shard
# kernels, the Fig. 3 testbed, a grid campaign cell (warm restore,
# cell-started proactive recovery), and a site on the DNP3 proxy with
# threshold-signed directives.
def test_sharded_town5_3s():
    with ShardedGridWorld(make_town_spec(5), shards=1) as world:
        world.start_workload(4, start=0.3, interval=0.6)
        world.run(until=3.0)
        digest = world.event_digest()
    assert digest == (
        "4a12b11e10c0d557d81e90d644c7c20a684df617a7dd1ce6de3b43c2d6af492b")


def test_redteam_testbed_3s():
    sim = Simulator(seed=3)
    testbed = build_redteam_testbed(sim)
    testbed.start_cyclers()
    sim.run(until=3.0)
    assert _witness(sim) == (
        "8e10ca9a9ea9382ea8978c7bfbeb2cf82fcb376255c8b7156001aec60154c446",
        19922)


def test_recovery_collision_grid_campaign_cell():
    report = run_campaign(["recovery-collision"], seeds=[1],
                          grid=make_town_spec(2), duration=8.0)
    assert report_digest(report) == (
        "b51d001eded37e890eae6ef194ba4c3ae6b2cbfd72b116417f651707442a7279")


def test_single_plant_dnp3_threshold_2s():
    world = build_world(GridSpec.single_plant(
        generation_protocol="dnp3", use_threshold_directives=True))
    world.run(until=2.0)
    assert _witness(world.sim) == (
        "92ccd8a8f41f2dd87dcf5f547a1e2e87dc17e134210f54e15c33c84fa07c66bd",
        194854)
