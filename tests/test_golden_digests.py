"""Golden digests: the witness that a change to ``src/`` left the
simulated program the same.

Every other identity check in the tree compares two runs of the *same*
commit (jobs 1 vs 2, warm vs cold, traced vs untraced).  These
literals were captured on the commit *before* the per-hop fast path
(PR 13) and must only ever be re-captured by a PR that means to change
behaviour and says so.

Re-captured twice, each time in a commit of its own, by changes to how
Spines disseminates: K node-disjoint paths instead of a flood for a
well-connected unicast (``single_plant`` 226 997 -> 47 348 events in 3
sim-s), then route sets for every message — K paths through a pair's
separators, the union of the members' sets for a multicast group
(47 348 -> 30 569).  Each time the event/report literals of the
Spines worlds below moved and nothing else did (signature changes
moved tags, which feed no event); what had to stay put while they
moved is pinned by ``tests/test_outcome_witness.py``, captured before
either change.  The commercial LAN runs no Spines and kept its
literal.  Stable Prime
checkpoints then moved two literals, each re-captured in a commit of
its own: an ``AruExchange`` carrying a checkpoint is 40 bytes longer,
which shows in the ``single_plant`` metrics export (the internal links'
byte counters at t = 3.0) and in the crash-recover cell's report; the
event literals held.

Captured on CPython 3.11 (the only interpreter in the build container)
under three ``PYTHONHASHSEED`` values.  What is hashed is ``repr`` of
floats, ints and strings and canonical JSON, none of which differs
between 3.10 and 3.12; if CI's interpreter matrix ever disagrees, find
the source of the difference and record it here — do not loosen a
literal to a count.
"""

import hashlib

from repro.api import (
    GridSpec, Simulator, build_redteam_testbed,
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
        "7d8fcf6b977d81c99be8e0876cb56ff21c20a73af175687c560ed2c453fcbd89",
        30569)


def test_single_plant_3s_metrics_export():
    # event_digest does not cover a metric's ``updated_at``; the export
    # does: a change to who stamps a counter must not move a timestamp.
    world = build_world(GridSpec.single_plant())
    world.run(until=3.0)
    export = world.sim.metrics.to_json()
    assert hashlib.sha256(export.encode()).hexdigest() == (
        "9e5d3242f3d52d98ba1ba53ed695ca959f3544f151e2c4773ffe65a6134435b5")


def test_town5_2s():
    world = build_world(make_town_spec(5))
    world.run(until=2.0)
    assert _witness(world.sim) == (
        "9dcf82fe9776249b64a5339664b1ddcd457eadfd5c887d13452ada77be833b05",
        10105)


def test_commercial_lan_30s():
    sim = _commercial_lan(4)
    sim.run(until=30.0)
    assert _witness(sim) == (
        "258791fb8d9906e1d49fd390df29f97159e14062bd423c873f37fd1cdb694630",
        2368)


def test_crash_recover_campaign_cell_with_mana():
    report = run_campaign(["crash-recover"], seeds=[1], mana=True)
    assert report_digest(report) == (
        "8f8ff068055dabc8534400a3368eaf2fda6d5871729516177e625bfc3ce368af")


# The three below cover the builders no literal above reaches: the
# Fig. 3 testbed, a grid campaign cell (warm restore, cell-started
# proactive recovery), and a site on the DNP3 proxy with
# threshold-signed directives.
def test_redteam_testbed_3s():
    sim = Simulator(seed=3)
    testbed = build_redteam_testbed(sim)
    testbed.start_cyclers()
    sim.run(until=3.0)
    assert _witness(sim) == (
        "8a3127b2019f60b864929d607b51bec73d474ba88c59b5d45bbc4c56a7852be9",
        8159)


def test_recovery_collision_grid_campaign_cell():
    report = run_campaign(["recovery-collision"], seeds=[1],
                          grid=make_town_spec(2), duration=8.0)
    assert report_digest(report) == (
        "9972e9f47a6cd8da448e331273a806178010f535933ab2e1fb76e75e6842fcbc")


def test_single_plant_dnp3_threshold_2s():
    world = build_world(GridSpec.single_plant(
        generation_protocol="dnp3", use_threshold_directives=True))
    world.run(until=2.0)
    assert _witness(world.sim) == (
        "10d0e42ec1b1ee0c312af4af4349c210fa23e463f3940446037ea30e70d40775",
        25195)
