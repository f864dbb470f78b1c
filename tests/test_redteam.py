"""Red-team experiment reproduction tests (Section IV).

The whole experiment is executed once (module-scoped fixture) in the
same order as the real event, then individual tests assert the paper's
reported outcome for each stage.
"""

import pytest

from repro.api import Simulator, build_redteam_testbed
from repro.redteam import Attacker
from repro.redteam.scenarios import (
    check_commercial_health, check_spire_health,
    run_commercial_enterprise_pivot, run_commercial_ops_mitm,
    run_spire_enterprise_probe, run_spire_excursion,
    run_spire_malicious_forwarder, run_spire_ops_attacks,
)


@pytest.fixture(scope="module")
def experiment():
    sim = Simulator(seed=21)
    testbed = build_redteam_testbed(sim)
    testbed.start_cyclers(interval=2.0)
    sim.run(until=6.0)
    ent_host = testbed.place_attacker("enterprise", "rt-ent")
    attacker = Attacker(sim, "redteam", ent_host)

    reports = {}
    reports["commercial-enterprise"] = run_commercial_enterprise_pivot(
        testbed, attacker)
    ops_host = testbed.place_attacker("ops-commercial", "rt-ops")
    attacker.footholds[ops_host.name] = "root"
    reports["commercial-ops"] = run_commercial_ops_mitm(
        testbed, attacker, ops_host)
    reports["spire-enterprise"] = run_spire_enterprise_probe(
        testbed, attacker)
    spire_host = testbed.place_attacker("ops-spire", "rt-spire")
    attacker.footholds[spire_host.name] = "root"
    reports["spire-ops"] = run_spire_ops_attacks(testbed, attacker,
                                                 spire_host)
    reports["excursion"] = run_spire_excursion(testbed, attacker)
    return sim, testbed, attacker, reports


# ---------------------------------------------------------------------------
# Commercial system outcomes (the red team won)
# ---------------------------------------------------------------------------
def test_enterprise_pivot_reaches_operations(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["commercial-enterprise"]
    assert report.achieved("pivot onto operations network")


def test_plc_memory_dump_succeeds_on_commercial(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["commercial-enterprise"]
    assert report.achieved("PLC memory dump")
    plc_ip = testbed.commercial.lan.ip_of(testbed.commercial.plc_host)
    assert attacker.dumped_configs[plc_ip]["logic"] == "interlock-v1"


def test_plc_config_upload_takes_control(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["commercial-enterprise"]
    assert report.achieved("PLC config upload (control of PLC)")
    assert testbed.commercial.plc.compromised_config


def test_commercial_hmi_shown_forged_updates(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["commercial-ops"]
    assert report.achieved("send modified updates to HMI")
    assert testbed.commercial.hmi.forged_pushes_displayed > 0


def test_commercial_hmi_updates_suppressed(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["commercial-ops"]
    assert report.achieved("prevent correct updates from being received")


# ---------------------------------------------------------------------------
# Spire outcomes (the red team was defeated)
# ---------------------------------------------------------------------------
def test_no_visibility_into_spire_from_enterprise(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["spire-enterprise"]
    assert not report.achieved("gain visibility into Spire from enterprise")


def test_spire_port_scan_sees_nothing(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["spire-ops"]
    assert not report.achieved("port scan of a replica")


def test_spire_plc_unreachable_over_network(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["spire-ops"]
    assert not report.achieved("reach the PLC over the network")
    assert not testbed.spire.physical_plc.device.compromised_config


def test_spire_arp_mitm_fails(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["spire-ops"]
    assert not report.achieved("ARP-poisoning man-in-the-middle")


def test_spire_spoofing_fails(experiment):
    _, testbed, attacker, reports = experiment
    assert not reports["spire-ops"].achieved("IP spoofing into the overlay")


def test_spire_dos_fails(experiment):
    _, testbed, attacker, reports = experiment
    assert not reports["spire-ops"].achieved(
        "denial of service (traffic burst)")


def test_excursion_daemon_stop_tolerated(experiment):
    _, testbed, attacker, reports = experiment
    assert not reports["excursion"].achieved(
        "stop Spines daemon on one replica")


def test_excursion_unkeyed_daemon_shut_out(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["excursion"]
    assert not report.achieved("run modified daemon without keys")
    stage = next(s for s in report.stages
                 if s.stage == "run modified daemon without keys")
    assert stage.observations["dropped"] > 0


def test_excursion_privilege_escalation_fails_on_hardened_os(experiment):
    _, testbed, attacker, reports = experiment
    assert not reports["excursion"].achieved(
        "privilege escalation (dirtycow, sshd)")


def test_excursion_patched_binary_no_effect(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["excursion"]
    assert not report.achieved("patch Spines binary with exploit")
    stage = next(s for s in report.stages
                 if s.stage == "patch Spines binary with exploit")
    assert stage.observations["exploit_executions"] == 0


def test_excursion_fairness_attack_bounded(experiment):
    _, testbed, attacker, reports = experiment
    report = reports["excursion"]
    assert not report.achieved(
        "fairness attack as trusted member (root + source)")
    stage = next(s for s in report.stages if "fairness" in s.stage)
    assert stage.observations["dropped"] > 0


def test_outcome_witness_every_stage_verdict(experiment):
    """The E5-E7 verdicts as one literal, captured under whole-overlay
    flooding (9a7c173): how overlay traffic travels must not move any
    of them (see ``tests/test_outcome_witness.py``)."""
    _, testbed, attacker, reports = experiment
    won = [f"{name}: {stage.stage}" for name, report in reports.items()
           for stage in report.stages if stage.attacker_goal_achieved]
    defended = [f"{name}: {stage.stage}" for name, report in reports.items()
                for stage in report.stages
                if not stage.attacker_goal_achieved]
    assert won == [
        "commercial-enterprise: scan server through perimeter",
        "commercial-enterprise: pivot onto operations network",
        "commercial-enterprise: PLC memory dump",
        "commercial-enterprise: PLC config upload (control of PLC)",
        "commercial-ops: send modified updates to HMI",
        "commercial-ops: prevent correct updates from being received",
    ]
    assert defended == [
        "spire-enterprise: gain visibility into Spire from enterprise",
        "spire-ops: port scan of a replica",
        "spire-ops: reach the PLC over the network",
        "spire-ops: ARP-poisoning man-in-the-middle",
        "spire-ops: IP spoofing into the overlay",
        "spire-ops: denial of service (traffic burst)",
        "excursion: stop Spines daemon on one replica",
        "excursion: run modified daemon without keys",
        "excursion: privilege escalation (dirtycow, sshd)",
        "excursion: patch Spines binary with exploit",
        "excursion: fairness attack as trusted member (root + source)",
    ]
    excursion = {stage.stage: stage.observations
                 for stage in reports["excursion"].stages}
    assert all(observations["health"]["ok"]
               for observations in excursion.values()
               if "health" in observations)
    assert not testbed.spire.physical_plc.device.compromised_config


def test_both_systems_health_after_experiment(experiment):
    """After the full campaign, Spire still operates; the commercial
    system also 'operates' but its PLC runs attacker logic and its HMI
    was lied to."""
    sim, testbed, attacker, reports = experiment
    spire_health = check_spire_health(testbed)
    assert spire_health["ok"]
    assert testbed.spire.master_views_consistent()
    assert testbed.commercial.plc.compromised_config   # the difference


def test_mana_observed_the_attacks(experiment):
    """MANA instances trained on the pre-attack baseline flag the
    attack traffic on the networks where attacks happened."""
    sim, testbed, attacker, reports = experiment
    testbed.train_mana(1.0, 6.0)
    for instance in testbed.mana.values():
        instance.evaluate_range(6.0, sim.now)
    assert len(testbed.mana["MANA-2"].alerts) > 0      # commercial ops
    assert len(testbed.mana["MANA-3"].alerts) > 0      # spire ops (DoS etc.)
    incidents = testbed.mana["MANA-2"].correlator.incidents
    assert incidents and incidents[0].peak_score > 1.0


# ---------------------------------------------------------------------------
# Stage 6 (own testbed: the forwarder stays compromised to the end)
# ---------------------------------------------------------------------------
def test_keyed_forwarder_cannot_substitute_payloads():
    """A keyed replica's external daemon re-wraps everything it relays
    around a payload of its own, genuine source signature attached.
    Every forged copy must die at the next hop, every update must still
    confirm and a breaker command must still round-trip (under
    whole-overlay flooding with an unsigned payload, forged copies were
    accepted and first-copy-wins dedup then dropped the genuine ones)."""
    sim = Simulator(seed=21)
    testbed = build_redteam_testbed(sim)
    testbed.start_cyclers(interval=2.0)
    sim.run(until=3.0)
    attacker = Attacker(sim, "redteam",
                        testbed.place_attacker("ops-spire", "rt-spire"))
    report = run_spire_malicious_forwarder(testbed, attacker)
    stage, = report.stages
    assert stage.observations["forged"] > 0
    assert stage.observations["accepted"] == 0
    assert stage.observations["unconfirmed"] == []
    assert stage.observations["health"]["ok"]
    assert not stage.attacker_goal_achieved
