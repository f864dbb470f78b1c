"""Red-team scenario drivers (Section IV-B timeline).

Each function drives the simulation through one stage of the
experiment and returns a structured report.  Outcomes are read from
the substrate (what actually happened to packets, state, and displays),
mirroring how the experiment was judged:

* **Commercial, from enterprise**: pivot through the perimeter via the
  exposed web admin console, dump the PLC's configuration, upload a
  modified one — *succeeds within (simulated) hours*.
* **Commercial, on operations**: ARP man-in-the-middle between SCADA
  server and HMI; forge updates shown to the operator and suppress real
  ones — *succeeds*.
* **Spire, from enterprise**: scans find nothing; *no visibility*.
* **Spire, on operations**: port scans, ARP poisoning, IP spoofing,
  DoS bursts — *no effect on SCADA operation*.
* **Spire excursion**: user access on one replica (stop daemon, run a
  modified daemon, patch the binary, known-CVE privilege escalation),
  then root + source (fairness flood as trusted member) — *Spire keeps
  operating within its f=1 tolerance*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.net.osprofile import VULN_DIRTYCOW, VULN_SSHD_CVE, \
    VULN_WEBADMIN_DEFAULT_CREDS
from repro.redteam.attacks import (
    ArpMitm, Attacker, fairness_flood, patch_spines_binary,
    run_unkeyed_daemon, stop_spines_daemon, substitute_payloads,
)
from repro.redteam.commercial import StatePush


@dataclass
class StageResult:
    stage: str
    attacker_goal_achieved: bool
    detail: str
    observations: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ScenarioReport:
    name: str
    stages: List[StageResult] = field(default_factory=list)

    def add(self, stage: str, achieved: bool, detail: str,
            **observations: Any) -> StageResult:
        result = StageResult(stage=stage, attacker_goal_achieved=achieved,
                             detail=detail, observations=observations)
        self.stages.append(result)
        return result

    def achieved(self, stage: str) -> bool:
        for result in self.stages:
            if result.stage == stage:
                return result.attacker_goal_achieved
        raise KeyError(stage)

    def render(self) -> str:
        lines = [f"=== scenario: {self.name} ==="]
        for result in self.stages:
            verdict = "ATTACKER SUCCEEDED" if result.attacker_goal_achieved \
                else "defended"
            lines.append(f"  {result.stage:<42} {verdict:<18} {result.detail}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Health probes
# ----------------------------------------------------------------------
def check_spire_health(testbed, timeout: float = 8.0) -> Dict[str, Any]:
    """Command a physical breaker via the HMI and wait until both the
    field device and the HMI display reflect it."""
    sim = testbed.sim
    hmi = testbed.spire.hmis[0]
    unit = testbed.spire.physical_plc
    breaker = unit.topology.breaker_names()[0]
    target = not unit.topology.get_breaker(breaker)
    start = sim.now
    hmi.command_breaker(unit.device.name, breaker, target)
    deadline = start + timeout
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.1, deadline))
        if (unit.topology.get_breaker(breaker) == target
                and hmi.breaker_state(unit.device.name, breaker) == target):
            return {"ok": True, "latency": sim.now - start,
                    "breaker": breaker}
    return {"ok": False, "latency": None, "breaker": breaker}


def check_commercial_health(testbed, timeout: float = 8.0) -> Dict[str, Any]:
    """Same probe against the commercial system."""
    sim = testbed.sim
    hmi = testbed.commercial.hmi
    topology = testbed.commercial.topology
    breaker = topology.breaker_names()[0]
    target = not topology.get_breaker(breaker)
    start = sim.now
    hmi.command_breaker(breaker, target)
    deadline = start + timeout
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.1, deadline))
        if (topology.get_breaker(breaker) == target
                and hmi.breaker_state(breaker) == target):
            return {"ok": True, "latency": sim.now - start,
                    "breaker": breaker}
    return {"ok": False, "latency": None, "breaker": breaker}


# ----------------------------------------------------------------------
# Stage 1: commercial system from the enterprise network
# ----------------------------------------------------------------------
def run_commercial_enterprise_pivot(testbed, attacker: Attacker,
                                    report: Optional[ScenarioReport] = None
                                    ) -> ScenarioReport:
    report = report or ScenarioReport("commercial-from-enterprise")
    sim = testbed.sim
    foothold = attacker.home_host
    ops = testbed.commercial.lan
    primary_host = testbed.commercial.primary.host
    primary_ip = ops.ip_of(primary_host)
    plc_ip = ops.ip_of(testbed.commercial.plc_host)

    # Recon through the perimeter firewall.
    scan = attacker.port_scan(foothold, primary_ip, ports=[22, 80, 502, 5003])
    sim.run(until=sim.now + 2.0)
    report.add("scan server through perimeter", bool(scan.succeeded),
               scan.detail)

    # Pivot: web admin console with default credentials.
    pivot = attacker.exploit_remote(foothold, primary_host, primary_ip,
                                    VULN_WEBADMIN_DEFAULT_CREDS)
    sim.run(until=sim.now + 2.0)
    report.add("pivot onto operations network", bool(pivot.succeeded),
               pivot.detail)
    if not pivot.succeeded:
        return report

    # From the compromised server: dump and replace the PLC config.
    dump = attacker.plc_memory_dump(primary_host, plc_ip)
    sim.run(until=sim.now + 2.0)
    report.add("PLC memory dump", bool(dump.succeeded), dump.detail,
               config=attacker.dumped_configs.get(plc_ip))
    upload = attacker.plc_config_upload(
        primary_host, plc_ip,
        {"logic": "attacker-logic", "backdoor": True})
    sim.run(until=sim.now + 2.0)
    plc = testbed.commercial.plc
    report.add("PLC config upload (control of PLC)",
               bool(upload.succeeded) and plc.compromised_config,
               upload.detail, plc_config=dict(plc.config))
    return report


# ----------------------------------------------------------------------
# Stage 2: commercial system from the operations network
# ----------------------------------------------------------------------
def run_commercial_ops_mitm(testbed, attacker: Attacker,
                            attacker_host,
                            report: Optional[ScenarioReport] = None,
                            ) -> ScenarioReport:
    report = report or ScenarioReport("commercial-on-operations")
    sim = testbed.sim
    ops = testbed.commercial.lan
    hmi = testbed.commercial.hmi
    server_ip = ops.ip_of(testbed.commercial.primary.host)
    hmi_ip = ops.ip_of(testbed.commercial.hmi_host)

    # Forge updates: every state push is replaced by an all-closed lie.
    def forge(payload):
        if isinstance(payload, StatePush):
            return StatePush(seq=payload.seq + 1000, server=payload.server,
                             breakers={b: True for b in payload.breakers},
                             source_note="forged")
        return payload

    mitm = ArpMitm(sim, "mitm", attacker_host, ops, server_ip, hmi_ip,
                   policy=forge)
    before_forged = hmi.forged_pushes_displayed
    sim.run(until=sim.now + 8.0)
    forged_shown = hmi.forged_pushes_displayed - before_forged
    report.add("send modified updates to HMI", forged_shown > 0,
               f"{forged_shown} forged updates displayed to the operator",
               forged_updates=forged_shown)

    # Suppress updates entirely.
    mitm.policy = "drop"
    sim.run(until=sim.now + 6.0)
    staleness = hmi.seconds_since_update()
    report.add("prevent correct updates from being received",
               staleness >= 4.0,
               f"HMI stale for {staleness:.1f}s during suppression",
               staleness=staleness)
    mitm.stop_attack()
    return report


# ----------------------------------------------------------------------
# Stage 3: Spire from the enterprise network
# ----------------------------------------------------------------------
def run_spire_enterprise_probe(testbed, attacker: Attacker,
                               report: Optional[ScenarioReport] = None,
                               ) -> ScenarioReport:
    report = report or ScenarioReport("spire-from-enterprise")
    sim = testbed.sim
    foothold = attacker.home_host
    visible = 0
    for name, host in list(testbed.spire.replica_hosts.items())[:2]:
        ip = testbed.spire.external_lan.ip_of(host)
        record = attacker.port_scan(foothold, ip, ports=[22, 8100, 8120, 7100])
        sim.run(until=sim.now + 2.0)
        if record.succeeded:
            visible += 1
    report.add("gain visibility into Spire from enterprise", visible > 0,
               "no route through the perimeter; all probes unanswered"
               if visible == 0 else f"{visible} hosts visible")
    return report


# ----------------------------------------------------------------------
# Stage 4: Spire from its operations network
# ----------------------------------------------------------------------
def run_spire_ops_attacks(testbed, attacker: Attacker, attacker_host,
                          report: Optional[ScenarioReport] = None,
                          ) -> ScenarioReport:
    report = report or ScenarioReport("spire-on-operations")
    sim = testbed.sim
    spire = testbed.spire
    lan = spire.external_lan
    replica_name = spire.prime_config.replica_names[0]
    replica_host = spire.replica_hosts[replica_name]
    replica_ip = lan.ip_of(replica_host)
    proxy_host = spire.proxies[0].host
    proxy_ip = lan.ip_of(proxy_host)

    # Port scanning.
    scan = attacker.port_scan(attacker_host, replica_ip,
                              ports=[22, 80, 502, 7100, 8100, 8120])
    sim.run(until=sim.now + 2.0)
    report.add("port scan of a replica", bool(scan.succeeded), scan.detail)

    # Try Modbus straight at the proxy (the PLC is behind it on a cable).
    plc_reach = attacker.plc_memory_dump(attacker_host, proxy_ip)
    sim.run(until=sim.now + 3.0)
    report.add("reach the PLC over the network", bool(plc_reach.succeeded),
               plc_reach.detail + " (PLC is behind the proxy on a direct "
               "cable)")

    # ARP poisoning MITM between a replica and the proxy.
    hmi = spire.hmis[0]
    displays_before = hmi.display_updates
    mitm = ArpMitm(sim, "spire-mitm", attacker_host, lan, replica_ip,
                   proxy_ip, policy="drop")
    sim.run(until=sim.now + 6.0)
    intercepted = len(mitm.intercepted)
    displays_during = hmi.display_updates - displays_before
    mitm.stop_attack()
    report.add("ARP-poisoning man-in-the-middle",
               intercepted > 0,
               f"{intercepted} frames intercepted; HMI kept receiving "
               f"updates ({displays_during} display refreshes) — static "
               "ARP tables ignored the poisoning",
               intercepted=intercepted, hmi_refreshes=displays_during)

    # IP spoofing at the Spines port.
    attacker.spoof_udp(attacker_host, proxy_ip, replica_ip, 8120,
                       "spoofed-junk")
    drop_before = sum(d.stats_dropped_auth
                      for d in spire.external.daemons.values())
    sim.run(until=sim.now + 2.0)
    drop_after = sum(d.stats_dropped_auth
                     for d in spire.external.daemons.values())
    report.add("IP spoofing into the overlay", False,
               f"spoofed traffic rejected (unauthenticated: "
               f"{drop_after - drop_before} envelope(s) dropped)",
               dropped=drop_after - drop_before)

    # DoS burst at one replica, then health check.
    attacker.dos_flood(attacker_host, replica_ip, 8120, duration=4.0,
                       rate_pps=2000)
    sim.run(until=sim.now + 5.0)
    health = check_spire_health(testbed)
    report.add("denial of service (traffic burst)",
               not health["ok"],
               f"SCADA operation {'DISRUPTED' if not health['ok'] else 'unaffected'}"
               f" (command round-trip "
               f"{health['latency']:.3f}s)" if health["ok"] else
               "SCADA operation disrupted",
               health=health)
    return report


# ----------------------------------------------------------------------
# Stage 5: the excursion (gradually increasing replica access)
# ----------------------------------------------------------------------
def run_spire_excursion(testbed, attacker: Attacker,
                        report: Optional[ScenarioReport] = None,
                        ) -> ScenarioReport:
    report = report or ScenarioReport("spire-excursion")
    sim = testbed.sim
    spire = testbed.spire
    victim_name = spire.prime_config.replica_names[-1]
    victim_host = spire.replica_hosts[victim_name]
    internal_daemon = spire.internal.daemon_on(victim_host)
    external_daemon = spire.external.daemon_on(victim_host)

    # User-level access granted per rules of engagement.
    attacker.grant_foothold(victim_host, "user")

    # (a) stop the Spines daemons on the replica.
    stop_spines_daemon(attacker, internal_daemon)
    stop_spines_daemon(attacker, external_daemon)
    sim.run(until=sim.now + 2.0)
    health = check_spire_health(testbed)
    report.add("stop Spines daemon on one replica", not health["ok"],
               f"system {'down' if not health['ok'] else 'unaffected'}: "
               "tolerates loss of any one replica", health=health)

    # (b) restart with the red team's modified (unkeyed) daemon.
    rogue = run_unkeyed_daemon(attacker, sim, internal_daemon,
                               spire.internal_lan)
    session = rogue.create_session(50, lambda src, payload: None)
    peer = next(name for name in spire.internal.daemons
                if name != internal_daemon.name)
    for i in range(20):
        session.send((peer, 7000), f"rogue-{i}")
    drops_before = sum(d.stats_dropped_auth
                       for d in spire.internal.daemons.values())
    sim.run(until=sim.now + 2.0)
    drops_after = sum(d.stats_dropped_auth
                      for d in spire.internal.daemons.values())
    health = check_spire_health(testbed)
    report.add("run modified daemon without keys", not health["ok"],
               f"encryption shut it out ({drops_after - drops_before} "
               "unauthenticated envelopes dropped); no effect",
               dropped=drops_after - drops_before, health=health)

    # Bring the legitimate daemons back (the red team restarted Spines).
    spire.internal.start_daemon(internal_daemon.name)
    spire.external.start_daemon(external_daemon.name)
    sim.run(until=sim.now + 2.0)

    # (c) privilege escalation via known CVEs.
    dirty = attacker.escalate_local(victim_host, VULN_DIRTYCOW)
    sshd = attacker.escalate_local(victim_host, VULN_SSHD_CVE)
    report.add("privilege escalation (dirtycow, sshd)",
               bool(dirty.succeeded or sshd.succeeded),
               f"dirtycow: {dirty.detail}; sshd: {sshd.detail}")

    # (d) patch the (keyed) Spines binary with the discovered exploit.
    exploit_hits = {"count": 0}

    def exploit(daemon, message):
        exploit_hits["count"] += 1

    patch = patch_spines_binary(attacker, internal_daemon, exploit)
    sim.run(until=sim.now + 3.0)
    health = check_spire_health(testbed)
    report.add("patch Spines binary with exploit",
               exploit_hits["count"] > 0 or not health["ok"],
               f"{patch.detail}; exploit executed {exploit_hits['count']} "
               "times", exploit_executions=exploit_hits["count"],
               health=health)

    # (e) root + source: fairness attack as a trusted member.
    attacker.grant_foothold(victim_host, "root")
    hmi = spire.hmis[0]
    fairness_flood(attacker, internal_daemon, ("*", 7000), count=3000)
    sim.run(until=sim.now + 4.0)
    health = check_spire_health(testbed)
    dropped_fairness = sum(d.stats_dropped_fairness
                           for d in spire.internal.daemons.values())
    report.add("fairness attack as trusted member (root + source)",
               not health["ok"],
               f"per-source fairness dropped {dropped_fairness} flood "
               f"messages; SCADA operation "
               f"{'DISRUPTED' if not health['ok'] else 'unaffected'}",
               dropped=dropped_fairness, health=health)
    return report


# ----------------------------------------------------------------------
# Stage 6: the keyed replica as a malicious forwarder
# ----------------------------------------------------------------------
def run_spire_malicious_forwarder(testbed, attacker: Attacker,
                                  report: Optional[ScenarioReport] = None,
                                  duration: float = 4.0) -> ScenarioReport:
    """One step past the excursion's fairness attack: with root and the
    keys of one replica, make its external daemon substitute the payload
    of everything it forwards between the other replicas and the
    proxies/HMIs.  The overlay's claim is that no single compromised
    daemon can block or alter communication between correct ones: every
    forged copy must be rejected where it lands, every update submitted
    meanwhile must still confirm, and a breaker command must still
    round-trip."""
    report = report or ScenarioReport("spire-malicious-forwarder")
    sim = testbed.sim
    spire = testbed.spire
    victim_host = spire.replica_hosts[spire.prime_config.replica_names[-1]]
    daemon = spire.external.daemon_on(victim_host)
    attacker.grant_foothold(victim_host, "root")
    forged = {"count": 0}

    def forge(payload):
        forged["count"] += 1
        return {"forged-by": attacker.name}

    def rejected() -> int:
        return sum(d.stats_dropped_sig
                   for d in spire.external.daemons.values())

    clients = [proxy.client for proxy in spire.proxies] \
        + [hmi.client for hmi in spire.hmis]
    rejected_before = rejected()
    first = {client.client_id: client.next_seq for client in clients}
    substitute_payloads(attacker, daemon, forge)
    sim.run(until=sim.now + duration)
    last = {client.client_id: client.next_seq for client in clients}
    health = check_spire_health(testbed)
    # The excursion ends as it began (stage a): with the daemon gone,
    # every forged copy still in flight lands and is counted.
    stop_spines_daemon(attacker, daemon)
    sim.run(until=sim.now + 0.5)
    accepted = forged["count"] - (rejected() - rejected_before)
    unconfirmed = sorted(
        (client.client_id, seq) for client in clients
        for seq in range(first[client.client_id], last[client.client_id])
        if seq not in client.confirmed)
    report.add("substitute payloads as a keyed forwarder (root + source)",
               accepted > 0 or bool(unconfirmed) or not health["ok"],
               f"{forged['count']} forged copies sent, {accepted} accepted "
               f"by a correct daemon; {len(unconfirmed)} update(s) never "
               f"confirmed; SCADA operation "
               f"{'unaffected' if health['ok'] else 'DISRUPTED'}",
               forged=forged["count"], accepted=accepted,
               unconfirmed=unconfirmed, health=health)
    return report


# ----------------------------------------------------------------------
# Extension: exploiting diversified replica applications over time
# ----------------------------------------------------------------------
def exploit_replica_application(attacker: Attacker, system, replica_name: str,
                                exploit) -> bool:
    """Attempt a memory-corruption exploit against one replica's
    SCADA-master build.  Succeeds iff the exploit's target layout
    matches the replica's current variant; success yields root on the
    host and turns the replica byzantine."""
    variant = system.variants[replica_name]["scada-master"]
    record = attacker._record("exploit-replica-app",
                              f"{replica_name}:build{variant.build_id}")
    if not exploit.attempt(variant):
        record.resolve(False, "exploit layout does not match this variant")
        return False
    host = system.replica_hosts[replica_name]
    attacker.footholds[host.name] = "root"
    attacker.loot.merge(host.compromise("root"))
    system.replicas[replica_name].byzantine = "crash"
    record.resolve(True, "replica compromised; running attacker code")
    return True


def run_diversity_exploit_campaign(system, attacker: Attacker, developer,
                                   report: Optional[ScenarioReport] = None,
                                   ) -> ScenarioReport:
    """A dedicated attacker with source access develops exploits against
    the diversified replica fleet (the long-lifetime threat model that
    motivates diversity + proactive recovery, Section II).

    ``developer`` is a :class:`repro.diversity.ExploitDeveloper`.
    """
    report = report or ScenarioReport("diversity-exploit-campaign")
    sim = system.sim
    names = system.prime_config.replica_names

    # Develop an exploit against replica[0]'s observed build.
    first = system.variants[names[0]]["scada-master"]
    exploit = developer.study_and_develop(first, "scada-overflow")
    hit = exploit_replica_application(attacker, system, names[0], exploit)
    report.add("exploit first replica (matching build)", hit,
               f"{developer.hours_spent:.0f} attacker-hours spent")

    # Reuse against every other replica.
    reused = sum(1 for name in names[1:]
                 if exploit_replica_application(attacker, system, name,
                                                exploit))
    report.add("reuse exploit on other replicas", reused > 0,
               f"{reused}/{len(names) - 1} further replicas fell "
               + ("(monoculture!)" if reused else "(diversity held)"))

    # The system must still operate with the one compromised replica.
    sim.run(until=sim.now + 3.0)
    hmi = system.hmis[0]
    unit = system.physical_plc
    target = not unit.topology.get_breaker(unit.topology.breaker_names()[0])
    hmi.command_breaker(unit.device.name,
                        unit.topology.breaker_names()[0], target)
    deadline = sim.now + 8.0
    operational = False
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.2, deadline))
        if unit.topology.get_breaker(unit.topology.breaker_names()[0]) == target:
            operational = True
            break
    report.add("disrupt SCADA with one compromised replica",
               not operational,
               "operation continued (f=1 tolerance)" if operational
               else "operation disrupted")

    # Proactive recovery cleanses the compromised replica and reissues a
    # fresh variant, invalidating the attacker's exploit.
    if system.recovery is None:
        scheduler = system.start_proactive_recovery()
    else:
        scheduler = system.recovery
    target_rt = next(t for t in scheduler.targets if t.name == names[0])
    scheduler.begin_recovery(target_rt)
    sim.run(until=sim.now + scheduler.downtime + 3.0)
    still_works = exploit.attempt(system.variants[names[0]]["scada-master"])
    report.add("exploit survives proactive recovery", still_works,
               "fresh variant installed; exploit no longer matches"
               if not still_works else "exploit still valid (!)",
               cleansed=system.replica_hosts[names[0]].compromised_level is None,
               replica_state=system.replicas[names[0]].state)
    return report


def diversity_campaign_cell(seed: int) -> Dict[str, Any]:
    """One seed of the X1 exploit-campaign sweep (a parallel work unit).

    Builds a fresh diversified deployment, runs the full
    :func:`run_diversity_exploit_campaign`, and returns a
    JSON-serialisable outcome summary.  Deterministic per seed, so a
    seed sweep over a :class:`repro.parallel.WorkerPool` merges into
    identical reports at any job count.
    """
    from repro.core.spire import build_spire
    from repro.grid import GridSpec
    from repro.diversity import ExploitDeveloper
    from repro.net import Host, ubuntu_desktop_2016
    from repro.sim.simulator import Simulator

    sim = Simulator(seed=seed)
    system = build_spire(sim, GridSpec.single_plant(
        n_distribution_plcs=0, n_generation_plcs=0, n_hmis=1,
        proactive_recovery_period=30.0,
        proactive_recovery_downtime=0.5).spire_config())
    sim.run(until=4.0)
    staging = Host(sim, "rt-box", os_profile=ubuntu_desktop_2016())
    system.external_lan.connect(staging)
    attacker = Attacker(sim, "redteam", staging)
    developer = ExploitDeveloper(clock=lambda: sim.now)
    scenario = run_diversity_exploit_campaign(system, attacker, developer)
    return {
        "seed": seed,
        "first_exploit": scenario.achieved(
            "exploit first replica (matching build)"),
        "reuse_blocked": not scenario.achieved(
            "reuse exploit on other replicas"),
        "scada_disrupted": scenario.achieved(
            "disrupt SCADA with one compromised replica"),
        "survives_recovery": scenario.achieved(
            "exploit survives proactive recovery"),
        "attacker_hours": developer.hours_spent,
    }
