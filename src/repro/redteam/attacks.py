"""Red-team attacker toolkit.

Implements, as concrete programs against the simulated substrate, every
attack the paper reports the Sandia red team using (Section IV-B):

* reconnaissance port scans,
* remote service exploitation (the enterprise→operations pivot),
* PLC memory dump and configuration upload over unauthenticated Modbus,
* ARP-poisoning man-in-the-middle with forge/drop policies,
* IP-spoofed packet injection,
* denial-of-service traffic bursts,
* local privilege escalation via known CVEs (dirtycow, sshd),
* Spines daemon manipulation: stop, replace with an unkeyed build, or
  patch the keyed binary (exploit in the code path disabled in IT mode),
* the trusted-member fairness flood (root + source excursion),
* payload substitution by a keyed forwarder (root + source: every
  message the daemon relays leaves it carrying the attacker's payload
  under the original source signature and a valid link MAC).

Outcomes are *mechanical*: each primitive succeeds or fails because of
what the substrate enforces (firewalls, static mappings, MACs,
signatures), never because a scenario script says so.  Every attempt is
recorded as an :class:`AttackRecord` for the scenario reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.crypto.keys import KeyRing, KeyStore
from repro.net.addresses import BROADCAST_MAC, ETHERTYPE_ARP, ETHERTYPE_IP
from repro.net.host import Host, Interface
from repro.net.lan import Lan
from repro.net.packet import ArpMessage, Frame, IpPacket, UdpDatagram
from repro.net.scan import PortScanner, ScanReport
from repro.plc.modbus import ModbusResponse, config_upload, memory_dump
from repro.sim.process import Process
from repro.spines.daemon import SpinesDaemon
from repro.spines.messages import IT_FLOOD, LinkEnvelope, OverlayMessage


@dataclass
class AttackRecord:
    """One attempted attack and its observed outcome."""

    name: str
    time: float
    target: str
    succeeded: Optional[bool]       # None while pending
    detail: str = ""

    def resolve(self, succeeded: bool, detail: str = "") -> None:
        self.succeeded = succeeded
        if detail:
            self.detail = detail


class Attacker(Process):
    """A red-team operator with one or more footholds.

    Args:
        sim: simulation kernel.
        name: attacker label.
        home_host: the machine the red team controls initially.
    """

    def __init__(self, sim, name: str, home_host: Host):
        super().__init__(sim, name)
        self.home_host = home_host
        self.loot = KeyRing()
        self.footholds: Dict[str, str] = {home_host.name: "root"}
        self.records: List[AttackRecord] = []
        self.scan_reports: Dict[str, ScanReport] = {}
        self.dumped_configs: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    def _record(self, name: str, target: str,
                succeeded: Optional[bool] = None,
                detail: str = "") -> AttackRecord:
        record = AttackRecord(name=name, time=self.now, target=target,
                              succeeded=succeeded, detail=detail)
        self.records.append(record)
        return record

    def report(self) -> List[AttackRecord]:
        return list(self.records)

    def summary(self) -> Dict[str, List[AttackRecord]]:
        grouped: Dict[str, List[AttackRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.name, []).append(record)
        return grouped

    # ------------------------------------------------------------------
    # Reconnaissance
    # ------------------------------------------------------------------
    def port_scan(self, from_host: Host, target_ip: str,
                  ports: Optional[List[int]] = None) -> AttackRecord:
        record = self._record("port-scan", target_ip)

        def done(report: ScanReport) -> None:
            self.scan_reports[target_ip] = report
            record.resolve(report.any_visibility,
                           f"open={report.open_ports} "
                           f"closed={report.closed_ports} "
                           f"filtered={len(report.filtered_ports)}")

        PortScanner(from_host, ports=ports).scan(target_ip, done)
        return record

    # ------------------------------------------------------------------
    # Remote exploitation / pivoting
    # ------------------------------------------------------------------
    def exploit_remote(self, from_host: Host, target: Host, target_ip: str,
                       vuln_id: str) -> AttackRecord:
        """Exploit a network-reachable service vulnerability."""
        record = self._record("remote-exploit", f"{target.name}:{vuln_id}")
        port = target.os_profile.remote_vulns.get(vuln_id)
        if port is None:
            record.resolve(False, "service not vulnerable")
            return record

        def probed(status: str) -> None:
            if status != "open":
                record.resolve(False, f"service unreachable ({status})")
                return
            self.footholds[target.name] = "user"
            self.loot.merge(target.compromise("user"))
            record.resolve(True, f"user foothold via {vuln_id} on port {port}")

        from_host.tcp_probe(target_ip, port, probed)
        return record

    def escalate_local(self, target: Host, vuln_id: str) -> AttackRecord:
        """Try a local privilege escalation on a host we have user on."""
        record = self._record("local-privesc", f"{target.name}:{vuln_id}")
        if self.footholds.get(target.name) is None:
            record.resolve(False, "no foothold on host")
            return record
        if vuln_id not in target.os_profile.local_vulns:
            record.resolve(False,
                           f"{target.os_profile.name} not vulnerable to "
                           f"{vuln_id} (patched/minimal install)")
            return record
        self.footholds[target.name] = "root"
        self.loot.merge(target.compromise("root"))
        record.resolve(True, f"root via {vuln_id}")
        return record

    def grant_foothold(self, target: Host, level: str) -> None:
        """Rules-of-engagement grant (the excursion gave the red team
        access rather than them earning it)."""
        self.footholds[target.name] = level
        self.loot.merge(target.compromise(level))
        self._record("granted-access", target.name, True,
                     f"{level} access granted per rules of engagement")

    # ------------------------------------------------------------------
    # PLC attacks (unauthenticated Modbus)
    # ------------------------------------------------------------------
    def plc_memory_dump(self, from_host: Host, plc_ip: str,
                        port: int = 502) -> AttackRecord:
        record = self._record("plc-memory-dump", plc_ip)
        self._modbus_transaction(from_host, plc_ip, port,
                                 memory_dump(9001), record,
                                 on_ok=lambda resp: self.dumped_configs
                                 .__setitem__(plc_ip, resp.payload or {}))
        return record

    def plc_config_upload(self, from_host: Host, plc_ip: str,
                          config: dict, port: int = 502) -> AttackRecord:
        record = self._record("plc-config-upload", plc_ip)
        self._modbus_transaction(from_host, plc_ip, port,
                                 config_upload(9002, config), record)
        return record

    def _modbus_transaction(self, from_host: Host, plc_ip: str, port: int,
                            request, record: AttackRecord,
                            on_ok: Optional[Callable] = None) -> None:
        def established(conn):
            conn.send(request)

        def data_in(conn, payload):
            if isinstance(payload, ModbusResponse):
                if payload.ok:
                    if on_ok is not None:
                        on_ok(payload)
                    record.resolve(True, "modbus transaction accepted")
                else:
                    record.resolve(False,
                                   f"modbus exception {payload.exception}")
                conn.close()

        def failed(reason):
            record.resolve(False, f"cannot reach PLC ({reason})")

        from_host.tcp_connect(plc_ip, port, established, on_data=data_in,
                              on_failure=failed)

    # ------------------------------------------------------------------
    # Packet-level attacks
    # ------------------------------------------------------------------
    def spoof_udp(self, from_host: Host, claim_src_ip: str, target_ip: str,
                  port: int, payload: Any) -> AttackRecord:
        record = self._record("ip-spoofing", f"{target_ip}:{port}")
        sent = from_host.udp_send(target_ip, port, payload, src_port=port,
                                  spoof_src_ip=claim_src_ip)
        record.resolve(sent, "frame transmitted (delivery depends on "
                             "switch/host policy)" if sent else
                             "could not transmit")
        return record

    def dos_flood(self, from_host: Host, target_ip: str, port: int,
                  duration: float = 2.0, rate_pps: int = 2000,
                  payload_bytes: int = 900) -> AttackRecord:
        """Traffic burst at a victim (the classic availability attack)."""
        record = self._record("dos-flood", f"{target_ip}:{port}", None,
                              f"{rate_pps} pps for {duration}s")
        interval = 1.0 / rate_pps
        junk = "X" * payload_bytes
        end_time = self.now + duration
        state = {"sent": 0}

        def blast():
            if self.now >= end_time:
                timer.stop()
                record.resolve(True, f"{state['sent']} packets transmitted")
                return
            from_host.udp_send(target_ip, port, junk, src_port=40000)
            state["sent"] += 1

        timer = self.call_every(interval, blast)
        return record


class ArpMitm(Process):
    """ARP-poisoning man-in-the-middle between two victims.

    Continuously sends gratuitous ARP replies claiming both victims'
    IPs, sniffs the redirected traffic, and relays it subject to a
    policy: ``forward`` (observe only), ``drop`` (suppress), or a
    callable that may modify the UDP payload before relaying.
    """

    def __init__(self, sim, name: str, host: Host, lan: Lan,
                 victim_a_ip: str, victim_b_ip: str,
                 policy: Any = "forward", poison_interval: float = 0.5):
        super().__init__(sim, name)
        self.host = host
        self.lan = lan
        self.victim_a_ip = victim_a_ip
        self.victim_b_ip = victim_b_ip
        self.policy = policy
        self.intercepted: List[Frame] = []
        self.relayed = 0
        self.dropped = 0
        self.modified = 0
        self._iface = lan.interface_of(host)
        self._real_macs: Dict[str, str] = {}
        for member in lan.members:
            self._real_macs[member.ip] = member.mac
        host.set_sniffer(self._sniff)
        self._poison_timer = self.call_every(poison_interval, self._poison)
        self._poison()

    def stop_attack(self) -> None:
        self._poison_timer.stop()
        self.host.set_sniffer(None)

    # ------------------------------------------------------------------
    def _poison(self) -> None:
        for claim_ip in (self.victim_a_ip, self.victim_b_ip):
            arp = ArpMessage(op="reply", sender_mac=self._iface.mac,
                             sender_ip=claim_ip, target_mac=BROADCAST_MAC,
                             target_ip="0.0.0.0")
            self._iface.inject(Frame(src_mac=self._iface.mac,
                                     dst_mac=BROADCAST_MAC,
                                     ethertype=ETHERTYPE_ARP, payload=arp))

    def _sniff(self, iface: Interface, frame: Frame) -> None:
        if frame.ethertype != ETHERTYPE_IP:
            return
        if frame.dst_mac != self._iface.mac:
            return
        packet = frame.payload
        if not isinstance(packet, IpPacket):
            return
        if packet.dst_ip not in (self.victim_a_ip, self.victim_b_ip):
            return
        if packet.dst_ip in self.host.local_ips():
            return
        self.intercepted.append(frame)
        real_mac = self._real_macs.get(packet.dst_ip)
        if real_mac is None:
            return
        if self.policy == "drop":
            self.dropped += 1
            return
        out_packet = packet
        if callable(self.policy) and isinstance(packet.payload, UdpDatagram):
            new_payload = self.policy(packet.payload.payload)
            if new_payload is None:
                self.dropped += 1
                return
            if new_payload is not packet.payload.payload:
                self.modified += 1
            out_packet = IpPacket(
                src_ip=packet.src_ip, dst_ip=packet.dst_ip,
                proto=packet.proto,
                payload=UdpDatagram(src_port=packet.payload.src_port,
                                    dst_port=packet.payload.dst_port,
                                    payload=new_payload),
                ttl=packet.ttl)
        relay = Frame(src_mac=self._iface.mac, dst_mac=real_mac,
                      ethertype=ETHERTYPE_IP, payload=out_packet)
        self.relayed += 1
        self._iface.inject(relay)


# ----------------------------------------------------------------------
# Spines daemon manipulation (excursion attacks)
# ----------------------------------------------------------------------
def stop_spines_daemon(attacker: Attacker, daemon: SpinesDaemon) -> AttackRecord:
    """Kill the Spines daemon on a host where the attacker has a
    foothold (user level suffices to stop their own processes in the
    excursion's rules)."""
    record = attacker._record("stop-spines-daemon", daemon.name)
    if attacker.footholds.get(daemon.host.name) is None:
        record.resolve(False, "no foothold on host")
        return record
    daemon.stop_daemon()
    record.resolve(True, "daemon stopped")
    return record


def run_unkeyed_daemon(attacker: Attacker, sim, victim_daemon: SpinesDaemon,
                       lan: Lan, port: int = 8131) -> SpinesDaemon:
    """Start the red team's own modified Spines build.  It lacks the
    overlay's symmetric key (the build predates the newly added
    encryption), so peers drop everything it sends."""
    rogue_store = KeyStore(sim.rng.child(f"{attacker.name}/roguekeys"))
    rogue_store.create_symmetric(victim_daemon.network_key_id)
    host = victim_daemon.host
    rogue_name = f"rogue.{host.name}"
    rogue_store.create_signing(rogue_name)
    rogue = SpinesDaemon(sim, rogue_name, host, port,
                         victim_daemon.network_key_id,
                         intrusion_tolerant=victim_daemon.intrusion_tolerant)
    # Its ring holds a *different* key under the same id: the MACs it
    # produces will not verify at the legitimate daemons.
    rogue_ring = rogue_store.ring_for(
        symmetric_ids=[victim_daemon.network_key_id],
        signing_principals=[rogue_name])
    rogue.host = _RingOverrideHost(host, rogue_ring)
    for name, (ip, nport) in victim_daemon.neighbors.items():
        rogue.add_neighbor(name, ip, nport)
    attacker._record("run-modified-daemon", victim_daemon.name, True,
                     "modified daemon started without deployment keys")
    return rogue


class _RingOverrideHost:
    """Proxy giving a process a different key ring on the same host —
    models a daemon binary carrying its own (wrong) key material."""

    def __init__(self, host: Host, ring: KeyRing):
        self._host = host
        self.key_ring = ring

    def __getattr__(self, item):
        # __dict__.get so unpickling (which probes attributes before
        # __dict__ is restored) cannot recurse into __getattr__.
        host = self.__dict__.get("_host")
        if host is None:
            raise AttributeError(item)
        return getattr(host, item)


def patch_spines_binary(attacker: Attacker, daemon: SpinesDaemon,
                        exploit_fn: Callable) -> AttackRecord:
    """Patch the running (keyed) daemon with attacker code.

    The patched daemon remains a valid overlay member — it has the real
    keys — but the exploit lives in the code path that is only executed
    when Spines runs in non-intrusion-tolerant (routed) mode, which the
    deployment disables (Section IV-B)."""
    record = attacker._record("patch-spines-binary", daemon.name)
    if attacker.footholds.get(daemon.host.name) is None:
        record.resolve(False, "no foothold on host")
        return record
    daemon.patched_exploit = exploit_fn
    active = not daemon.intrusion_tolerant
    record.resolve(True, "binary patched; exploit code path "
                   + ("ACTIVE (routed mode)" if active
                      else "disabled in intrusion-tolerant mode"))
    return record


def fairness_flood(attacker: Attacker, daemon: SpinesDaemon,
                   dst, count: int = 5000) -> AttackRecord:
    """Root + source excursion: flood the overlay as a *trusted member*
    trying to break its fairness properties."""
    record = attacker._record("fairness-flood", daemon.name)
    if attacker.footholds.get(daemon.host.name) != "root":
        record.resolve(False, "needs root on the daemon host")
        return record
    session = daemon.create_session(9999, lambda src, payload: None)
    for i in range(count):
        session.send(dst, f"flood-{i}", service=IT_FLOOD)
    record.resolve(True, f"{count} messages injected as trusted member")
    return record


def substitute_payloads(attacker: Attacker, daemon: SpinesDaemon,
                        forge: Callable[[Any], Any]) -> AttackRecord:
    """Root + source excursion: turn a *keyed* overlay member into a
    forwarder that swaps what it carries.

    Every message of another source that ``daemon`` relays leaves it
    re-wrapped around ``forge(payload)``: same addresses, same
    ``(src_daemon, seq)``, the genuine source signature still attached,
    and the daemon's own link MAC — valid, it holds the network key —
    over the result.  Whether the next hop accepts that is a property
    of what the source signature covers."""
    record = attacker._record("substitute-payloads", daemon.name)
    if attacker.footholds.get(daemon.host.name) != "root":
        record.resolve(False, "needs root on the daemon host")
        return record
    send_genuine = daemon._send_envelope

    def send_forged(neighbor: str, envelope: LinkEnvelope,
                    now: float) -> None:
        body = envelope.body
        if (isinstance(body, OverlayMessage)
                and body.src_daemon != daemon.name):
            forged = replace(body, payload=forge(body.payload))
            envelope = LinkEnvelope(sender=daemon.name, kind=envelope.kind,
                                    body=forged)
        send_genuine(neighbor, envelope, now)

    daemon._send_envelope = send_forged
    record.resolve(True, "forwarder substitutes every relayed payload")
    return record
