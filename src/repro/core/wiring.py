"""The one place a Fig. 2 deployment is wired.

Every world in the tree — a paper site (:mod:`repro.core.spire`), a
federated grid (:mod:`repro.grid.world`), the campaign harness
(:mod:`repro.faults.harness`) — is the same architecture: ``3f + 2k +
1`` hardened replicas dual-homed on an isolated internal and an
external Spines overlay, keyed client hosts (proxies, HMIs, operator
populations) on the external overlay, PLCs behind their proxy on direct
cables, all under the Section III-B posture (default-deny host
firewalls opened for exactly the conversations the protocols use).

:class:`Deployment` holds that cluster shape and the operations that
wire it.  A world is a *layout* over it: it says what to wire — names,
CIDRs, the application behind each replica, the RTUs behind each proxy,
which overlay edges exist — and never how.  A hardening or topology
change made here reaches every world; nothing below constructs a
replica, a locked-down host, a proxy or a PLC cable on its own
(``tests/test_small_surfaces.py`` holds that line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple,
)

from repro.crypto.keys import KeyStore
from repro.diversity.multicompiler import MultiCompiler
from repro.diversity.recovery import ProactiveRecoveryScheduler, RecoveryTarget
from repro.net.firewall import INBOUND, OUTBOUND, locked_down_firewall
from repro.net.host import Host
from repro.net.lan import Lan
from repro.prime.config import PrimeConfig
from repro.prime.replica import PrimeReplica
from repro.spines.daemon import SpinesDaemon
from repro.spines.overlay import SpinesNetwork

# The SCADA and PLC stacks (and, through ``repro.scada``, MANA and
# numpy) load when a layout first wires a master or a proxy: the
# Prime-only campaign harness never does, and stays as light to import
# as it is to run.
if TYPE_CHECKING:
    from repro.plc.device import PlcDevice
    from repro.plc.topology import PowerTopology
    from repro.scada.master import ScadaMaster
    from repro.scada.proxy import PlcProxy

#: When proxies and HMIs announce themselves (the first ordered updates).
REGISTER_AT = 0.05


@dataclass
class PlcUnit:
    """A PLC with its host, topology, and serving proxy."""

    device: PlcDevice
    host: Host
    topology: PowerTopology
    proxy: PlcProxy
    physical: bool = False


def register_clients(proxies, hmis, historian=None) -> None:
    """Deferred proxy/HMI registration (module-level so the pending
    event stays picklable for snapshots taken before it fires)."""
    for proxy in proxies:
        proxy.register_with_masters()
    for hmi in hmis:
        hmi.subscribe()
    if historian is not None:
        from repro.scada.events import register_hmi_op

        # The historian consumes the same feed as an HMI.
        hmis[0].client.submit(register_hmi_op(historian.feed_addr))


class Deployment:
    """The cluster shape, and the operations that wire it.

    The attributes are what :class:`~repro.faults.actions.FaultContext`,
    :class:`~repro.faults.monitors.MonitorSuite` and the snapshot layer
    read off any world: ``sim``, ``prime_config``, ``keystore``,
    ``internal_lan`` / ``external_lan``, ``internal`` / ``external``,
    ``replica_hosts``, ``replicas``, ``recovery`` (plus the
    diversifying ``compiler`` and the per-replica ``variants`` the
    recovery scheduler refreshes in place).

    Args:
        sim: simulation kernel.
        prefix: names the LANs, overlays, RNG streams and (by default)
            hosts of this deployment.
        prime_config: the ``3f + 2k + 1`` sizing.
        diversify: MultiCompiler diversification (off = monoculture).
    """

    #: What :meth:`adopt` shares.
    SHAPE = ("prefix", "prime_config", "keystore", "compiler",
             "internal_lan", "external_lan", "internal", "external",
             "replica_hosts", "replicas", "variants", "recovery")

    def __init__(self, sim, prefix: str, prime_config: PrimeConfig,
                 diversify: bool = True):
        self.sim = sim
        self.prefix = prefix
        self.prime_config = prime_config
        self.keystore = KeyStore(sim.rng.child(f"{prefix}/keys"))
        self.compiler = MultiCompiler(sim.rng.child(f"{prefix}/mc"),
                                      diversify=diversify)
        self.internal_lan: Optional[Lan] = None
        self.external_lan: Optional[Lan] = None
        self.internal: Optional[SpinesNetwork] = None
        self.external: Optional[SpinesNetwork] = None
        self.replica_hosts: Dict[str, Host] = {}
        self.replicas: Dict[str, PrimeReplica] = {}
        # Per-replica diversified builds (program -> CodeVariant);
        # refreshed in place by the proactive-recovery scheduler.
        self.variants: Dict[str, Dict[str, object]] = {}
        self.recovery: Optional[ProactiveRecoveryScheduler] = None

    def adopt(self, other: "Deployment") -> None:
        """Become a view over ``other``'s cluster (same hosts, overlays,
        replicas and keys) — how a site world wraps its SpireSystem."""
        for name in self.SHAPE:
            setattr(self, name, getattr(other, name))

    def host_name(self, label: str) -> str:
        return f"{self.prefix}.{label}"

    # ------------------------------------------------------------------
    # Networks and overlays
    # ------------------------------------------------------------------
    def wire_networks(self, external_cidr: str, external_ports: int,
                      internal_cidr: str) -> None:
        """The external LAN + overlay (clients) and the isolated
        internal pair (replication)."""
        self.internal_lan, self.internal = self._overlay(
            "internal", internal_cidr, self.prime_config.n + 2, 8100)
        self.external_lan, self.external = self._overlay(
            "external", external_cidr, external_ports, 8120)

    def _overlay(self, side: str, cidr: str, ports: int,
                 udp_port: int) -> Tuple[Lan, SpinesNetwork]:
        lan = Lan(self.sim, f"{self.prefix}-{side}", cidr, ports=ports)
        # K = f + 1 node-disjoint paths per unicast: f compromised
        # forwarders cannot sit on all of them.
        return lan, SpinesNetwork(self.sim, f"{self.prefix}.{side[:3]}", lan,
                                  self.keystore, port=udp_port,
                                  disjoint_paths=self.prime_config.f + 1)

    def harden(self) -> None:
        """Section III-B: static ARP/MAC/port maps on every LAN."""
        self.internal_lan.harden()
        self.external_lan.harden()

    # ------------------------------------------------------------------
    # Hosts
    # ------------------------------------------------------------------
    def _install_key(self, host: Host, principal: str) -> None:
        self.keystore.create_signing(principal)
        host.key_ring.install_signing(principal,
                                      self.keystore.signing(principal))

    def wire_replicas(self, app_factory: Callable[[str], Any],
                      host_name_of: Optional[Callable[[str], str]] = None,
                      ) -> Dict[str, Any]:
        """The replica core: one hardened dual-homed host per replica
        (named ``host_name_of(replica)``, by default
        ``<prefix>.<replica>``), a daemon on each overlay, the
        replica's signing key, and ``app_factory(replica)`` behind a
        :class:`PrimeReplica`; the internal overlay is a full mesh.
        Returns the applications."""
        host_name_of = host_name_of or self.host_name
        apps = {}
        for name in self.prime_config.replica_names:
            host = Host(self.sim, host_name_of(name),
                        firewall=locked_down_firewall())
            self.replica_hosts[name] = host
            self.internal_lan.connect(host)
            self.external_lan.connect(host)
            internal_daemon = self.internal.add_daemon(host, f"int.{name}")
            external_daemon = self.external.add_daemon(host, f"ext.{name}")
            self._install_key(host, name)
            apps[name] = app_factory(name)
            self.replicas[name] = PrimeReplica(
                self.sim, name, self.prime_config, internal_daemon,
                external_daemon, apps[name])
        self.internal.connect_full_mesh()
        return apps

    def wire_masters(self) -> Dict[str, ScadaMaster]:
        """The replica core with a SCADA master behind every replica."""
        from repro.scada.master import ScadaMaster

        masters = self.wire_replicas(ScadaMaster)
        for name, master in masters.items():
            master.bind(self.replicas[name])
        return masters

    def compile_variants(self, **options) -> None:
        """Build-time diversified variants for every replica (a
        deployment without them gets fresh ones when recovery starts)."""
        for name in self.replicas:
            self.variants[name] = {
                program: self.compiler.compile(program, **options)
                for program in ("scada-master", "spines")}

    def wire_client_host(self, label: str, principal: Optional[str] = None,
                         host_name: Optional[str] = None) -> SpinesDaemon:
        """A hardened host on the external LAN running the daemon
        ``ext.<label>``, holding ``principal``'s signing key if it hosts
        a Prime client.  Returns the daemon; its ``host`` is the host."""
        host = Host(self.sim, host_name or self.host_name(label),
                    firewall=locked_down_firewall())
        self.external_lan.connect(host)
        daemon = self.external.add_daemon(host, f"ext.{label}")
        if principal is not None:
            self._install_key(host, principal)
        return daemon

    def wire_proxy(self, label: str,
                   rtus: Sequence[Tuple[str, PowerTopology, bool]],
                   protocol: str, poll_interval: float,
                   heartbeat_interval: float, cable_index: int):
        """One proxy (``proxy-<label>``) serving ``rtus`` — ``(plc
        name, topology, physical)`` each — over direct cables numbered
        from ``cable_index`` (``10.77.<index>.0/30``).  Returns the
        proxy and its ``{plc name: PlcUnit}``."""
        from repro.plc.device import PlcDevice
        from repro.plc.dnp3 import Dnp3Outstation
        from repro.scada.dnp3_proxy import Dnp3PlcProxy
        from repro.scada.proxy import PlcProxy, wire_direct

        daemon = self.wire_client_host(f"proxy.{label}",
                                       principal=f"proxy-{label}")
        dnp3 = protocol == "dnp3"
        if dnp3:
            proxy = Dnp3PlcProxy(
                self.sim, f"proxy-{label}", daemon.host, daemon,
                self.prime_config, poll_interval=max(poll_interval, 1.0),
                heartbeat_interval=heartbeat_interval)
        else:
            proxy = PlcProxy(
                self.sim, f"proxy-{label}", daemon.host, daemon,
                self.prime_config, poll_interval=poll_interval,
                heartbeat_interval=heartbeat_interval)
        units: Dict[str, PlcUnit] = {}
        for offset, (plc_name, topology, physical) in enumerate(rtus):
            plc_host = Host(self.sim, self.host_name(plc_name))
            wire_direct(self.sim, daemon.host, plc_host,
                        f"10.77.{cable_index + offset}.0/30")
            if dnp3:
                device = Dnp3Outstation(self.sim, plc_name, plc_host,
                                        topology)
            else:
                device = PlcDevice(self.sim, plc_name, plc_host, topology,
                                   physical=physical)
            # The proxy's default-deny firewall must allow exactly the
            # field-protocol conversation on the direct cable (Section
            # III-B: "other than the specific IP address and port
            # combinations used by our protocols").
            plc_ip = plc_host.interfaces[-1].ip
            for direction in (OUTBOUND, INBOUND):
                daemon.host.firewall.allow(direction, "tcp", remote_ip=plc_ip,
                                           remote_port=device.port)
            if dnp3:
                proxy.attach_outstation(device, plc_ip)
            else:
                proxy.attach_plc(device, plc_ip)
            units[plc_name] = PlcUnit(device=device, host=plc_host,
                                      topology=topology, proxy=proxy,
                                      physical=physical)
        return proxy, units

    def schedule_registration(self, proxies=(), hmis=(),
                              historian=None) -> None:
        self.sim.schedule(REGISTER_AT, register_clients, proxies, hmis,
                          historian)

    # ------------------------------------------------------------------
    # Proactive recovery
    # ------------------------------------------------------------------
    def require_recovery_budget(self) -> None:
        """Bounded delay *through* proactive recovery needs ``k >= 1``."""
        k = self.prime_config.k
        if k < 1:
            raise RuntimeError(
                f"{self.prefix}: k={k} does not support proactive recovery "
                "with bounded delay (needs 3f+2k+1 with k >= 1, i.e. six "
                "replicas for f=1)")

    def start_recovery(self, period: float = 6.0,
                       downtime: float = 0.8) -> ProactiveRecoveryScheduler:
        """Start periodic rejuvenation of every replica machine: host,
        replica and both overlay daemons, at most ``k`` at a time."""
        targets = [
            RecoveryTarget(
                name=name, host=self.replica_hosts[name], replica=replica,
                daemons=[replica.internal_daemon, replica.external_daemon],
                variants=self.variants.setdefault(name, {}))
            for name, replica in self.replicas.items()]
        self.recovery = ProactiveRecoveryScheduler(
            self.sim, self.compiler, targets, period=period,
            downtime=downtime, k=self.prime_config.k)
        self.recovery.start()
        return self.recovery
