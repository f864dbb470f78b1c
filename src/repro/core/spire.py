"""The Spire intrusion-tolerant SCADA system (Fig. 2) as deployed at
one of the paper's sites — a layout over :mod:`repro.core.wiring`.

Builds a complete deployment on the simulated substrate:

* ``3f + 2k + 1`` SCADA-master replicas, each a hardened host dual-homed
  on an isolated **internal** LAN (Prime replication over the internal
  Spines overlay) and an **external** LAN (client traffic over the
  external Spines overlay);
* PLC proxies with their PLCs attached over **direct cables**;
* HMIs and an optional historian;
* MultiCompiler-diversified variants and an optional proactive-recovery
  scheduler;
* Section III-B low-level hardening (default-deny firewalls, static
  ARP/MAC/port mappings) applied to both LANs;
* an assumption-breach monitor that coordinates the Section III-A
  automatic reset-and-rebuild-from-field-devices path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import SpireConfig
from repro.core.wiring import Deployment, PlcUnit
from repro.diversity.recovery import ProactiveRecoveryScheduler
from repro.plc.topology import (
    distribution_scenario, generation_scenario, plant_topology,
    redteam_topology,
)
from repro.prime.config import build_config
from repro.prime.replica import STATE_NORMAL
from repro.scada.history import Historian
from repro.scada.hmi import Hmi
from repro.scada.master import ScadaMaster
from repro.scada.proxy import PlcProxy
from repro.sim.simulator import Simulator


class SpireSystem(Deployment):
    """A fully wired Spire deployment: the layout of one paper site.

    Construct with :func:`build_spire`; the attributes expose every
    component for tests, benchmarks, and attack harnesses.
    """

    def __init__(self, sim: Simulator, config: SpireConfig):
        super().__init__(
            sim, config.name,
            build_config(f=config.f, k=config.k, timing=config.timing),
            diversify=config.diversify)
        self.config = config
        self.masters: Dict[str, ScadaMaster] = {}
        self.plcs: Dict[str, PlcUnit] = {}
        self.proxies: List[PlcProxy] = []
        self.hmis: List[Hmi] = []
        self.historian: Optional[Historian] = None
        self.reset_epochs = 0
        self._breach_monitor = None
        self._breach_strikes = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def physical_plc(self) -> Optional[PlcUnit]:
        for unit in self.plcs.values():
            if unit.physical:
                return unit
        return None

    def master_views_consistent(self) -> bool:
        """True when all *correct* masters agree on the system view.

        Replicas marked byzantine are excluded — BFT guarantees
        consistency among correct replicas, not that a compromised
        replica's internal state stays honest (an omniscient check only
        a simulation can make; operators rely on f+1 voting instead).
        """
        views = {repr(sorted(m.system_view().items()))
                 for name, m in self.masters.items()
                 if self.replicas[name].running
                 and self.replicas[name].state == STATE_NORMAL
                 and self.replicas[name].byzantine is None}
        return len(views) <= 1

    def status(self) -> dict:
        return {
            "replicas": {name: rep.summary()
                         for name, rep in self.replicas.items()},
            "plcs": sorted(self.plcs),
            "hmis": [hmi.name for hmi in self.hmis],
            "reset_epochs": self.reset_epochs,
        }

    # ------------------------------------------------------------------
    # Assumption-breach handling (Section III-A)
    # ------------------------------------------------------------------
    def enable_auto_reset(self, check_interval: float = 2.0,
                          strikes: int = 3) -> None:
        """Monitor replica health; if no replica is NORMAL for
        ``strikes`` consecutive checks, perform the coordinated reset
        and let proxies rebuild the masters from the field devices."""
        self._breach_monitor = self.sim.every(
            check_interval, self._breach_check, start_after=check_interval)
        self._breach_strikes_needed = strikes

    def _breach_check(self) -> None:
        healthy = any(rep.running and rep.state == STATE_NORMAL
                      for rep in self.replicas.values())
        if healthy:
            self._breach_strikes = 0
            return
        self._breach_strikes += 1
        if self._breach_strikes >= self._breach_strikes_needed:
            self._breach_strikes = 0
            self.sim.log.log("spire", "spire.reset",
                             "assumption breach detected: coordinated reset")
            self.coordinated_reset()

    def coordinated_reset(self) -> None:
        """Reset every replica and master; ground truth returns via the
        proxies' full-snapshot polls."""
        self.reset_epochs += 1
        for name, replica in self.replicas.items():
            self.masters[name].cold_reset(self.reset_epochs)
            replica.cold_reset()   # restarts the process if it was down

    # ------------------------------------------------------------------
    # Proactive recovery
    # ------------------------------------------------------------------
    def start_proactive_recovery(self) -> ProactiveRecoveryScheduler:
        self.require_recovery_budget()
        return self.start_recovery(
            period=self.config.proactive_recovery_period,
            downtime=self.config.proactive_recovery_downtime)


def _site_rtus(config: SpireConfig) -> List[tuple]:
    """``(plc name, topology, physical, protocol)`` for each PLC of a
    site, in cable order."""
    rtus: List[tuple] = []
    if config.physical_scenario == "redteam":
        rtus.append(("plc-physical", redteam_topology(), True, "modbus"))
    elif config.physical_scenario == "plant":
        rtus.append(("plc-physical", plant_topology(), True, "modbus"))
    for index, topo in enumerate(
            distribution_scenario(config.n_distribution_plcs), start=1):
        rtus.append((f"plc-dist-{index}", topo, False, "modbus"))
    for index, topo in enumerate(
            generation_scenario(config.n_generation_plcs), start=1):
        rtus.append((f"plc-gen-{index}", topo, False,
                     config.generation_protocol))
    return rtus


def build_spire(sim, config: Optional[SpireConfig] = None) -> SpireSystem:
    """Construct and wire a complete Spire deployment.

    Two call forms::

        build_spire(sim, config)   # attach to an existing Simulator
        build_spire(config)        # create Simulator(seed=config.seed,
                                   #                  telemetry=config.telemetry)

    The one-argument form returns a system whose simulator is reachable
    as ``system.sim``.
    """
    if isinstance(sim, SpireConfig):
        if config is not None:
            raise TypeError("pass either (sim, config) or (config,)")
        config = sim
        sim = Simulator(seed=config.seed, telemetry=config.telemetry)
    if config is None:
        raise TypeError("build_spire requires a SpireConfig")
    system = SpireSystem(sim, config)
    prime_config = system.prime_config
    rtus = _site_rtus(config)
    system.wire_networks(
        config.external_cidr,
        external_ports=prime_config.n + config.n_hmis + len(rtus) + 8,
        internal_cidr=config.internal_cidr)

    system.masters = system.wire_masters()
    system.compile_variants(strip_symbols=config.strip_symbols,
                            compile_in_options=config.compile_in_options)

    # One proxy per PLC, each on its own direct cable.
    for cable_index, (plc_name, topo, physical, protocol) in enumerate(rtus):
        proxy, units = system.wire_proxy(
            plc_name, [(plc_name, topo, physical)], protocol,
            config.poll_interval, config.heartbeat_interval, cable_index)
        system.proxies.append(proxy)
        system.plcs.update(units)

    for index in range(1, config.n_hmis + 1):
        hmi_name = f"hmi-{index}"
        daemon = system.wire_client_host(hmi_name, principal=hmi_name)
        system.hmis.append(Hmi(sim, hmi_name, daemon.host, daemon,
                               prime_config))

    if config.with_historian:
        daemon = system.wire_client_host("historian")
        system.historian = Historian(sim, "historian", daemon.host, daemon,
                                     prime_config)

    # Sparse overlay once membership grows (deployed Spines overlays are
    # sparse; flooding cost scales with edge count).
    if len(system.external.daemons) > 8:
        system.external.connect_sparse(degree=4)
    else:
        system.external.connect_full_mesh()

    if config.harden_networks:
        system.harden()

    # --- optional threshold-signed directives -----------------------------
    if config.use_threshold_directives:
        from repro.crypto.threshold import ThresholdScheme
        scheme = ThresholdScheme(
            f"{config.name}.masters", prime_config.replica_names,
            threshold=prime_config.vouch,
            rng=sim.rng.child(f"{config.name}/threshold"))
        system.threshold_scheme = scheme
        for name, master in system.masters.items():
            master.threshold_share = scheme.share_for(name)
        for proxy in system.proxies:
            if hasattr(proxy, "threshold_scheme"):   # Modbus proxy path
                proxy.threshold_scheme = scheme

    system.schedule_registration(system.proxies, system.hmis,
                                 system.historian)
    return system
