"""``build_world``: turn a :class:`~repro.grid.spec.GridSpec` into a
live simulation.

Two layouts over :mod:`repro.core.wiring`, one return type:

* **single-site specs** delegate to :func:`~repro.core.spire.build_spire`
  (the attached physics layer is RNG-free and only adds its own timer
  events, which cannot reorder any other event) and wrap the resulting
  :class:`~repro.core.spire.SpireSystem` as a one-substation world.
* **federated specs** lay out a shared ``3f + 2k + 1`` replica core, one
  proxy per substation serving its whole RTU population over direct
  cables, a region-structured external Spines overlay, aggregate client
  populations, and the physics coupling layer.

A :class:`GridWorld` satisfies the fault-injection target contract
(``replicas`` / ``prime_config`` / ``internal`` / ``external`` /
``internal_lan`` / ``external_lan`` / ``clients`` / ``recovery``), so
every existing :class:`~repro.faults.plan.FaultPlan` action and
:class:`~repro.faults.monitors.MonitorSuite` invariant runs against it
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.spire import build_spire
from repro.core.wiring import Deployment
from repro.grid.physics import GridPhysics
from repro.grid.spec import GridSpec, GridSpecError, SubstationSpec
from repro.plc.topology import PowerTopology
from repro.prime.client import PrimeClient
from repro.prime.config import build_config
from repro.scada.hmi import Hmi

# Direct PLC-proxy cables draw from 10.77.<index>.0/30; the third octet
# bounds the total RTU count a spec may wire.
MAX_CABLES = 250

INTERNAL_CIDR = "192.168.121.0/24"
EXTERNAL_CIDR = "192.168.122.0/24"
POPULATION_START = 0.5


@dataclass
class Substation:
    """One substation of a built world: its proxies and PLC units plus
    the ratings the physics layer uses."""

    name: str
    region: str
    proxies: List[object]
    units: Dict[str, object]        # plc name -> PlcUnit
    load_mw: float
    generation_mw: float

    def main_breakers(self) -> List[Tuple[str, str]]:
        """(plc, breaker) pairs for each unit's feed breaker — the
        default workload / perturbation targets."""
        out = []
        for plc_name in sorted(self.units):
            topology = self.units[plc_name].topology
            names = topology.breaker_names()
            main = next((name for name in names if name.endswith("-main")),
                        names[0])
            out.append((plc_name, main))
        return out


class ClientPopulation:
    """An aggregate operator population: one Prime client, thousands of
    modeled sessions.

    Supervisory commands arrive as a seeded Poisson process at
    ``sessions × commands_per_session_hour`` and each one is a real
    ordered ``breaker_command`` update (re-affirming the closed feed
    breaker of a deterministically drawn eligible substation, so a
    healthy grid stays physically stable under arbitrary client load).
    Display reads are aggregated per tick into the ``grid.client.reads``
    counter — per-user objects would add nothing but heap pressure.
    """

    READ_TICK = 1.0

    def __init__(self, sim, spec, client, targets: List[Tuple[str, str]]):
        self.sim = sim
        self.spec = spec
        self.client = client
        self.targets = sorted(targets)
        self.rng = sim.rng.child(f"grid/clients/{spec.name}")
        self.commands_submitted = 0
        self.reads_served = 0
        self._command_rate = (spec.sessions
                              * spec.commands_per_session_hour) / 3600.0
        self._read_rate = (spec.sessions
                           * spec.reads_per_session_hour) / 3600.0
        sim.metrics.gauge("grid.client.sessions",
                          component=spec.name).set(spec.sessions)
        self._metric_reads = sim.metrics.counter("grid.client.reads",
                                                 component=spec.name)
        self._metric_commands = sim.metrics.counter("grid.client.commands",
                                                    component=spec.name)

    def start(self, at: float = 0.5) -> None:
        if self._read_rate > 0:
            self.sim.every(self.READ_TICK, self._read_tick, start_after=at)
        if self._command_rate > 0 and self.targets:
            self.sim.at(at + self.rng.expovariate(self._command_rate),
                        self._command)

    def _read_tick(self) -> None:
        served = _poisson(self.rng, self._read_rate * self.READ_TICK)
        if served:
            self.reads_served += served
            self._metric_reads.inc(served)

    def _command(self) -> None:
        if self.client.running:
            from repro.scada.events import breaker_command_op
            plc, breaker = self.rng.choice(self.targets)
            self.client.submit(breaker_command_op(plc, breaker, True))
            self.commands_submitted += 1
            self._metric_commands.inc()
        self.sim.schedule(self.rng.expovariate(self._command_rate),
                          self._command)


def _poisson(rng, lam: float) -> int:
    """Poisson draw from the deterministic RNG (Knuth for small means,
    normal approximation beyond — adequate for load modeling)."""
    if lam <= 0:
        return 0
    if lam > 50.0:
        return max(0, round(rng.gauss(lam, lam ** 0.5)))
    threshold = 2.718281828459045 ** -lam
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class GridWorld(Deployment):
    """A built grid: the fault-injection/monitoring target for
    multi-substation campaigns.

    Construct with :func:`build_world`.
    """

    def __init__(self, sim, spec: GridSpec):
        super().__init__(sim, spec.name, build_config(f=spec.f, k=spec.k))
        self.spec = spec
        self.system = None                   # SpireSystem for site specs
        self.masters: Dict[str, object] = {}
        self.substations: Dict[str, Substation] = {}
        self.proxies: List[object] = []
        self.hmis: List[object] = []
        self.populations: List[ClientPopulation] = []
        self.clients: List[object] = []      # every Prime client principal
        self.physics: Optional[GridPhysics] = None
        self.plc_to_substation: Dict[str, str] = {}
        self.campaign_commands = 0           # planned by a campaign cell

    # ------------------------------------------------------------------
    def run(self, until: float) -> float:
        return self.sim.run(until=until)

    def workload_targets(self) -> List[Tuple[str, str]]:
        """(plc, breaker) feed-breaker pairs across all substations, in
        substation order."""
        out = []
        for name in self.substations:
            out.extend(self.substations[name].main_breakers())
        return out

    def start_workload(self, commands: int, start: float = 0.3,
                       interval: float = 0.6) -> None:
        """Deterministic round-robin supervisory workload: HMI operators
        re-affirm feed breakers across substations (full end-to-end
        command path, physically a no-op so clean scenarios stay clean)."""
        targets = self.workload_targets()
        if not targets or not self.hmis:
            return
        for index in range(commands):
            self.sim.at(start + index * interval, self._workload_command,
                        index, targets)

    def _workload_command(self, index: int,
                          targets: List[Tuple[str, str]]) -> None:
        hmi = self.hmis[index % len(self.hmis)]
        if not hmi.client.running:
            return
        plc, breaker = targets[index % len(targets)]
        hmi.command_breaker(plc, breaker, True)

    # ------------------------------------------------------------------
    def trip_substation(self, name: str) -> int:
        """Field-side fault: open every feed breaker of a substation
        (as a protection relay would — no SCADA command involved).
        Returns the number of breakers opened; proxies observe the
        change on their next poll, physics immediately."""
        opened = 0
        for plc_name, breaker in self.substations[name].main_breakers():
            unit = self.substations[name].units[plc_name]
            if unit.topology.set_breaker(breaker, False):
                opened += 1
        return opened

    def restore_substation(self, name: str) -> int:
        """Reclose every breaker of a substation's units."""
        closed = 0
        for unit in self.substations[name].units.values():
            for breaker in unit.topology.breaker_names():
                if unit.topology.set_breaker(breaker, True):
                    closed += 1
        return closed

    # ------------------------------------------------------------------
    def start_proactive_recovery(self, period: float = 6.0,
                                 downtime: float = 0.8):
        """Begin periodic replica rejuvenation (requires ``k >= 1``)."""
        self.require_recovery_budget()
        recovery = self.start_recovery(period=period, downtime=downtime)
        if self.system is not None:
            self.system.recovery = recovery
        return recovery

    # ------------------------------------------------------------------
    # Campaign cells (repro.faults.campaign)
    # ------------------------------------------------------------------
    def start_campaign_workload(self, run_for: float) -> None:
        """One supervisory command every 0.6 s until 4 s before the end
        of a ``run_for``-second cell (at least six)."""
        self.campaign_commands = max(int((run_for - 4.0) / 0.6), 6)
        self.start_workload(commands=self.campaign_commands, start=0.3,
                            interval=0.6)

    def campaign_summary(self) -> dict:
        """This world's share of a campaign run dict."""
        return {
            "workload": {
                "submitted": self.campaign_commands,
                "confirmed": sum(len(hmi.client.confirmed)
                                 for hmi in self.hmis),
            },
            "grid": self.grid_summary(),
        }

    def status(self) -> dict:
        return {
            "name": self.spec.name,
            "replicas": sorted(self.replicas),
            "substations": {name: sorted(sub.units)
                            for name, sub in self.substations.items()},
            "hmis": [hmi.name for hmi in self.hmis],
            "populations": [population.spec.name
                            for population in self.populations],
        }

    def grid_summary(self) -> dict:
        """Compact physics+population summary for campaign run dicts."""
        physics = self.physics.snapshot() if self.physics else {}
        return {
            "frequency_hz": physics.get("frequency_hz"),
            "min_frequency_hz": physics.get("min_frequency_hz"),
            "frequency_excursions": physics.get("frequency_excursions", 0),
            "voltage_excursions": sum(
                state["voltage_excursions"]
                for state in physics.get("substations", {}).values()),
            "substations": len(self.substations),
            "client_commands": sum(population.commands_submitted
                                   for population in self.populations),
        }


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_world(spec: GridSpec, sim=None, seed: Optional[int] = None) -> GridWorld:
    """Build the deployment a spec describes.

    Args:
        spec: the grid spec.
        sim: attach to an existing simulator; when omitted one is
            created with ``Simulator(seed=spec.seed,
            telemetry=spec.telemetry)``.
        seed: override the spec's seed for the created simulator
            (ignored when ``sim`` is given).
    """
    if sim is None:
        from repro.sim.simulator import Simulator
        sim = Simulator(seed=spec.seed if seed is None else seed,
                        telemetry=spec.telemetry)
    if spec.site is not None:
        return _build_site_world(sim, spec)
    return _build_federated_world(sim, spec)


def _build_site_world(sim, spec: GridSpec) -> GridWorld:
    system = build_spire(sim, spec.spire_config())
    world = GridWorld(sim, spec)
    world.adopt(system)
    world.system = system
    world.masters = system.masters
    world.proxies = list(system.proxies)
    world.hmis = list(system.hmis)
    # The whole site is one pseudo-substation; rate it from its
    # topology shapes (see GridPhysics._resolve_ratings).
    site = system.config.name
    world.substations[site] = Substation(
        name=site, region="core", proxies=list(system.proxies),
        units=dict(system.plcs), load_mw=0.0, generation_mw=0.0)
    world.plc_to_substation = {plc: site for plc in system.plcs}
    world.clients = [proxy.client for proxy in system.proxies] \
        + [hmi.client for hmi in system.hmis]
    world.physics = GridPhysics(sim, spec, {
        site: [unit.topology for unit in system.plcs.values()]})
    return world


def _build_federated_world(sim, spec: GridSpec) -> GridWorld:
    total_rtus = sum(sub.rtus for sub in spec.substations)
    if total_rtus > MAX_CABLES:
        raise GridSpecError(
            f"spec: {total_rtus} RTUs exceed the {MAX_CABLES} direct-cable "
            "limit (10.77.0.0/16 third octet)")

    world = GridWorld(sim, spec)
    world.wire_networks(
        EXTERNAL_CIDR,
        external_ports=(world.prime_config.n + spec.n_hmis
                        + len(spec.substations) + len(spec.clients) + 8),
        internal_cidr=INTERNAL_CIDR)
    world.masters = world.wire_masters()
    world.compile_variants()

    region_daemons: Dict[str, List[str]] = {}
    for sub in spec.substations:
        substation = wire_substation(world, spec, sub)
        world.substations[sub.name] = substation
        world.proxies.extend(substation.proxies)
        region_daemons.setdefault(sub.region, []).append(
            substation.proxies[0].daemon.name)
        for plc_name in substation.units:
            world.plc_to_substation[plc_name] = sub.name

    world.hmis, world.populations, core_daemons = wire_operators(world, spec)
    _wire_overlay(world.external, spec, core_daemons, region_daemons)

    world.harden()
    world.clients = [proxy.client for proxy in world.proxies] \
        + [hmi.client for hmi in world.hmis] \
        + [population.client for population in world.populations]
    world.physics = GridPhysics(sim, spec, {
        name: [unit.topology for unit in sub.units.values()]
        for name, sub in world.substations.items()})

    world.schedule_registration(world.proxies, world.hmis)
    for population in world.populations:
        population.start(at=POPULATION_START)
    return world


# ----------------------------------------------------------------------
# Pieces of the federated layout
# ----------------------------------------------------------------------
def spec_breaker_pairs(sub: SubstationSpec) -> List[Tuple[str, str]]:
    """(plc, feed-breaker) pairs of one substation, derived from the
    spec alone — matches ``Substation.main_breakers()`` (lexically
    sorted PLCs, ``<plc>-main`` from ``_feeder_topology``)."""
    plcs = sorted(f"{sub.name}-r{index}" for index in range(1, sub.rtus + 1))
    return [(plc, f"{plc}-main") for plc in plcs]


def wire_substation(deployment: Deployment, spec: GridSpec,
                    sub: SubstationSpec) -> Substation:
    """One substation: a proxy serving its whole RTU population.

    Cable subnets take *global* indices, a pure function of the spec:
    the RTUs of every substation listed before this one come first.
    """
    cable_index = 0
    for other in spec.substations:
        if other.name == sub.name:
            break
        cable_index += other.rtus
    plcs = [f"{sub.name}-r{index}" for index in range(1, sub.rtus + 1)]
    proxy, units = deployment.wire_proxy(
        sub.name, [(plc, _feeder_topology(sub, plc), False) for plc in plcs],
        sub.protocol, sub.poll_interval, sub.heartbeat_interval, cable_index)
    return Substation(
        name=sub.name, region=sub.region, proxies=[proxy], units=units,
        load_mw=sub.load_mw, generation_mw=sub.generation_mw)


def wire_operators(deployment: Deployment, spec: GridSpec):
    """The control-centre clients: HMIs and aggregate operator
    populations, each a keyed host on the external overlay.

    Returns ``(hmis, populations, core_daemons)``; ``core_daemons``
    names the overlay's densely connected group — replicas, HMIs,
    populations.
    """
    sim, prime_config = deployment.sim, deployment.prime_config
    core_daemons = [f"ext.{name}" for name in prime_config.replica_names]
    hmis = []
    for index in range(1, spec.n_hmis + 1):
        hmi_name = f"hmi-{index}"
        daemon = deployment.wire_client_host(hmi_name, principal=hmi_name)
        core_daemons.append(daemon.name)
        hmis.append(Hmi(sim, hmi_name, daemon.host, daemon, prime_config))
    populations = []
    for population_spec in spec.clients:
        pop_name = f"pop-{population_spec.name}"
        daemon = deployment.wire_client_host(pop_name, principal=pop_name)
        core_daemons.append(daemon.name)
        client = PrimeClient(sim, pop_name, prime_config, daemon,
                             7900 + sim.sequence("grid.population.port"))
        targets = [pair for sub in spec.substations
                   if not population_spec.regions
                   or sub.region in population_spec.regions
                   for pair in spec_breaker_pairs(sub)]
        populations.append(
            ClientPopulation(sim, population_spec, client, targets))
    return hmis, populations, core_daemons


def _feeder_topology(sub: SubstationSpec, plc_name: str) -> PowerTopology:
    """The radial feed one RTU controls: grid → substation bus through
    ``<plc>-main``, then one breaker+load per feeder.  Breaker names are
    globally unique (PLC-name prefixed) so HMI commands and report rows
    need no disambiguation."""
    topology = PowerTopology(plc_name)
    topology.add_bus("grid", source=True)
    topology.add_bus("substation")
    topology.add_breaker(f"{plc_name}-main", "grid", "substation")
    for feeder in range(1, sub.feeders + 1):
        bus = f"feeder-{feeder}"
        topology.add_bus(bus)
        topology.add_breaker(f"{plc_name}-f{feeder}", "substation", bus)
        topology.add_load(f"load-{feeder}", bus)
    return topology


def _wire_overlay(network, spec: GridSpec, core_daemons: List[str],
                  region_daemons: Dict[str, List[str]]) -> None:
    """External-overlay wiring: the replica/HMI/population core is one
    densely-connected group; each region's proxy daemons form a sparse
    ring-plus-chords group whose lead daemon uplinks to the core lead;
    region leads also form a ring, plus any ``links`` the spec declares.

    Iteration everywhere is over *sorted* names — unsorted set/dict
    order here is exactly the multi-substation determinism hazard the
    PR 4 overlay fix addressed.
    """
    regions = {region.name: region for region in spec.resolved_regions()}
    _connect_group(network, core_daemons, degree=max(4, len(core_daemons)))
    leads = {}
    for region_name in sorted(region_daemons):
        members = sorted(region_daemons[region_name])
        degree = regions[region_name].degree if region_name in regions else 4
        _connect_group(network, members, degree=degree)
        leads[region_name] = members[0]
    core_lead = sorted(core_daemons)[0]
    region_names = sorted(leads)
    for index, region_name in enumerate(region_names):
        network.add_edge(core_lead, leads[region_name])
        if len(region_names) > 1:
            nxt = region_names[(index + 1) % len(region_names)]
            network.add_edge(leads[region_name], leads[nxt])
    for region_name in region_names:
        for link in sorted(regions[region_name].links) \
                if region_name in regions else []:
            if link in leads:
                network.add_edge(leads[region_name], leads[link])


def _connect_group(network, names: List[str], degree: int) -> None:
    """Ring-plus-chords among ``names`` only (full mesh when small) —
    :meth:`SpinesNetwork.connect_sparse` restricted to a subset."""
    names = sorted(names)
    n = len(names)
    if n <= 1:
        return
    if n <= degree + 1:
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                network.add_edge(a, b)
        return
    for i, a in enumerate(names):
        network.add_edge(a, names[(i + 1) % n])
        for chord in range(2, degree // 2 + 1):
            stride = max(2, (n // degree) * chord)
            network.add_edge(a, names[(i + stride) % n])


# ----------------------------------------------------------------------
# Sweep cell (importable dotted path for the parallel engine)
# ----------------------------------------------------------------------
def _sweep_cell(grid: dict, seed: int = 0, duration: float = 8.0) -> dict:
    """One grid-scale sweep unit: build, drive a workload, summarize.

    Dispatched by ``benchmarks/bench_grid_scale.py`` through the
    :mod:`repro.parallel` engine, so it must be importable by dotted
    path and take picklable kwargs (the spec travels as its dict form).
    """
    spec = GridSpec.from_dict(grid)
    world = build_world(spec, seed=seed)
    commands = max(int((duration - 2.0) / 0.6), 4)
    world.start_workload(commands=commands, start=0.3, interval=0.6)
    world.run(until=duration)
    histogram = world.sim.metrics.merged_histogram("prime.confirm_latency")
    latency = histogram.summary()
    return {
        "spec": spec.name,
        "seed": seed,
        "substations": len(world.substations),
        "events": world.sim.events_executed,
        "confirm_latency": {key: latency.get(key)
                            for key in ("samples", "mean", "p50", "p99")},
        "grid": world.grid_summary(),
    }
