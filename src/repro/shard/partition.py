"""Per-kernel builders: one federated GridSpec, many shard kernels.

The decomposition is **fixed by the spec**, independent of the shard
count: kernel ``"core"`` holds the replica group (internal overlay,
SCADA masters), the HMIs, the aggregate client populations, and the
physics solver; every substation becomes its own kernel holding the
proxy, its PLC population with direct cables, and an energized-fraction
probe feeding the core physics.  ``--shards N`` only multiplexes these
kernels over OS processes — results are a function of the kernel set,
never of placement — which is what makes ``--shards 1/2/4`` reports
byte-identical.

Cross-kernel traffic leaves through a :class:`~repro.shard.gateway.GatewayDaemon`
on each kernel's external overlay and re-enters peer kernels one
lookahead later (see :mod:`repro.shard.runner` for the barrier).  All
key material comes from a derived :class:`~repro.crypto.keys.KeyStore`
rooted in ``sha256("shard-keys:<name>:<seed>")`` so every kernel can
verify every principal without exchanging keys.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Dict, List, Optional, Tuple

from repro.core.wiring import Deployment
from repro.crypto.keys import KeyStore
from repro.grid.physics import GridPhysics
from repro.grid.spec import GridSpec, SubstationSpec
from repro.grid.world import (
    EXTERNAL_CIDR, INTERNAL_CIDR, POPULATION_START, _connect_group,
    spec_breaker_pairs, wire_operators, wire_substation,
)
from repro.prime.config import build_config
from repro.shard.errors import ShardConfigError
from repro.shard.gateway import GatewayDaemon
from repro.sim.simulator import Simulator

CORE_KERNEL = "core"


def kernel_names(spec: GridSpec) -> List[str]:
    """The fixed kernel decomposition, in canonical order."""
    return [CORE_KERNEL] + [sub.name for sub in spec.substations]


def spec_lookahead(spec: GridSpec) -> float:
    """Conservative lookahead: the minimum overlay-region latency."""
    latencies = [region.latency for region in spec.resolved_regions()]
    return min(latencies) if latencies else 0.0


def daemon_owner_map(spec: GridSpec) -> Dict[str, str]:
    """Destination daemon name -> owning kernel, for targeted routing."""
    owners = {f"ext.{name}": CORE_KERNEL
              for name in build_config(f=spec.f, k=spec.k).replica_names}
    for index in range(1, spec.n_hmis + 1):
        owners[f"ext.hmi-{index}"] = CORE_KERNEL
    for population in spec.clients:
        owners[f"ext.pop-{population.name}"] = CORE_KERNEL
    for sub in spec.substations:
        owners[f"ext.proxy.{sub.name}"] = sub.name
    return owners


def _derived_keystore(spec: GridSpec, seed: int) -> KeyStore:
    root = hashlib.sha256(
        f"shard-keys:{spec.name}:{seed}".encode()).digest()
    return KeyStore(root_secret=root)


class ShardKernel(Deployment):
    """One partition of the simulated world, with its own Simulator:
    the federated layout of :mod:`repro.grid.world`, one piece of it.

    Exports (overlay messages, fraction samples) are pickled at export
    time and drained once per barrier round; imports are scheduled at
    ``max(arrival, now)`` — the clamp is deterministic because every
    kernel pauses on the same global boundaries regardless of shard
    count.
    """

    def __init__(self, spec: GridSpec, name: str, seed: int):
        super().__init__(Simulator(seed=seed, telemetry=spec.telemetry),
                         spec.name, build_config(f=spec.f, k=spec.k),
                         keystore=_derived_keystore(spec, seed))
        self.spec = spec
        self.name = name
        self.outbox: List[Tuple[int, float, str, Optional[str], bytes]] = []
        self._export_seq = 0
        self.gateway: Optional[GatewayDaemon] = None
        # Core-kernel state
        self.masters: Dict[str, object] = {}
        self.hmis: List[object] = []
        self.populations: List[object] = []
        self.physics = None
        self._fractions: Dict[str, float] = {}
        # Substation-kernel state
        self.substation = None
        self.proxy = None
        if name == CORE_KERNEL:
            _build_core_kernel(self)
        else:
            sub = next((s for s in spec.substations if s.name == name), None)
            if sub is None:
                raise ShardConfigError(
                    f"{spec.name}: unknown substation kernel {name!r}")
            _build_substation_kernel(self, sub)

    # -- barrier plumbing ----------------------------------------------
    def export(self, kind: str, obj: Any, hint: Optional[str] = None) -> None:
        self.outbox.append((self._export_seq, self.sim.now, kind, hint,
                            pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)))
        self._export_seq += 1

    def drain(self) -> List[Tuple[int, float, str, Optional[str], bytes]]:
        out, self.outbox = self.outbox, []
        return out

    def inject(self, arrival: float, kind: str, blob: bytes) -> None:
        now = self.sim.now
        self.sim.at(arrival if arrival >= now else now,
                    self._apply_import, kind, blob)

    def _apply_import(self, kind: str, blob: bytes) -> None:
        obj = pickle.loads(blob)
        if kind == "overlay":
            self.gateway.import_message(obj)
        elif kind == "fraction":
            name, fraction = obj
            self._fractions[name] = fraction

    def run_to(self, t_end: float) -> None:
        self.sim.run(until=t_end)

    # -- control operations (applied while globally paused) -------------
    def trip(self) -> int:
        opened = 0
        for plc_name, breaker in self.substation.main_breakers():
            unit = self.substation.units[plc_name]
            if unit.topology.set_breaker(breaker, False):
                opened += 1
        return opened

    def restore(self) -> int:
        closed = 0
        for unit in self.substation.units.values():
            for breaker in unit.topology.breaker_names():
                if unit.topology.set_breaker(breaker, True):
                    closed += 1
        return closed

    def start_workload(self, commands: int, start: float,
                       interval: float) -> None:
        targets = [pair for sub in self.spec.substations
                   for pair in spec_breaker_pairs(sub)]
        if not targets or not self.hmis:
            return
        for index in range(commands):
            self.sim.at(start + index * interval, self._workload_command,
                        index, targets)

    def _workload_command(self, index: int, targets) -> None:
        hmi = self.hmis[index % len(self.hmis)]
        if not hmi.client.running:
            return
        plc, breaker = targets[index % len(targets)]
        hmi.command_breaker(plc, breaker, True)

    # -- snapshot plumbing ---------------------------------------------
    def state_blob(self) -> bytes:
        """The kernel's complete state, pickled.

        Everything hangs off the kernel object — simulator (heap, RNG
        streams, telemetry), overlays, replicas, physics, outbox — so
        one pickle is the whole partition.  Returned as bytes so fork
        lanes ship it through their pipe unmodified.
        """
        return pickle.dumps(self, pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_blob(cls, blob: bytes) -> "ShardKernel":
        kernel = pickle.loads(blob)
        if not isinstance(kernel, cls):
            raise ShardConfigError(
                f"state blob holds {type(kernel).__name__}, "
                "not a ShardKernel")
        return kernel

    # -- summaries ------------------------------------------------------
    def event_digest(self) -> str:
        return self.sim.event_digest()

    def metrics_snapshot(self) -> list:
        return self.sim.metrics.state_snapshot()

    def fragment(self, include_metrics: bool = False) -> dict:
        """Everything the coordinator needs for reports, in one dict."""
        out: Dict[str, Any] = {
            "kernel": self.name,
            "events_executed": self.sim.events_executed,
            "now": self.sim.now,
            "digest": self.event_digest(),
        }
        if self.name == CORE_KERNEL:
            from repro.prime.replica import STATE_NORMAL

            out["physics"] = self.physics.snapshot()
            replicas = list(self.replicas.values())
            out["replicas"] = {
                "total": len(replicas),
                "normal": sum(1 for replica in replicas
                              if replica.running
                              and replica.state == STATE_NORMAL),
            }
            out["populations"] = [{
                "name": population.spec.name,
                "sessions": population.spec.sessions,
                "reads_served": population.reads_served,
                "commands_submitted": population.commands_submitted,
            } for population in self.populations]
            out["reaction"] = self._reaction_summaries()
        else:
            closed = total = 0
            for unit in self.substation.units.values():
                states = unit.topology.breaker_states()
                total += len(states)
                closed += sum(1 for state in states.values() if state)
            out.update({
                "region": self.substation.region,
                "plcs": len(self.substation.units),
                "breakers_closed": closed,
                "breakers": total,
                "proxy_polls": getattr(self.proxy, "polls", 0),
                "commands_applied": getattr(self.proxy,
                                            "commands_applied", 0),
            })
        if include_metrics:
            out["metrics"] = self.sim.metrics.state_snapshot()
        return out

    def _reaction_summaries(self) -> Dict[str, dict]:
        """Per-substation ``hmi.command`` reaction quantiles — the same
        pooling ``build_grid_section`` performs on a monolithic world."""
        from repro.telemetry.metrics import Histogram

        plc_to_substation = {plc: sub.name for sub in self.spec.substations
                             for plc, _ in spec_breaker_pairs(sub)}
        pools: Dict[str, Histogram] = {}
        for span in self.sim.tracer.spans(name="hmi.command"):
            if not span.finished:
                continue
            substation = plc_to_substation.get(span.attrs.get("plc"))
            if substation is None:
                continue
            pool = pools.get(substation)
            if pool is None:
                pool = pools[substation] = Histogram("hmi.command",
                                                     substation)
            pool.observe(span.duration)
        return {name: pool.summary() for name, pool in pools.items()}


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
class _FractionProbe:
    """Periodic energized-fraction sampler on a substation kernel.

    A callable class rather than a closure so the kernel's periodic
    timers pickle for snapshots.
    """

    def __init__(self, kernel: ShardKernel):
        self._kernel = kernel

    def __call__(self) -> None:
        kernel = self._kernel
        total = served = 0
        for unit in kernel.substation.units.values():
            total += len(unit.topology.loads)
            served += sum(1 for on in
                          unit.topology.energized_loads().values() if on)
        fraction = (served / total) if total else 1.0
        kernel.export("fraction", (kernel.substation.name, fraction),
                      hint=CORE_KERNEL)


class _FractionSource:
    """Lagged energized-fraction feed for one remote substation.

    A callable class rather than a closure so a core kernel carrying
    these sources in its :class:`GridPhysics` pickles for snapshots.
    """

    def __init__(self, kernel: ShardKernel, name: str):
        self._kernel = kernel
        self._name = name

    def __call__(self) -> float:
        return self._kernel._fractions[self._name]


def _gateway_factory(kernel: ShardKernel):
    def make(sim, name, host, port, key_id, intrusion_tolerant=True):
        return GatewayDaemon(sim, name, host, port, key_id,
                             intrusion_tolerant=intrusion_tolerant,
                             export=kernel.export)
    return make


def _wire_gateway(kernel: ShardKernel, uplink: str) -> None:
    """The kernel's door to its peers: a gateway daemon one edge from
    ``uplink``, speaking for every other daemon of this kernel."""
    external = kernel.external
    gateway = kernel.wire_client_host(f"gw.{kernel.name}",
                                      factory=_gateway_factory(kernel))
    external.add_edge(uplink, gateway.name)
    gateway.set_local_sources(set(external.daemons) - {gateway.name})
    kernel.gateway = gateway


def _build_core_kernel(kernel: ShardKernel) -> None:
    sim, spec = kernel.sim, kernel.spec
    kernel.wire_networks(
        EXTERNAL_CIDR,
        external_ports=(kernel.prime_config.n + spec.n_hmis
                        + len(spec.clients) + 9),
        internal_cidr=INTERNAL_CIDR)
    kernel.masters = kernel.wire_masters()
    kernel.hmis, kernel.populations, core_daemons = wire_operators(
        kernel, spec)
    _connect_group(kernel.external, core_daemons,
                   degree=max(4, len(core_daemons)))
    _wire_gateway(kernel, uplink=sorted(core_daemons)[0])
    kernel.harden()

    # Physics lives here; remote substations feed lagged energized
    # fractions through the barrier (initially fully energized).
    kernel._fractions = {sub.name: 1.0 for sub in spec.substations}
    sources = {sub.name: _FractionSource(kernel, sub.name)
               for sub in spec.substations}
    kernel.physics = GridPhysics(sim, spec, {}, fraction_sources=sources)

    kernel.schedule_registration(hmis=kernel.hmis)
    for population in kernel.populations:
        population.start(at=POPULATION_START)


def _build_substation_kernel(kernel: ShardKernel,
                             sub: SubstationSpec) -> None:
    kernel.wire_networks(EXTERNAL_CIDR, external_ports=10)
    kernel.substation = wire_substation(kernel, kernel.spec, sub)
    kernel.proxy = kernel.substation.proxies[0]
    _wire_gateway(kernel, uplink=kernel.proxy.daemon.name)
    kernel.harden()

    # Energized-fraction probe: sampled on the physics step cadence and
    # exported to the core kernel, where it lands one lookahead later —
    # the same one-step-lagged view at every shard count.
    kernel.sim.every(kernel.spec.physics.step_interval,
                     _FractionProbe(kernel))

    kernel.schedule_registration(proxies=[kernel.proxy])
