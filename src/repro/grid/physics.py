"""Deterministic grid-physics coupling.

A deliberately small power-flow-ish model that makes substations
*observably coupled*: opening breakers in one substation sheds load (or
generation), which moves the shared system frequency, which in turn
perturbs bus voltage everywhere — including substations in other
overlay regions.  Chaos campaigns can therefore detect cross-substation
blast radius from telemetry alone.

The model is intentionally RNG-free and steps on a fixed timer, so it
adds events to the simulation without consuming any randomness: two
runs of the same spec and seed produce byte-identical physics
trajectories, and attaching physics to a single-site world leaves every
non-physics event's relative order (and thus all latency measurements)
unchanged.

Model, per ``step_interval`` seconds of simulated time:

* ``frac(s)`` — energized-load fraction of substation ``s`` (closed
  breaker paths from the source bus, straight from the PLC topologies).
* ``imbalance = Σ gen_mw·frac + slack − Σ load_mw·frac`` where
  ``slack`` balances the system at build time (everything energized →
  imbalance 0 → frequency holds nominal).
* ``freq += dt·(imbalance/inertia − damping·(freq − nominal))`` — the
  swing-equation shape: inertia integrates imbalance, damping (governor
  response) pulls back toward nominal.
* per-substation voltage relaxes toward
  ``1 + local_dev + coupling·mean(region neighbors' local_dev)
  + coupling·(freq − nominal)/nominal`` per-unit, where
  ``local_dev = −voltage_sag·(1 − frac)``.  The region term couples
  neighbors directly; the frequency term propagates *every* disturbance
  grid-wide.

Excursions (frequency beyond ``frequency_excursion_hz``, voltage beyond
``voltage_excursion_pct`` percent) are edge-triggered counters — one
count per entry into the bad band, not per step spent there.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.grid.spec import GridSpec, PhysicsSpec


class GridPhysics:
    """Steps the coupled frequency/voltage model on a periodic timer.

    Args:
        sim: simulation kernel.
        spec: the grid spec (for per-substation ratings and regions).
        topologies: substation name -> list of
            :class:`~repro.plc.topology.PowerTopology` objects whose
            energized-load fraction drives that substation's injection.
    """

    def __init__(self, sim, spec: GridSpec, topologies: Dict[str, list]):
        self.sim = sim
        self.spec = spec
        self.params: PhysicsSpec = spec.physics
        self._names: Tuple[str, ...] = tuple(topologies)
        self._topologies = {name: list(topos)
                            for name, topos in topologies.items()}
        self._ratings = self._resolve_ratings()
        self._regions = {name: self._region_of(name) for name in self._names}
        nominal = self.params.nominal_frequency_hz
        self.frequency_hz = nominal
        self.min_frequency_hz = nominal
        self.max_frequency_hz = nominal
        self.frequency_excursions = 0
        self._in_freq_excursion = False
        self.voltage_pu: Dict[str, float] = {name: 1.0
                                             for name in self._names}
        self.voltage_excursions: Dict[str, int] = {name: 0
                                                   for name in self._names}
        self._in_volt_excursion: Dict[str, bool] = {name: False
                                                    for name in self._names}
        self._steps = 0
        # Slack injection balancing the fully-energized grid: with every
        # load served, imbalance is exactly zero and frequency is flat.
        self._slack_mw = sum(load for load, _gen in self._ratings.values()) \
            - sum(gen for _load, gen in self._ratings.values())
        self._metric_freq = sim.metrics.gauge("grid.frequency_hz",
                                              component="physics")
        self._metric_freq.set(nominal)
        self._metric_imbalance = sim.metrics.gauge("grid.imbalance_mw",
                                                   component="physics")
        self._metric_freq_exc = sim.metrics.counter(
            "grid.frequency_excursions", component="physics")
        self._metric_volt = {
            name: sim.metrics.gauge("grid.voltage_kv", component=name)
            for name in self._names}
        self._metric_volt_exc = {
            name: sim.metrics.counter("grid.voltage_excursions",
                                      component=name)
            for name in self._names}
        for name in self._names:
            self._metric_volt[name].set(self.params.nominal_voltage_kv)
        self._timer = sim.every(self.params.step_interval, self._step)

    # ------------------------------------------------------------------
    def _resolve_ratings(self) -> Dict[str, Tuple[float, float]]:
        by_name = {sub.name: (sub.load_mw, sub.generation_mw)
                   for sub in self.spec.substations}
        ratings = {}
        for name in self._names:
            # Site-form worlds wrap the legacy plant as one pseudo-
            # substation not present in spec.substations; rate it by
            # its topology shape (1 MW per load, generators generate).
            if name in by_name:
                ratings[name] = by_name[name]
            else:
                load = gen = 0.0
                for topo in self._topologies[name]:
                    mw = float(len(topo.loads)) or 1.0
                    if topo.name.startswith("generator"):
                        gen += mw
                    else:
                        load += mw
                ratings[name] = (load, gen)
        return ratings

    def _region_of(self, name: str) -> str:
        for sub in self.spec.substations:
            if sub.name == name:
                return sub.region
        return "core"

    def _energized_fraction(self, name: str) -> float:
        total = served = 0
        for topo in self._topologies[name]:
            total += len(topo.loads)
            served += sum(1 for on in topo.energized_loads().values() if on)
        if total == 0:
            return 1.0
        return served / total

    # ------------------------------------------------------------------
    def _step(self) -> None:
        params = self.params
        dt = params.step_interval
        nominal = params.nominal_frequency_hz
        fractions = {name: self._energized_fraction(name)
                     for name in self._names}
        generation = sum(gen * fractions[name]
                         for name, (_load, gen) in self._ratings.items())
        load = sum(load_mw * fractions[name]
                   for name, (load_mw, _gen) in self._ratings.items())
        imbalance = generation + self._slack_mw - load
        self.frequency_hz += dt * (imbalance / params.inertia
                                   - params.damping
                                   * (self.frequency_hz - nominal))
        self.min_frequency_hz = min(self.min_frequency_hz, self.frequency_hz)
        self.max_frequency_hz = max(self.max_frequency_hz, self.frequency_hz)
        freq_dev = (self.frequency_hz - nominal) / nominal
        freq_out = abs(self.frequency_hz - nominal) \
            > params.frequency_excursion_hz
        if freq_out and not self._in_freq_excursion:
            self.frequency_excursions += 1
            self._metric_freq_exc.inc()
        self._in_freq_excursion = freq_out

        local_dev = {name: -params.voltage_sag * (1.0 - fractions[name])
                     for name in self._names}
        relax = min(1.0, 2.0 * dt)
        volt_band = params.voltage_excursion_pct / 100.0
        for name in self._names:
            neighbors = [local_dev[other] for other in self._names
                         if other != name
                         and self._regions[other] == self._regions[name]]
            neighbor_dev = (sum(neighbors) / len(neighbors)) if neighbors \
                else 0.0
            target = (1.0 + local_dev[name]
                      + params.coupling * neighbor_dev
                      + params.coupling * freq_dev)
            voltage = self.voltage_pu[name]
            voltage += (target - voltage) * relax
            self.voltage_pu[name] = voltage
            self._metric_volt[name].set(voltage * params.nominal_voltage_kv)
            volt_out = abs(voltage - 1.0) > volt_band
            if volt_out and not self._in_volt_excursion[name]:
                self.voltage_excursions[name] += 1
                self._metric_volt_exc[name].inc()
            self._in_volt_excursion[name] = volt_out

        self._metric_freq.set(self.frequency_hz)
        self._metric_imbalance.set(imbalance)
        self._steps += 1

    # ------------------------------------------------------------------
    def substation_state(self, name: str) -> dict:
        load_mw, gen_mw = self._ratings[name]
        fraction = self._energized_fraction(name)
        return {
            "region": self._regions[name],
            "energized_fraction": round(fraction, 6),
            "load_mw": round(load_mw * fraction, 6),
            "generation_mw": round(gen_mw * fraction, 6),
            "voltage_kv": round(self.voltage_pu[name]
                                * self.params.nominal_voltage_kv, 6),
            "voltage_pu": round(self.voltage_pu[name], 6),
            "voltage_excursions": self.voltage_excursions[name],
        }

    def snapshot(self) -> dict:
        """Physics state for reports and campaign summaries."""
        return {
            "frequency_hz": round(self.frequency_hz, 6),
            "min_frequency_hz": round(self.min_frequency_hz, 6),
            "max_frequency_hz": round(self.max_frequency_hz, 6),
            "frequency_excursions": self.frequency_excursions,
            "steps": self._steps,
            "substations": {name: self.substation_state(name)
                            for name in self._names},
        }
