"""The five workloads: what each builds, what load it applies, what an
operation is, and what makes one fail.

Every workload follows the same outline so the driver (``run.py``) can
treat them alike::

    inputs = workload.make_inputs(seed, seconds)   # pure, no repro import
    workload.setup(inputs)      # imports, build, warm-up  -> window start
    workload.mark()             # untimed: remember counters at window start
    workload.run(short)         # THE TIMED WINDOW, nothing else
    workload.finish()           # untimed: drain, count ops, check outputs

All load is open-loop in simulated time: flips and commands fire at
times fixed before the window starts, whether or not earlier ones were
confirmed.  ``--seed`` shapes only that load (flip times, command times
and targets, checkpoint times, campaign seeds), generated here by
:meth:`Workload.make_inputs` from its own ``random.Random(seed)``; each
world keeps its spec's own seed, so seeds vary the inputs and not the
system under them.  Loads are stratified (one flip or command per slot,
at a seeded place inside it), so the seed moves *when* and *where* and
not *how many*.  The window is a fixed amount of *simulated* work
derived from ``--seconds`` by a per-workload sizing constant (measured on the
2-core reference box, see README.md), so the same ``(seed, seconds)``
always does the same modelled work and every simulated statistic
repeats exactly; only host time varies.  The traced run covers about a
quarter of it.

``repro`` is imported inside methods: importing it is part of
``setup_s``, and the driver calls :meth:`make_inputs` without it.
"""

from __future__ import annotations

import math
import random
import resource
from functools import partial
from time import perf_counter, process_time
from typing import Any, Dict, List, Tuple

#: Plant timing requirement for breaker flip -> HMI display (Section V).
PLANT_REACTION_LIMIT_S = 2.0
#: A client update confirmed later than this counts as failed.
CONFIRM_LIMIT_S = 0.5
#: Run this much past the window before judging its last operations.
CONFIRM_DRAIN_S = CONFIRM_LIMIT_S + 0.1
WARMUP_SIM_S = 3.0

#: Registry counters summed over components: report key -> metric name.
_TOTALS = {
    "sim.events_cancelled": "sim.events_cancelled",
    "net.frames_sent": "net.link.frames_sent",
    "net.bytes_sent": "net.link.bytes",
    "net.frames_dropped": "net.link.frames_dropped",
    "net.frames_lost": "net.link.frames_lost",
    "spines.forwarded": "spines.forwarded",
    "spines.delivered": "spines.delivered",
    "spines.dropped": "spines.dropped",
    "spines.route_recomputes": "spines.route_recomputes",
    "prime.view_changes": "prime.view_changes",
    "prime.client_retries": "prime.client.retries",
    "scada.polls": "scada.polls",
    "scada.commands_applied": "scada.commands_applied",
    "scada.displays": "scada.displays",
    "faults.injected": "faults.injected",
    "faults.reverted": "faults.reverted",
    "faults.invariant_violations": "faults.invariant_violations",
    "mana.windows_evaluated": "mana.windows_evaluated",
    "mana.alerts": "mana.alerts",
}
_WANTED = {name: key for key, name in _TOTALS.items()}


def read_counts(sim) -> Dict[str, float]:
    """One pass over a simulator's metrics registry (its public
    iterator): the cumulative counts the per-layer metrics are deltas
    of.  ``prime.updates_executed`` is the furthest replica, not the sum
    over replicas; ``spines.delivered_internal`` is the replicas'
    internal overlay only."""
    out = dict.fromkeys(_TOTALS, 0.0)
    executed = 0.0
    internal = 0.0
    for metric in sim.metrics:
        name = metric.name
        key = _WANTED.get(name)
        if key is not None:
            out[key] += metric.value
            if name == "spines.delivered" and metric.component.startswith("int."):
                internal += metric.value
        elif name == "prime.updates_executed":
            executed = max(executed, metric.value)
    out["prime.updates_executed"] = executed
    out["spines.delivered_internal"] = internal
    out["sim.events"] = float(sim.events_executed)
    return out


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ms_stats(prefix: str, seconds: List[float]) -> Dict[str, float]:
    return {f"{prefix}_p50": quantile(seconds, 0.5) * 1000.0,
            f"{prefix}_p90": quantile(seconds, 0.9) * 1000.0,
            f"{prefix}_n": len(seconds)}


def _window_counts(before: Dict[str, float],
                   after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def _histogram_marks(sim, name: str) -> Dict[str, int]:
    return {metric.component: metric.count
            for metric in sim.metrics.find(name=name)}


def _histogram_since(sim, name: str, marks: Dict[str, int]) -> List[float]:
    values: List[float] = []
    for metric in sim.metrics.find(name=name):
        values.extend(metric.state()["samples"][marks.get(metric.component, 0):])
    return values


def flip_offsets(rng: random.Random, horizon: float, period: float,
                 jitter: float) -> List[float]:
    """Flip times in sim-s from window start: one per ``period``, at the
    middle of its slot +- ``jitter``, up to ``horizon``."""
    return [round((index + 0.5) * period + rng.uniform(-jitter, jitter), 6)
            for index in range(math.ceil(horizon / period))]


class _ReplayedFlips:
    """Stands in for the random stream of a ``MeasurementDevice``, which
    draws ``period + rng.uniform(-jitter, jitter)`` as the delay to its
    next flip: replays the gaps between the generated flip times, then
    stops the flipping (a delay past any horizon)."""

    def __init__(self, offsets: List[float], period: float):
        gaps = [after - before
                for before, after in zip([0.0] + offsets, offsets)]
        self._draws = iter([gap - period for gap in gaps])

    def child(self, _name: str) -> "_ReplayedFlips":
        return self

    def uniform(self, _low: float, _high: float) -> float:
        return next(self._draws, 1e9)


def measurement_device(sim, inputs: Dict[str, Any], **kwargs):
    """The program's own E9 device (flip, then poll the HMI display
    every 2 ms) flipping at ``inputs["flip_offsets_sim_s"]`` after now.
    A ``Process`` takes its stream from ``sim.rng.child(name)`` and the
    device schedules its first flip while it is constructed, so the
    replay is in place only for that call."""
    from repro.api import MeasurementDevice

    period = inputs["flip_period_s"]
    world_rng = sim.rng
    sim.rng = _ReplayedFlips(inputs["flip_offsets_sim_s"], period)
    try:
        return MeasurementDevice(sim, period=period, jitter=0.0, **kwargs)
    finally:
        sim.rng = world_rng


def update_outcomes(clients, first: List[int],
                    last: List[int]) -> Tuple[int, int, List[float]]:
    """(attempted, failed, confirm latencies) of the updates ``clients``
    submitted with sequence numbers ``first[i] <= seq < last[i]``."""
    attempted = failed = 0
    latencies: List[float] = []
    for client, low, high in zip(clients, first, last):
        for seq in range(low, high):
            attempted += 1
            latency = client.confirm_latency.get(seq)
            if latency is None or latency > CONFIRM_LIMIT_S:
                failed += 1
            else:
                latencies.append(latency)
    return attempted, failed, latencies


_HEAP_PUSHES = ("repro.sim.simulator:Simulator.at",
                "repro.sim.simulator:Simulator.post_at")


class Workload:
    """Base: bookkeeping shared by all five."""

    name = ""
    why = ""
    #: Layers whose hooks must record calls in the traced window, and
    #: layers built to be bypassed (any call there fails the run).
    active: Tuple[str, ...] = ()
    bypassed: Tuple[str, ...] = ()
    #: Worker processes that each run the whole timed window on the same
    #: inputs for one end-to-end result (``run.py``: ``measure``).  More
    #: than one where set-up is cheap and the window is sensitive to
    #: what else the host is doing.
    replicas = 1

    def __init__(self) -> None:
        #: Entry-point target -> (enter, exit) pair the traced run calls
        #: around it.  The event heap only grows in ``at``/``post_at``,
        #: so reading its depth after each gives the true maximum.
        self.watch: Dict[str, Tuple[Any, Any]] = {
            target: (None, self._see_heap) for target in _HEAP_PUSHES}
        self.heap_depth_max = 0
        #: Context printed with the result; not a check.
        self.notes: List[str] = []
        self.inputs: Dict[str, Any] = {}
        self.build_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.sim_s = 0.0
        self.peak_rss_mb = 0.0
        #: Wall time of each step of the window, where the window is a
        #: sequence of steps that repeat exactly from replica to replica.
        self.step_wall_s: List[float] = []
        #: False in all replicas but the first: skip a check that needs a
        #: second, untimed execution; the driver holds this replica's
        #: deterministic record against the first one's instead.
        self.control = True
        self.problems: List[str] = []

    # -- sizing ---------------------------------------------------------
    def make_inputs(self, seed: int, seconds: float) -> Dict[str, Any]:
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------
    def setup(self, inputs: Dict[str, Any]) -> None:
        raise NotImplementedError

    def mark(self) -> None:
        pass

    def run(self, short: bool) -> None:
        """The timed window (``short``: the traced run's horizon, with
        or without hooks).  Subclasses implement :meth:`_window`."""
        started, cpu = perf_counter(), process_time()
        self._window(short)
        self.wall_s = perf_counter() - started
        self.cpu_s = process_time() - cpu
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _window(self, short: bool) -> None:
        raise NotImplementedError

    def finish(self) -> Dict[str, Any]:
        """Drain, count operations, check outputs.  Returns ``ops``,
        ``attempted``, ``failed``, ``deterministic`` (must repeat
        exactly for the same seed and horizon, traced or not),
        ``sim_stats`` and ``counts`` (window deltas)."""
        raise NotImplementedError

    def problem(self, text: str) -> None:
        self.problems.append(f"{self.name}: {text}")

    def _see_heap(self, _token, sim, *_args) -> None:
        depth = sim.pending_events
        if depth > self.heap_depth_max:
            self.heap_depth_max = depth


# ----------------------------------------------------------------------
# Spire worlds: plant_e9, city25_cmd
# ----------------------------------------------------------------------
class _SpireWorld(Workload):
    """A ``build_world`` deployment whose operations are client updates
    confirmed by f+1 replicas."""

    active = ("sim", "net", "crypto", "spines", "prime", "scada", "plc",
              "telemetry")
    bypassed = ("mana", "faults", "snapshot", "parallel", "obs")
    #: Simulated seconds of window per second of ``--seconds``.
    sim_s_per_second = 1.0
    #: Window and traced horizon are whole multiples of this.
    quantum = 1.0
    warmup_s = WARMUP_SIM_S
    drain_s = CONFIRM_DRAIN_S

    def _horizons(self, seconds: float) -> Tuple[float, float]:
        steps = max(1, round(self.sim_s_per_second * seconds / self.quantum))
        return (round(steps * self.quantum, 6),
                round(max(1, round(steps / 4)) * self.quantum, 6))

    def _spec(self, inputs):
        raise NotImplementedError

    def _attach_load(self, inputs) -> None:
        raise NotImplementedError

    def _judged_clients(self) -> List[Any]:
        """The Prime clients whose updates are this workload's operations."""
        return list(self.world.clients)

    def setup(self, inputs):
        from repro.api import build_world

        self.inputs = inputs
        started = perf_counter()
        self.world = build_world(self._spec(inputs))
        self.build_s = perf_counter() - started
        self.world.run(until=self.warmup_s)
        self._attach_load(inputs)

    def mark(self):
        sim = self.world.sim
        self.counts0 = read_counts(sim)
        self.judged = self._judged_clients()
        self.seq0 = [client.next_seq for client in self.judged]
        self.order_marks = _histogram_marks(sim, "prime.order_latency")

    def _window(self, short):
        self.sim_s = self.inputs["trace_sim_s" if short else "window_sim_s"]
        self.world.run(until=self.warmup_s + self.sim_s)

    def finish(self):
        sim = self.world.sim
        end = sim.now
        seq1 = [client.next_seq for client in self.judged]
        counts1 = read_counts(sim)
        digest = sim.event_digest()
        self._at_window_end()
        self.world.run(until=end + self.drain_s)
        attempted, failed, confirm = update_outcomes(self.judged, self.seq0,
                                                     seq1)
        if failed:
            self.problem(f"{failed} of {attempted} updates not confirmed "
                         f"within {CONFIRM_LIMIT_S} sim-s")
        result = {
            "ops": attempted - failed,
            "attempted": attempted,
            "failed": failed,
            "sim_stats": _ms_stats("confirm_sim_ms", confirm),
            "counts": _window_counts(self.counts0, counts1),
        }
        result["sim_stats"]["order_sim_ms_p50"] = quantile(
            _histogram_since(sim, "prime.order_latency", self.order_marks),
            0.5) * 1000.0
        result["deterministic"] = {
            "sim.events": result["counts"]["sim.events"],
            "net.frames_sent": result["counts"]["net.frames_sent"],
            "prime.updates_executed":
                result["counts"]["prime.updates_executed"],
            "event_digest": digest,
            "updates_attempted": attempted,
        }
        self._judge_extra(result, window_end=end)
        result["deterministic"].update(
            {key: round(value, 6) for key, value in result["sim_stats"].items()})
        return result

    def _at_window_end(self) -> None:
        """Untimed reads that must precede the drain."""

    def _judge_extra(self, result, window_end: float) -> None:
        """Workload-specific operations and checks, after the drain."""


class PlantE9(_SpireWorld):
    name = "plant_e9"
    why = ("The paper's plant and its E9 test: single_plant, B57 flipped "
           "every 1 s; read path poll->proxy->Prime->master->HMI over "
           "full-mesh overlays.")
    sim_s_per_second = 2.5
    quantum = 2.0            # the proxies' heartbeat period: whole bursts
    drain_s = PLANT_REACTION_LIMIT_S
    FLIP_PERIOD_S = 1.0
    FLIP_JITTER_S = 0.25

    def make_inputs(self, seed, seconds):
        window, traced = self._horizons(seconds)
        return {"window_sim_s": window, "trace_sim_s": traced,
                "flip_period_s": self.FLIP_PERIOD_S,
                "flip_offsets_sim_s": flip_offsets(
                    random.Random(seed), window + self.drain_s,
                    self.FLIP_PERIOD_S, self.FLIP_JITTER_S)}

    def _spec(self, inputs):
        from repro.api import GridSpec

        return GridSpec.single_plant()

    def _attach_load(self, inputs):
        unit = self.world.system.physical_plc
        hmi = self.world.hmis[0]
        self.breaker = "B57"
        # Created at window start, so every flip falls inside or after
        # the window.
        self.device = measurement_device(
            self.world.sim, inputs, topology=unit.topology,
            breaker=self.breaker,
            sensors={"spire": partial(hmi.breaker_state, unit.device.name,
                                      self.breaker)})

    def _judge_extra(self, result, window_end):
        flips = [sample for sample in self.device.samples
                 if sample.flip_time < window_end]
        reactions = [sample.latency("spire") for sample in flips]
        late = sum(1 for latency in reactions
                   if latency is None or latency > PLANT_REACTION_LIMIT_S)
        if late:
            self.problem(f"{late} of {len(flips)} flips not displayed "
                         f"within {PLANT_REACTION_LIMIT_S} sim-s")
        if not flips:
            self.problem("no breaker flip fell inside the window")
        result["attempted"] += len(flips)
        result["failed"] += late
        result["sim_stats"].update(_ms_stats(
            "reaction_sim_ms",
            [latency for latency in reactions if latency is not None]))
        result["deterministic"]["flips"] = len(flips)


class City25Cmd(_SpireWorld):
    name = "city25_cmd"
    why = ("make_town_spec(25), 3 HMI commands/s between the RTUs' 4 s "
           "heartbeat bursts the window carries: write path HMI->Prime->"
           "master->proxy->PLC over the sparse multi-hop overlay. Only "
           "commands are judged.")
    sim_s_per_second = 0.8
    # The RTUs heartbeat together every 4 sim-s (t = 6.0002, 10.0002,
    # ...).  The warm-up stops half a second before a burst, so the
    # window and the shorter traced horizon both carry one.
    warmup_s = 5.5
    # One command keeps the overlay busy for ~130 sim-ms (update flood,
    # six directives, PLC write, status update, HMI feeds).  One that
    # overlaps another command or a heartbeat burst (the ~100 sim-ms
    # after a whole second) can lose a directive to a full link queue:
    # at 8/s with >= 62 ms between commands 2 seeds in 20 lost one, at
    # 4/s across the bursts 1 in 3.  So: three slots in every sim-s,
    # each command at a seeded place in its slot, which keeps 150 ms to
    # the next command and to the whole second.  A Poisson count would
    # also put its own sqrt(n)/n noise on wall_ms_per_op across seeds.
    SLOT_STARTS_SIM_S = (0.15, 0.40, 0.65)
    SLOT_WIDTH_SIM_S = 0.10

    def make_inputs(self, seed, seconds):
        window, traced = self._horizons(seconds)
        rng = random.Random(seed)
        first = math.floor(self.warmup_s)
        slots = [second + start
                 for second in range(first, math.ceil(self.warmup_s + window))
                 for start in self.SLOT_STARTS_SIM_S]
        commands = [
            {"at": round(slot - self.warmup_s
                         + self.SLOT_WIDTH_SIM_S * rng.random(), 6),
             "hmi": rng.randrange(1 << 16)}
            for slot in slots
            if self.warmup_s <= slot
            and slot + self.SLOT_WIDTH_SIM_S <= self.warmup_s + window]
        # The spec's own mix, one DNP3 substation in four, held fixed so
        # the seed picks *which* RTU, not how many of each protocol
        # (they cost different numbers of events).
        for index, command in enumerate(commands):
            command["protocol"] = "dnp3" if index % 4 == 3 else "modbus"
        # Targets, as a place in [0, 1) along the protocol's RTUs in
        # spec order: an even comb, rotated by the seed and dealt to the
        # commands in seeded order.  Multi-hop paths differ in cost by
        # region; a comb commands a cross-section of the grid on every
        # seed where independent draws varied the work by 2 %.
        for protocol in ("modbus", "dnp3"):
            chosen = [command for command in commands
                      if command["protocol"] == protocol]
            rotation = rng.random()
            comb = [(tooth + rotation) / len(chosen) % 1.0
                    for tooth in range(len(chosen))]
            rng.shuffle(comb)
            for command, place in zip(chosen, comb):
                command["target"] = place
        return {"window_sim_s": window, "trace_sim_s": traced,
                "commands": commands}

    def _spec(self, inputs):
        from repro.api import make_town_spec

        return make_town_spec(25)

    def _attach_load(self, inputs):
        world = self.world
        protocol = {sub.name: sub.protocol for sub in world.spec.substations}
        pools: Dict[str, List[Tuple[str, str]]] = {"modbus": [], "dnp3": []}
        for plc, breaker in world.workload_targets():
            pools[protocol[world.plc_to_substation[plc]]].append((plc, breaker))
        for command in inputs["commands"]:
            hmi = world.hmis[command["hmi"] % len(world.hmis)]
            pool = pools[command["protocol"]]
            plc, breaker = pool[int(command["target"] * len(pool))]
            # Re-affirm a closed feed breaker: the full command path
            # end to end, physically a no-op, so the grid stays stable.
            world.sim.at(self.warmup_s + command["at"], hmi.command_breaker,
                         plc, breaker, True)

    def _judged_clients(self):
        # Commands only (HMIs and the spec's operator population).  The
        # RTUs' status updates are reported, not judged: their heartbeat
        # bursts overflow the 512 KB link queues of make_town_spec(25)
        # and part of every burst is never confirmed.  That is the
        # program's behaviour at the parent commit, not a property of
        # the load, and a workload may not carry failing operations.
        world = self.world
        return ([hmi.client for hmi in world.hmis]
                + [population.client for population in world.populations])

    def _commands_applied(self) -> int:
        # The proxies' own tallies: the DNP3 proxy keeps one but does
        # not mirror it into the metrics registry.
        return sum(proxy.commands_applied for proxy in self.world.proxies)

    def mark(self):
        super().mark()
        self.applied0 = self._commands_applied()
        commanders = set(map(id, self.judged))
        self.rtus = [client for client in self.world.clients
                     if id(client) not in commanders]
        self.rtu_seq0 = [client.next_seq for client in self.rtus]

    def _at_window_end(self):
        self.rtu_seq1 = [client.next_seq for client in self.rtus]

    def _judge_extra(self, result, window_end):
        # Every command update of the window against the commands the
        # proxies wrote to PLCs by the end of the drain.
        sent = result["attempted"]
        applied = self._commands_applied() - self.applied0
        result["counts"]["scada.commands_applied"] = float(applied)
        missing = max(0, sent - applied)
        if missing:
            self.problem(f"{missing} of {sent} commands never applied at "
                         "their PLC")
            result["failed"] = min(sent, result["failed"] + missing)
            result["ops"] = sent - result["failed"]
        excursions = self.world.grid_summary()["frequency_excursions"]
        if excursions:
            self.problem(f"{excursions} frequency excursions under "
                         "no-op commands")
        statuses, unconfirmed, _ = update_outcomes(self.rtus, self.rtu_seq0,
                                                   self.rtu_seq1)
        self.notes.append(
            f"{unconfirmed} of {statuses} RTU status updates not confirmed "
            f"within {CONFIRM_LIMIT_S} sim-s (reported, not judged: "
            "heartbeat bursts overflow the link queues, see README.md)")
        result["deterministic"].update(
            {"commands_sent": sent, "status_updates": statuses,
             "status_updates_unconfirmed": unconfirmed})


# ----------------------------------------------------------------------
# commercial_scan
# ----------------------------------------------------------------------
class CommercialScan(Workload):
    name = "commercial_scan"
    why = ("Fig. 1 conventional system, no Spire: 60 x (PLC, primary, "
           "backup, HMI) on one LAN, 1 s scan. Bypasses crypto, spines, "
           "prime: a net/sim change shows most here, a crypto one not at all.")
    active = ("sim", "net", "plc", "redteam", "core")
    bypassed = ("crypto", "spines", "prime", "scada", "mana", "faults",
                "snapshot", "grid", "parallel", "obs")
    SYSTEMS = 60
    SIM_S_PER_SECOND = 60.0
    FLIP_PERIOD_S = 4.0      # >= 4x the scan: at equal periods a stale
    FLIP_JITTER_S = 0.5      # display reads as an instant detection
    #: Scan + refresh is 2 s by construction; the paper found the
    #: commercial system slower than Spire, so it gets its own limit.
    DISPLAY_LIMIT_S = 2.5
    WARMUP_S = 5.0

    def make_inputs(self, seed, seconds):
        window = max(8.0, round(self.SIM_S_PER_SECOND * seconds / 4.0) * 4.0)
        return {"window_sim_s": window,
                "trace_sim_s": max(8.0, round(window / 16.0) * 4.0),
                "flip_period_s": self.FLIP_PERIOD_S,
                "flip_offsets_sim_s": flip_offsets(
                    random.Random(seed), window + self.DISPLAY_LIMIT_S,
                    self.FLIP_PERIOD_S, self.FLIP_JITTER_S)}

    def setup(self, inputs):
        from repro.api import Simulator
        from repro.net import Host, Lan
        from repro.plc import PlcDevice, redteam_topology
        from repro.redteam.commercial import CommercialHmi, CommercialScadaServer

        self.inputs = inputs
        self.sim = sim = Simulator(seed=0)
        lan = Lan(sim, "ops", "10.0.0.0/16", ports=4 * self.SYSTEMS + 4)
        self.systems = []
        for index in range(self.SYSTEMS):
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
            hmi = CommercialHmi(sim, f"hmi-{index}", hmi_host,
                                lan.ip_of(primary_host))
            self.systems.append((topology, hmi))
        sim.run(until=self.WARMUP_S)
        topology, hmi = self.systems[0]
        self.device = measurement_device(
            sim, inputs, topology=topology, breaker="B57",
            sensors={"commercial": partial(hmi.breaker_state, "B57")})

    def _pushes(self) -> Tuple[int, int]:
        return (sum(hmi.last_push_seq for _topology, hmi in self.systems),
                sum(hmi.pushes_received for _topology, hmi in self.systems))

    def mark(self):
        self.counts0 = read_counts(self.sim)
        self.pushes0 = self._pushes()

    def _window(self, short):
        self.sim_s = self.inputs["trace_sim_s" if short else "window_sim_s"]
        self.sim.run(until=self.WARMUP_S + self.sim_s)

    def finish(self):
        sim = self.sim
        end = sim.now
        counts1 = read_counts(sim)
        sent, received = self._pushes()
        digest = sim.event_digest()
        # Let the last flips be displayed, then stop flipping and let
        # every display settle before comparing it with the field.
        sim.run(until=end + self.DISPLAY_LIMIT_S)
        self.device.shutdown()
        sim.run(until=end + 2 * self.DISPLAY_LIMIT_S)
        sent -= self.pushes0[0]
        received -= self.pushes0[1]
        lost = sent - received
        if lost:
            self.problem(f"{lost} of {sent} state pushes never reached "
                         "their HMI")
        flips = [sample for sample in self.device.samples
                 if sample.flip_time < end]
        reactions = [sample.latency("commercial") for sample in flips]
        late = sum(1 for latency in reactions
                   if latency is None or latency > self.DISPLAY_LIMIT_S)
        if late:
            self.problem(f"{late} of {len(flips)} flips not displayed "
                         f"within {self.DISPLAY_LIMIT_S} sim-s")
        stale = sum(1 for topology, hmi in self.systems
                    if hmi.view != topology.breaker_states())
        if stale:
            self.problem(f"{stale} HMI views differ from the field at end")
        sim_stats = _ms_stats(
            "reaction_sim_ms",
            [latency for latency in reactions if latency is not None])
        counts = _window_counts(self.counts0, counts1)
        counts["scada.displays"] = received
        deterministic = {"sim.events": counts["sim.events"],
                         "net.frames_sent": counts["net.frames_sent"],
                         "event_digest": digest, "pushes": received,
                         "flips": len(flips)}
        deterministic.update({key: round(value, 6)
                              for key, value in sim_stats.items()})
        return {"ops": received, "attempted": sent + len(flips),
                "failed": lost + late, "sim_stats": sim_stats,
                "counts": counts, "deterministic": deterministic}


# ----------------------------------------------------------------------
# campaign16
# ----------------------------------------------------------------------
class Campaign16(Workload):
    name = "campaign16"
    why = ("What spire-sim chaos users run: 4 scenarios x 4 seeds with "
           "faults, monitors, view changes, live MANA, warm-cache "
           "restores, scorecard and report assembly.")
    active = ("sim", "net", "crypto", "spines", "prime", "faults", "mana",
              "snapshot", "parallel", "obs", "telemetry")
    bypassed = ("grid", "redteam")
    SCENARIOS = ("baseline", "crash-recover", "partition", "flap-degrade")
    SEEDS = 4
    DURATION_PER_SECOND = 0.7    # cell length in sim-s per --seconds
    MIN_DURATION_S = 4.0         # the scenarios' first faults arm at 2-3 s

    def make_inputs(self, seed, seconds):
        duration = max(self.MIN_DURATION_S,
                       round(self.DURATION_PER_SECOND * seconds, 1))
        seeds = [seed + index for index in range(self.SEEDS)]
        return {"seeds": seeds if seconds >= 5 else seeds[:1],
                "trace_seeds": seeds[:1], "duration_sim_s": duration,
                "warm_seed": seed + 1000, "scenarios": list(self.SCENARIOS)}

    def _campaign(self, scenarios, seeds, metrics=None):
        from repro.api import run_campaign

        return run_campaign(list(scenarios), seeds=list(seeds),
                            duration=self.inputs["duration_sim_s"], jobs=1,
                            warm_cache=True, mana=True, metrics=metrics)

    def setup(self, inputs):
        from repro.api import report_digest

        self.inputs = inputs
        # One untimed cell: imports, numpy, model code paths, crypto
        # caches — what a second `spire-sim chaos` in a session skips.
        self.warm_digest = report_digest(self._warm_campaign())

    def _warm_campaign(self):
        return self._campaign(self.SCENARIOS[:1], [self.inputs["warm_seed"]])

    # Cell worlds live and die inside run_campaign; under tracing their
    # counters are read around every Simulator.run instead.
    def __init__(self) -> None:
        super().__init__()
        self.cell_counts: Dict[str, float] = {}
        self.watch["repro.sim.simulator:Simulator.run"] = (
            self._watch_enter, self._watch_exit)

    @staticmethod
    def _watch_enter(sim, *_args):
        return read_counts(sim)

    def _watch_exit(self, before, sim, *_args):
        after = read_counts(sim)
        totals = self.cell_counts
        for key, value in after.items():
            totals[key] = totals.get(key, 0.0) + value - before[key]

    def _window(self, short):
        from repro.api import build_deployment_report, render_report
        from repro.telemetry import MetricsRegistry

        seeds = self.inputs["trace_seeds" if short else "seeds"]
        self.registry = MetricsRegistry()
        self.report = self._campaign(self.inputs["scenarios"], seeds,
                                     metrics=self.registry)
        document = build_deployment_report(
            meta={"source": "benchmarks/e2e campaign16"},
            campaign=self.report)
        self.rendered = render_report(document, "markdown")
        self.cells = len(self.inputs["scenarios"]) * len(seeds)
        self.sim_s = self.cells * self.inputs["duration_sim_s"]

    def finish(self):
        from repro.api import report_digest

        report = self.report
        runs = [run for entry in report["scenarios"].values()
                for run in entry["runs"]]
        failed = sum(1 for run in runs if not run["passed"])
        if failed or not report["passed"]:
            self.problem(f"{failed} of {len(runs)} cells failed their "
                         "scenario expectation")
        if len(runs) != self.cells:
            self.problem(f"{len(runs)} cell results for {self.cells} cells")
        detection = report.get("detection")
        if not detection:
            self.problem("report has no detection section")
        if "Detection" not in self.rendered and "detection" not in self.rendered:
            self.problem("rendered report lacks the detection scorecard")
        if report_digest(self._warm_campaign()) != self.warm_digest:
            self.problem("the set-up's one-cell campaign, run again, gave "
                         "another report_digest")
        totals = (detection or {}).get("campaign", {})
        confirm = report.get("confirm_latency", {})
        sim_stats = {
            "confirm_sim_ms_p50": (confirm.get("p50") or 0.0) * 1000.0,
            "confirm_sim_ms_p90": (confirm.get("p90") or 0.0) * 1000.0,
            "confirm_sim_ms_n": confirm.get("samples", 0),
            "mttd_sim_ms_p50": (totals.get("mttd_p50") or 0.0) * 1000.0,
        }
        counts = dict(self.cell_counts)
        unit_wall = self.registry.get("parallel.unit_wall_seconds", "campaign")
        counts["parallel.unit_wall_s_p50"] = (
            unit_wall.quantile(0.5) or 0.0) if unit_wall else 0.0
        counts["snapshot.warmcache_hits"] = self.registry.total(
            "snapshot.warmcache.hits")
        counts["snapshot.bytes"] = self.registry.total(
            "snapshot.warmcache.bytes")
        return {"ops": len(runs) - failed, "attempted": len(runs),
                "failed": failed, "sim_stats": sim_stats, "counts": counts,
                "deterministic": {"report_digest": report_digest(report),
                                  "cells": len(runs)}}


# ----------------------------------------------------------------------
# town5_ckpt_chain
# ----------------------------------------------------------------------
class Town5CkptChain(Workload):
    name = "town5_ckpt_chain"
    why = ("Soak pattern: town5 advanced as run ~0.5 sim-s -> save -> "
           "restore -> continue. The one workload where snapshot does most "
           "of the work and hot-path caches pay for their pickle size.")
    active = ("sim", "net", "crypto", "spines", "prime", "scada", "plc",
              "snapshot", "telemetry")
    bypassed = ("mana", "faults", "parallel", "obs")
    # Save and restore allocate and walk the whole object graph; on a
    # shared host their time moves with the neighbours' memory traffic
    # several times as much as event execution does (README.md, "Noise").
    replicas = 3
    SLICE_SIM_S = 0.5
    CYCLES_PER_SECOND = 7.2

    def make_inputs(self, seed, seconds):
        cycles = max(2, round(self.CYCLES_PER_SECOND * seconds))
        rng = random.Random(seed)
        # Checkpoint i falls somewhere in the second half of slice i;
        # the last one closes the horizon exactly.
        checkpoints = [round((index - 0.5 * rng.random()) * self.SLICE_SIM_S, 6)
                       for index in range(1, cycles)]
        checkpoints.append(cycles * self.SLICE_SIM_S)
        return {"checkpoints_sim_s": checkpoints,
                "trace_cycles": max(2, round(cycles / 4))}

    def _build(self):
        from repro.api import build_world, make_town_spec

        started = perf_counter()
        world = build_world(make_town_spec(5))
        self.build_s = perf_counter() - started
        world.run(until=WARMUP_SIM_S)
        return world

    def setup(self, inputs):
        self.inputs = inputs
        self.world = self._build()
        self.diverged = 0
        self.snapshot_bytes = 0

    def mark(self):
        self.counts0 = read_counts(self.world.sim)
        self.seq0 = [client.next_seq for client in self.world.clients]

    def _window(self, short):
        from repro.api import restore_world_bytes, save_world_bytes

        checkpoints = self.inputs["checkpoints_sim_s"]
        if short:
            checkpoints = checkpoints[:self.inputs["trace_cycles"]]
        world = self.world
        cycle_started = perf_counter()
        for offset in checkpoints:
            world.run(until=WARMUP_SIM_S + offset)
            before = (world.sim.now, world.sim.events_executed)
            data = save_world_bytes(world)
            world = restore_world_bytes(data)
            if (world.sim.now, world.sim.events_executed) != before:
                self.diverged += 1
            cycle_ended = perf_counter()
            self.step_wall_s.append(cycle_ended - cycle_started)
            cycle_started = cycle_ended
        self.world = world
        self.snapshot_bytes = len(data)
        self.cycles = len(checkpoints)
        self.sim_s = checkpoints[-1]

    def finish(self):
        sim = self.world.sim
        counts1 = read_counts(sim)
        digest, events = sim.event_digest(), sim.events_executed
        # The unchained control: same world, same horizon, one run call.
        if self.control:
            control = self._build()
            control.run(until=sim.now)
            if (control.sim.event_digest(), control.sim.events_executed) != (
                    digest, events):
                self.problem(
                    "chained run diverged from the unchained control "
                    f"({events} vs {control.sim.events_executed} events)")
                self.diverged = max(self.diverged, 1)
        confirm = [
            latency
            for client, first in zip(self.world.clients, self.seq0)
            for seq, latency in client.confirm_latency.items() if seq >= first]
        counts = _window_counts(self.counts0, counts1)
        counts["snapshot.bytes"] = float(self.snapshot_bytes)
        sim_stats = _ms_stats("confirm_sim_ms", confirm)
        deterministic = {"sim.events": counts["sim.events"],
                         "net.frames_sent": counts["net.frames_sent"],
                         "prime.updates_executed":
                             counts["prime.updates_executed"],
                         "event_digest": digest}
        deterministic.update({key: round(value, 6)
                              for key, value in sim_stats.items()})
        return {"ops": self.cycles - self.diverged, "attempted": self.cycles,
                "failed": self.diverged, "sim_stats": sim_stats,
                "counts": counts, "deterministic": deterministic}


WORKLOADS = {cls.name: cls for cls in (PlantE9, City25Cmd, CommercialScan,
                                       Campaign16, Town5CkptChain)}
