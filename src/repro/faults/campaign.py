"""Resilience campaign runner: scenarios × seeds → JSON report.

A :class:`Scenario` names a fault-plan factory plus the harness options
it needs and the outcome it asserts: ``expect="clean"`` scenarios stay
within the ``f + k`` budget and must produce **zero** invariant
violations; ``expect="violation"`` scenarios deliberately exceed the
budget and must be **caught** by the monitors — a silent over-budget
run means the monitors are not biting, and fails the campaign.

:func:`run_campaign` sweeps scenarios across seeds, aggregates
per-scenario pass/fail with confirmation-latency quantiles from the
telemetry registry, and returns a JSON-serialisable report (also
exposed as the ``spire-sim chaos`` CLI subcommand).

Each scenario×seed cell is an independent, seed-deterministic unit, so
the sweep runs on the :mod:`repro.parallel` engine: ``jobs=N`` fans
cells out to worker processes and merges results (and per-run
confirm-latency telemetry) back in cell order — the report is
byte-identical to a ``jobs=1`` run (:func:`report_digest` is the
witness the benchmark and CI compare).

Cells are *warm-started* by default: scenarios sharing harness options,
run length, and seed share one world, built once and serialized into an
in-memory :class:`~repro.snapshot.warmcache.WarmCache` at the group's
fault horizon (always pre-``plan.arm()``); every cell restores from the
cached bytes instead of a cold build.  ``warm_cache=False`` runs the
identical operation order without the cache — byte-identical, just
slower (see docs/performance.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.harness import ChaosHarness
from repro.faults.monitors import MonitorSuite
from repro.faults.plan import FaultPlan
from repro.obs.recorder import FlightRecorder
from repro.parallel import WorkerPool, WorkUnit
from repro.sim.simulator import Simulator
from repro.telemetry.metrics import Histogram, MetricsRegistry

# Flight-recorder sizing for campaign cells: passive mode (no scheduled
# events, so the cell replays bit-identically with or without it), a
# ring deep enough for one scenario's notable events, and at most two
# retained black-box captures per run to keep reports bounded.
_CELL_RECORDER = {"capacity": 2048, "window": 8.0, "max_dumps": 2,
                  "min_severity": "info", "snapshot_interval": None}

# MANA sizing for campaign cells.  The feature window must fit at least
# _MANA_MIN_WINDOWS training windows into the fault-free prefix
# ``[0, arm_at)`` (``ManaInstance.train`` refuses smaller baselines), so
# cells whose group horizon is short shrink the window deterministically
# — the window length is a pure function of ``arm_at``, which is part of
# the warm-group key, so warm and cold cells always agree.
_MANA_WINDOW = 0.5
_MANA_MIN_WINDOWS = 4
_MANA_VOTE = 2

EXPECT_CLEAN = "clean"
EXPECT_VIOLATION = "violation"


@dataclass
class Scenario:
    """A named fault schedule with its expected outcome."""

    name: str
    build: Callable[[int, int], FaultPlan]    # (f, k) -> plan
    expect: str = EXPECT_CLEAN
    duration: float = 18.0
    harness: Dict[str, object] = field(default_factory=dict)
    description: str = ""


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
def _baseline(f: int, k: int) -> FaultPlan:
    return FaultPlan("baseline")


def _crash_recover(f: int, k: int) -> FaultPlan:
    plan = FaultPlan("crash-recover")
    for index in range(3):
        plan.crash(at=2.0 + index * 4.0, duration=1.5)
    return plan


def _partition(f: int, k: int) -> FaultPlan:
    return (FaultPlan("partition")
            .partition(at=3.0, duration=2.5, isolate=1, network="internal")
            .partition(at=9.0, duration=2.0, isolate=1, network="external")
            .crash(at=13.0, duration=1.0))


def _flap_degrade(f: int, k: int) -> FaultPlan:
    return (FaultPlan("flap-degrade")
            .flap_link(at=2.0, flaps=3, down_for=0.3, up_for=0.7)
            .degrade_link(at=6.0, duration=4.0, latency=0.01, loss=0.15)
            .link_down(at=12.0, duration=0.8, network="external"))


def _recovery_collision(f: int, k: int) -> FaultPlan:
    return (FaultPlan("recovery-collision")
            .recovery_collision(at=4.0, count=k)
            .recovery_collision(at=11.0, count=k))


def _byzantine_storm(f: int, k: int) -> FaultPlan:
    """f + 1 byzantine replicas plus one crash: the ordering quorum is
    gone, so bounded-delay liveness must (visibly) break."""
    plan = FaultPlan("byzantine-storm", allow_over_budget=True)
    for index in range(f + 1):
        plan.byzantine(at=4.0 + index * 0.2, mode="crash")
    plan.crash(at=4.6, duration=None)
    return plan


def _recovery_breach(f: int, k: int) -> FaultPlan:
    return (FaultPlan("recovery-breach", allow_over_budget=True)
            .recovery_collision(at=4.0, count=k + 1))


BUILTIN_SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in [
        Scenario("baseline", _baseline,
                 description="workload only, no faults"),
        Scenario("crash-recover", _crash_recover,
                 description="repeated in-budget crash/recover cycles"),
        Scenario("partition", _partition,
                 description="overlay partitions on both networks plus "
                             "a crash, all within budget"),
        Scenario("flap-degrade", _flap_degrade,
                 description="link flaps, latency+loss degradation"),
        Scenario("recovery-collision", _recovery_collision,
                 harness={"with_recovery": True},
                 description="forced k-way proactive-recovery collisions"),
        Scenario("byzantine-storm", _byzantine_storm,
                 expect=EXPECT_VIOLATION,
                 description="f+1 byzantine replicas + a crash: over "
                             "budget, monitors must flag it"),
        Scenario("recovery-breach", _recovery_breach,
                 expect=EXPECT_VIOLATION,
                 harness={"with_recovery": True},
                 description="k+1 concurrent proactive recoveries: "
                             "recovery safety must flag it"),
    ]
}

DEFAULT_SCENARIOS = ["baseline", "partition", "recovery-collision",
                     "byzantine-storm"]


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _plan_horizon(plan: FaultPlan) -> float:
    """A plan's *fault horizon*: the earliest action time — everything
    before it is a fault-free prefix.  ``inf`` for an empty plan."""
    times = [action.at for action in plan.actions]
    return min(times) if times else float("inf")


@dataclass
class _CellWorld:
    """Everything a campaign cell builds *before* its fault plan arms:
    the world (chaos harness or grid deployment), its flight recorder
    and the monitor suite.

    The bundle pickles as one graph rooted at ``.sim``, which makes it
    a ``save_world_bytes`` payload: the warm cache serializes a cell at
    the group fault horizon and every sibling cell restores those bytes
    instead of re-building.  The monitor suite starts at t=0 *unarmed*
    (monitors are read-only, so the fault-free prefix stays
    scenario-independent) and is bound to the armed plan for fault
    attribution at the moment the plan arms.
    """

    world: Any
    recorder: FlightRecorder
    suite: MonitorSuite
    mana: Optional[Dict[str, Any]] = None    # network -> live ManaInstance

    @property
    def sim(self):
        return self.world.sim


def _attach_mana(sim, world, arm_at: float) -> Dict[str, Any]:
    """Tap both of the world's LANs and stand up one passive
    :class:`~repro.mana.detector.ManaInstance` per network (the paper
    runs one instance per monitored network).  Must run at t=0: the
    captures feed on the fault-free prefix that :func:`_train_mana`
    turns into the baseline."""
    from repro.mana import ManaInstance
    from repro.net.tap import Capture

    if arm_at <= 0.0:
        return {}                      # no fault-free prefix → no baseline
    window = min(_MANA_WINDOW, arm_at / _MANA_MIN_WINDOWS)
    instances: Dict[str, Any] = {}
    for lan in (world.internal_lan, world.external_lan):
        capture = Capture(lan.name)
        lan.switch.add_span_tap(capture.span_tap)
        instances[lan.name] = ManaInstance(
            sim, f"mana-{lan.name}", capture,
            window=window, vote_threshold=_MANA_VOTE)
    return instances


def _train_mana(cell: "_CellWorld", arm_at: float) -> None:
    """Train each instance on ``[0, arm_at)`` and switch it to live
    evaluation.  Runs inside the cell build — *before* the warm-cache
    snapshot point — so warm images carry trained, live instances and
    cold cells follow the identical operation order.  A network whose
    capture is too quiet to yield a baseline is dropped (deterministic:
    depends only on sim state at ``arm_at``)."""
    if not cell.mana:
        return
    silent = []
    for network in sorted(cell.mana):
        instance = cell.mana[network]
        try:
            instance.train(0.0, arm_at)
        except ValueError:
            silent.append(network)
            continue
        instance.start_live()
    for network in silent:
        del cell.mana[network]


def _build_cell(grid: Optional[dict], seed: int, f: int, k: int,
                harness: Dict[str, Any], run_for: float, arm_at: float,
                mana: bool = False) -> _CellWorld:
    """Cold-build one cell — the chaos harness, or the deployment the
    :class:`~repro.grid.GridSpec` dict ``grid`` describes — and run it
    to ``arm_at``.  Every world is a
    :class:`~repro.core.wiring.Deployment` that sizes its own campaign
    workload, so the two differ only in how they are constructed."""
    if grid is None:
        sim = Simulator(seed=seed)
    else:
        from repro.grid import GridSpec, build_world

        spec = GridSpec.from_dict(grid)
        sim = Simulator(seed=seed, telemetry=spec.telemetry)
    recorder = FlightRecorder(sim, name="chaos-recorder", **_CELL_RECORDER)
    world = (ChaosHarness(sim, f=f, k=k, **harness) if grid is None
             else build_world(spec, sim=sim))
    suite = MonitorSuite(sim, world)
    for client in world.clients:
        suite.watch_client(client)
    suite.start()
    if grid is not None and harness.get("with_recovery"):
        # The harness starts its scheduler itself (a constructor option).
        world.start_proactive_recovery(period=6.0, downtime=0.8)
    world.start_campaign_workload(run_for)
    cell = _CellWorld(world=world, recorder=recorder, suite=suite)
    if mana:
        cell.mana = _attach_mana(sim, world, arm_at)
    if arm_at > 0.0:
        sim.run(until=arm_at)
    _train_mana(cell, arm_at)
    return cell


def _warm_image(grid: Optional[dict] = None, seed: int = 1, f: int = 1,
                k: int = 1, harness: Optional[Dict[str, Any]] = None,
                run_for: float = 18.0, arm_at: float = 0.0,
                warm_key: Optional[str] = None, mana: bool = False) -> bytes:
    """Warm-phase work unit: build one group's world, run it to the
    group fault horizon, and return the serialized image bytes.  With
    ``mana`` the image carries trained, live detector instances — the
    scorecard state participates in the warm-start snapshot."""
    from repro.snapshot import save_world_bytes

    cell = _build_cell(grid, seed, f, k, harness or {}, run_for, arm_at,
                       mana=mana)
    return save_world_bytes(cell, meta={"warm_key": warm_key})


def _restore_warm_cell(warm_key: Optional[str],
                       arm_at: float) -> Optional[_CellWorld]:
    """Restore a cell from the active warm cache, if possible.

    Returns ``None`` (→ the caller cold-builds) when no cache is
    active or the key was never warmed (e.g. spawn-only platforms,
    failed warm builds).  A *present* entry that is corrupt, or whose
    snapshot time disagrees with ``arm_at``, raises
    :class:`~repro.snapshot.SnapshotError` — a warm cell must never
    silently disagree with a cold one.
    """
    if warm_key is None:
        return None
    from repro.snapshot import warmcache
    cache = warmcache.active()
    if cache is None:
        return None
    cell = cache.restore(warm_key)
    if cell is None:
        return None
    if abs(cell.sim.now - arm_at) > 1e-9:
        from repro.snapshot import SnapshotError
        raise SnapshotError(
            f"warm image {warm_key[:12]} was snapshotted at "
            f"t={cell.sim.now:.6f} but the cell arms at t={arm_at:.6f}")
    return cell


def _finish_run(cell: _CellWorld, scenario: Scenario, seed: int, armed,
                _with_state: bool):
    """Assemble the per-run report dict (histogram summary,
    violations, passed/expect logic, the world's own workload summary,
    dumps)."""
    histogram = cell.sim.metrics.merged_histogram("prime.confirm_latency")
    latency = histogram.summary()
    violations = [v.snapshot() for v in cell.suite.violations]
    detected = bool(violations)
    passed = detected if scenario.expect == EXPECT_VIOLATION else not detected
    run = {
        "scenario": scenario.name,
        "seed": seed,
        "expect": scenario.expect,
        "passed": passed,
        "violations": violations,
        "faults": armed.summary(),
        # The world's own share: "workload", and a grid world's "grid".
        **cell.world.campaign_summary(),
        "confirm_latency": {
            key: latency.get(key) for key in
            ("samples", "mean", "p50", "p90", "p99")
        },
    }
    if cell.mana:
        from repro.mana.scoring import score_run

        detection = score_run(cell.mana, armed, until=cell.sim.now)
        run["detection"] = detection
        # Cell-side telemetry rows: land in this cell's registry (and
        # therefore in any dump's metrics snapshot taken below).
        registry = cell.sim.metrics
        registry.sync_counter("mana.detect.true_positives",
                              detection["true_positives"], "detect")
        registry.sync_counter("mana.detect.false_positives",
                              detection["false_positives"], "detect")
        registry.sync_counter("mana.detect.windows",
                              detection["window_count"], "detect")
        registry.sync_counter("mana.detect.missed",
                              len(detection["missed"]), "detect")
        if detection["missed"]:
            # Black-box evidence for every ground-truth window the
            # ensemble slept through.  Post-run (sim already stopped),
            # so the dump never perturbs the event stream.
            cell.recorder.record(
                "warning", "mana.detect.miss",
                f"{len(detection['missed'])} fault window(s) escaped "
                f"detection", faults=list(detection["missed"]))
            cell.recorder.dump(reason="mana.missed_detection",
                               fault_ids=list(detection["missed"]))
    elif cell.mana is not None:
        run["detection"] = None      # mana requested, no trainable network
    run["dumps"] = list(cell.recorder.dumps)
    if _with_state:
        return run, histogram.state()
    return run


def _run_cell(grid: Optional[dict], scenario: Scenario, seed: int, f: int,
              k: int, duration: Optional[float], _with_state: bool,
              arm_at: Optional[float], warm_key: Optional[str], mana: bool):
    """One scenario, one seed, one world: restore or build, arm, run,
    report — the body of :func:`run_scenario` and
    :func:`run_grid_scenario`."""
    run_for = duration if duration is not None else scenario.duration
    plan = scenario.build(f, k)
    if arm_at is None:
        arm_at = _plan_horizon(plan)
    arm_at = max(0.0, min(arm_at, run_for))
    cell = _restore_warm_cell(warm_key, arm_at)
    if cell is None:
        cell = _build_cell(grid, seed, f, k, dict(scenario.harness),
                           run_for, arm_at, mana=mana)
    armed = plan.arm(cell.sim, cell.world)
    cell.suite.armed = armed
    cell.sim.run(until=run_for)
    return _finish_run(cell, scenario, seed, armed, _with_state)


def run_scenario(scenario: Scenario, seed: int, f: int = 1, k: int = 1,
                 duration: Optional[float] = None,
                 _with_state: bool = False,
                 arm_at: Optional[float] = None,
                 warm_key: Optional[str] = None,
                 mana: bool = False):
    """One scenario, one seed: build, warm up, fault, monitor, report.

    The cell runs in a fixed operation order: build the world, start
    the (unarmed, read-only) monitor suite and the workload, run to
    ``arm_at`` — the *fault horizon*, by default the plan's own
    earliest action time — then arm the plan and run to the end.
    Campaign sweeps pass the horizon of the whole warm group
    explicitly, so every cell sharing a warmed world agrees
    byte-for-byte on the fault-free prefix, whether it cold-built the
    world or restored it via ``warm_key`` from the active
    :class:`~repro.snapshot.warmcache.WarmCache`.

    With ``_with_state`` the run dict is returned together with the
    raw confirm-latency histogram state, so a sweep can merge exact
    pooled quantiles instead of averaging per-run summaries.
    """
    return _run_cell(None, scenario, seed, f, k, duration, _with_state,
                     arm_at, warm_key, mana)


def run_grid_scenario(grid: dict, scenario: Scenario, seed: int,
                      duration: Optional[float] = None,
                      _with_state: bool = False,
                      arm_at: Optional[float] = None,
                      warm_key: Optional[str] = None,
                      mana: bool = False):
    """One scenario, one seed, against a :class:`~repro.grid.GridSpec`
    deployment instead of the chaos harness.

    ``grid`` is the spec's dict form (``spec.to_dict()`` — picklable
    for the sweep); ``f`` and ``k`` come from the spec.  The run dict
    matches :func:`run_scenario` plus a ``"grid"`` key with the
    physics/population summary; everything else — operation order,
    ``arm_at``/``warm_key`` warm-start contract, merge, report and
    digest — is the same path.
    """
    from repro.grid import GridSpec

    spec = GridSpec.from_dict(grid)
    return _run_cell(grid, scenario, seed, spec.f, spec.k, duration,
                     _with_state, arm_at, warm_key, mana)


def _campaign_cell(name: Optional[str] = None,
                   scenario: Optional[Scenario] = None, seed: int = 1,
                   f: int = 1, k: int = 1,
                   duration: Optional[float] = None,
                   grid: Optional[dict] = None,
                   arm_at: Optional[float] = None,
                   warm_key: Optional[str] = None,
                   mana: bool = False) -> Tuple[dict, dict]:
    """Parallel-sweep work unit: one scenario×seed cell.

    Built-in scenarios travel by name (spawn-safe); user-registered
    scenarios travel as pickled :class:`Scenario` objects.  With
    ``grid`` (a :class:`~repro.grid.GridSpec` dict) the cell runs
    against that deployment instead of the harness (``f``/``k`` are
    then the spec's — :func:`run_campaign` sets them).  ``arm_at`` pins
    the cell's fault horizon to its warm group's; ``warm_key`` names
    the group's image in the active warm cache (inherited
    copy-on-write by forked workers).  Returns the run dict plus the
    cell's confirm-latency histogram state for the report-side
    telemetry merge.
    """
    if scenario is None:
        scenario = BUILTIN_SCENARIOS[name]
    return _run_cell(grid, scenario, seed, f, k, duration, True, arm_at,
                     warm_key, mana)


def _failed_cell_run(scenario: Scenario, seed: int, error: str) -> dict:
    """Placeholder run for a cell that crashed/timed out in the sweep."""
    return {
        "scenario": scenario.name,
        "seed": seed,
        "expect": scenario.expect,
        "passed": False,
        "error": error,
        "violations": [],
        "faults": {},
        "workload": {"submitted": 0, "confirmed": 0},
        "confirm_latency": {"samples": 0},
        "dumps": [],
    }


def _campaign_config_key(names: List[str], seeds: List[int], f: int, k: int,
                         duration: Optional[float],
                         grid_dict: Optional[dict],
                         mana: bool = False) -> str:
    """Digest of everything that determines a campaign's cell results.

    A checkpoint written under one configuration must never seed a
    resume under another — cached cells would silently disagree with
    freshly computed ones.  Scenarios registered via ``extra`` are
    keyed by name only: their code is not hashable, so swapping a
    same-named scenario between runs is the caller's responsibility.
    ``cell_rev`` tracks the cell execution semantics themselves (rev 2:
    plans arm at the warm-group fault horizon instead of t=0; rev 3:
    cells may carry live MANA detection), so checkpoints from older
    builds can never mix into newer sweeps.
    """
    canonical = json.dumps(
        {"cell_rev": 3, "scenarios": list(names), "seeds": list(seeds),
         "f": f, "k": k, "duration": duration, "grid": grid_dict,
         "mana": bool(mana)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _warm_group_key(f: int, k: int, harness_json: str, run_for: float,
                    arm_at: float, grid_dict: Optional[dict],
                    seed: int, mana: bool = False) -> str:
    """Identity of one warmed world: everything that determines its
    event stream up to the snapshot point (a MANA-instrumented world
    schedules live evaluation ticks, so ``mana`` is part of it)."""
    canonical = json.dumps(
        {"f": f, "k": k, "harness": harness_json, "run_for": run_for,
         "arm_at": arm_at, "grid": grid_dict, "seed": seed,
         "mana": bool(mana)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_campaign(scenarios: Optional[List[str]] = None,
                 seeds: Optional[List[int]] = None, f: int = 1, k: int = 1,
                 duration: Optional[float] = None,
                 extra: Optional[Dict[str, Scenario]] = None,
                 jobs: int = 1, timeout: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 report: Optional[str] = None,
                 grid=None, checkpoint: Optional[str] = None,
                 resume: bool = False, warm_cache: bool = True,
                 mana: bool = False) -> dict:
    """Sweep scenarios × seeds into one resilience report.

    Args:
        scenarios: scenario names (default :data:`DEFAULT_SCENARIOS`).
        seeds: seeds to replay each scenario under (default ``[1]``;
            sorted and de-duplicated so reports are diff-stable).
        f, k: cluster sizing for every run.
        duration: per-run simulated seconds (default per scenario).
        extra: additional scenario registry entries (campaigns are a
            library: tests and users register their own scenarios).
        jobs: worker processes for the sweep (``1`` = inline).  The
            report is byte-identical for every ``jobs`` value — cells
            are seed-deterministic and merged in cell order.
        timeout: per-cell wall-clock limit (``jobs >= 2`` only); a cell
            that crashes or times out is retried once, then recorded as
            a failed run instead of stalling the sweep.
        metrics: optional registry to receive the sweep's
            ``parallel.*`` telemetry.
        report: optional path; when set, a rendered deployment report
            (:mod:`repro.obs.report`) for this campaign is written there
            (format from the extension: ``.json`` / ``.html`` /
            Markdown otherwise).  The file is byte-identical for every
            ``jobs`` value.
        grid: a :class:`~repro.grid.GridSpec` (or its dict form) to run
            every cell against instead of the chaos harness; ``f``/``k``
            then come from the spec and the report records the grid
            topology in its config block.
        checkpoint: optional path; when set, every completed cell is
            flushed there atomically (``repro.snapshot`` container,
            kind ``campaign-checkpoint``), so a crash or SIGKILL loses
            at most the cells in flight.
        resume: with ``checkpoint``, load previously completed cells
            from it and dispatch only the remainder; the final report
            is byte-identical to an uninterrupted run (cells are
            seed-deterministic and merged in cell order).  A missing
            checkpoint file starts fresh; a checkpoint written under a
            different configuration raises
            :class:`~repro.snapshot.SnapshotError`.
        warm_cache: serialize each distinct (config, seed) world once
            — at the warm group's fault horizon, always pre-arm — into
            an in-memory :class:`~repro.snapshot.warmcache.WarmCache`
            and fork every cell from the cached bytes instead of a
            cold build (default on).  Scenarios sharing a seed, harness
            options, and run length share one warmed world.  The
            report is **byte-identical** with the cache on or off, for
            every ``jobs`` value: cold cells follow the exact same
            operation order, just without the restore.
        mana: attach a live :class:`~repro.mana.detector.ManaInstance`
            to each monitored network of every cell, train it on the
            fault-free prefix, and score its alerts against the plan's
            ground-truth fault windows.  Each run gains a
            ``"detection"`` block, the report a ``"detection"``
            scorecard section (per-scenario and campaign-level
            precision / recall / FPR per clean hour / MTTD p50-p90),
            and missed windows produce flight-recorder dumps.  The
            byte-identity contract is unchanged: detector state rides
            in the warm snapshot and the scorecard is pure sim-time
            arithmetic.
    """
    report_destination = report
    grid_dict = None
    if grid is not None:
        grid_dict = grid if isinstance(grid, dict) else grid.to_dict()
        from repro.grid import GridSpec
        grid_spec = GridSpec.from_dict(grid_dict)
        f, k = grid_spec.f, grid_spec.k
    registry = dict(BUILTIN_SCENARIOS)
    if extra:
        registry.update(extra)
    names = scenarios or list(DEFAULT_SCENARIOS)
    seeds = sorted(set(seeds or [1]))
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)}; "
                       f"available: {', '.join(sorted(registry))}")
    report: dict = {
        "config": {"f": f, "k": k, "seeds": list(seeds),
                   "scenarios": list(names), "mana": bool(mana)},
        "scenarios": {},
        "passed": True,
    }
    if grid_dict is not None:
        report["config"]["grid"] = {
            "name": grid_spec.name,
            "substations": len(grid_spec.substations) or None,
            "site": grid_spec.site,
        }

    cells = [(name, seed) for name in names for seed in seeds]

    # Warm grouping: scenarios sharing harness options and run length
    # replay identical worlds per seed, so their cells share one image
    # snapshotted at the *group* fault horizon — the earliest time any
    # member scenario arms its plan.  The horizon is part of the cell's
    # semantics (cold cells arm at the same time), so it is computed
    # whether or not the cache is enabled: ``warm_cache=False`` must
    # stay byte-identical to ``warm_cache=True``.
    scenario_info: Dict[str, Tuple[Optional[str], float, float]] = {}
    group_horizon: Dict[Tuple[str, float], float] = {}
    for name in names:
        scenario = registry[name]
        run_for = duration if duration is not None else scenario.duration
        try:
            harness_json = json.dumps(scenario.harness, sort_keys=True,
                                      separators=(",", ":"))
        except (TypeError, ValueError):
            harness_json = None      # unserialisable options: no sharing
        horizon = max(0.0, min(_plan_horizon(scenario.build(f, k)), run_for))
        scenario_info[name] = (harness_json, run_for, horizon)
        if harness_json is not None:
            group = (harness_json, run_for)
            group_horizon[group] = min(group_horizon.get(group, horizon),
                                       horizon)

    # Crash-resumable sweeps: previously completed cells come from the
    # checkpoint; only the remainder is dispatched.  Failed cells are
    # never cached — a resume retries them.
    config_key = _campaign_config_key(names, seeds, f, k, duration, grid_dict,
                                      mana=mana)
    cached: Dict[str, Any] = {}
    on_result = None
    if checkpoint:
        import os

        from repro.snapshot.format import SnapshotError, dump, load

        if resume and os.path.exists(checkpoint):
            _, payload = load(checkpoint, expect_kind="campaign-checkpoint")
            if payload.get("config_key") != config_key:
                raise SnapshotError(
                    f"checkpoint {checkpoint!r} was written for a different "
                    f"campaign configuration; refusing to mix cells")
            cached = dict(payload.get("results", {}))
            known = {f"{name}:{seed}" for name, seed in cells}
            cached = {uid: value for uid, value in cached.items()
                      if uid in known}

        def on_result(result) -> None:
            if not result.ok:
                return
            cached[result.uid] = result.value
            dump(checkpoint, "campaign-checkpoint",
                 {"config_key": config_key, "results": cached},
                 meta={"completed": len(cached), "total": len(cells),
                       "f": f, "k": k})

    units = []
    warm_builds: Dict[str, Dict[str, Any]] = {}
    for name, seed in cells:
        if f"{name}:{seed}" in cached:
            continue
        harness_json, run_for, own_horizon = scenario_info[name]
        if harness_json is not None:
            arm_at = group_horizon[(harness_json, run_for)]
            warm_key = _warm_group_key(f, k, harness_json, run_for, arm_at,
                                       grid_dict, seed, mana=mana)
        else:
            arm_at, warm_key = own_horizon, None
        kwargs: Dict[str, Any] = {"seed": seed, "f": f, "k": k,
                                  "duration": duration, "arm_at": arm_at,
                                  "mana": mana}
        if warm_cache and warm_key is not None:
            kwargs["warm_key"] = warm_key
            warm_builds.setdefault(warm_key, {
                "grid": grid_dict, "seed": seed, "f": f, "k": k,
                "harness": json.loads(harness_json), "run_for": run_for,
                "arm_at": arm_at, "warm_key": warm_key, "mana": mana})
        if grid_dict is not None:
            kwargs["grid"] = grid_dict
        if name in BUILTIN_SCENARIOS and registry[name] is BUILTIN_SCENARIOS[name]:
            kwargs["name"] = name
        else:
            kwargs["scenario"] = registry[name]
        units.append(WorkUnit(fn="repro.faults.campaign:_campaign_cell",
                              kwargs=kwargs, uid=f"{name}:{seed}"))

    # Warm phase: build each group's world once (fanned out when the
    # sweep itself is parallel) and park the serialized images in the
    # process-wide cache *before* the cell pool forks, so workers
    # inherit the bytes copy-on-write.  A warm build that fails (e.g. a
    # user world that does not pickle) is simply skipped: its cells
    # cold-build, slower but identical.
    cache = None
    pool_jobs = jobs if jobs and jobs > 0 else None
    if warm_cache and warm_builds:
        from repro.snapshot import warmcache

        cache = warmcache.WarmCache()
        if pool_jobs != 1 and len(warm_builds) > 1:
            # Throwaway pool/registry: the sweep's parallel.* telemetry
            # counts campaign cells only.
            warm_pool = WorkerPool(jobs=pool_jobs, timeout=timeout,
                                   name="campaign-warm")
            warm_units = [WorkUnit(fn="repro.faults.campaign:_warm_image",
                                   kwargs=build, uid=key)
                          for key, build in warm_builds.items()]
            for result in warm_pool.run(warm_units):
                if result.ok:
                    cache.put(result.uid, result.value)
        else:
            for key, build in warm_builds.items():
                try:
                    cache.put(key, _warm_image(**build))
                except Exception:  # noqa: BLE001 - unwarmable world
                    pass
        warmcache.activate(cache)

    pool = WorkerPool(jobs=pool_jobs,
                      timeout=timeout, name="campaign", registry=metrics)
    try:
        results = pool.run(units, on_result=on_result)
    finally:
        if cache is not None:
            from repro.snapshot import warmcache
            warmcache.deactivate()
    if warm_cache and metrics is not None:
        # Parent-side accounting: hits = cells dispatched against a
        # warmed image (exact inline; forked workers inherit the same
        # cache), misses = cells that had to cold-build.  restore_s is
        # in-process deserialization time (inline runs only — forked
        # workers account in their own copies).
        hits = sum(1 for unit in units
                   if cache is not None
                   and unit.kwargs.get("warm_key") in cache)
        metrics.counter("snapshot.warmcache.hits", "campaign").inc(hits)
        metrics.counter("snapshot.warmcache.misses",
                        "campaign").inc(len(units) - hits)
        metrics.gauge("snapshot.warmcache.bytes", "campaign").set(
            cache.total_bytes if cache is not None else 0)
        metrics.gauge("snapshot.warmcache.restore_s", "campaign").set(
            cache.restore_s if cache is not None else 0.0)
    by_uid = {result.uid: result for result in results}

    campaign_latency = Histogram("prime.confirm_latency", "*")
    for name in names:
        scenario = registry[name]
        runs = []
        scenario_latency = Histogram("prime.confirm_latency", name)
        for seed in seeds:
            uid = f"{name}:{seed}"
            result = by_uid.get(uid)
            if result is None or result.ok:
                run, latency_state = (cached[uid] if result is None
                                      else result.value)
                scenario_latency.merge_state(latency_state)
                campaign_latency.merge_state(latency_state)
            else:
                run = _failed_cell_run(scenario, seed, result.error)
            runs.append(run)
        entry = {
            "expect": scenario.expect,
            "description": scenario.description,
            "runs": runs,
            "passed": all(run["passed"] for run in runs),
            "violations": sum(len(run["violations"]) for run in runs),
            "confirm_latency": scenario_latency.summary(),
        }
        report["scenarios"][name] = entry
        report["passed"] = report["passed"] and entry["passed"]
    # Pooled quantiles over every cell's raw samples (merged, not
    # averaged) — identical whichever worker produced each shard.
    report["confirm_latency"] = campaign_latency.summary()
    if mana:
        from repro.obs.scorecard import build_detection_section

        report["detection"] = build_detection_section(report)
        if metrics is not None and report["detection"] is not None:
            totals = report["detection"]["campaign"]
            metrics.counter("mana.detect.windows",
                            "campaign").inc(totals["window_count"])
            metrics.counter("mana.detect.true_positives",
                            "campaign").inc(totals["true_positives"])
            metrics.counter("mana.detect.false_positives",
                            "campaign").inc(totals["false_positives"])
            metrics.counter("mana.detect.missed",
                            "campaign").inc(totals["missed"])
    if report_destination:
        write_campaign_report(report, report_destination)
    return report


def write_campaign_report(report: dict, path: str) -> str:
    """Render a campaign report as a deployment report and write it.

    The format follows the file extension (``.json`` / ``.html``,
    Markdown otherwise).  Returns the rendered text.  The meta section
    carries only the sweep configuration — never worker counts or
    wall-clock times — so the file is a determinism witness across
    ``jobs`` values.
    """
    from repro.obs.report import build_deployment_report, render_report

    config = report.get("config", {})
    meta = {"source": "chaos campaign", "f": config.get("f"),
            "k": config.get("k"),
            "scenarios": ", ".join(config.get("scenarios", [])),
            "seeds": ", ".join(str(s) for s in config.get("seeds", []))}
    grid_info = config.get("grid")
    if grid_info:
        meta["grid"] = grid_info.get("site") or (
            f"{grid_info.get('name')} "
            f"({grid_info.get('substations')} substations)")
    document = build_deployment_report(meta=meta, campaign=report)
    if path.endswith(".json"):
        fmt = "json"
    elif path.endswith((".html", ".htm")):
        fmt = "html"
    else:
        fmt = "markdown"
    rendered = render_report(document, fmt)
    from repro.util.atomicio import write_text
    write_text(path, rendered)
    return rendered


def report_to_json(report: dict, indent: int = 2) -> str:
    """Diff-stable rendering: sorted keys at every level, fixed indent."""
    return json.dumps(report, indent=indent, sort_keys=True)


def report_digest(report: dict) -> str:
    """SHA-256 over the canonical JSON rendering of a campaign report —
    the determinism witness compared between ``jobs=1`` and ``jobs=N``
    sweeps (benchmarks, CI, tests)."""
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
