"""The single public entry point for the reproduction.

Everything a script, notebook, benchmark, or test needs to stand up a
deployment and observe it lives here.  Deployments are described
declaratively by a :class:`GridSpec` — a single paper site or a
federated multi-substation grid — and built with :func:`build_world`::

    from repro.api import GridSpec, build_world

    world = build_world(GridSpec.single_plant(seed=7))
    world.run(until=10.0)
    print(world.sim.metrics.to_csv())

:class:`SpireConfig` remains the single-site special case
(``GridSpec.single_plant().spire_config()`` and
``GridSpec.single_site("redteam").spire_config()`` resolve to one).

The ``repro.core`` / ``repro.sim`` packages re-export nothing; deep
module paths (``repro.core.spire``, ``repro.sim.simulator``, ...) are
the stable internal layout.
"""

from __future__ import annotations

from repro.core.config import SpireConfig
from repro.grid import (
    ClientPopulationSpec, GridPhysics, GridSpec, GridSpecError, GridWorld,
    OverlayRegionSpec, PhysicsSpec, SubstationSpec, build_world,
    load_grid_spec, make_town_spec,
)
from repro.core.deployment import (
    BreakerCycler, EnterpriseChatter, RedTeamTestbed, build_redteam_testbed,
)
from repro.core.measurement import MeasurementDevice, ReactionSample
from repro.core.spire import PlcUnit, SpireSystem, build_spire
from repro.faults import (
    ChaosHarness, FaultPlan, MonitorSuite, Scenario, Violation,
    report_digest, run_campaign, run_scenario,
)
from repro.obs import (
    FlightRecorder, HealthBoard, build_deployment_report,
    build_grid_section, render_report,
)
from repro.parallel import UnitResult, WorkerPool, WorkUnit
from repro.snapshot import (
    SnapshotError, nearest_snapshot, read_header, replay_dump,
    restore_world, restore_world_bytes, run_with_checkpoints, save_world,
    save_world_bytes,
)
from repro.sim.process import Process
from repro.sim.simulator import (
    Event, PeriodicTimer, SimulationError, Simulator,
)
from repro.telemetry import (
    Counter, Gauge, Histogram, Metric, MetricsRegistry, Span, TraceContext,
    Tracer,
)

__all__ = [
    # Simulation kernel
    "Event", "PeriodicTimer", "Process", "SimulationError", "Simulator",
    # Declarative grid deployments (the primary construction path)
    "ClientPopulationSpec", "GridPhysics", "GridSpec", "GridSpecError",
    "GridWorld", "OverlayRegionSpec", "PhysicsSpec", "SubstationSpec",
    "build_world", "load_grid_spec", "make_town_spec",
    # Deployment configuration and builders
    "SpireConfig",
    "PlcUnit", "SpireSystem", "build_spire",
    "BreakerCycler", "EnterpriseChatter", "RedTeamTestbed",
    "build_redteam_testbed",
    # Measurement and telemetry
    "MeasurementDevice", "ReactionSample",
    "Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry",
    "Span", "TraceContext", "Tracer",
    # Fault injection and resilience campaigns
    "ChaosHarness", "FaultPlan", "MonitorSuite", "Scenario", "Violation",
    "report_digest", "run_campaign", "run_scenario",
    # Observability: flight recorder, health board, deployment reports
    "FlightRecorder", "HealthBoard", "build_deployment_report",
    "build_grid_section", "render_report",
    # Parallel sweep engine
    "UnitResult", "WorkerPool", "WorkUnit",
    # Checkpoint/restore and time-travel replay
    "SnapshotError", "nearest_snapshot", "read_header", "replay_dump",
    "restore_world", "restore_world_bytes", "run_with_checkpoints",
    "save_world", "save_world_bytes",
]
