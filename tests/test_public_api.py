"""The public API surface: everything exported by package ``__init__``
modules must import and be usable, and the structure promised by
DESIGN.md must exist."""

import importlib

import pytest

PACKAGES = [
    "repro", "repro.api", "repro.util", "repro.sim", "repro.crypto",
    "repro.net", "repro.spines", "repro.prime", "repro.diversity",
    "repro.plc", "repro.scada", "repro.mana", "repro.mana.models",
    "repro.redteam", "repro.core", "repro.telemetry", "repro.cli",
    "repro.faults", "repro.obs",
]

# The repro.api surface is a contract: additions are fine with a test
# update, but removals/renames break downstream scripts.
API_EXPORTS = {
    # Simulation kernel
    "Event", "PeriodicTimer", "Process", "SimulationError", "Simulator",
    # Declarative grid deployments
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
    "run_campaign", "run_scenario", "report_digest",
    # Observability: flight recorder, health board, deployment reports
    "FlightRecorder", "HealthBoard", "build_deployment_report",
    "build_grid_section", "render_report",
    # Parallel sweep engine
    "UnitResult", "WorkUnit", "WorkerPool",
    # Checkpoint/restore and time-travel replay
    "SnapshotError", "nearest_snapshot", "read_header", "replay_dump",
    "restore_world", "restore_world_bytes", "run_with_checkpoints",
    "save_world", "save_world_bytes",
}


# Namespaces for their submodules: a docstring and nothing else.  The
# deprecation shims that lived here (warning since PR 1) are deleted.
NAMESPACE_PACKAGES = ("repro.core", "repro.sim")


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    module = importlib.import_module(package)
    assert module is not None


@pytest.mark.parametrize("package", [p for p in PACKAGES
                                     if p not in ("repro", "repro.cli")])
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    if package in NAMESPACE_PACKAGES:
        assert not exported and not hasattr(module, "__getattr__")
        return
    assert exported, f"{package} exports nothing"
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_design_inventory_modules_exist():
    """Every subsystem DESIGN.md section 3 promises."""
    for module in [
        "repro.sim.simulator", "repro.net.switch", "repro.net.arp",
        "repro.net.firewall", "repro.net.osprofile", "repro.net.tap",
        "repro.crypto.threshold", "repro.spines.daemon",
        "repro.spines.overlay", "repro.prime.replica", "repro.prime.client",
        "repro.diversity.multicompiler", "repro.diversity.exploit",
        "repro.diversity.recovery", "repro.scada.master",
        "repro.scada.proxy", "repro.scada.hmi", "repro.scada.history",
        "repro.scada.dnp3_proxy", "repro.scada.visualization",
        "repro.plc.modbus", "repro.plc.device", "repro.plc.topology",
        "repro.plc.dnp3", "repro.mana.features", "repro.mana.detector",
        "repro.mana.alerts", "repro.redteam.attacks",
        "repro.redteam.commercial", "repro.redteam.scenarios",
        "repro.core.spire", "repro.core.deployment",
        "repro.core.measurement", "repro.faults.plan",
        "repro.faults.monitors", "repro.faults.campaign",
        "repro.obs.recorder", "repro.obs.health", "repro.obs.report",
    ]:
        importlib.import_module(module)


def test_version_string():
    import repro
    assert repro.__version__ == "1.0.0"


def test_headline_entry_points_exist():
    from repro.api import (
        GridSpec, build_redteam_testbed, build_spire, build_world,
    )
    assert callable(build_spire)
    assert callable(build_redteam_testbed)
    assert callable(build_world)
    # And the two deployment presets encode the paper's parameters.
    assert GridSpec.single_plant().spire_config().k == 1
    assert GridSpec.single_plant().spire_config().n_hmis == 3
    assert GridSpec.single_site("redteam").spire_config().k == 0


def test_legacy_config_constructors_are_gone():
    """``plant_config`` / ``redteam_config`` are deleted; the spec layer
    builds exactly what they built."""
    import repro.api
    import repro.core.config
    from repro.api import GridSpec, SpireConfig
    for name in ("plant_config", "redteam_config"):
        assert not hasattr(repro.api, name)
        assert not hasattr(repro.core.config, name)
    # What plant_config(n_hmis=1, seed=9) returned, field for field.
    assert GridSpec.single_plant(n_hmis=1, seed=9).spire_config() == (
        SpireConfig(name="plant-2018", f=1, k=1, n_distribution_plcs=10,
                    n_generation_plcs=6, physical_scenario="plant",
                    n_hmis=1, seed=9))
    assert GridSpec.single_site("redteam").spire_config() == SpireConfig(
        name="redteam-2017", f=1, k=0, n_distribution_plcs=10,
        n_generation_plcs=0, physical_scenario="redteam", n_hmis=1)


def test_api_export_snapshot():
    import repro.api
    assert set(repro.api.__all__) == API_EXPORTS
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None


def test_api_never_warns():
    import warnings

    import repro.api
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert repro.api.Simulator is not None
        assert repro.api.build_spire is not None


@pytest.mark.parametrize("package,name", [
    ("repro.core", "build_spire"),
    ("repro.core", "plant_config"),
    ("repro.core", "MeasurementDevice"),
    ("repro.core", "build_redteam_testbed"),
    ("repro.sim", "Simulator"),
    ("repro.sim", "Process"),
])
def test_legacy_paths_warn_and_resolve(package, name):
    """They did both from PR 1 on; the shims are deleted now (ROADMAP
    2c) and the test keeps its id so these six paths stay on the
    suite's floor: none resolves from the package any more, nothing
    warns, and every name still public lives in ``repro.api``."""
    import warnings

    module = importlib.import_module(package)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with pytest.raises(AttributeError):
            getattr(module, name)
    api = importlib.import_module("repro.api")
    assert hasattr(api, name) == (name != "plant_config")


def test_config_rejects_unknown_override():
    from repro.api import GridSpec, GridSpecError
    with pytest.raises(GridSpecError, match="unknown SpireConfig field"):
        GridSpec.single_plant(n_hmi=1)      # typo for n_hmis
    with pytest.raises(GridSpecError, match="unknown SpireConfig field"):
        GridSpec.single_site("redteam", n_hmi=1)


def test_build_spire_single_argument_form():
    from repro.api import GridSpec, build_spire
    system = build_spire(GridSpec.single_site(
        "redteam", n_distribution_plcs=1, seed=11,
        telemetry=False).spire_config())
    system.sim.run(until=1.0)
    assert system.sim.now == 1.0
    assert system.sim.tracer.enabled is False
