"""Spire deployment configuration.

Captures the two deployments from the paper:

* site ``"redteam"`` — 4 replicas (f=1, k=0, no automatic proactive
  recovery), one physical PLC running the Fig. 4 topology, ten emulated
  distribution PLCs, one HMI.
* site ``"plant"`` — 6 replicas (f=1, k=1, proactive recovery with
  bounded delay), one physical PLC on the plant subset (B10-1, B57,
  B56), ten distribution + six generation PLCs, three HMIs (the plant
  had HMIs in three locations).

The presets are reached through the declarative spec layer:
``GridSpec.single_site("plant", ...).spire_config()`` (see
:mod:`repro.grid`) resolves to the :class:`SpireConfig` of a site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prime.config import PrimeTiming


@dataclass(kw_only=True)
class SpireConfig:
    """Parameters of one Spire deployment.

    All fields are keyword-only: deployments are described by name, not
    by position.  ``seed`` and ``telemetry`` are consumed by
    :func:`~repro.core.spire.build_spire` when it creates the simulator
    itself (the one-argument form).
    """

    name: str
    f: int = 1
    k: int = 1
    n_distribution_plcs: int = 10
    n_generation_plcs: int = 0
    generation_protocol: str = "modbus"       # "modbus" | "dnp3"
    physical_scenario: str = "redteam"        # "redteam" | "plant" | "none"
    n_hmis: int = 1
    with_historian: bool = True
    poll_interval: float = 0.25
    heartbeat_interval: float = 2.0
    harden_networks: bool = True
    use_threshold_directives: bool = False
    diversify: bool = True
    strip_symbols: bool = True
    compile_in_options: bool = True
    proactive_recovery_period: float = 20.0
    proactive_recovery_downtime: float = 1.0
    timing: PrimeTiming = field(default_factory=PrimeTiming)
    internal_cidr: str = "192.168.101.0/24"
    external_cidr: str = "192.168.102.0/24"
    seed: int = 0
    telemetry: bool = True


def _apply_overrides(base: SpireConfig, overrides: dict) -> SpireConfig:
    valid = {f.name for f in base.__dataclass_fields__.values()}
    for key, value in overrides.items():
        if key not in valid:
            raise TypeError(
                f"unknown SpireConfig field {key!r}; valid fields: "
                f"{', '.join(sorted(valid))}")
        setattr(base, key, value)
    return base


def _site_base(site: str) -> SpireConfig:
    """The preset :class:`SpireConfig` of one of the paper's sites
    (single-site :class:`~repro.grid.spec.GridSpec` objects resolve
    through this)."""
    if site == "redteam":
        return SpireConfig(name="redteam-2017", f=1, k=0,
                           n_distribution_plcs=10, n_generation_plcs=0,
                           physical_scenario="redteam", n_hmis=1)
    if site == "plant":
        return SpireConfig(name="plant-2018", f=1, k=1,
                           n_distribution_plcs=10, n_generation_plcs=6,
                           physical_scenario="plant", n_hmis=3)
    raise ValueError(f"unknown site {site!r}; choose 'plant' or 'redteam'")
