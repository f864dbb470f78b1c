"""Declarative grid topology: the ``GridSpec`` data model.

A :class:`GridSpec` describes an entire deployment as *data* — either a
single Spire site (the paper's plant/red-team deployments, expressed as
``site="plant"``/``site="redteam"`` plus overrides) or a federated
multi-substation grid: substations with RTU/PLC populations behind
proxies, shared Spines overlay regions, aggregate client populations
(thousands of operator sessions modeled as seeded arrival *rates*, not
one object per user), and a deterministic physics coupling layer.

Specs are plain keyword-only dataclasses with strict JSON round-trip
serialization: :meth:`GridSpec.from_dict` rejects unknown or malformed
fields with a path-qualified :class:`GridSpecError`
(``substations[2].protocol: ...``), and
``GridSpec.from_dict(spec.to_dict()) == spec`` holds for every valid
spec.  :func:`~repro.grid.world.build_world` turns a spec into a live
simulation.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.config import SpireConfig, _apply_overrides, _site_base

VALID_PROTOCOLS = ("modbus", "dnp3")
VALID_SITES = ("plant", "redteam")


class GridSpecError(ValueError):
    """A malformed grid spec.  Messages are path-qualified
    (``substations[1].rtus: ...``) so the offending field in a large
    JSON document is directly locatable."""


@dataclass(kw_only=True)
class SubstationSpec:
    """One substation: an RTU/PLC population behind a single proxy.

    ``rtus`` PLC devices each control a radial topology of ``feeders``
    feeders; all of them hang off one proxy over direct cables.
    ``load_mw`` scales with the energized-load fraction of the
    substation's topologies; ``generation_mw`` (when > 0) marks a
    generating substation whose output scales the same way.
    """

    name: str
    rtus: int = 2
    feeders: int = 2
    protocol: str = "modbus"          # "modbus" | "dnp3"
    region: str = "core"
    load_mw: float = 10.0
    generation_mw: float = 0.0
    poll_interval: float = 1.0
    heartbeat_interval: float = 4.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def _validate(self, path: str) -> None:
        _check_name(self.name, f"{path}.name")
        _check_int(self.rtus, f"{path}.rtus", minimum=1)
        _check_int(self.feeders, f"{path}.feeders", minimum=1)
        if self.protocol not in VALID_PROTOCOLS:
            raise GridSpecError(
                f"{path}.protocol: {self.protocol!r} is not one of "
                f"{', '.join(VALID_PROTOCOLS)}")
        _check_name(self.region, f"{path}.region")
        _check_number(self.load_mw, f"{path}.load_mw", minimum=0.0)
        _check_number(self.generation_mw, f"{path}.generation_mw",
                      minimum=0.0)
        _check_number(self.poll_interval, f"{path}.poll_interval",
                      minimum=1e-6)
        _check_number(self.heartbeat_interval, f"{path}.heartbeat_interval",
                      minimum=1e-6)


@dataclass(kw_only=True)
class OverlayRegionSpec:
    """One shared-Spines overlay region.

    Substations whose ``region`` names this region have their proxy
    daemons wired into a sparse ring-plus-chords mesh of roughly
    ``degree`` neighbors.  ``links`` adds explicit inter-region overlay
    edges on top of the default region ring.  ``latency`` is the
    declared one-way propagation delay of this region's overlay links in
    seconds; a delay cannot be negative, so a spec declaring one is
    refused.
    """

    name: str
    degree: int = 4
    links: Tuple[str, ...] = ()
    latency: float = 0.01

    def to_dict(self) -> dict:
        return {"name": self.name, "degree": self.degree,
                "links": list(self.links), "latency": self.latency}

    def _validate(self, path: str) -> None:
        _check_name(self.name, f"{path}.name")
        _check_int(self.degree, f"{path}.degree", minimum=2)
        if not isinstance(self.latency, (int, float)) or self.latency < 0:
            raise GridSpecError(
                f"{path}.latency must be a non-negative number, "
                f"got {self.latency!r}")
        for index, link in enumerate(self.links):
            _check_name(link, f"{path}.links[{index}]")


@dataclass(kw_only=True)
class ClientPopulationSpec:
    """An aggregate operator/HMI-client population.

    ``sessions`` concurrent sessions generate seeded Poisson arrivals:
    display reads at ``reads_per_session_hour`` (cheap, aggregated per
    tick) and supervisory commands at ``commands_per_session_hour``
    (each one a real ordered update through Prime).  ``regions`` limits
    which substations the population commands (empty = all).
    """

    name: str
    sessions: int = 100
    reads_per_session_hour: float = 60.0
    commands_per_session_hour: float = 0.5
    regions: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"name": self.name, "sessions": self.sessions,
                "reads_per_session_hour": self.reads_per_session_hour,
                "commands_per_session_hour": self.commands_per_session_hour,
                "regions": list(self.regions)}

    def _validate(self, path: str) -> None:
        _check_name(self.name, f"{path}.name")
        _check_int(self.sessions, f"{path}.sessions", minimum=0)
        _check_number(self.reads_per_session_hour,
                      f"{path}.reads_per_session_hour", minimum=0.0)
        _check_number(self.commands_per_session_hour,
                      f"{path}.commands_per_session_hour", minimum=0.0)
        for index, region in enumerate(self.regions):
            _check_name(region, f"{path}.regions[{index}]")


@dataclass(kw_only=True)
class PhysicsSpec:
    """Deterministic power-flow-ish coupling parameters.

    The physics layer is RNG-free: a shared system frequency integrates
    the grid-wide load/generation imbalance (``inertia`` MW·s per Hz,
    ``damping`` pulling back toward nominal), and per-substation bus
    voltage sags with local load shedding plus a ``coupling`` share of
    its region neighbors' deviation — so a fault in one substation
    perturbs observable state in the others.
    """

    nominal_frequency_hz: float = 60.0
    nominal_voltage_kv: float = 13.8
    inertia: float = 8.0
    damping: float = 0.4
    coupling: float = 0.25
    voltage_sag: float = 0.08
    step_interval: float = 0.5
    frequency_excursion_hz: float = 0.5
    voltage_excursion_pct: float = 5.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def _validate(self, path: str) -> None:
        _check_number(self.nominal_frequency_hz,
                      f"{path}.nominal_frequency_hz", minimum=1e-6)
        _check_number(self.nominal_voltage_kv,
                      f"{path}.nominal_voltage_kv", minimum=1e-6)
        _check_number(self.inertia, f"{path}.inertia", minimum=1e-6)
        _check_number(self.damping, f"{path}.damping", minimum=0.0)
        _check_number(self.coupling, f"{path}.coupling", minimum=0.0)
        _check_number(self.voltage_sag, f"{path}.voltage_sag", minimum=0.0)
        _check_number(self.step_interval, f"{path}.step_interval",
                      minimum=1e-6)
        _check_number(self.frequency_excursion_hz,
                      f"{path}.frequency_excursion_hz", minimum=0.0)
        _check_number(self.voltage_excursion_pct,
                      f"{path}.voltage_excursion_pct", minimum=0.0)


@dataclass(kw_only=True)
class GridSpec:
    """A complete deployment described as data.

    Exactly one of two forms:

    * **single site** — ``site="plant"`` or ``site="redteam"`` plus
      ``site_overrides`` (any :class:`~repro.core.config.SpireConfig`
      field): :func:`~repro.grid.world.build_world` delegates to
      :func:`~repro.core.spire.build_spire`, so the run is
      behavior-identical to the legacy hand-wired path.
    * **federated grid** — a non-empty ``substations`` tuple sharing one
      ``3f + 2k + 1`` replica core over region-structured Spines
      overlays, with optional client populations and the physics layer.

    ``f``/``k``/``n_hmis``/``seed``/``telemetry`` left as ``None``
    resolve to the site preset's values (site form) or to the grid
    defaults ``f=1, k=1, n_hmis=2, seed=0, telemetry=True``.
    """

    name: str
    site: Optional[str] = None
    site_overrides: Dict[str, Any] = field(default_factory=dict)
    substations: Tuple[SubstationSpec, ...] = ()
    regions: Tuple[OverlayRegionSpec, ...] = ()
    clients: Tuple[ClientPopulationSpec, ...] = ()
    physics: PhysicsSpec = field(default_factory=PhysicsSpec)
    f: Optional[int] = None
    k: Optional[int] = None
    n_hmis: Optional[int] = None
    seed: Optional[int] = None
    telemetry: Optional[bool] = None

    def __post_init__(self):
        self.substations = tuple(self.substations)
        self.regions = tuple(self.regions)
        self.clients = tuple(self.clients)
        self._validate("spec")
        self._resolve()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single_site(cls, site: str, **overrides) -> "GridSpec":
        """A single-site spec wrapping one of the paper's deployments.

        ``overrides`` are :class:`SpireConfig` fields
        (``n_distribution_plcs=3``, ``seed=7``, ``telemetry=False``,
        ...); a name that is not one raises :class:`GridSpecError`.
        """
        return cls(name=f"single-{site}", site=site,
                   site_overrides=dict(overrides))

    @classmethod
    def single_plant(cls, **overrides) -> "GridSpec":
        """The Section V plant deployment as a :class:`GridSpec`."""
        return cls.single_site("plant", **overrides)

    def spire_config(self) -> SpireConfig:
        """The resolved :class:`SpireConfig` of a single-site spec."""
        if self.site is None:
            raise GridSpecError(
                "spec: spire_config() is only defined for single-site "
                "specs (site='plant'/'redteam'); this spec is a "
                f"{len(self.substations)}-substation grid")
        config = _site_base(self.site)
        _apply_overrides(config, dict(self.site_overrides))
        config.f = self.f
        config.k = self.k
        config.n_hmis = self.n_hmis
        config.seed = self.seed
        config.telemetry = self.telemetry
        return config

    def region_of(self, substation: str) -> str:
        for sub in self.substations:
            if sub.name == substation:
                return sub.region
        raise KeyError(f"unknown substation {substation!r}")

    def resolved_regions(self) -> Tuple[OverlayRegionSpec, ...]:
        """Declared regions plus defaults for any region that is only
        referenced by a substation, sorted by name."""
        declared = {region.name: region for region in self.regions}
        for sub in self.substations:
            if sub.region not in declared:
                declared[sub.region] = OverlayRegionSpec(name=sub.region)
        return tuple(declared[name] for name in sorted(declared))

    # ------------------------------------------------------------------
    # Validation / resolution
    # ------------------------------------------------------------------
    def _validate(self, path: str) -> None:
        _check_name(self.name, f"{path}.name")
        if self.site is not None and self.substations:
            raise GridSpecError(
                f"{path}: 'site' and 'substations' are mutually exclusive "
                "(a spec is either one Spire site or a federated grid)")
        if self.site is None and not self.substations:
            raise GridSpecError(
                f"{path}: spec must set either 'site' "
                f"({', '.join(map(repr, VALID_SITES))}) or a non-empty "
                "'substations' list")
        if self.site is not None:
            if self.site not in VALID_SITES:
                raise GridSpecError(
                    f"{path}.site: {self.site!r} is not one of "
                    f"{', '.join(map(repr, VALID_SITES))}")
            if not isinstance(self.site_overrides, dict):
                raise GridSpecError(f"{path}.site_overrides: expected an "
                                    "object of SpireConfig fields")
            try:
                _apply_overrides(_site_base(self.site),
                                 dict(self.site_overrides))
            except TypeError as exc:
                raise GridSpecError(
                    f"{path}.site_overrides: {exc}") from None
        elif self.site_overrides:
            raise GridSpecError(f"{path}.site_overrides: only valid with "
                                "'site'")

        seen = set()
        for index, sub in enumerate(self.substations):
            sub_path = f"{path}.substations[{index}]"
            if not isinstance(sub, SubstationSpec):
                raise GridSpecError(f"{sub_path}: expected a substation "
                                    "object")
            sub._validate(sub_path)
            if sub.name in seen:
                raise GridSpecError(
                    f"{sub_path}.name: duplicate substation {sub.name!r}")
            seen.add(sub.name)

        region_names = set()
        for index, region in enumerate(self.regions):
            region_path = f"{path}.regions[{index}]"
            if not isinstance(region, OverlayRegionSpec):
                raise GridSpecError(f"{region_path}: expected a region "
                                    "object")
            region._validate(region_path)
            if region.name in region_names:
                raise GridSpecError(
                    f"{region_path}.name: duplicate region {region.name!r}")
            region_names.add(region.name)
        if self.regions:
            # A declared region list is closed: every reference must hit it.
            for index, sub in enumerate(self.substations):
                if sub.region not in region_names:
                    raise GridSpecError(
                        f"{path}.substations[{index}].region: "
                        f"{sub.region!r} is not a declared region "
                        f"(declared: {', '.join(sorted(region_names))})")
            for index, region in enumerate(self.regions):
                for link_index, link in enumerate(region.links):
                    if link not in region_names:
                        raise GridSpecError(
                            f"{path}.regions[{index}].links[{link_index}]: "
                            f"{link!r} is not a declared region")
        known_regions = region_names | {sub.region
                                        for sub in self.substations}
        client_names = set()
        for index, population in enumerate(self.clients):
            client_path = f"{path}.clients[{index}]"
            if not isinstance(population, ClientPopulationSpec):
                raise GridSpecError(f"{client_path}: expected a client "
                                    "population object")
            population._validate(client_path)
            if population.name in client_names:
                raise GridSpecError(f"{client_path}.name: duplicate client "
                                    f"population {population.name!r}")
            client_names.add(population.name)
            for region_index, region in enumerate(population.regions):
                if region not in known_regions:
                    raise GridSpecError(
                        f"{client_path}.regions[{region_index}]: "
                        f"{region!r} is not a known region")
        if not isinstance(self.physics, PhysicsSpec):
            raise GridSpecError(f"{path}.physics: expected a physics object")
        self.physics._validate(f"{path}.physics")
        for name, value in (("f", self.f), ("k", self.k),
                            ("n_hmis", self.n_hmis), ("seed", self.seed)):
            if value is not None:
                _check_int(value, f"{path}.{name}", minimum=0)
        if self.f is not None and self.f < 1:
            raise GridSpecError(f"{path}.f: must be >= 1")
        if self.telemetry is not None and not isinstance(self.telemetry,
                                                         bool):
            raise GridSpecError(f"{path}.telemetry: expected true/false")

    def _resolve(self) -> None:
        """Fill ``None`` sizing fields from the site preset or the grid
        defaults, so a constructed spec always carries concrete values."""
        if self.site is not None:
            base = _apply_overrides(_site_base(self.site),
                                    dict(self.site_overrides))
            defaults = {"f": base.f, "k": base.k, "n_hmis": base.n_hmis,
                        "seed": base.seed, "telemetry": base.telemetry}
        else:
            defaults = {"f": 1, "k": 1, "n_hmis": 2, "seed": 0,
                        "telemetry": True}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, value)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"name": self.name}
        if self.site is not None:
            out["site"] = self.site
            if self.site_overrides:
                out["site_overrides"] = dict(self.site_overrides)
        else:
            out["substations"] = [sub.to_dict() for sub in self.substations]
            if self.regions:
                out["regions"] = [region.to_dict()
                                  for region in self.regions]
            if self.clients:
                out["clients"] = [population.to_dict()
                                  for population in self.clients]
        out["physics"] = self.physics.to_dict()
        out.update({"f": self.f, "k": self.k, "n_hmis": self.n_hmis,
                    "seed": self.seed, "telemetry": self.telemetry})
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "GridSpec":
        if not isinstance(data, dict):
            raise GridSpecError(
                f"spec: expected a JSON object, got {_kind(data)}")
        kwargs = dict(data)
        _reject_unknown(kwargs, cls, "spec")
        for key, sub_cls in (("substations", SubstationSpec),
                             ("regions", OverlayRegionSpec),
                             ("clients", ClientPopulationSpec)):
            if key in kwargs:
                kwargs[key] = tuple(
                    _parse_child(sub_cls, item, f"spec.{key}[{index}]")
                    for index, item in
                    enumerate(_expect_list(kwargs[key], f"spec.{key}")))
        if "physics" in kwargs:
            kwargs["physics"] = _parse_child(PhysicsSpec, kwargs["physics"],
                                             "spec.physics")
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise GridSpecError(f"spec: {exc}") from None

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GridSpecError(f"spec: invalid JSON ({exc})") from None
        return cls.from_dict(data)


def load_grid_spec(path: str) -> GridSpec:
    """Read, parse, and validate a grid spec JSON file."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise GridSpecError(f"cannot read grid spec {path!r}: "
                            f"{exc.strerror or exc}") from None
    try:
        return GridSpec.from_json(text)
    except GridSpecError as exc:
        raise GridSpecError(f"{path}: {exc}") from None


def make_town_spec(n_substations: int, *, name: Optional[str] = None,
                   seed: int = 0) -> GridSpec:
    """A representative N-substation grid: regions of up to five
    substations (ring-linked), one generating substation per region,
    mixed Modbus/DNP3 RTUs, and one aggregate operator population.

    Used for the shipped example specs and the scale benchmark, so the
    generated shape is part of the determinism surface — keep edits
    deliberate.
    """
    if n_substations < 1:
        raise GridSpecError("make_town_spec: need at least one substation")
    n_regions = (n_substations + 4) // 5
    regions = tuple(OverlayRegionSpec(name=f"region-{index + 1}")
                    for index in range(n_regions))
    substations = []
    for index in range(n_substations):
        generating = index % 5 == 4
        substations.append(SubstationSpec(
            name=f"sub-{index + 1:02d}",
            rtus=2,
            feeders=2,
            protocol="dnp3" if index % 4 == 3 else "modbus",
            region=f"region-{index % n_regions + 1}",
            load_mw=8.0 + (index % 5) * 2.0,
            generation_mw=30.0 if generating else 0.0,
        ))
    clients = (ClientPopulationSpec(
        name="operators", sessions=40 * n_substations,
        reads_per_session_hour=60.0, commands_per_session_hour=0.6),)
    return GridSpec(name=name or f"town-{n_substations}",
                    substations=tuple(substations), regions=regions,
                    clients=clients, seed=seed)


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------
def _kind(value: Any) -> str:
    return type(value).__name__


def _check_name(value: Any, path: str) -> None:
    if not isinstance(value, str) or not value:
        raise GridSpecError(f"{path}: expected a non-empty string, got "
                            f"{value!r}")


def _check_int(value: Any, path: str, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise GridSpecError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise GridSpecError(f"{path}: must be >= {minimum}, got {value}")


def _check_number(value: Any, path: str, minimum: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise GridSpecError(f"{path}: expected a number, got {value!r}")
    if value < minimum:
        raise GridSpecError(f"{path}: must be >= {minimum}, got {value}")


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise GridSpecError(f"{path}: expected an array, got {_kind(value)}")
    return list(value)


def _reject_unknown(data: dict, cls, path: str) -> None:
    valid = {field_.name for field_ in dataclasses.fields(cls)}
    unknown = sorted(key for key in data if key not in valid)
    if unknown:
        raise GridSpecError(
            f"{path}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"valid fields: {', '.join(sorted(valid))}")


def _parse_child(cls, data: Any, path: str):
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise GridSpecError(f"{path}: expected an object, got {_kind(data)}")
    kwargs = dict(data)
    _reject_unknown(kwargs, cls, path)
    for key in ("links", "regions"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise GridSpecError(f"{path}: {exc}") from None
