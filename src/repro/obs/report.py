"""Deployment report generator (the paper's Section V/VI artifacts).

Builds one self-contained document from a simulated deployment and/or a
resilience campaign:

* **Reaction-time distributions** — p50/p90/p99 per instrument
  (``measure.reaction_latency``, ``scada.command_reaction``,
  ``prime.confirm_latency``), the Fig. 6-style breakdown;
* **Per-hop latency decomposition** — duration quantiles per span name
  across every finished trace (HMI → overlay → Prime → master → proxy →
  PLC → HMI);
* **Recovery / fault / health timeline** — the
  :class:`~repro.obs.health.HealthBoard` transition record plus the
  notable event-log entries captured by the
  :class:`~repro.obs.recorder.FlightRecorder`;
* **Black-box dumps** — any automatic captures, from the live recorder
  or collected out of a campaign report's runs.

Every renderer is a pure function of the report dict with fixed number
formatting, and the report dict itself contains only simulated-time
quantities — so the JSON, Markdown, and HTML outputs are byte-identical
across ``--jobs`` values and across machines for the same seeds (the
same merge contract the campaign sweep engine guarantees).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.telemetry.metrics import Histogram

# The paper's reaction path, used to order per-hop rows; unknown hop
# names sort after these, alphabetically.
CANONICAL_HOPS = (
    "hmi.command", "client.submit", "overlay.deliver", "prime.order",
    "master.execute", "proxy.actuate", "plc.poll", "hmi.update",
)

REPORT_FORMATS = ("json", "markdown", "html")

_TIMELINE_CAP = 200          # rows embedded per timeline section


# ----------------------------------------------------------------------
# Section builders
# ----------------------------------------------------------------------
def trace_hop_stats(tracer) -> List[Dict[str, Any]]:
    """Per-hop duration distributions across all finished spans."""
    pools: Dict[str, Histogram] = {}
    for span in tracer.spans():
        if not span.finished:
            continue
        pool = pools.get(span.name)
        if pool is None:
            pool = pools[span.name] = Histogram(span.name)
        pool.observe(span.duration)
    order = {name: index for index, name in enumerate(CANONICAL_HOPS)}
    names = sorted(pools, key=lambda name: (order.get(name, len(order)),
                                            name))
    return [{"hop": name, **pools[name].summary()} for name in names]


def reaction_stats(sim) -> Dict[str, Any]:
    """Fig. 6-style reaction/latency distributions from the registry."""
    out = {}
    for name in ("measure.reaction_latency", "scada.command_reaction",
                 "prime.confirm_latency", "prime.order_latency",
                 "spines.delivery_latency"):
        summary = sim.metrics.merged_histogram(name).summary()
        if summary["samples"]:
            out[name] = summary
    return out


def build_plant_section(sim, recorder=None, board=None,
                        extra: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
    """Summarise one live deployment simulation into a report section."""
    section: Dict[str, Any] = {
        "simulated_seconds": sim.now,
        "events_executed": sim.events_executed,
        "reaction": reaction_stats(sim),
        "hops": trace_hop_stats(sim.tracer),
        "counters": {
            name: sim.metrics.total(name)
            for name in ("prime.updates_executed", "prime.view_changes",
                         "prime.client.retries", "net.link.frames_lost",
                         "recovery.recoveries_completed",
                         "recovery.recoveries_skipped",
                         "faults.invariant_violations")
        },
    }
    if board is not None:
        timeline = board.timeline()
        section["health"] = {
            "summary": board.summary(),
            "timeline": timeline[:_TIMELINE_CAP],
            "timeline_truncated": max(0, len(timeline) - _TIMELINE_CAP),
        }
    if recorder is not None:
        events = [
            {key: entry[key] for key in
             ("time", "severity", "source", "category", "message")}
            for entry in recorder.entries(min_severity="info")
        ]
        section["events"] = events[-_TIMELINE_CAP:]
        section["dumps"] = list(recorder.dumps)
    if extra:
        section.update(extra)
    return section


def build_grid_section(world) -> Dict[str, Any]:
    """Summarise a :class:`~repro.grid.GridWorld` run: physics state,
    replica census, and a per-substation table (breaker/energization
    census, proxy activity, voltage excursions, and end-to-end command
    reaction quantiles attributed through ``hmi.command`` span attrs)."""
    from repro.prime.replica import STATE_NORMAL

    sim = world.sim
    physics = world.physics.snapshot() if world.physics else {}
    reaction_pools: Dict[str, Histogram] = {}
    for span in sim.tracer.spans(name="hmi.command"):
        if not span.finished:
            continue
        substation = world.plc_to_substation.get(span.attrs.get("plc"))
        if substation is None:
            continue
        pool = reaction_pools.get(substation)
        if pool is None:
            pool = reaction_pools[substation] = Histogram("hmi.command",
                                                          substation)
        pool.observe(span.duration)

    substations = []
    for name in sorted(world.substations):
        sub = world.substations[name]
        closed = total = 0
        for unit in sub.units.values():
            states = unit.topology.breaker_states()
            total += len(states)
            closed += sum(1 for state in states.values() if state)
        polls = sum(getattr(proxy, "polls", 0) for proxy in sub.proxies)
        commands = sum(getattr(proxy, "commands_applied", 0)
                       for proxy in sub.proxies)
        state = physics.get("substations", {}).get(name, {})
        reaction = reaction_pools.get(name)
        summary = reaction.summary() if reaction else {"samples": 0}
        substations.append({
            "name": name,
            "region": sub.region,
            "plcs": len(sub.units),
            "breakers_closed": closed,
            "breakers": total,
            "energized_fraction": state.get("energized_fraction"),
            "voltage_kv": state.get("voltage_kv"),
            "voltage_excursions": state.get("voltage_excursions", 0),
            "proxy_polls": polls,
            "commands_applied": commands,
            "reaction": {key: summary.get(key)
                         for key in ("samples", "mean", "p50", "p90",
                                     "p99")},
        })

    replicas = list(world.replicas.values())
    section: Dict[str, Any] = {
        "name": world.spec.name,
        "simulated_seconds": sim.now,
        "events_executed": sim.events_executed,
        "replicas": {
            "total": len(replicas),
            "normal": sum(1 for replica in replicas
                          if replica.running
                          and replica.state == STATE_NORMAL),
        },
        "frequency": {
            "hz": physics.get("frequency_hz"),
            "min_hz": physics.get("min_frequency_hz"),
            "max_hz": physics.get("max_frequency_hz"),
            "excursions": physics.get("frequency_excursions", 0),
        },
        "substations": substations,
        "clients": [{
            "name": population.spec.name,
            "sessions": population.spec.sessions,
            "reads_served": population.reads_served,
            "commands_submitted": population.commands_submitted,
        } for population in world.populations],
    }
    return section


def collect_campaign_dumps(campaign: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten the black-box dumps embedded in a campaign report's runs,
    labelled with their scenario and seed (scenario order, then seed)."""
    out = []
    for name in campaign.get("config", {}).get("scenarios", []):
        entry = campaign.get("scenarios", {}).get(name, {})
        for run in entry.get("runs", []):
            for index, dump in enumerate(run.get("dumps", [])):
                out.append({"scenario": name, "seed": run.get("seed"),
                            "index": index, **dump})
    return out


def build_deployment_report(*, meta: Dict[str, Any],
                            plant: Optional[Dict[str, Any]] = None,
                            campaign: Optional[Dict[str, Any]] = None,
                            grid: Optional[Dict[str, Any]] = None
                            ) -> Dict[str, Any]:
    """Assemble the full report document from its sections."""
    report: Dict[str, Any] = {"meta": dict(meta)}
    if plant is not None:
        report["plant"] = plant
    if grid is not None:
        report["grid"] = grid
    if campaign is not None:
        report["campaign"] = campaign
        report["campaign_dumps"] = collect_campaign_dumps(campaign)
    return report


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1000:.1f}"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def _quantile_rows(stats: Dict[str, Dict[str, Any]],
                   label: str) -> List[List[str]]:
    return [[name, str(summary.get("samples", 0)),
             _ms(summary.get("mean")), _ms(summary.get("p50")),
             _ms(summary.get("p90")), _ms(summary.get("p99")),
             _ms(summary.get("max"))]
            for name, summary in sorted(stats.items())] or \
           [[f"(no {label} samples)", "0", "-", "-", "-", "-", "-"]]


def render_markdown(report: Dict[str, Any]) -> str:
    """Deterministic Markdown rendering of a deployment report."""
    meta = report.get("meta", {})
    lines = ["# Spire deployment report", ""]
    if meta:
        lines += ["| setting | value |", "|---|---|"]
        lines += [f"| {key} | {meta[key]} |" for key in sorted(meta)]
        lines.append("")

    plant = report.get("plant")
    if plant:
        lines += ["## Plant deployment", "",
                  f"Simulated {plant['simulated_seconds']:.1f} s, "
                  f"{plant['events_executed']} kernel events.", ""]
        lines += ["### Reaction-time distributions (ms)", ""]
        lines += _table(
            ["metric", "samples", "mean", "p50", "p90", "p99", "max"],
            _quantile_rows(plant.get("reaction", {}), "reaction"))
        lines.append("")
        lines += ["### Per-hop latency decomposition (ms)", ""]
        hop_rows = [[hop["hop"], str(hop.get("samples", 0)),
                     _ms(hop.get("mean")), _ms(hop.get("p50")),
                     _ms(hop.get("p90")), _ms(hop.get("p99")),
                     _ms(hop.get("max"))]
                    for hop in plant.get("hops", [])] or \
                   [["(no finished spans)", "0", "-", "-", "-", "-", "-"]]
        lines += _table(
            ["hop", "spans", "mean", "p50", "p90", "p99", "max"], hop_rows)
        lines.append("")
        counters = plant.get("counters", {})
        if counters:
            lines += ["### Counters", ""]
            lines += _table(["counter", "total"],
                            [[name, f"{counters[name]:.0f}"]
                             for name in sorted(counters)])
            lines.append("")
        health = plant.get("health")
        if health:
            counts = health["summary"]["counts"]
            lines += ["### Replica health", "",
                      "Current: " + ", ".join(
                          f"{state}={counts[state]}"
                          for state in ("healthy", "recovering", "degraded",
                                        "suspect", "down")) + ".", ""]
            rows = [[f"{entry['time']:.2f}", entry["component"],
                     f"{entry['from']} → {entry['to']}", entry["reason"]]
                    for entry in health["timeline"]]
            if rows:
                lines += _table(["t (s)", "component", "transition",
                                 "reason"], rows)
                if health.get("timeline_truncated"):
                    lines.append(f"... {health['timeline_truncated']} more "
                                 "transitions truncated.")
                lines.append("")
        events = plant.get("events")
        if events:
            lines += ["### Notable events", ""]
            lines += _table(
                ["t (s)", "severity", "source", "category", "message"],
                [[f"{e['time']:.2f}", e["severity"], e["source"],
                  e["category"], e["message"]] for e in events])
            lines.append("")
        lines += _render_dumps(plant.get("dumps", []), "plant")

    grid = report.get("grid")
    if grid:
        lines += [f"## Grid: {grid.get('name')}", "",
                  f"Simulated {grid['simulated_seconds']:.1f} s, "
                  f"{grid['events_executed']} kernel events; "
                  f"{grid['replicas']['normal']}/{grid['replicas']['total']} "
                  "replicas NORMAL.", ""]
        frequency = grid.get("frequency", {})
        if frequency.get("hz") is not None:
            lines.append(
                f"System frequency {frequency['hz']:.3f} Hz "
                f"(min {frequency['min_hz']:.3f}, "
                f"max {frequency['max_hz']:.3f}); "
                f"{frequency.get('excursions', 0)} excursion(s).")
            lines.append("")
        lines += ["### Substations", ""]
        rows = []
        for sub in grid.get("substations", []):
            fraction = sub.get("energized_fraction")
            voltage = sub.get("voltage_kv")
            reaction = sub.get("reaction", {})
            rows.append([
                sub["name"], sub["region"], str(sub["plcs"]),
                f"{sub['breakers_closed']}/{sub['breakers']}",
                "-" if fraction is None else f"{fraction:.2f}",
                "-" if voltage is None else f"{voltage:.2f}",
                str(sub.get("voltage_excursions", 0)),
                str(sub.get("proxy_polls", 0)),
                str(sub.get("commands_applied", 0)),
                str(reaction.get("samples", 0)),
                _ms(reaction.get("p50")), _ms(reaction.get("p90")),
            ])
        if rows:
            lines += _table(
                ["substation", "region", "PLCs", "breakers closed",
                 "energized", "kV", "V excursions", "polls", "cmds applied",
                 "reactions", "p50", "p90"], rows)
            lines.append("")
        clients = grid.get("clients", [])
        if clients:
            lines += ["### Client populations", ""]
            lines += _table(
                ["population", "sessions", "reads served",
                 "commands submitted"],
                [[client["name"], str(client["sessions"]),
                  str(client["reads_served"]),
                  str(client["commands_submitted"])]
                 for client in clients])
            lines.append("")

    campaign = report.get("campaign")
    if campaign:
        lines += ["## Resilience campaign", ""]
        config = campaign.get("config", {})
        lines.append(
            f"f={config.get('f')}, k={config.get('k')}, "
            f"seeds={config.get('seeds')}; campaign "
            f"{'PASSED' if campaign.get('passed') else 'FAILED'}.")
        lines.append("")
        rows = []
        for name in config.get("scenarios", []):
            entry = campaign["scenarios"][name]
            latency = entry.get("confirm_latency", {})
            rows.append([
                name, entry.get("expect", "clean"),
                str(len(entry.get("runs", []))),
                str(entry.get("violations", 0)),
                "pass" if entry.get("passed") else "FAIL",
                _ms(latency.get("p50")), _ms(latency.get("p90")),
                _ms(latency.get("p99")),
            ])
        lines += _table(["scenario", "expect", "runs", "violations",
                         "verdict", "p50", "p90", "p99"], rows)
        lines.append("")
        overall = campaign.get("confirm_latency", {})
        if overall.get("samples"):
            lines.append(
                f"Campaign confirm latency over {overall['samples']} "
                f"updates: p50 {_ms(overall.get('p50'))} ms, "
                f"p90 {_ms(overall.get('p90'))} ms, "
                f"p99 {_ms(overall.get('p99'))} ms.")
            lines.append("")
        lines += _render_detection(campaign.get("detection"),
                                   config.get("scenarios", []))
        lines += _render_dumps(report.get("campaign_dumps", []), "campaign")

    return "\n".join(lines).rstrip() + "\n"


def _rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def _detection_row(label: str, row: Dict[str, Any]) -> List[str]:
    return [label, str(row.get("window_count", 0)),
            str(row.get("detected", 0)), str(row.get("missed", 0)),
            str(row.get("true_positives", 0)),
            str(row.get("false_positives", 0)),
            _rate(row.get("precision")), _rate(row.get("recall")),
            _rate(row.get("fpr_per_clean_hour")),
            _ms(row.get("mttd_p50")), _ms(row.get("mttd_p90"))]


def _render_detection(detection: Optional[Dict[str, Any]],
                      scenario_order: List[str]) -> List[str]:
    """The Detection scorecard section: per-scenario MANA quality rows
    (from :mod:`repro.obs.scorecard`) plus the campaign-level roll-up."""
    if not detection:
        return []
    lines = ["### Detection (MANA scorecard)", ""]
    totals = detection.get("campaign", {})
    lines.append(
        f"Live MANA instances scored against ground-truth fault windows "
        f"(grace {detection.get('grace', 0.0):.1f} s): "
        f"{totals.get('detected', 0)}/{totals.get('window_count', 0)} "
        f"windows detected, {totals.get('alerts', 0)} alert(s) in "
        f"{totals.get('incidents', 0)} incident(s).")
    lines.append("")
    scenarios = detection.get("scenarios", {})
    ordered = [name for name in scenario_order if name in scenarios]
    ordered += [name for name in sorted(scenarios) if name not in ordered]
    rows = [_detection_row(name, scenarios[name]) for name in ordered]
    rows.append(_detection_row("**campaign**", totals))
    lines += _table(["scenario", "windows", "detected", "missed", "TP",
                     "FP", "precision", "recall", "FP/clean-h",
                     "MTTD p50 (ms)", "MTTD p90 (ms)"], rows)
    lines.append("")
    return lines


def _render_dumps(dumps: List[Dict[str, Any]], where: str) -> List[str]:
    if not dumps:
        return []
    lines = [f"### Black-box dumps ({where})", ""]
    rows = []
    for index, dump in enumerate(dumps):
        label = dump.get("scenario")
        label = (f"{label}/seed {dump.get('seed')}" if label
                 else f"#{index + 1}")
        rows.append([label, dump.get("reason", "?"),
                     f"{dump.get('time', 0.0):.2f}",
                     str(len(dump.get("entries", []))),
                     ", ".join(dump.get("fault_ids", [])) or "-"])
    lines += _table(["dump", "reason", "t (s)", "entries",
                     "fault ids in window"], rows)
    lines.append("")
    return lines


_HTML_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Spire deployment report</title>
<style>
body {{ font-family: ui-monospace, Menlo, Consolas, monospace;
       max-width: 100ch; margin: 2rem auto; padding: 0 1rem;
       background: #fdfdfd; color: #1a1a1a; }}
pre  {{ white-space: pre-wrap; }}
</style>
</head>
<body>
<pre>
{body}
</pre>
</body>
</html>
"""


def render_html(report: Dict[str, Any]) -> str:
    """Self-contained HTML wrapper around the Markdown rendering."""
    body = render_markdown(report)
    body = (body.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
    return _HTML_PAGE.format(body=body)


def render_report(report: Dict[str, Any], fmt: str = "markdown") -> str:
    """Render a deployment report as JSON, Markdown, or HTML."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "markdown":
        return render_markdown(report)
    if fmt == "html":
        return render_html(report)
    raise ValueError(f"unknown report format {fmt!r}; choose from "
                     f"{', '.join(REPORT_FORMATS)}")
