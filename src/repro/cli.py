"""Command-line interface: run the reproduction's headline scenarios.

Installed as ``spire-sim`` (see pyproject) or runnable as
``python -m repro.cli``:

* ``spire-sim quickstart`` — build a plant-configuration Spire system,
  operate a breaker, compromise a replica, show nothing breaks.
* ``spire-sim redteam``    — the full Section IV campaign with reports.
* ``spire-sim plant``      — the Section V deployment + reaction-time
  measurement, with the traced per-hop latency breakdown of one
  supervisory command (HMI → overlay → Prime → master → proxy → PLC →
  HMI update).
* ``spire-sim breach``     — the Section III-A assumption-breach
  rebuild-from-field-devices demonstration.
* ``spire-sim metrics``    — run a short scenario and export the full
  metrics registry as JSON or CSV.
* ``spire-sim chaos``      — sweep fault-injection scenarios × seeds
  under invariant monitors and emit a JSON resilience report; with
  ``--grid spec.json`` every cell runs against that grid deployment.
* ``spire-sim report``     — generate the full deployment report
  (reaction-time quantiles, per-hop latency decomposition, replica
  health timeline, black-box dumps) as JSON / Markdown / HTML; the
  output is byte-identical for every ``--jobs`` value.
* ``spire-sim grid``       — build a declarative multi-substation grid
  from a spec file, drive it through a field fault, run a chaos
  campaign against it, and emit the deployment report with the
  per-substation section (byte-identical for every ``--jobs`` value).
* ``spire-sim snapshot``   — save/inspect/restore versioned world
  snapshots (``save`` / ``info`` / ``restore``) and time-travel replay
  a FlightRecorder dump window from the nearest checkpoint
  (``replay``); restore-then-run is byte-identical to an uninterrupted
  run (see docs/persistence.md).

Every command accepts ``--seed`` (deterministic replay) and prints a
human-readable account to stdout.  An interrupted run (Ctrl-C) exits
130 after flushing what it can; ``chaos --checkpoint`` runs print the
exact ``--resume`` command line to pick up where they stopped.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def cmd_quickstart(args) -> int:
    from repro.api import GridSpec, Simulator, build_spire
    from repro.scada import render_hmi

    sim = Simulator(seed=args.seed)
    system = build_spire(sim, GridSpec.single_plant(
        n_distribution_plcs=2, n_generation_plcs=1,
        n_hmis=1).spire_config())
    sim.run(until=5.0)
    hmi = system.hmis[0]
    print(f"{system.config.name}: {system.prime_config.n} replicas, "
          f"{len(system.plcs)} PLCs")
    hmi.command_breaker("plc-physical", "B57", False)
    sim.run(until=sim.now + 2.0)
    print(render_hmi(hmi, system.physical_plc.topology, "plc-physical"))
    victim = system.replicas[system.prime_config.replica_names[0]]
    victim.byzantine = "crash"
    hmi.command_breaker("plc-physical", "B57", True)
    sim.run(until=sim.now + 3.0)
    ok = system.physical_plc.topology.get_breaker("B57") is True
    print(f"\nwith {victim.name} compromised: command "
          f"{'executed' if ok else 'FAILED'}; views consistent: "
          f"{system.master_views_consistent()}")
    return 0 if ok else 1


def cmd_redteam(args) -> int:
    from repro.api import Simulator, build_redteam_testbed
    from repro.redteam import Attacker
    from repro.redteam.scenarios import (
        run_commercial_enterprise_pivot, run_commercial_ops_mitm,
        run_spire_enterprise_probe, run_spire_excursion,
        run_spire_ops_attacks,
    )

    sim = Simulator(seed=args.seed)
    testbed = build_redteam_testbed(sim)
    testbed.start_cyclers()
    sim.run(until=6.0)
    ent = testbed.place_attacker("enterprise", "rt-ent")
    attacker = Attacker(sim, "redteam", ent)
    print(run_commercial_enterprise_pivot(testbed, attacker).render())
    ops = testbed.place_attacker("ops-commercial", "rt-ops")
    attacker.footholds[ops.name] = "root"
    print(run_commercial_ops_mitm(testbed, attacker, ops).render())
    print(run_spire_enterprise_probe(testbed, attacker).render())
    spire_box = testbed.place_attacker("ops-spire", "rt-spire")
    attacker.footholds[spire_box.name] = "root"
    print(run_spire_ops_attacks(testbed, attacker, spire_box).render())
    print(run_spire_excursion(testbed, attacker).render())
    spire_ok = not testbed.spire.physical_plc.device.compromised_config
    commercial_owned = testbed.commercial.plc.compromised_config
    print(f"\ncommercial PLC compromised: {commercial_owned}; "
          f"Spire PLC intact: {spire_ok}")
    return 0 if (spire_ok and commercial_owned) else 1


def cmd_plant(args) -> int:
    from repro.api import GridSpec, MeasurementDevice, Simulator, build_spire

    sim = Simulator(seed=args.seed)
    system = build_spire(sim, GridSpec.single_plant(
        proactive_recovery_period=15.0).spire_config())
    sim.run(until=5.0)
    system.start_proactive_recovery()
    sim.run(until=30.0)
    hmi = system.hmis[0]
    device = MeasurementDevice(
        sim, system.physical_plc.topology, "B57",
        sensors={"spire": lambda: hmi.breaker_state("plc-physical", "B57")},
        period=4.0)
    sim.run(until=sim.now + 30.0)
    stats = device.summary()["spire"]
    print(f"recoveries: {system.recovery.recoveries_completed}; "
          f"HMIs: {len(system.hmis)}; PLCs: {len(system.plcs)}")
    print(f"reaction time over {stats['samples']} flips: "
          f"mean {stats['mean']*1000:.0f} ms, "
          f"p50 {stats['p50']*1000:.0f} ms, "
          f"p90 {stats['p90']*1000:.0f} ms, "
          f"max {stats['max']*1000:.0f} ms")

    # Traced supervisory command: per-hop latency from the span chain.
    state = hmi.breaker_state("plc-physical", "B57")
    hmi.command_breaker("plc-physical", "B57", not state)
    sim.run(until=sim.now + 3.0)
    trace_id = hmi.last_trace_id()
    print()
    print(sim.tracer.format_trace(trace_id))
    confirm = sim.metrics.merged_histogram("prime.confirm_latency").summary()
    ordered = int(sim.metrics.total("prime.updates_executed"))
    print(f"\nprime: {ordered} update executions across replicas; "
          f"client confirm p50 "
          f"{confirm.get('p50', 0.0)*1000:.1f} ms over "
          f"{confirm.get('samples', 0)} submissions")
    names = set(sim.tracer.span_names(trace_id))
    complete = {"hmi.command", "overlay.deliver", "prime.order",
                "master.execute", "proxy.actuate", "plc.poll",
                "hmi.update"} <= names
    return 0 if stats["samples"] >= 5 and complete else 1


def cmd_breach(args) -> int:
    from repro.api import GridSpec, Simulator, build_spire

    sim = Simulator(seed=args.seed)
    system = build_spire(sim, GridSpec.single_plant(
        n_distribution_plcs=1, n_generation_plcs=0, n_hmis=1,
        heartbeat_interval=1.5).spire_config())
    system.enable_auto_reset(check_interval=1.0, strikes=2)
    sim.run(until=5.0)
    system.physical_plc.topology.set_breaker("B56", False)
    sim.run(until=8.0)
    lost = system.historian.wipe()
    for replica in system.replicas.values():
        replica.crash()
    sim.run(until=9.0)
    for replica in system.replicas.values():
        replica.recover()
    sim.run(until=22.0)
    hmi = system.hmis[0]
    rebuilt = hmi.breaker_state("plc-physical", "B56") is False
    print(f"resets: {system.reset_epochs}; active state rebuilt from "
          f"field devices: {rebuilt}; historian records lost forever: "
          f"{lost}")
    return 0 if rebuilt and system.reset_epochs >= 1 else 1


def cmd_metrics(args) -> int:
    from repro.api import GridSpec, Simulator, build_spire

    sim = Simulator(seed=args.seed)
    system = build_spire(sim, GridSpec.single_plant(
        n_distribution_plcs=2, n_generation_plcs=1,
        n_hmis=1).spire_config())
    sim.run(until=5.0)
    hmi = system.hmis[0]
    state = hmi.breaker_state("plc-physical", "B57")
    hmi.command_breaker("plc-physical", "B57", not state)
    sim.run(until=args.duration)
    if args.format == "csv":
        output = sim.metrics.to_csv()
    elif args.format == "traces":
        output = sim.tracer.to_json()
    else:
        output = sim.metrics.to_json()
    if args.output:
        from repro.util.atomicio import write_text
        write_text(args.output, output)
        print(f"wrote {len(output)} bytes ({len(sim.metrics)} metrics, "
              f"{len(sim.tracer)} spans) to {args.output}")
    else:
        print(output)
    return 0


def cmd_chaos(args) -> int:
    from repro.faults import (
        BUILTIN_SCENARIOS, DEFAULT_SCENARIOS, report_to_json, run_campaign,
    )

    if args.list:
        for name, scenario in sorted(BUILTIN_SCENARIOS.items()):
            marker = "violation" if scenario.expect == "violation" else "clean"
            print(f"{name:20s} [{marker:9s}] {scenario.description}")
        return 0
    names = ([name.strip() for name in args.scenarios.split(",") if name.strip()]
             if args.scenarios else list(DEFAULT_SCENARIOS))
    seeds = [args.seed + offset for offset in range(args.seeds)]
    grid = None
    if args.grid:
        from repro.grid import load_grid_spec
        grid = load_grid_spec(args.grid)
    report = run_campaign(scenarios=names, seeds=seeds, f=args.f, k=args.k,
                          duration=args.duration, jobs=args.jobs,
                          timeout=args.timeout, report=args.report,
                          grid=grid, checkpoint=args.checkpoint,
                          resume=args.resume, warm_cache=args.warm_cache,
                          mana=args.mana)
    output = report_to_json(report)
    if args.output:
        from repro.util.atomicio import write_text
        write_text(args.output, output + "\n")
    else:
        print(output)
    if args.report:
        print(f"# deployment report: {args.report}", file=sys.stderr)
    if args.dumps_dir:
        written = _write_dumps(report, args.dumps_dir)
        print(f"# black-box dumps: {written} file(s) in {args.dumps_dir}",
              file=sys.stderr)
    for name, entry in report["scenarios"].items():
        verdict = "pass" if entry["passed"] else "FAIL"
        print(f"# {name}: {verdict} ({entry['expect']}, "
              f"{entry['violations']} violation(s) across "
              f"{len(entry['runs'])} run(s))", file=sys.stderr)
    detection = report.get("detection")
    if detection:
        totals = detection["campaign"]
        fmt = lambda v: "-" if v is None else f"{v:.3f}"  # noqa: E731
        print(f"# detection: {totals['detected']}/{totals['window_count']} "
              f"windows, precision {fmt(totals['precision'])}, "
              f"recall {fmt(totals['recall'])}, "
              f"FP/clean-h {fmt(totals['fpr_per_clean_hour'])}",
              file=sys.stderr)
    print(f"# campaign: {'PASS' if report['passed'] else 'FAIL'}",
          file=sys.stderr)
    return 0 if report["passed"] else 1


def _write_dumps(report: dict, directory: str) -> int:
    """Write each black-box dump of a campaign report as one JSON file
    (``<scenario>-seed<seed>-<index>.json``) for CI artifact upload."""
    import json

    from repro.obs import collect_campaign_dumps
    from repro.util.atomicio import write_text

    os.makedirs(directory, exist_ok=True)
    dumps = collect_campaign_dumps(report)
    for dump in dumps:
        filename = (f"{dump['scenario']}-seed{dump['seed']}-"
                    f"{dump['index']}.json")
        write_text(os.path.join(directory, filename),
                   json.dumps(dump, indent=2, sort_keys=True) + "\n")
    return len(dumps)


def cmd_report(args) -> int:
    from repro.api import GridSpec, MeasurementDevice, Simulator, build_spire
    from repro.faults import DEFAULT_SCENARIOS, run_campaign
    from repro.obs import (
        FlightRecorder, HealthBoard, build_deployment_report,
        build_plant_section, render_report,
    )

    # The meta section records only simulation inputs — never --jobs,
    # wall-clock times, or hostnames — so every rendering is a
    # determinism witness across worker counts and machines.
    meta = {"generator": "spire-sim report", "seed": args.seed}

    plant = None
    if not args.skip_plant:
        plant_until = max(args.plant_duration, 12.0)
        sim = Simulator(seed=args.seed)
        system = build_spire(sim, GridSpec.single_plant(
            proactive_recovery_period=15.0).spire_config())
        recorder = FlightRecorder(sim, snapshot_interval=5.0,
                                  window=plant_until)
        board = HealthBoard(sim).watch_replicas(system.replicas)
        sim.run(until=5.0)
        system.start_proactive_recovery()
        hmi = system.hmis[0]
        MeasurementDevice(
            sim, system.physical_plc.topology, "B57",
            sensors={"spire": lambda: hmi.breaker_state("plc-physical",
                                                        "B57")},
            period=4.0)
        # One traced supervisory command near the end feeds the per-hop
        # latency decomposition without disturbing the measurement run.
        sim.run(until=plant_until - 3.0)
        state = hmi.breaker_state("plc-physical", "B57")
        hmi.command_breaker("plc-physical", "B57", not state)
        sim.run(until=plant_until)
        recorder.flush_metrics()
        plant = build_plant_section(sim, recorder=recorder, board=board)
        meta["plant_duration"] = plant_until

    campaign = None
    if not args.skip_campaign:
        names = ([name.strip() for name in args.scenarios.split(",")
                  if name.strip()]
                 if args.scenarios else list(DEFAULT_SCENARIOS))
        seeds = [args.seed + offset for offset in range(args.seeds)]
        campaign = run_campaign(scenarios=names, seeds=seeds, f=args.f,
                                k=args.k, duration=args.duration,
                                jobs=args.jobs, timeout=args.timeout)
        meta["campaign"] = (f"{len(names)} scenario(s) x "
                            f"{len(seeds)} seed(s)")

    report = build_deployment_report(meta=meta, plant=plant,
                                     campaign=campaign)
    written = []
    for path, fmt in ((args.output, "json"), (args.markdown, "markdown"),
                      (args.html, "html")):
        if path:
            from repro.util.atomicio import write_text
            write_text(path, render_report(report, fmt))
            written.append(path)
    if written:
        print(f"# wrote {', '.join(written)}", file=sys.stderr)
    else:
        print(render_report(report, "markdown"), end="")
    return 0 if campaign is None or campaign["passed"] else 1


def cmd_grid(args) -> int:
    from repro.api import build_world, load_grid_spec, make_town_spec
    from repro.faults import run_campaign
    from repro.obs import (
        build_deployment_report, build_grid_section, render_report,
    )

    spec = (load_grid_spec(args.spec) if args.spec
            else make_town_spec(args.substations, seed=args.seed))

    # Live run: steady supervisory workload, then a deterministic field
    # fault — trip a generating substation mid-run, restore it later —
    # so the per-substation section shows cross-substation physics.
    duration = max(args.duration, 12.0)
    world = build_world(spec, seed=args.seed)
    world.start_workload(max(int((duration - 4.0) / 0.6), 6),
                         start=0.3, interval=0.6)
    names = sorted(world.substations)
    generating = [name for name in names
                  if world.substations[name].generation_mw > 0]
    fault_sub = generating[0] if generating else names[0]
    world.run(until=duration / 3.0)
    opened = world.trip_substation(fault_sub)
    world.run(until=2.0 * duration / 3.0)
    world.restore_substation(fault_sub)
    world.run(until=duration)
    grid_section = build_grid_section(world)
    summary = world.grid_summary()
    print(f"# {spec.name}: {summary['substations']} substation(s), "
          f"{len(world.replicas)} replicas, {len(world.hmis)} HMIs, "
          f"{len(world.populations)} client population(s)", file=sys.stderr)
    print(f"# field fault: tripped {fault_sub} ({opened} breaker(s)) at "
          f"t={duration / 3.0:.1f}s, restored at "
          f"t={2.0 * duration / 3.0:.1f}s", file=sys.stderr)
    print(f"# frequency: {summary['frequency_hz']:.3f} Hz (min "
          f"{summary['min_frequency_hz']:.3f}), "
          f"{summary['frequency_excursions']} frequency / "
          f"{summary['voltage_excursions']} voltage excursion(s)",
          file=sys.stderr)

    # The meta section records only simulation inputs — never --jobs or
    # wall-clock data — so the report stays a determinism witness.
    meta = {"generator": "spire-sim grid", "seed": args.seed,
            "spec": spec.name, "duration": duration,
            "fault_substation": fault_sub}
    campaign = None
    if not args.skip_campaign:
        scenario_names = ([name.strip() for name in
                           args.scenarios.split(",") if name.strip()]
                          if args.scenarios else ["baseline", "partition"])
        seeds = [args.seed + offset for offset in range(args.seeds)]
        campaign = run_campaign(scenarios=scenario_names, seeds=seeds,
                                duration=args.campaign_duration,
                                jobs=args.jobs, timeout=args.timeout,
                                grid=spec)
        meta["campaign"] = (f"{len(scenario_names)} scenario(s) x "
                            f"{len(seeds)} seed(s)")
        for name, entry in campaign["scenarios"].items():
            verdict = "pass" if entry["passed"] else "FAIL"
            print(f"# {name}: {verdict} ({entry['violations']} "
                  f"violation(s))", file=sys.stderr)
        print(f"# campaign: {'PASS' if campaign['passed'] else 'FAIL'}",
              file=sys.stderr)

    report = build_deployment_report(meta=meta, grid=grid_section,
                                     campaign=campaign)
    written = []
    for path, fmt in ((args.output, "json"), (args.markdown, "markdown"),
                      (args.html, "html")):
        if path:
            from repro.util.atomicio import write_text
            write_text(path, render_report(report, fmt))
            written.append(path)
    if written:
        print(f"# wrote {', '.join(written)}", file=sys.stderr)
    else:
        print(render_report(report, "markdown"), end="")
    return 0 if campaign is None or campaign["passed"] else 1


def _snapshot_build_world(args):
    """Grid world for ``snapshot save``: spec file or generated town,
    with the standard supervisory workload (the same shape as
    ``spire-sim grid``) so snapshots capture a live system, not an idle
    one."""
    from repro.api import build_world, load_grid_spec, make_town_spec

    spec = (load_grid_spec(args.spec) if args.spec
            else make_town_spec(args.substations, seed=args.seed))
    world = build_world(spec, seed=args.seed)
    # Workload size is fixed (never derived from --until): a snapshot
    # saved at T/2 must restore into *exactly* the world a straight run
    # to T inhabits, whatever T each invocation used.
    world.start_workload(args.commands, start=0.3, interval=0.6)
    return spec, world


def cmd_snapshot(args) -> int:
    import json

    from repro.snapshot import (
        nearest_snapshot, read_header, replay_dump, restore_world,
        run_with_checkpoints, save_world,
    )

    if args.action == "info":
        header = read_header(args.path)
        print(json.dumps(header, indent=2, sort_keys=True))
        return 0

    if args.action == "save":
        spec, world = _snapshot_build_world(args)
        written = []
        if args.every:
            written = run_with_checkpoints(world, args.until, args.dir,
                                           args.every, prefix=spec.name)
        else:
            world.run(until=args.until)
        if args.output:
            save_world(args.output, world)
            written.append(args.output)
        digest = world.sim.event_digest()
        print(f"# {spec.name} seed {args.seed}: ran to t={args.until:g}, "
              f"event digest {digest}", file=sys.stderr)
        for path in written:
            print(path)
        return 0

    if args.action == "restore":
        header = read_header(args.path)
        world = restore_world(args.path)
        if args.until is not None:
            world.run(until=args.until)
        print(f"# restored {args.path} "
              f"(saved at t={header['meta'].get('now', 0.0):g}), "
              f"ran to t={world.sim.now:g}", file=sys.stderr)
        print(f"event digest {world.sim.event_digest()}")
        return 0

    if args.action == "replay":
        with open(args.dump) as handle:
            dump_doc = json.load(handle)
        window = dump_doc.get("window") or {}
        since = window.get("since")
        if since is None:
            print(f"# {args.dump}: no replay window in dump",
                  file=sys.stderr)
            return 2
        found = nearest_snapshot(args.dir, since)
        if found is None:
            print(f"# no snapshots in {args.dir}", file=sys.stderr)
            return 2
        snapshot, header = found
        print(f"# replaying window [{since:g}, {window.get('until'):g}] "
              f"from {snapshot} (t={header['meta'].get('now', 0.0):g})",
              file=sys.stderr)
        replayed = replay_dump(dump_doc, snapshot, capacity=args.capacity)
        output = json.dumps(replayed, indent=2, sort_keys=True) + "\n"
        if args.output:
            from repro.util.atomicio import write_text
            write_text(args.output, output)
            print(f"# wrote {args.output} "
                  f"({len(replayed.get('entries', []))} entries)",
                  file=sys.stderr)
        else:
            print(output, end="")
        return 0

    raise ValueError(f"unknown snapshot action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spire-sim",
        description="Reproduction of 'Deploying Intrusion-Tolerant SCADA "
                    "for the Power Grid' (DSN 2019)")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulation seed (deterministic replay)")
    # --seed is also accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                      help="simulation seed (deterministic replay)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("quickstart", parents=[seed],
                   help="build and operate a Spire system")
    sub.add_parser("redteam", parents=[seed],
                   help="run the Section IV red-team campaign")
    sub.add_parser("plant", parents=[seed],
                   help="run the Section V plant deployment")
    sub.add_parser("breach", parents=[seed],
                   help="run the Section III-A breach rebuild")
    metrics = sub.add_parser(
        "metrics", parents=[seed],
        help="run a short scenario and export telemetry")
    metrics.add_argument("--format", choices=["json", "csv", "traces"],
                         default="json",
                         help="export metrics as JSON/CSV, or span dumps")
    metrics.add_argument("--duration", type=float, default=10.0,
                         help="simulated seconds to run before exporting")
    metrics.add_argument("--output", default=None,
                         help="write to a file instead of stdout")
    chaos = sub.add_parser(
        "chaos", parents=[seed],
        help="run a fault-injection resilience campaign")
    chaos.add_argument("--scenarios", default=None,
                       help="comma-separated scenario names "
                            "(default: the standard sweep)")
    chaos.add_argument("--seeds", type=int, default=1,
                       help="number of seeds per scenario, counting up "
                            "from --seed")
    chaos.add_argument("--f", type=int, default=1,
                       help="tolerated intrusions (replicas = 3f+2k+1)")
    chaos.add_argument("--k", type=int, default=1,
                       help="tolerated simultaneous recoveries")
    chaos.add_argument("--duration", type=float, default=None,
                       help="simulated seconds per run (default: "
                            "per-scenario)")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (0 = all "
                            "cores); the report is byte-identical for "
                            "any --jobs value")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-cell wall-clock limit in seconds "
                            "(crashed/overdue cells are retried once, "
                            "then reported failed; needs --jobs >= 2)")
    chaos.add_argument("--output", default=None,
                       help="write the JSON report to a file")
    chaos.add_argument("--report", default=None,
                       help="also write a rendered deployment report "
                            "(format from the extension: .json/.html/"
                            "Markdown)")
    chaos.add_argument("--dumps-dir", default=None,
                       help="write each black-box dump as a JSON file "
                            "into this directory")
    chaos.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")
    chaos.add_argument("--grid", default=None, metavar="SPEC",
                       help="run every cell against the grid deployment "
                            "described by this GridSpec JSON file "
                            "(overrides --f/--k with the spec's values)")
    chaos.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="flush every completed cell to this file "
                            "(atomically), so a crashed or interrupted "
                            "sweep loses at most the cells in flight")
    chaos.add_argument("--resume", action="store_true",
                       help="with --checkpoint: load completed cells "
                            "and dispatch only the remainder; the final "
                            "report is byte-identical to an "
                            "uninterrupted run")
    chaos.add_argument("--warm-cache", default=True,
                       action=argparse.BooleanOptionalAction,
                       help="snapshot each distinct (config, seed) world "
                            "once and fork every cell from the cached "
                            "bytes; --no-warm-cache cold-builds every "
                            "cell (the report is byte-identical either "
                            "way)")
    chaos.add_argument("--mana", action="store_true",
                       help="attach a live MANA IDS instance per "
                            "monitored network in every cell and score "
                            "its alerts against ground-truth fault "
                            "windows (adds the Detection section to the "
                            "report: precision/recall/FPR/MTTD)")
    report = sub.add_parser(
        "report", parents=[seed],
        help="generate the deployment report (reaction quantiles, "
             "per-hop latency, health timeline, black-box dumps)")
    report.add_argument("--plant-duration", type=float, default=40.0,
                        help="simulated seconds for the plant deployment "
                             "section (min 12)")
    report.add_argument("--skip-plant", action="store_true",
                        help="omit the plant deployment section")
    report.add_argument("--skip-campaign", action="store_true",
                        help="omit the resilience campaign section")
    report.add_argument("--scenarios", default=None,
                        help="comma-separated campaign scenario names "
                             "(default: the standard sweep)")
    report.add_argument("--seeds", type=int, default=1,
                        help="number of campaign seeds per scenario, "
                             "counting up from --seed")
    report.add_argument("--f", type=int, default=1,
                        help="tolerated intrusions (replicas = 3f+2k+1)")
    report.add_argument("--k", type=int, default=1,
                        help="tolerated simultaneous recoveries")
    report.add_argument("--duration", type=float, default=None,
                        help="simulated seconds per campaign run "
                             "(default: per-scenario)")
    report.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the campaign sweep "
                             "(0 = all cores); the report is "
                             "byte-identical for any --jobs value")
    report.add_argument("--timeout", type=float, default=None,
                        help="per-cell wall-clock limit in seconds "
                             "(needs --jobs >= 2)")
    report.add_argument("--output", default=None,
                        help="write the JSON report to a file")
    report.add_argument("--markdown", default=None,
                        help="write the Markdown rendering to a file")
    report.add_argument("--html", default=None,
                        help="write the HTML rendering to a file")
    grid = sub.add_parser(
        "grid", parents=[seed],
        help="build a declarative multi-substation grid, fault it, "
             "campaign it, and emit the deployment report")
    grid.add_argument("--spec", default=None,
                      help="GridSpec JSON file (see examples/town5.json); "
                           "default: a generated town of --substations")
    grid.add_argument("--substations", type=int, default=5,
                      help="size of the generated town when no --spec is "
                           "given")
    grid.add_argument("--duration", type=float, default=18.0,
                      help="simulated seconds for the live grid run "
                           "(min 12; the field fault hits at 1/3 and "
                           "clears at 2/3)")
    grid.add_argument("--skip-campaign", action="store_true",
                      help="omit the chaos campaign section")
    grid.add_argument("--scenarios", default=None,
                      help="comma-separated campaign scenario names "
                           "(default: baseline,partition)")
    grid.add_argument("--seeds", type=int, default=1,
                      help="number of campaign seeds per scenario, "
                           "counting up from --seed")
    grid.add_argument("--campaign-duration", type=float, default=12.0,
                      help="simulated seconds per campaign run")
    grid.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the campaign sweep "
                           "(0 = all cores); the report is byte-identical "
                           "for any --jobs value")
    grid.add_argument("--timeout", type=float, default=None,
                      help="per-cell wall-clock limit in seconds "
                           "(needs --jobs >= 2)")
    grid.add_argument("--output", default=None,
                      help="write the JSON report to a file")
    grid.add_argument("--markdown", default=None,
                      help="write the Markdown rendering to a file")
    grid.add_argument("--html", default=None,
                      help="write the HTML rendering to a file")
    snap = sub.add_parser(
        "snapshot", parents=[seed],
        help="save/inspect/restore world snapshots and time-travel "
             "replay a recorder dump window (see docs/persistence.md)")
    snap_sub = snap.add_subparsers(dest="action", required=True)
    snap_save = snap_sub.add_parser(
        "save", parents=[seed],
        help="run a grid world and snapshot it (optionally periodically)")
    snap_save.add_argument("--spec", default=None,
                           help="GridSpec JSON file (default: a generated "
                                "town of --substations)")
    snap_save.add_argument("--substations", type=int, default=3,
                           help="size of the generated town when no "
                                "--spec is given")
    snap_save.add_argument("--until", type=float, default=6.0,
                           help="simulated seconds to run before the "
                                "final snapshot")
    snap_save.add_argument("--commands", type=int, default=10,
                           help="supervisory workload size; fixed rather "
                                "than derived from --until, so runs of "
                                "the same spec/seed stay byte-comparable "
                                "across different --until values")
    snap_save.add_argument("--output", default=None,
                           help="write the final snapshot here")
    snap_save.add_argument("--every", type=float, default=None,
                           help="also checkpoint every EVERY simulated "
                                "seconds into --dir (time-travel replay "
                                "needs such a directory)")
    snap_save.add_argument("--dir", default="snapshots",
                           help="checkpoint directory for --every "
                                "(default: snapshots/)")
    snap_info = snap_sub.add_parser(
        "info", help="print a snapshot's header without loading it")
    snap_info.add_argument("path", help="snapshot file")
    snap_restore = snap_sub.add_parser(
        "restore", parents=[seed],
        help="restore a snapshot, optionally run it further, and print "
             "the event digest (the determinism witness)")
    snap_restore.add_argument("path", help="snapshot file")
    snap_restore.add_argument("--until", type=float, default=None,
                              help="run the restored world to this "
                                   "simulated time first")
    snap_replay = snap_sub.add_parser(
        "replay", parents=[seed],
        help="re-run a FlightRecorder dump's window from the nearest "
             "checkpoint with full debug-severity capture")
    snap_replay.add_argument("--dump", required=True,
                             help="dump JSON file (e.g. from "
                                  "chaos --dumps-dir or a recorder dump)")
    snap_replay.add_argument("--dir", required=True,
                             help="checkpoint directory written by "
                                  "'snapshot save --every' for the same "
                                  "spec and seed")
    snap_replay.add_argument("--capacity", type=int, default=65536,
                             help="replay recorder ring capacity")
    snap_replay.add_argument("--output", default=None,
                             help="write the replay dump JSON here "
                                  "instead of stdout")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.grid.spec import GridSpecError
    from repro.snapshot.format import SnapshotError

    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    handler = {"quickstart": cmd_quickstart, "redteam": cmd_redteam,
               "plant": cmd_plant, "breach": cmd_breach,
               "metrics": cmd_metrics, "chaos": cmd_chaos,
               "report": cmd_report, "grid": cmd_grid,
               "snapshot": cmd_snapshot}[args.command]
    try:
        return handler(args)
    except (GridSpecError, SnapshotError) as exc:
        # Bad input, not a bug: one line and argparse's usage status.
        print(f"spire-sim: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (`spire-sim ... | head`): not an error.
        # Detach stdout so the interpreter's shutdown flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        # No traceback on Ctrl-C: completed campaign cells are already
        # on disk (the checkpoint is rewritten atomically per cell), so
        # all the user needs is the command line that picks them up.
        print("\n# interrupted", file=sys.stderr)
        if getattr(args, "checkpoint", None):
            resume_argv = list(argv)
            if "--resume" not in resume_argv:
                resume_argv.append("--resume")
            print(f"# completed cells saved in {args.checkpoint}; "
                  f"resume with:", file=sys.stderr)
            print(f"#   spire-sim {' '.join(resume_argv)}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
