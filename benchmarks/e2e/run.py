#!/usr/bin/env python3
"""End-to-end + per-layer benchmark driver (definitions: README.md).

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--json PATH] [--aa]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, one
after the other.  Each measurement happens in a fresh subprocess of this
same file (``--worker``), single-threaded, so ``ru_maxrss``, import
time and the process-wide crypto caches belong to one workload only:

* ``--trace 0`` (default): a worker sets up, runs the timed window and
  checks its outputs; a workload with ``replicas > 1`` does so in that
  many workers, one after the other, on the same inputs, for one
  result.  Prints the end-to-end metrics.
* ``--trace 1``: one untraced and one traced worker on the same inputs
  over the shorter traced horizon.  Prints the per-layer metrics.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is
non-zero when a check fails or the program cannot be measured at all.
``--aa`` runs everything twice on the same code and reports whether the
two sets agree within the bounds ``BENCHMARK.json`` states; a pairing
with a noisy run (cpu/wall below 0.9) is unresolved, not agreed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
#: Below this cpu/wall the window shared its core; the number is not clean.
NOISY_BELOW = 0.9
#: One driver invocation must end within 180 s; leave room to report.
DEADLINE_S = 170.0
#: Workers run with a fixed string-hash seed: set and dict layouts (and
#: with them allocation patterns and pickle order) then repeat from
#: process to process, which halved the run-to-run spread of
#: town5_ckpt_chain.  Simulated results do not depend on it.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
ADDR_NO_RANDOMIZE = 0x0040000      # <sys/personality.h>


def _fixed_address_space() -> None:
    """In the forked worker, before exec: switch address-space layout
    randomisation off.  With the hash seed fixed too, the same inputs
    then give the same heap layout, page faults and ``ru_maxrss`` in
    every process; with ASLR on, identical runs of town5_ckpt_chain
    differed by 5 % in user time and 3 MB in peak RSS.  Where the
    sandbox refuses the call the worker runs randomised, only noisier."""
    libc = ctypes.CDLL(None)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def _bootstrap_path() -> None:
    """Import this directory as the package ``e2e`` (so its ``trace``
    module cannot shadow the standard library's) and the program from
    the checkout's ``src``."""
    sys.path[:] = [entry for entry in sys.path
                   if Path(entry or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]


_bootstrap_path()

from e2e.workloads import WORKLOADS  # noqa: E402  (needs the path above)


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Worker: one workload, one process
# ----------------------------------------------------------------------
def worker_main(request: Dict[str, Any]) -> int:
    spawned_at = request["spawned_at"]
    traced, short = request["traced"], request["short"]
    workload = WORKLOADS[request["workload"]]()
    workload.control = request["control"]
    inputs = workload.make_inputs(request["seed"], request["seconds"])
    hooks = None
    if traced:
        from e2e import entrypoints, trace

        hooks = trace.install(entrypoints.TABLE, watch=workload.watch)
    workload.setup(inputs)
    out: Dict[str, Any] = {
        "setup_s": time.monotonic() - spawned_at,
        "build_s": workload.build_s,
    }

    from repro.crypto import cache_stats

    workload.mark()
    crypto_before = cache_stats()
    gc.collect()            # GC stays enabled, as users run it
    if hooks:
        hooks.recorder.on = True
    workload.run(short)
    if hooks:
        hooks.recorder.on = False
    crypto_after = cache_stats()
    out.update(workload.finish())
    out.update({
        "sim_s": workload.sim_s, "wall_s": workload.wall_s,
        "step_wall_s": workload.step_wall_s,
        "cpu_s": workload.cpu_s, "peak_rss_mb": workload.peak_rss_mb,
        "crypto": {key: crypto_after[key] - crypto_before[key]
                   for key in crypto_after},
    })
    if hooks:
        out["counts"]["sim.heap_depth_max"] = workload.heap_depth_max
        out["trace"] = _trace_section(hooks.recorder, workload, out, request)
    out["problems"] = workload.problems
    out["notes"] = workload.notes
    print(json.dumps(out))
    return 0


def _trace_section(recorder, workload, out, request) -> Dict[str, Any]:
    from e2e import entrypoints, trace

    summary = trace.summarize(recorder, workload.wall_s)
    workload.problems.extend(
        f"{workload.name}: {text}" for text in trace.check_layers(
            summary, workload.active, workload.bypassed))
    if summary["coverage_share"] < 0.9:
        workload.problem(f"trace: coverage_share "
                         f"{summary['coverage_share']:.3f} < 0.9")
    event_spans = trace.calls_via(summary, *entrypoints.EVENT_VIAS)
    if event_spans != out["counts"].get("sim.events"):
        workload.problem(
            f"trace: {event_spans} event callbacks recorded but the kernel "
            f"executed {out['counts'].get('sim.events')} events — a "
            "scheduling path is not hooked")
    trace.write_trace(
        recorder, str(RESULTS / f"trace-{workload.name}.json"),
        {"workload": workload.name, "seed": request["seed"],
         "seconds": request["seconds"], "window_wall_s": workload.wall_s})
    names = summary["names"]
    top = sorted(names.items(), key=lambda item: -item[1]["self_s"])[:12]
    return {
        "spans": summary["spans"],
        "coverage_share": summary["coverage_share"],
        "layers": summary["layers"],
        "top": [[name, row["calls"], row["self_s"]] for name, row in top],
        "sign_calls": trace.calls_of(
            summary, "crypto:sign_payload",
            "crypto:ThresholdShare.sign_partial"),
        "verify_calls": trace.calls_of(
            summary, "crypto:verify_signature", "crypto:verify_mac",
            "crypto:ThresholdScheme.verify"),
        "ipaddress_calls": trace.calls_of(
            summary, "net:Subnet.contains", "net:same_subnet"),
        "plc_requests": trace.calls_of(
            summary, "plc:PlcDevice.handle_request",
            "plc:Dnp3Outstation.handle_request"),
        "save_ms_p50": trace.median_ms(
            recorder, "snapshot:save_world_bytes", "snapshot:WarmCache.put"),
        "restore_ms_p50": trace.median_ms(
            recorder, "snapshot:restore_world_bytes",
            "snapshot:WarmCache.restore"),
        "report_s": sum(row["total_s"] for name, row in names.items()
                        if name in ("obs:build_deployment_report",
                                    "obs:render_report",
                                    "obs:build_detection_section")),
    }


# ----------------------------------------------------------------------
# Driver: spawn workers, assemble metrics
# ----------------------------------------------------------------------
class BenchmarkError(RuntimeError):
    """The program could not be measured (missing, crashed, timed out)."""


def spawn_worker(workload: str, seed: int, seconds: float, deadline: float,
                 *, short: bool = False, traced: bool = False,
                 control: bool = True) -> Dict[str, Any]:
    """Run one worker to completion.  ``short`` selects the traced
    run's horizon, ``traced`` installs the hooks, ``control`` is off in
    a replica whose outputs are held against the first replica's."""
    request = {"workload": workload, "seed": seed, "seconds": seconds,
               "short": short, "traced": traced, "control": control,
               "spawned_at": time.monotonic()}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"{workload}: out of time before a worker")
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             json.dumps(request)],
            capture_output=True, text=True, timeout=remaining, cwd=str(ROOT),
            env=WORKER_ENV, preexec_fn=_fixed_address_space)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: worker exceeded "
                             f"{remaining:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload}: worker exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def environment() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
            "python": platform.python_version()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _record(name: str, seed: int, seconds: float, env: Dict[str, Any],
            worker: Dict[str, Any], clean: List[Dict[str, Any]],
            wall_s: float, metrics: Dict[str, float],
            problems: List[str]) -> Dict[str, Any]:
    """One workload's result: ``worker`` ran the reported window (the
    first replica stands for all), ``clean`` are the untraced runs whose
    lowest cpu/wall says how noisy it was."""
    cpu_over_wall = min(_ratio(run["cpu_s"], run["wall_s"]) for run in clean)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "env": env,
        "metrics": metrics, "ops": worker["ops"],
        "attempted": worker["attempted"],
        "failed": max(run["failed"] for run in [worker] + clean),
        "problems": problems, "notes": worker["notes"],
        "cpu_over_wall": cpu_over_wall,
        "noisy": cpu_over_wall < NOISY_BELOW,
        "window_wall_s": wall_s, "window_sim_s": worker["sim_s"],
        "deterministic": worker["deterministic"],
        "sim_stats": worker["sim_stats"],
    }


def steady_wall_s(replicas: List[Dict[str, Any]]) -> float:
    """The window's wall time over replicas that ran the same window on
    the same inputs.  Where the window is a sequence of steps, each step
    counts with the fastest of the replicas' times for it and the steps
    are summed: what else the host is doing only ever adds time, and a
    stretch of it has to hit the same step in every replica to reach the
    result.  Otherwise the median of the replicas' whole windows.  One
    replica: its own wall time."""
    steps = [run["step_wall_s"] for run in replicas]
    if steps[0] and all(len(each) == len(steps[0]) for each in steps):
        return sum(map(min, zip(*steps)))
    return statistics.median(run["wall_s"] for run in replicas)


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """``--trace 0``: the end-to-end metrics of one workload over its
    replicas: set-up time and peak RSS as medians, the window's wall
    time as :func:`steady_wall_s` gives it."""
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    replicas = [spawn_worker(name, seed, seconds, deadline,
                             control=(index == 0))
                for index in range(WORKLOADS[name].replicas)]
    first = replicas[0]
    problems = [text for run in replicas for text in run["problems"]]
    problems += _inputs_problems(name, seed, seconds)
    for index, run in enumerate(replicas[1:], start=2):
        if run["deterministic"] != first["deterministic"]:
            problems.append(
                f"{name}: replica {index} diverged from replica 1 on the "
                f"same inputs: {run['deterministic']} != "
                f"{first['deterministic']}")
    wall_s = steady_wall_s(replicas)
    metrics = {
        "setup_s": statistics.median(run["setup_s"] for run in replicas),
        "sim_s_per_wall_s": _ratio(first["sim_s"], wall_s),
        "wall_ms_per_op": _ratio(wall_s * 1000.0, first["ops"]),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"]
                                         for run in replicas),
    }
    return _record(name, seed, seconds, env, first, replicas, wall_s,
                   metrics, problems)


def _inputs_problems(name: str, seed: int, seconds: float) -> List[str]:
    make = WORKLOADS[name]().make_inputs
    problems = []
    if make(seed, seconds) != make(seed, seconds):
        problems.append(f"{name}: same seed gave different inputs")
    if make(seed, seconds) == make(seed + 1, seconds):
        problems.append(f"{name}: a different seed gave the same inputs")
    return problems


def measure_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """``--trace 1``: the per-layer metrics of one workload."""
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    plain = spawn_worker(name, seed, seconds, deadline, short=True)
    traced = spawn_worker(name, seed, seconds, deadline, short=True,
                          traced=True)
    problems = (plain["problems"] + traced["problems"]
                + _inputs_problems(name, seed, seconds))
    if traced["deterministic"] != plain["deterministic"]:
        problems.append(
            f"{name}: traced run diverged from the untraced run at the same "
            f"horizon: {traced['deterministic']} != {plain['deterministic']}")
    record = _record(name, seed, seconds, env, traced, [plain],
                     traced["wall_s"], per_layer_metrics(traced, plain),
                     problems)
    record["top_self_time"] = traced["trace"]["top"]
    record["spans"] = traced["trace"]["spans"]
    return record


def per_layer_metrics(traced: Dict[str, Any],
                      plain: Dict[str, Any]) -> Dict[str, float]:
    """Counts are window deltas of the program's own registry, read from
    outside; ``*_self_s``/``*_self_share`` come from the spans; host
    times per event use the *untraced* companion run."""
    counts = traced["counts"]
    stats = traced["sim_stats"]
    spans = traced["trace"]
    layers = spans["layers"]
    crypto = traced["crypto"]
    ops = traced["ops"]

    def count(key: str) -> float:
        return float(counts.get(key, 0.0))

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def share(layer: str) -> float:
        return layers.get(layer, {}).get("self_share", 0.0)

    events = count("sim.events")
    metrics = {
        "sim.events": events,
        "sim.events_per_op": _ratio(events, ops),
        "sim.wall_us_per_event": _ratio(plain["wall_s"] * 1e6, events),
        "sim.events_cancelled": count("sim.events_cancelled"),
        "sim.heap_depth_max": count("sim.heap_depth_max"),
        "net.frames_sent": count("net.frames_sent"),
        "net.bytes_sent": count("net.bytes_sent"),
        "net.frames_per_op": _ratio(count("net.frames_sent"), ops),
        "net.frames_dropped": (count("net.frames_dropped")
                               + count("net.frames_lost")),
        "net.ipaddress_calls": spans["ipaddress_calls"],
        "crypto.sign_calls": spans["sign_calls"],
        "crypto.verify_calls": spans["verify_calls"],
        "crypto.encode_hit_rate": _ratio(
            crypto["encode_hits"],
            crypto["encode_hits"] + crypto["encode_misses"]),
        "crypto.verify_hit_rate": _ratio(
            crypto["verify_hits"],
            crypto["verify_hits"] + crypto["verify_misses"]),
        "spines.forwarded": count("spines.forwarded"),
        "spines.delivered": count("spines.delivered"),
        "spines.dropped": count("spines.dropped"),
        "spines.forwards_per_delivery": _ratio(count("spines.forwarded"),
                                               count("spines.delivered")),
        "spines.route_recomputes": count("spines.route_recomputes"),
        "prime.updates_executed": count("prime.updates_executed"),
        "prime.msgs_per_update": _ratio(count("spines.delivered_internal"),
                                        count("prime.updates_executed")),
        "prime.view_changes": count("prime.view_changes"),
        "prime.client_retries": count("prime.client_retries"),
        "prime.order_sim_ms_p50": stats.get("order_sim_ms_p50", 0.0),
        "scada.polls": count("scada.polls"),
        "scada.commands_applied": count("scada.commands_applied"),
        "scada.displays": count("scada.displays"),
        "scada.reaction_sim_ms_p50": stats.get("reaction_sim_ms_p50", 0.0),
        "scada.reaction_sim_ms_p90": stats.get("reaction_sim_ms_p90", 0.0),
        "scada.confirm_sim_ms_p50": stats.get("confirm_sim_ms_p50", 0.0),
        "scada.confirm_sim_ms_p90": stats.get("confirm_sim_ms_p90", 0.0),
        "plc.requests": spans["plc_requests"],
        "grid.build_s": plain["build_s"],
        "faults.injected": count("faults.injected"),
        "faults.reverted": count("faults.reverted"),
        "faults.invariant_violations": count("faults.invariant_violations"),
        "mana.windows_evaluated": count("mana.windows_evaluated"),
        "mana.alerts": count("mana.alerts"),
        "mana.mttd_sim_ms_p50": stats.get("mttd_sim_ms_p50", 0.0),
        "snapshot.save_ms_p50": spans["save_ms_p50"],
        "snapshot.restore_ms_p50": spans["restore_ms_p50"],
        "snapshot.bytes": count("snapshot.bytes"),
        "snapshot.warmcache_hits": count("snapshot.warmcache_hits"),
        "obs.report_s": spans["report_s"],
        "parallel.unit_wall_s_p50": count("parallel.unit_wall_s_p50"),
        "trace.overhead_ratio": _ratio(
            _ratio(traced["wall_s"], traced["sim_s"]),
            _ratio(plain["wall_s"], plain["sim_s"])),
        "trace.coverage_share": spans["coverage_share"],
        "proc.cpu_over_wall": _ratio(plain["cpu_s"], plain["wall_s"]),
    }
    for layer in ("sim", "net", "crypto", "spines", "prime", "mana",
                  "telemetry"):
        metrics[f"{layer}.self_s"] = self_s(layer)
    for layer in ("sim", "net", "crypto", "spines", "prime", "scada", "plc",
                  "grid", "faults", "mana", "snapshot", "telemetry", "core",
                  "redteam"):
        metrics[f"{layer}.self_share"] = share(layer)
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def check_declared(record: Dict[str, Any],
                   declared: List[Dict[str, Any]]) -> None:
    """The metrics measured must be exactly the ones BENCHMARK.json names."""
    differing = {metric["name"] for metric in declared} ^ set(record["metrics"])
    if differing:
        record["problems"].append(
            f"{record['workload']}: metrics measured and metrics declared in "
            f"BENCHMARK.json differ: {sorted(differing)}")


def print_record(record: Dict[str, Any], declared: List[Dict[str, Any]]) -> None:
    name = record["workload"]
    for metric in declared:
        value = record["metrics"].get(metric["name"])
        if value is not None:
            print(f"{name} {metric['name']} {value:.6g} {metric['unit']}")
    print(f"{name} ops_attempted {record['attempted']} count")
    print(f"{name} ops_failed {record['failed']} count")
    print(f"{name} noisy {int(record['noisy'])} flag")
    env = record["env"]
    print(f"# {name}: window {record['window_sim_s']:g} sim-s in "
          f"{record['window_wall_s']:.3f} s, cpu/wall "
          f"{record['cpu_over_wall']:.3f}{' NOISY' if record['noisy'] else ''}"
          f", nproc {env['nproc']}, load {env['loadavg_1m']:.2f}, "
          f"python {env['python']}")
    for row in record.get("top_self_time", ()):
        print(f"#   self {row[2]:8.3f} s  calls {row[1]:8d}  {row[0]}")
    for text in record["notes"]:
        print(f"# {name}: {text}")
    for text in record["problems"]:
        print(f"# CHECK FAILED {text}")


def final_line(record: Dict[str, Any],
               declared: List[Dict[str, Any]]) -> str:
    return json.dumps({
        "correct": not record["problems"],
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {metric["name"]: {"value": record["metrics"][metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared if metric["name"] in record["metrics"]},
    })


def compare_sets(first: List[Dict[str, Any]], second: List[Dict[str, Any]],
                 declared: List[Dict[str, Any]]) -> List[str]:
    """A/A: two sets from the same code must agree within each metric's
    bound, repeat their deterministic counts exactly, and fail nothing.
    A pairing with a noisy run is unresolved: it counts as not agreed."""
    disagreements = []
    for a, b in zip(first, second):
        name = a["workload"]
        for metric in declared:
            before, after = (run["metrics"][metric["name"]] for run in (a, b))
            drift = abs(after - before) / before if before else 0.0
            verdict = ("UNRESOLVED (noisy run)" if a["noisy"] or b["noisy"]
                       else "agree" if drift <= metric["bound"]
                       else "DISAGREE")
            print(f"aa {name} {metric['name']} {before:.6g} {after:.6g} "
                  f"drift {drift:.4f} bound {metric['bound']} {verdict}")
            if verdict != "agree":
                disagreements.append(f"{name} {metric['name']}: {verdict}")
        if a["deterministic"] != b["deterministic"]:
            disagreements.append(f"{name} deterministic counts")
            print(f"aa {name} deterministic counts DIFFER")
        if a["failed"] or b["failed"]:
            disagreements.append(f"{name} ops_failed")
    return disagreements


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="PATH")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker_main(json.loads(args.worker))
    if args.aa and args.trace:
        parser.error("--aa compares the end-to-end metrics; drop --trace")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = args.seconds or float(contract["run_seconds"])
    names = [args.workload] if args.workload else [
        workload["name"] for workload in contract["workloads"]]
    declared = contract["per_layer" if args.trace else "end_to_end"]

    def run_set() -> List[Dict[str, Any]]:
        records = []
        for name in names:
            record = (measure_traced if args.trace else measure)(
                name, args.seed, seconds)
            check_declared(record, declared)
            print_record(record, declared)
            records.append(record)
        return records

    try:
        sets = [run_set(), run_set()] if args.aa else [run_set()]
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 2
    disagreements = compare_sets(*sets, declared) if args.aa else []
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"sets": sets, "aa_disagreements": disagreements},
                      handle, indent=1)
    failed = any(record["problems"] or record["failed"]
                 for records in sets for record in records)
    if args.workload and not args.aa:
        print(final_line(sets[0][0], declared))
    return 1 if failed or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
