"""Perf-regression guard for the committed benchmark baselines.

Compares fresh benchmark runs against the committed baselines at the
repo root and fails on regression:

* ``BENCH_hotpath.json`` (``bench_hotpath.py``) — crypto/kernel hot
  path.  Guarded metrics are machine-portable: cache *speedups* (cached
  vs naive throughput on the same machine, same run), cache hit rates,
  and the determinism witness.  Absolute throughputs are reported and
  guarded only with ``--absolute`` (stable dedicated runners).
* ``BENCH_parallel.json`` (``bench_parallel_sweep.py``, via
  ``--parallel-current``) — the sweep engine.  The determinism witness
  (jobs=1 vs jobs=N digests) must match on every machine; the speedup
  floor scales with ``min(jobs, cpus)``, so a 4-core runner must show
  >= 3x while a 1-core box is only held to parity.
* ``BENCH_obs.json`` (``bench_obs_overhead.py``, via ``--obs-current``)
  — the observability layer.  The determinism witness (confirm-latency
  samples with vs without the flight recorder + health board) must
  match everywhere, and the throughput ratio must stay >= the
  ``--obs-floor`` (default 0.95: recorder overhead <= ~5%).
* ``BENCH_grid.json`` (``bench_grid_scale.py``, via ``--grid-current``)
  — federated grid deployments.  The determinism witness (jobs=1 vs
  jobs=2 sweep digests) must match on every machine, every grid size
  must confirm commands, and the simulated confirm-latency retention
  (p50 at the smallest grid / p50 at the largest) is guarded relative
  to the committed baseline — growing the grid must not degrade the
  SCADA path.  Absolute events/s only with ``--absolute``.

* ``BENCH_campaign.json`` (``bench_campaign.py``, via
  ``--campaign-current``) — warm-start campaign cells.  The
  byte-identity witness (warm-restored vs cold-built report digests)
  must match on every machine, every cell must pass, and the
  warm-over-cold speedup is guarded relative to the committed baseline.
* ``BENCH_detection.json`` (``bench_detection.py``, via
  ``--detection-current``) — the MANA detection scorecard.  The
  byte-identity witness (mana campaign reports across jobs and
  warm/cold cache) must match on every machine; campaign-level
  precision/recall are deterministic scorecard quality, guarded
  tightly against the committed baseline; scoring must stay a
  comfortable multiple of real time everywhere, with raw windows/s
  guarded only under ``--absolute``.

Guards that cannot run on the current hardware (e.g. wall-clock
metrics without ``--absolute``) collect their notices and ``main()``
prints one consolidated skip-summary line instead of per-flag chatter.

Per-metric tolerance bands
--------------------------
Each guarded metric carries its own tolerance instead of one blanket
threshold, so noise on a noisy metric can't mask a loss on a stable
one.  Two kinds:

* ``tolerance`` — allowed fractional regression vs the committed
  baseline value (``None`` = the ``--threshold`` default);
* ``band`` — an absolute ``(low, high)`` parity band for metrics that
  hover around 1.0x by construction.  ``sign.speedup`` is the case in
  point: a *fresh* sign always misses the encode-once cache, so its
  "speedup" is cache bookkeeping overhead ± noise (~0.95x in the
  committed baseline).  Values inside the band are parity — neither a
  win to brag about nor a loss to fail on; below the band the cache
  write path got genuinely slower and the guard fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick --output current.json
    PYTHONPATH=src python benchmarks/bench_parallel_sweep.py --output par.json
    python benchmarks/perf_guard.py --current current.json --parallel-current par.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_hotpath.json")
DEFAULT_PARALLEL_BASELINE = os.path.join(REPO_ROOT, "BENCH_parallel.json")
DEFAULT_GRID_BASELINE = os.path.join(REPO_ROOT, "BENCH_grid.json")
DEFAULT_SNAPSHOT_BASELINE = os.path.join(REPO_ROOT, "BENCH_snapshot.json")
DEFAULT_CAMPAIGN_BASELINE = os.path.join(REPO_ROOT, "BENCH_campaign.json")
DEFAULT_DETECTION_BASELINE = os.path.join(REPO_ROOT, "BENCH_detection.json")

# Scorecard precision/recall are workload-determined (same scenarios,
# same seeds -> same alerts), so they get a tight band; the realtime
# floor is the weakest claim that still proves live MANA keeps up with
# traffic on any plausible runner (the committed baseline is >1000x).
DETECTION_QUALITY_TOLERANCE = 0.10
DETECTION_REALTIME_FLOOR = 25.0

# metric name -> guard spec (higher is better).
#   path:      keys into the results document
#   tolerance: allowed fractional regression vs baseline (None -> CLI
#              --threshold default)
#   band:      absolute (low, high) parity band; replaces the
#              baseline-relative check entirely
RELATIVE_METRICS = {
    "sign_broadcast_verify.speedup": {
        "path": ("microbench", "sign_broadcast_verify", "speedup"),
        "tolerance": None,
    },
    # Fresh signs always miss the cache: this metric measures cache
    # bookkeeping overhead, not a cache win.  Parity band instead of a
    # baseline-relative floor (see module docstring).
    "sign.speedup": {
        "path": ("microbench", "sign", "speedup"),
        "band": (0.85, 1.10),
    },
    "verify.speedup": {
        "path": ("microbench", "verify", "speedup"),
        "tolerance": None,
    },
    "prime_load_100.speedup": {
        "path": ("prime_load_100", "speedup"),
        "tolerance": None,
    },
    # Hit rates are workload-determined, not machine-determined — hold
    # them tighter than the throughput ratios.
    "cache.encode_hit_rate": {
        "path": ("cache", "encode_hit_rate"),
        "tolerance": 0.10,
    },
    "cache.verify_hit_rate": {
        "path": ("cache", "verify_hit_rate"),
        "tolerance": 0.10,
    },
}

ABSOLUTE_METRICS = {
    "sign_broadcast_verify.after_ops_s": {
        "path": ("microbench", "sign_broadcast_verify", "after_ops_s"),
        "tolerance": None,
    },
    "verify.after_ops_s": {
        "path": ("microbench", "verify", "after_ops_s"),
        "tolerance": None,
    },
    "kernel.events_per_s": {
        "path": ("kernel", "events_per_s"),
        "tolerance": None,
    },
    "prime_load_100.after_events_per_s": {
        "path": ("prime_load_100", "after_events_per_s"),
        "tolerance": None,
    },
}


def _lookup(doc: dict, path) -> float:
    value = doc
    for key in path:
        value = value[key]
    return float(value)


def check(baseline: dict, current: dict, threshold: float,
          absolute: bool = False) -> list:
    """Return a list of failure strings (empty == pass)."""
    failures = []
    if not current.get("determinism", {}).get("match", False):
        failures.append("determinism witness diverged: caching changed "
                        "simulation results")
    metrics = dict(RELATIVE_METRICS)
    if absolute:
        metrics.update(ABSOLUTE_METRICS)
    for name, spec in metrics.items():
        try:
            cur = _lookup(current, spec["path"])
        except (KeyError, TypeError):
            failures.append(f"{name}: missing from current run")
            continue
        if "band" in spec:
            low, high = spec["band"]
            if cur < low:
                status = "REGRESSION"
                failures.append(
                    f"{name} fell out of its parity band: {cur:.3f} < "
                    f"{low:.3f} (band {low:.2f}..{high:.2f})")
            else:
                status = "parity" if cur <= high else "win"
            print(f"  {name:40s} band=[{low:5.2f}, {high:5.2f}] "
                  f"current={cur:10.3f} [{status}]")
            continue
        try:
            base = _lookup(baseline, spec["path"])
        except (KeyError, TypeError):
            failures.append(f"{name}: missing from baseline")
            continue
        tolerance = spec["tolerance"] if spec["tolerance"] is not None \
            else threshold
        floor = base * (1.0 - tolerance)
        status = "ok" if cur >= floor else "REGRESSION"
        print(f"  {name:40s} baseline={base:10.3f} current={cur:10.3f} "
              f"floor={floor:10.3f} (tol {tolerance:.0%}) [{status}]")
        if cur < floor:
            failures.append(
                f"{name} regressed: {cur:.3f} < {floor:.3f} "
                f"(baseline {base:.3f}, tolerance {tolerance:.0%})")
    return failures


# ----------------------------------------------------------------------
# Parallel sweep guard
# ----------------------------------------------------------------------
def expected_speedup_floor(jobs: int, cpus: int) -> float:
    """The wall-clock speedup a healthy pool must reach at ``jobs``
    workers on ``cpus`` cores: 75% scaling efficiency on the cores that
    actually exist (4 jobs on >= 4 cores -> 3.0x), parity-with-overhead
    when there is nothing to parallelise onto (1 core -> 0.75x)."""
    return 0.75 * max(1, min(jobs, cpus))


def check_parallel(current: dict) -> list:
    """Guard a fresh BENCH_parallel.json: determinism always, speedup
    against the core-aware floor."""
    failures = []
    if not current.get("determinism", {}).get("match", False):
        failures.append("parallel determinism witness diverged: jobs=1 vs "
                        "jobs=N reports are not identical")
    if not current.get("all_passed", False):
        failures.append("parallel sweep campaign failed (scenario "
                        "expectations unmet or cells crashed)")
    cpus = int(current.get("cpus") or 1)
    for jobs_text, speedup in sorted(current.get("speedup", {}).items(),
                                     key=lambda item: int(item[0])):
        jobs = int(jobs_text)
        floor = expected_speedup_floor(jobs, cpus)
        status = "ok" if speedup >= floor else "REGRESSION"
        print(f"  parallel.speedup[jobs={jobs}]{'':14s} "
              f"current={speedup:10.3f} floor={floor:10.3f} "
              f"(cpus={cpus}) [{status}]")
        if speedup < floor:
            failures.append(
                f"parallel speedup at jobs={jobs} regressed: "
                f"{speedup:.2f}x < {floor:.2f}x floor on {cpus} core(s)")
    return failures


# ----------------------------------------------------------------------
# Observability overhead guard
# ----------------------------------------------------------------------
def check_obs(current: dict, floor: float) -> list:
    """Guard a fresh BENCH_obs.json: determinism always, recorder
    overhead against the throughput-ratio floor."""
    failures = []
    if not current.get("determinism", {}).get("match", False):
        failures.append("obs determinism witness diverged: attaching the "
                        "flight recorder / health board changed the "
                        "simulation")
    try:
        ratio = float(current["overhead"]["throughput_ratio"])
    except (KeyError, TypeError):
        failures.append("obs.throughput_ratio: missing from current run")
        return failures
    status = "ok" if ratio >= floor else "REGRESSION"
    print(f"  obs.throughput_ratio{'':20s} current={ratio:10.3f} "
          f"floor={floor:10.3f} [{status}]")
    if ratio < floor:
        overhead = (1.0 / ratio - 1.0) * 100.0
        failures.append(
            f"observability overhead regressed: throughput ratio "
            f"{ratio:.3f} < {floor:.3f} floor (~{overhead:.1f}% wall-clock "
            f"overhead with the recorder attached)")
    return failures


# ----------------------------------------------------------------------
# Grid-scale guard
# ----------------------------------------------------------------------
def check_grid(baseline: dict, current: dict, threshold: float,
               absolute: bool = False) -> list:
    """Guard a fresh BENCH_grid.json: determinism always, per-size
    sanity, latency retention against the committed baseline, and
    (with ``absolute``) events/s per size."""
    failures = []
    if not current.get("determinism", {}).get("match", False):
        failures.append("grid determinism witness diverged: jobs=1 vs "
                        "jobs=2 sweep results are not identical")
    for size, row in sorted(current.get("sizes", {}).items(),
                            key=lambda item: int(item[0])):
        samples = (row.get("confirm_latency") or {}).get("samples") or 0
        status = "ok" if samples > 0 else "REGRESSION"
        print(f"  grid.confirm_samples[{size:>2s} subs]{'':12s} "
              f"current={samples:10d} floor={1:10d} [{status}]")
        if samples <= 0:
            failures.append(f"grid of {size} substation(s) confirmed no "
                            "supervisory commands")
    try:
        cur = float(current["latency_retention"])
        base = float(baseline["latency_retention"])
    except (KeyError, TypeError):
        failures.append("grid.latency_retention: missing from current "
                        "or baseline run")
    else:
        floor = base * (1.0 - threshold)
        status = "ok" if cur >= floor else "REGRESSION"
        print(f"  grid.latency_retention{'':18s} baseline={base:10.3f} "
              f"current={cur:10.3f} floor={floor:10.3f} [{status}]")
        if cur < floor:
            failures.append(
                f"grid latency retention regressed: {cur:.3f} < "
                f"{floor:.3f} (confirm p50 degrades faster with "
                "substation count than the committed baseline)")
    if absolute:
        for size, row in sorted(current.get("sizes", {}).items(),
                                key=lambda item: int(item[0])):
            base_row = (baseline.get("sizes") or {}).get(size)
            if not base_row:
                failures.append(f"grid.events_per_s[{size}]: missing "
                                "from baseline")
                continue
            cur = float(row["events_per_s"])
            base = float(base_row["events_per_s"])
            floor = base * (1.0 - threshold)
            status = "ok" if cur >= floor else "REGRESSION"
            print(f"  grid.events_per_s[{size:>2s} subs]{'':13s} "
                  f"baseline={base:10.0f} current={cur:10.0f} "
                  f"floor={floor:10.0f} [{status}]")
            if cur < floor:
                failures.append(
                    f"grid events/s at {size} substation(s) regressed: "
                    f"{cur:.0f} < {floor:.0f}")
    return failures


# ----------------------------------------------------------------------
# Snapshot (checkpoint/restore) guard
# ----------------------------------------------------------------------
def check_snapshot(baseline: dict, current: dict, threshold: float,
                   absolute: bool = False) -> list:
    """Guard a fresh BENCH_snapshot.json: the restore-determinism
    witness always (restored event digests identical to uninterrupted
    runs at every size); snapshot size against the committed baseline
    with a generous band (it tracks world size — silent 2x growth is a
    leak); save/restore latency only with ``absolute`` (these are pure
    wall-clock and vary wildly across runners).  Unlike the other
    guards these metrics are lower-is-better."""
    failures = []
    if not current.get("determinism", {}).get("match", False):
        failures.append("snapshot determinism witness diverged: "
                        "restore-then-run is not byte-identical to the "
                        "uninterrupted run")
    size_tolerance = max(threshold, 0.50)
    for size, row in sorted(current.get("sizes", {}).items(),
                            key=lambda item: int(item[0])):
        status = "ok" if row.get("digest_match") else "REGRESSION"
        print(f"  snapshot.digest_match[{size:>2s} subs]{'':11s} "
              f"current={str(bool(row.get('digest_match'))):>10s} "
              f"[{status}]")
        if not row.get("digest_match"):
            failures.append(f"restored run diverged at {size} "
                            "substation(s)")
        base_row = (baseline.get("sizes") or {}).get(size)
        if not base_row:
            failures.append(f"snapshot.sizes[{size}]: missing from "
                            "baseline")
            continue
        cur = float(row["snapshot_bytes"])
        base = float(base_row["snapshot_bytes"])
        ceiling = base * (1.0 + size_tolerance)
        status = "ok" if cur <= ceiling else "REGRESSION"
        print(f"  snapshot.bytes[{size:>2s} subs]{'':17s} "
              f"baseline={base:10.0f} current={cur:10.0f} "
              f"ceiling={ceiling:10.0f} (tol {size_tolerance:.0%}) "
              f"[{status}]")
        if cur > ceiling:
            failures.append(
                f"snapshot size at {size} substation(s) grew: "
                f"{cur:.0f} > {ceiling:.0f} bytes "
                f"(baseline {base:.0f}, tolerance {size_tolerance:.0%})")
        if absolute:
            for metric in ("save_s", "restore_s"):
                cur = float(row[metric])
                base = float(base_row[metric])
                ceiling = base * (1.0 + threshold)
                status = "ok" if cur <= ceiling else "REGRESSION"
                print(f"  snapshot.{metric}[{size:>2s} subs]{'':14s} "
                      f"baseline={base:10.3f} current={cur:10.3f} "
                      f"ceiling={ceiling:10.3f} [{status}]")
                if cur > ceiling:
                    failures.append(
                        f"snapshot {metric} at {size} substation(s) "
                        f"slowed: {cur:.3f}s > {ceiling:.3f}s")
    return failures


# ----------------------------------------------------------------------
# Warm-start campaign guard
# ----------------------------------------------------------------------
def check_campaign(baseline: dict, current: dict, threshold: float) -> list:
    """Guard a fresh BENCH_campaign.json: the byte-identity witness
    always (the warm-restored report must equal the cold-built one — a
    digest mismatch means the snapshot restore perturbed the
    simulation), every cell passing, and the warm-over-cold speedup
    against the committed baseline."""
    failures = []
    if not current.get("determinism", {}).get("match", False):
        failures.append("campaign byte-identity witness diverged: warm "
                        "and cold reports are not identical")
    if not current.get("all_passed", False):
        failures.append("campaign failed (scenario expectations unmet or "
                        "cells crashed)")
    try:
        cur = float(current["speedup"])
        base = float(baseline["speedup"])
    except (KeyError, TypeError):
        failures.append("campaign.speedup: missing from current or "
                        "baseline run")
        return failures
    floor = base * (1.0 - threshold)
    status = "ok" if cur >= floor else "REGRESSION"
    print(f"  campaign.warm_speedup{'':19s} baseline={base:10.3f} "
          f"current={cur:10.3f} floor={floor:10.3f} "
          f"(tol {threshold:.0%}) [{status}]")
    if cur < floor:
        failures.append(
            f"warm-start campaign speedup regressed: {cur:.2f}x < "
            f"{floor:.2f}x (baseline {base:.2f}x, "
            f"tolerance {threshold:.0%})")
    return failures


# ----------------------------------------------------------------------
# Detection scorecard guard
# ----------------------------------------------------------------------
def check_detection(baseline: dict, current: dict, threshold: float,
                    absolute: bool = False, skips: list = None) -> list:
    """Guard a fresh BENCH_detection.json: the byte-identity witness
    always (mana campaign reports across jobs and warm/cold cache),
    campaign precision/recall against the committed scorecard (tight
    band — these are workload-determined, not machine-determined), a
    machine-portable realtime floor on scoring throughput, and raw
    windows/s only with ``absolute``."""
    failures = []
    if skips is None:
        skips = []
    if not current.get("determinism", {}).get("match", False):
        failures.append("detection byte-identity witness diverged: mana "
                        "campaign reports differ across jobs/warm-cache")
    if not current.get("all_passed", False):
        failures.append("detection campaign failed (scenario expectations "
                        "unmet or cells crashed)")
    for metric in ("precision", "recall"):
        try:
            cur = float(current["scorecard"][metric])
            base = float(baseline["scorecard"][metric])
        except (KeyError, TypeError):
            failures.append(f"detection.{metric}: missing from current "
                            "or baseline run")
            continue
        floor = base * (1.0 - DETECTION_QUALITY_TOLERANCE)
        status = "ok" if cur >= floor else "REGRESSION"
        print(f"  detection.{metric:30s} baseline={base:10.3f} "
              f"current={cur:10.3f} floor={floor:10.3f} "
              f"(tol {DETECTION_QUALITY_TOLERANCE:.0%}) [{status}]")
        if cur < floor:
            failures.append(
                f"detection {metric} regressed: {cur:.3f} < {floor:.3f} "
                f"(baseline {base:.3f}, tolerance "
                f"{DETECTION_QUALITY_TOLERANCE:.0%})")
    try:
        realtime = float(current["throughput"]["realtime_factor"])
    except (KeyError, TypeError):
        failures.append("detection.realtime_factor: missing from "
                        "current run")
    else:
        floor = DETECTION_REALTIME_FLOOR
        status = "ok" if realtime >= floor else "REGRESSION"
        print(f"  detection.realtime_factor{'':15s} "
              f"current={realtime:10.0f} floor={floor:10.0f} [{status}]")
        if realtime < floor:
            failures.append(
                f"mana scoring cannot keep up with traffic: "
                f"{realtime:.0f}x realtime < {floor:.0f}x floor")
    if absolute:
        try:
            cur = float(current["throughput"]["windows_per_s"])
            base = float(baseline["throughput"]["windows_per_s"])
        except (KeyError, TypeError):
            failures.append("detection.windows_per_s: missing from "
                            "current or baseline run")
        else:
            floor = base * (1.0 - threshold)
            status = "ok" if cur >= floor else "REGRESSION"
            print(f"  detection.windows_per_s{'':17s} "
                  f"baseline={base:10.0f} current={cur:10.0f} "
                  f"floor={floor:10.0f} (tol {threshold:.0%}) [{status}]")
            if cur < floor:
                failures.append(
                    f"detection scoring throughput regressed: "
                    f"{cur:.0f} < {floor:.0f} windows/s")
    else:
        skips.append("detection.windows_per_s: wall-clock metric, "
                     "guarded only with --absolute")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"committed baseline (default: {DEFAULT_BASELINE})")
    parser.add_argument("--current", default=None,
                        help="freshly generated BENCH_hotpath.json to check")
    parser.add_argument("--parallel-current", default=None,
                        help="freshly generated BENCH_parallel.json to check")
    parser.add_argument("--obs-current", default=None,
                        help="freshly generated BENCH_obs.json to check")
    parser.add_argument("--grid-current", default=None,
                        help="freshly generated BENCH_grid.json to check")
    parser.add_argument("--snapshot-current", default=None,
                        help="freshly generated BENCH_snapshot.json to "
                             "check")
    parser.add_argument("--campaign-current", default=None,
                        help="freshly generated BENCH_campaign.json to "
                             "check")
    parser.add_argument("--detection-current", default=None,
                        help="freshly generated BENCH_detection.json to "
                             "check")
    parser.add_argument("--campaign-baseline",
                        default=DEFAULT_CAMPAIGN_BASELINE,
                        help="committed warm-campaign baseline "
                             f"(default: {DEFAULT_CAMPAIGN_BASELINE})")
    parser.add_argument("--detection-baseline",
                        default=DEFAULT_DETECTION_BASELINE,
                        help="committed detection-scorecard baseline "
                             f"(default: {DEFAULT_DETECTION_BASELINE})")
    parser.add_argument("--grid-baseline", default=DEFAULT_GRID_BASELINE,
                        help="committed grid baseline "
                             f"(default: {DEFAULT_GRID_BASELINE})")
    parser.add_argument("--snapshot-baseline",
                        default=DEFAULT_SNAPSHOT_BASELINE,
                        help="committed snapshot baseline "
                             f"(default: {DEFAULT_SNAPSHOT_BASELINE})")
    parser.add_argument("--obs-floor", type=float, default=0.95,
                        help="minimum bare/observed throughput ratio "
                             "(default 0.95 = <= ~5%% recorder overhead)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="default fractional regression for metrics "
                             "without an explicit tolerance (default 0.30)")
    parser.add_argument("--absolute", action="store_true",
                        help="also guard absolute throughputs (stable runners only)")
    args = parser.parse_args(argv)

    if not args.current and not args.parallel_current \
            and not args.obs_current and not args.grid_current \
            and not args.snapshot_current \
            and not args.campaign_current and not args.detection_current:
        parser.error("nothing to check: pass --current, "
                     "--parallel-current, --obs-current, "
                     "--grid-current, "
                     "--snapshot-current, --campaign-current, and/or "
                     "--detection-current")

    failures = []
    skips = []
    if args.current:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        with open(args.current) as handle:
            current = json.load(handle)
        print(f"perf_guard: current vs {os.path.relpath(args.baseline)} "
              f"(default tolerance {args.threshold:.0%})")
        failures += check(baseline, current, args.threshold,
                          absolute=args.absolute)
    if args.parallel_current:
        with open(args.parallel_current) as handle:
            parallel_current = json.load(handle)
        print("perf_guard: parallel sweep "
              f"({os.path.relpath(args.parallel_current)})")
        failures += check_parallel(parallel_current)
    if args.obs_current:
        with open(args.obs_current) as handle:
            obs_current = json.load(handle)
        print("perf_guard: observability overhead "
              f"({os.path.relpath(args.obs_current)})")
        failures += check_obs(obs_current, args.obs_floor)
    if args.grid_current:
        with open(args.grid_baseline) as handle:
            grid_baseline = json.load(handle)
        with open(args.grid_current) as handle:
            grid_current = json.load(handle)
        print(f"perf_guard: grid scale ({os.path.relpath(args.grid_current)}"
              f" vs {os.path.relpath(args.grid_baseline)})")
        failures += check_grid(grid_baseline, grid_current, args.threshold,
                               absolute=args.absolute)
    if args.snapshot_current:
        with open(args.snapshot_baseline) as handle:
            snapshot_baseline = json.load(handle)
        with open(args.snapshot_current) as handle:
            snapshot_current = json.load(handle)
        print("perf_guard: checkpoint/restore "
              f"({os.path.relpath(args.snapshot_current)} vs "
              f"{os.path.relpath(args.snapshot_baseline)})")
        failures += check_snapshot(snapshot_baseline, snapshot_current,
                                   args.threshold,
                                   absolute=args.absolute)
    if args.campaign_current:
        with open(args.campaign_baseline) as handle:
            campaign_baseline = json.load(handle)
        with open(args.campaign_current) as handle:
            campaign_current = json.load(handle)
        print("perf_guard: warm-start campaign "
              f"({os.path.relpath(args.campaign_current)} vs "
              f"{os.path.relpath(args.campaign_baseline)})")
        failures += check_campaign(campaign_baseline, campaign_current,
                                   args.threshold)
    if args.detection_current:
        with open(args.detection_baseline) as handle:
            detection_baseline = json.load(handle)
        with open(args.detection_current) as handle:
            detection_current = json.load(handle)
        print("perf_guard: detection scorecard "
              f"({os.path.relpath(args.detection_current)} vs "
              f"{os.path.relpath(args.detection_baseline)})")
        failures += check_detection(detection_baseline, detection_current,
                                    args.threshold,
                                    absolute=args.absolute, skips=skips)

    if skips:
        print(f"perf_guard: skipped {len(skips)} guard(s): "
              + "; ".join(skips))
    if failures:
        print("\nperf_guard FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf_guard: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
