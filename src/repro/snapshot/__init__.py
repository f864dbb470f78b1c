"""Versioned checkpoint/restore of complete simulator state.

``repro.snapshot`` turns any deterministic run into a resumable one:

* :func:`save_world` / :func:`restore_world` — one-call snapshot of a
  monolithic world (grid worlds, Spire systems) into a self-describing
  container with a schema version and integrity digest;
* :func:`run_with_checkpoints` — periodic auto-checkpoints that
  provably do not perturb the event stream;
* :func:`nearest_snapshot` + :func:`replay_dump` — time-travel
  debugging: restore the checkpoint nearest a FlightRecorder violation
  dump and re-run its window under a fresh recorder;
* campaign checkpoints (see :func:`repro.faults.campaign.run_campaign`)
  — crash/SIGINT-interrupted chaos sweeps resume from completed cells
  with a byte-identical final report;
* :func:`save_world_bytes` / :func:`restore_world_bytes` +
  :class:`~repro.snapshot.warmcache.WarmCache` — the in-memory fast
  path (same container layout and digest check, no disk): campaign
  sweeps serialize each distinct (config, seed) world once and fork
  every cell from the cached bytes instead of a cold build.

The invariant everything here is built on: **restore + run to T is
byte-identical to an uninterrupted run to T** (event digest and report
digest).
"""

from repro.snapshot.core import (
    checkpoint_path, nearest_snapshot, replay_dump, restore_world,
    restore_world_bytes, run_with_checkpoints, save_world, save_world_bytes,
)
from repro.snapshot.format import (
    SCHEMA_VERSION, SnapshotError, dump, dumps, load, loads, read_header,
    scan_dir,
)
from repro.snapshot.warmcache import WarmCache

__all__ = [
    "SCHEMA_VERSION",
    "SnapshotError",
    "WarmCache",
    "checkpoint_path",
    "dump",
    "dumps",
    "load",
    "loads",
    "nearest_snapshot",
    "read_header",
    "replay_dump",
    "restore_world",
    "restore_world_bytes",
    "run_with_checkpoints",
    "save_world",
    "save_world_bytes",
    "scan_dir",
]
