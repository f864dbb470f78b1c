"""World-level save/restore, periodic checkpointing, and time-travel.

The simulator object graph is fully picklable (bound-method clocks,
counter ``__getstate__``, no stored lambdas), so a world snapshot is
simply the world pickled into the :mod:`repro.snapshot.format`
container: the kernel event heap (lazy-cancel bookkeeping included),
every RNG stream, replica and overlay state, grid physics, client
populations, and the telemetry registries all ride along because they
hang off the same graph.

The determinism contract, enforced by ``tests/test_snapshot.py`` and
the CI ``snapshot-smoke`` job: *restoring a snapshot taken at time S
and running to T is byte-identical (event digest and report digest) to
an uninterrupted run to T*.  Two kernel properties make this hold:

* ``Simulator.run(until=...)`` leaves the pending heap exactly as a
  continuous run would (events at ``t == until`` fire before the call
  returns; the clock is pinned to ``until``), so segmenting a run at
  checkpoint boundaries — :func:`run_with_checkpoints` — perturbs
  nothing;
* saving never mutates the live simulator (counters are read from
  ``repr``, not ``next()``), so an auto-checkpointed run *is* the
  uninterrupted run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.snapshot.format import (
    SnapshotError, dumps, load, loads, scan_dir,
)


def checkpoint_path(directory: str, prefix: str, now: float) -> str:
    """Canonical checkpoint filename: zero-padded simulated time so the
    lexical order of a directory listing is the time order."""
    import os

    return os.path.join(directory, f"{prefix}-t{now:015.6f}.snap")


def _world_meta(world: Any,
                meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Header metadata for a world snapshot (shared by the disk and
    bytes paths)."""
    sim = getattr(world, "sim", None)
    if sim is None:
        raise SnapshotError(
            f"cannot snapshot {type(world).__name__}: no .sim attribute")
    header_meta: Dict[str, Any] = {
        "now": sim.now,
        "events_executed": sim.events_executed,
        "event_digest": sim.event_digest(),
        "world_type": type(world).__name__,
    }
    spec = getattr(world, "spec", None)
    if spec is not None:
        header_meta["spec_name"] = getattr(spec, "name", None)
        header_meta["seed"] = getattr(spec, "seed", None)
    if meta:
        header_meta.update(meta)
    return header_meta


def save_world_bytes(world: Any,
                     meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize a world snapshot to bytes — no disk container, same
    SPIRESNAP layout and payload digest as :func:`save_world`.

    The fast path for in-memory snapshot caches
    (:mod:`repro.snapshot.warmcache`): campaign parents serialize each
    warm world once and hand workers a restore from bytes.  Saving is
    side-effect free: the live world keeps running identically.
    """
    return dumps("world", world, _world_meta(world, meta))


def restore_world_bytes(data: bytes) -> Any:
    """Rebuild a world from :func:`save_world_bytes` output.

    The payload digest is verified before unpickling (the same check
    :func:`restore_world` applies), so corrupt or truncated bytes raise
    :class:`SnapshotError` instead of restoring garbage.
    """
    _header, world = loads(data, expect_kind="world")
    return world


def save_world(path: str, world: Any,
               meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Snapshot a monolithic world (anything carrying a ``.sim``).

    Accepts a :class:`~repro.grid.world.GridWorld`, a
    :class:`~repro.core.spire.SpireSystem`, or any other object graph
    rooted at a :class:`~repro.sim.simulator.Simulator`.  Saving is
    side-effect free: the live world keeps running identically.
    Delegates serialization to :func:`save_world_bytes` (one format
    path); the file is written atomically.
    """
    from repro.snapshot.format import loads_header
    from repro.util.atomicio import write_bytes

    data = save_world_bytes(world, meta)
    write_bytes(path, data)
    return loads_header(data, source=path)


def restore_world(path: str) -> Any:
    """Load a world snapshot; inverse of :func:`save_world`."""
    _header, world = load(path, expect_kind="world")
    return world


def run_with_checkpoints(world: Any, until: float, directory: str,
                         every: float, prefix: Optional[str] = None,
                         ) -> List[str]:
    """Run a monolithic world to ``until``, saving a snapshot every
    ``every`` simulated seconds.

    The run is segmented at checkpoint boundaries with back-to-back
    ``run(until=...)`` calls — exactly equivalent to one continuous
    run — so checkpointing cannot perturb the event stream.  Returns
    the snapshot paths in time order.
    """
    import os

    if every <= 0:
        raise SnapshotError(f"checkpoint interval must be > 0, got {every}")
    sim = world.sim
    if prefix is None:
        spec = getattr(world, "spec", None)
        prefix = getattr(spec, "name", None) or "world"
    os.makedirs(directory, exist_ok=True)
    paths = []
    boundary = sim.now
    while sim.now < until - 1e-12:
        boundary = min(until, boundary + every)
        world.run(until=boundary)
        path = checkpoint_path(directory, prefix, sim.now)
        save_world(path, world)
        paths.append(path)
    return paths


def nearest_snapshot(directory: str, at: float, kind: str = "world",
                     ) -> Optional[Tuple[str, Dict[str, Any]]]:
    """The snapshot in ``directory`` taken latest at-or-before ``at``.

    Headers alone are read (cheap).  Falls back to the earliest
    snapshot when none precedes ``at``; returns ``None`` for an empty
    or unreadable directory.
    """
    candidates = [(path, header) for path, header in scan_dir(directory, kind)
                  if header.get("meta", {}).get("now") is not None]
    if not candidates:
        return None
    before = [entry for entry in candidates
              if entry[1]["meta"]["now"] <= at + 1e-12]
    if before:
        return max(before, key=lambda entry: entry[1]["meta"]["now"])
    return min(candidates, key=lambda entry: entry[1]["meta"]["now"])


def replay_dump(dump_doc: Dict[str, Any], snapshot: str,
                capacity: int = 65536) -> Dict[str, Any]:
    """Re-run the window of a FlightRecorder dump from a snapshot.

    Restores the world snapshot (which must precede the dump window),
    attaches a *fresh passive* :class:`~repro.obs.recorder.FlightRecorder`
    — passive recorders schedule zero events, so the replay is provably
    the same event stream the original run executed — runs through the
    window, and returns a new dump covering it.  This is the time-travel
    debugging loop: a violation dump names a window; the nearest
    checkpoint restores; the replay reproduces the black-box capture
    with full ``debug``-severity context.
    """
    from repro.obs.recorder import FlightRecorder

    window = dump_doc.get("window") or {}
    since = window.get("since")
    until = window.get("until")
    if since is None or until is None:
        raise SnapshotError("dump document carries no window to replay")
    world = restore_world(snapshot)
    sim = world.sim
    if sim.now > since + 1e-12:
        raise SnapshotError(
            f"snapshot time {sim.now:.6f} is inside the dump window "
            f"(starts {since:.6f}) — use an earlier checkpoint")
    recorder = FlightRecorder(sim, capacity=capacity,
                              window=max(until - since, 1e-9),
                              min_severity="debug",
                              name="replay-recorder")
    world.run(until=until)
    return recorder.dump(reason="replay",
                         fault_ids=dump_doc.get("fault_ids") or None,
                         trigger={"source": "replay",
                                  "snapshot": snapshot,
                                  "original_reason": dump_doc.get("reason")})
