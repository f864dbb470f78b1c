"""Seed-sharded process-pool sweep engine with deterministic merge.

The paper's evidence is built from *sweeps* — scenario×seed resilience
campaigns, repeated reaction-time trials, MANA model training — and
every cell of such a sweep is an independent, seed-deterministic unit
of work.  :class:`WorkerPool` fans those units out to ``N`` worker
processes and merges the results back **in unit order**, so a sweep at
``jobs=1`` and ``jobs=N`` produces byte-identical reports: parallelism
changes wall-clock time, never results.

Design points:

* **Portable work units.**  A :class:`WorkUnit` names its callable by
  dotted path (``"pkg.mod:callable"``) plus picklable kwargs, so units
  survive any multiprocessing start method.  Under ``fork`` (the Linux
  default) a plain module-level callable is accepted too.
* **Warm workers.**  Workers are persistent: each resolves and caches
  the unit callable once, and under ``fork`` they inherit the parent's
  already-imported modules — a sweep pays import cost once, not per
  cell.
* **Chunked dispatch.**  Units are pulled from a shared queue in
  chunks (default ``ceil(n / (jobs * 4))``), amortising IPC while
  keeping tail latency low; workers announce each chunk and each unit
  start so the parent can attribute failures exactly.
* **Timeout + crash containment.**  A unit that crashes its worker
  (hard exit, segfault) or exceeds the per-unit ``timeout`` is retried
  once on a fresh worker; a second failure yields a *failed result*
  instead of hanging or poisoning the sweep.  The dead worker is
  replaced and the sweep continues.
* **Deterministic merge.**  ``run()`` returns one
  :class:`UnitResult` per unit, ordered by submission index regardless
  of completion order.  Report-side telemetry registries are merged
  via ``MetricsRegistry.merge_snapshot`` in the same order.

Telemetry (``parallel.*`` counters on the pool's registry, component =
pool name): ``units_dispatched`` / ``units_completed`` /
``units_retried`` / ``units_failed`` / ``units_timeout``,
``workers_spawned`` / ``workers_crashed``, and a
``parallel.unit_wall_seconds`` histogram of per-unit wall time as
measured inside the worker.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import queue as queue_mod
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.telemetry.metrics import MetricsRegistry

#: Per-unit attempts before a unit is reported failed (1 retry).
MAX_ATTEMPTS = 2

#: Parent event-loop poll interval (seconds, wall clock).
_TICK = 0.05


@dataclass(frozen=True)
class WorkUnit:
    """One independent, seed-deterministic cell of a sweep.

    ``fn`` is either a dotted-path string (``"pkg.mod:callable"`` or
    ``"pkg.mod.callable"``) — portable across start methods — or a
    picklable module-level callable.  ``kwargs`` must be picklable.
    """

    fn: Union[str, Callable[..., Any]]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    uid: str = ""


@dataclass
class UnitResult:
    """Outcome of one work unit, in submission order."""

    index: int
    uid: str
    ok: bool
    value: Any = None
    error: str = ""
    attempts: int = 1
    wall: float = 0.0

    def unwrap(self) -> Any:
        if not self.ok:
            raise RuntimeError(
                f"work unit {self.uid or self.index} failed after "
                f"{self.attempts} attempt(s): {self.error}")
        return self.value


def resolve_callable(fn: Union[str, Callable[..., Any]]) -> Callable[..., Any]:
    """Import a work-unit callable from its dotted path."""
    if callable(fn):
        return fn
    if ":" in fn:
        module_name, attr = fn.split(":", 1)
    else:
        module_name, _, attr = fn.rpartition(".")
    if not module_name:
        raise ValueError(f"cannot resolve work-unit callable {fn!r}")
    target: Any = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"{fn!r} resolved to non-callable {target!r}")
    return target


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, task_queue, result_queue,
                 sys_paths: Sequence[str], current) -> None:
    """Persistent worker: pull chunks, run units, report results.

    Emits ``("chunk", wid, [indices])`` on chunk receipt and
    ``("start", wid, index)`` before each unit.  ``current`` is a
    shared-memory slot holding the index being executed right now: a
    queue message can be lost in the feeder thread when the process
    dies hard (``os._exit``, segfault), but the shared slot is written
    synchronously, so the parent can always attribute a crash to
    exactly one unit.
    """
    for path in sys_paths:
        if path not in sys.path:
            sys.path.append(path)
    fn_cache: Dict[Any, Callable[..., Any]] = {}
    while True:
        chunk = task_queue.get()
        if chunk is None:
            return
        result_queue.put(("chunk", worker_id, [entry[0] for entry in chunk]))
        for index, fn, kwargs in chunk:
            current.value = index
            result_queue.put(("start", worker_id, index))
            try:
                func = fn_cache.get(fn)
                if func is None:
                    func = fn_cache[fn] = resolve_callable(fn)
                began = time.perf_counter()
                value = func(**kwargs)
                wall = time.perf_counter() - began
                message = ("done", worker_id, index, True, value, "", wall)
            except BaseException as exc:  # noqa: BLE001 - unit isolation
                message = ("done", worker_id, index, False, None,
                           f"{type(exc).__name__}: {exc}", 0.0)
            try:
                result_queue.put(message)
            except Exception as exc:  # unpicklable result
                result_queue.put(("done", worker_id, index, False, None,
                                  f"result not transportable: {exc}", 0.0))
            current.value = -1


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class WorkerPool:
    """Fan seed-deterministic work units out to worker processes.

    Args:
        jobs: worker process count (default ``os.cpu_count()``);
            ``jobs=1`` runs inline in the parent — same results, no
            subprocess machinery.
        timeout: per-unit wall-clock seconds before the unit's worker
            is killed and the unit retried (``None`` = no limit; not
            enforceable inline at ``jobs=1``).
        chunksize: units per dispatch chunk (default
            ``ceil(n / (jobs * 4))``).
        name: telemetry component for the ``parallel.*`` instruments.
        registry: report-side :class:`MetricsRegistry` to count into
            (default: a private one, exposed as ``pool.metrics``).
    """

    def __init__(self, jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 chunksize: Optional[int] = None, name: str = "pool",
                 registry: Optional[MetricsRegistry] = None):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.timeout = timeout
        self.chunksize = chunksize
        self.name = name
        self.metrics = registry if registry is not None else MetricsRegistry()
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context("spawn")

    # -- telemetry shorthands ------------------------------------------
    def _count(self, suffix: str, amount: int = 1) -> None:
        self.metrics.counter(f"parallel.{suffix}", self.name).inc(amount)

    def _observe_wall(self, wall: float) -> None:
        self.metrics.histogram("parallel.unit_wall_seconds",
                               self.name).observe(wall)

    # ------------------------------------------------------------------
    def run(self, units: Sequence[WorkUnit],
            on_result: Optional[Callable[[UnitResult], None]] = None,
            ) -> List[UnitResult]:
        """Execute every unit; return results ordered by unit index.

        ``on_result`` is invoked in the parent once per unit with its
        *final* :class:`UnitResult` (success or exhausted-retries
        failure), in **completion order** — not submission order.  It
        exists for incremental persistence (campaign checkpoints flush
        each finished cell to disk so a crash loses at most the cells
        in flight); key any state it writes by ``uid``, never by
        arrival position.
        """
        units = list(units)
        self._count("units_dispatched", len(units))
        if not units:
            return []
        jobs = min(self.jobs, len(units))
        if jobs <= 1:
            return self._run_inline(units, on_result)
        return self._run_pool(units, jobs, on_result)

    def map(self, fn: Union[str, Callable[..., Any]],
            cells: Sequence[Dict[str, Any]]) -> List[UnitResult]:
        """Sweep one callable over kwargs cells (convenience wrapper)."""
        return self.run([WorkUnit(fn=fn, kwargs=dict(cell)) for cell in cells])

    # ------------------------------------------------------------------
    # Inline execution (jobs=1): identical semantics, zero processes
    # ------------------------------------------------------------------
    def _run_inline(self, units: Sequence[WorkUnit],
                    on_result: Optional[Callable[[UnitResult], None]] = None,
                    ) -> List[UnitResult]:
        results = []
        for index, unit in enumerate(units):
            func = resolve_callable(unit.fn)
            attempts = 0
            while True:
                attempts += 1
                try:
                    began = time.perf_counter()
                    value = func(**unit.kwargs)
                    wall = time.perf_counter() - began
                    results.append(UnitResult(index, unit.uid, True, value,
                                              attempts=attempts, wall=wall))
                    self._count("units_completed")
                    self._observe_wall(wall)
                    break
                except Exception as exc:  # noqa: BLE001 - unit isolation
                    if attempts < MAX_ATTEMPTS:
                        self._count("units_retried")
                        continue
                    results.append(UnitResult(
                        index, unit.uid, False,
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempts))
                    self._count("units_failed")
                    break
            if on_result is not None:
                on_result(results[-1])
        return results

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _run_pool(self, units: Sequence[WorkUnit], jobs: int,
                  on_result: Optional[Callable[[UnitResult], None]] = None,
                  ) -> List[UnitResult]:
        ctx = self._context
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        sys_paths = [p for p in sys.path if p]

        chunksize = self.chunksize or max(1, -(-len(units) // (jobs * 4)))
        entries = [(i, unit.fn, unit.kwargs) for i, unit in enumerate(units)]
        for base in range(0, len(entries), chunksize):
            task_queue.put(entries[base:base + chunksize])

        workers: Dict[int, Any] = {}       # wid -> (process, current slot)
        next_worker_id = 0

        def spawn() -> None:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            current = ctx.Value("q", -1, lock=False)
            proc = ctx.Process(
                target=_worker_main, name=f"{self.name}-worker-{wid}",
                args=(wid, task_queue, result_queue, sys_paths, current),
                daemon=True)
            proc.start()
            workers[wid] = (proc, current)
            self._count("workers_spawned")

        for _ in range(jobs):
            spawn()

        pending = set(range(len(units)))
        attempts = {i: 0 for i in pending}
        done: Dict[int, UnitResult] = {}
        # Units a live worker holds: wid -> {index: started_bool}
        assigned: Dict[int, Dict[int, bool]] = {}
        started_at: Dict[int, float] = {}          # index -> wall start
        stall_since: Optional[float] = None

        def record_failure(index: int, error: str) -> None:
            done[index] = UnitResult(index, units[index].uid, False,
                                     error=error,
                                     attempts=attempts[index])
            pending.discard(index)
            self._count("units_failed")
            if on_result is not None:
                on_result(done[index])

        def requeue_or_fail(index: int, error: str,
                            penalise: bool = True) -> None:
            """A unit lost to a crash/timeout: retry once, then fail."""
            if penalise:
                attempts[index] += 1
            if attempts[index] >= MAX_ATTEMPTS:
                record_failure(index, error)
            else:
                self._count("units_retried")
                task_queue.put([(index, units[index].fn,
                                 units[index].kwargs)])

        def reap_worker(wid: int, reason: str) -> None:
            """Kill/collect a worker, reassign its units, respawn."""
            proc, current = workers.pop(wid)
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            self._count("workers_crashed")
            inflight = int(current.value)
            held = assigned.pop(wid, {})
            if inflight >= 0:
                held.setdefault(inflight, True)
            for index in sorted(held):
                if index in done or index not in pending:
                    continue
                # The unit being executed when the worker died burns its
                # retry budget; units the worker had merely queued are
                # requeued without penalty.
                started = held[index] or index == inflight
                started_at.pop(index, None)
                requeue_or_fail(index, reason, penalise=started)
            spawn()

        last_police = time.monotonic()

        while pending:
            try:
                message = result_queue.get(timeout=_TICK)
            except queue_mod.Empty:
                message = None

            if message is not None:
                stall_since = None
                kind, wid = message[0], message[1]
                if kind == "chunk":
                    holder = assigned.setdefault(wid, {})
                    for index in message[2]:
                        if index in pending:
                            holder[index] = False
                elif kind == "start":
                    index = message[2]
                    if wid in assigned and index in pending:
                        assigned[wid][index] = True
                        started_at[index] = time.monotonic()
                elif kind == "done":
                    _, _, index, ok, value, error, wall = message
                    if wid in assigned:
                        assigned[wid].pop(index, None)
                    started_at.pop(index, None)
                    if index not in pending:   # duplicate after a requeue
                        continue
                    attempts[index] += 1
                    if ok:
                        done[index] = UnitResult(
                            index, units[index].uid, True, value,
                            attempts=attempts[index], wall=wall)
                        pending.discard(index)
                        self._count("units_completed")
                        self._observe_wall(wall)
                        if on_result is not None:
                            on_result(done[index])
                    elif attempts[index] >= MAX_ATTEMPTS:
                        record_failure(index, error)
                    else:
                        self._count("units_retried")
                        task_queue.put([(index, units[index].fn,
                                         units[index].kwargs)])
                # Keep policing even under a steady message stream, so a
                # hung worker is detected while its siblings make
                # progress — but not on every message.
                if time.monotonic() - last_police < 5 * _TICK:
                    continue

            # Police timeouts, worker deaths, and stalled dispatch.
            now = time.monotonic()
            last_police = now
            if self.timeout is not None:
                # The shared slot is authoritative even when the
                # "start" message is still sitting in a feeder thread.
                for wid, (proc, current) in workers.items():
                    inflight = int(current.value)
                    if inflight >= 0 and inflight not in started_at:
                        started_at[inflight] = now
                        assigned.setdefault(wid, {})[inflight] = True
                for wid in list(assigned):
                    if wid not in workers:
                        continue
                    overdue = [i for i, started in assigned[wid].items()
                               if started
                               and now - started_at.get(i, now) > self.timeout]
                    if overdue:
                        self._count("units_timeout", len(overdue))
                        reap_worker(wid, f"timed out after {self.timeout}s")
            for wid, (proc, _) in list(workers.items()):
                if not proc.is_alive():
                    reap_worker(wid, f"worker exited "
                                     f"(exitcode {proc.exitcode})")
            live_holdings = any(assigned.get(wid) for wid in workers)
            if pending and not live_holdings:
                # Nothing in flight: either chunks are still queued (a
                # worker will announce shortly) or a chunk died with its
                # worker between dequeue and announcement.  Give the
                # queue a grace period, then requeue what is missing.
                if stall_since is None:
                    stall_since = now
                elif now - stall_since > max(1.0, 20 * _TICK):
                    stall_since = None
                    for index in sorted(pending):
                        if index not in done:
                            task_queue.put([(index, units[index].fn,
                                             units[index].kwargs)])
            else:
                stall_since = None

        for _ in workers:
            task_queue.put(None)
        for proc, _ in workers.values():
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        task_queue.close()
        result_queue.close()
        return [done[index] for index in sorted(done)]
