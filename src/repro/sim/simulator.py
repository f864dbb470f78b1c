"""Discrete-event simulation kernel.

Every component in the reproduction — hosts, switches, overlay daemons,
BFT replicas, PLCs, attackers, the measurement device — runs inside one
:class:`Simulator`.  The kernel provides:

* an event heap of ``(time, seq, handle, fn, args)`` tuples — ordered by
  time, then scheduling order, for deterministic replay,
* cancellable one-shot events and periodic timers,
* a root :class:`~repro.util.rng.DeterministicRng` and shared
  :class:`~repro.util.eventlog.EventLog`.

Time is a float in seconds.  The simulator never consults the wall
clock, so latency results are reproducible across machines.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer
from repro.util.eventlog import EventLog
from repro.util.rng import DeterministicRng


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


#: Lazy-cancellation sweep threshold: once more than this many cancelled
#: events sit in the heap *and* they outnumber live entries, the heap is
#: compacted in place instead of waiting for the run loop to reach them.
_SWEEP_MIN_CANCELLED = 64


class Event:
    """Cancellation handle of a scheduled callback, returned by
    :meth:`Simulator.at` / :meth:`Simulator.schedule`.

    The callback and its arguments live in the heap entry
    ``(time, seq, handle, fn, args)``; ``seq`` is unique per simulator,
    so a comparison never reaches the handle or the callback.
    """

    __slots__ = ("time", "seq", "cancelled", "fired", "periodic", "_sim")

    def __init__(self, time: float, seq: int):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.fired = False
        self.periodic: Optional["PeriodicTimer"] = None
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # Keep the owning simulator's O(1) pending-event accounting
        # exact: this event still occupies a heap slot but will never
        # fire.
        sim = self._sim
        if sim is not None:
            sim._cancelled_in_heap += 1
            if (sim._cancelled_in_heap > _SWEEP_MIN_CANCELLED
                    and sim._cancelled_in_heap * 2 > len(sim._heap)):
                sim._sweep_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class PeriodicTimer:
    """A repeating timer managed by the simulator.

    The callback may call :meth:`stop` (directly or transitively) to end
    the series.  The period may be changed between firings.
    """

    def __init__(self, sim: "Simulator", period: float, fn: Callable, args: Tuple):
        if period <= 0:
            raise SimulationError(f"periodic timer period must be > 0, got {period}")
        self._sim = sim
        self.period = period
        self._fn = fn
        self._args = args
        self._event: Optional[Event] = None
        self._stopped = False

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _arm(self, delay: float) -> None:
        if self._stopped:
            return
        self._event = self._sim.schedule(delay, self._fire)
        self._event.periodic = self

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fn(*self._args)
        self._arm(self.period)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()


class Simulator:
    """Deterministic discrete-event scheduler.

    Args:
        seed: root seed for all randomness in the simulation.
        telemetry: hand out inert trace spans when False.
        trace_retention: bound on retained finished trace spans
            (oldest-evicted; ``None`` retains everything).
    """

    def __init__(self, seed: int = 0, *, telemetry: bool = True,
                 trace_retention: Optional[int] = None):
        self._now = 0.0
        # (time, seq, handle, fn, args); handle is None for post()/post_at().
        self._heap: List[Tuple[float, int, Optional[Event], Callable, Tuple]] = []
        self._seq = 0                    # next heap tie-breaker
        self._events_executed = 0
        self._events_cancelled = 0       # cancelled events reaped so far
        self._cancelled_in_heap = 0      # cancelled but not yet reaped
        # Kernel metrics are flushed from plain ints at run-loop exit
        # (see run()); these track what has already been pushed.
        self._flushed_executed = 0
        self._flushed_cancelled = 0
        self.rng = DeterministicRng(seed)
        # The clock is a bound method (not a lambda) so the whole
        # simulator object graph stays picklable for repro.snapshot.
        self.log = EventLog(clock=self._clock_now)
        self.metrics = MetricsRegistry(clock=self._clock_now)
        self.tracer = Tracer(clock=self._clock_now, enabled=telemetry,
                             max_retained=trace_retention)
        self._metric_executed = self.metrics.counter("sim.events_executed",
                                                     component="kernel")
        self._metric_cancelled = self.metrics.counter("sim.events_cancelled",
                                                      component="kernel")
        self._metric_heap = self.metrics.gauge("sim.heap_depth",
                                               component="kernel")
        self._flushed_spans_evicted = 0
        self._halted = False
        self._sequences: dict = {}

    def _clock_now(self) -> float:
        """Clock callable handed to the log/metrics/tracer.

        A bound method rather than a closure: bound methods pickle by
        reference, so a snapshot restores with the clocks still wired
        to this simulator.
        """
        return self._now

    # ------------------------------------------------------------------
    # Snapshot support (repro.snapshot)
    # ------------------------------------------------------------------
    def event_digest(self) -> str:
        """Hash of the full executed-event record for byte-identity checks.

        Covers every log record (time, source, category, message) plus
        the executed-event count and clock, so uninterrupted and
        restored runs can be compared directly.
        """
        import hashlib

        hasher = hashlib.sha256()
        for record in self.log:
            hasher.update(repr((record.time, record.source, record.category,
                                record.message)).encode())
        hasher.update(repr((self._events_executed, self._now)).encode())
        return hasher.hexdigest()

    def save(self, path: str, meta: Optional[dict] = None) -> dict:
        """Snapshot this simulator (and everything scheduled on it) to
        ``path`` in the :mod:`repro.snapshot.format` container.

        Side-effect free: the live simulator continues identically.
        Most callers snapshot a whole world instead
        (:func:`repro.snapshot.save_world`); this hook serves components
        built directly on a bare simulator.
        """
        from repro.snapshot.format import dump

        header_meta = {"now": self._now,
                       "events_executed": self._events_executed,
                       "event_digest": self.event_digest()}
        if meta:
            header_meta.update(meta)
        return dump(path, "simulator", self, header_meta)

    @classmethod
    def restore(cls, path: str) -> "Simulator":
        """Load a simulator saved with :meth:`save`."""
        from repro.snapshot.format import load

        _header, sim = load(path, expect_kind="simulator")
        if not isinstance(sim, cls):
            from repro.snapshot.format import SnapshotError
            raise SnapshotError(
                f"{path}: payload is {type(sim).__name__}, not a Simulator")
        return sim

    def sequence(self, name: str) -> int:
        """Next value (0, 1, 2, ...) of a named per-simulator sequence.

        Components that need unique small integers — port offsets,
        instance indices — draw them here instead of from class-level
        counters, so two simulations built in the same process allocate
        identically: the stream depends only on construction order
        inside *this* simulator, never on what ran before it.
        """
        value = self._sequences.get(name, 0)
        self._sequences[name] = value + 1
        return value

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) scheduled events — O(1) maintained count."""
        return len(self._heap) - self._cancelled_in_heap

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # The four guards are written ``not (x >= bound)`` so that a NaN
    # delay or time is refused like a negative one: every comparison
    # with NaN is False, and a NaN entry would sit in the heap in
    # arbitrary order and set the clock to NaN when it fired.
    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if not (delay >= 0):
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.at(self._now + delay, fn, *args)

    def at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if not (time >= self._now):
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq)
        event._sim = self
        heapq.heappush(self._heap, (time, seq, event, fn, args))
        return event

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no cancellation.

        Hot paths (frame delivery, per-hop processing delays) schedule
        millions of events that are never cancelled.  A post is nothing
        but its heap entry — no :class:`Event` is made — and returns
        ``None``; callers that may need to cancel must use
        :meth:`schedule` / :meth:`at`.
        """
        if not (delay >= 0):
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.post_at(self._now + delay, fn, *args)

    def post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`at` (see :meth:`post`)."""
        if not (time >= self._now):
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, None, fn, args))

    def every(self, period: float, fn: Callable, *args: Any,
              start_after: Optional[float] = None) -> PeriodicTimer:
        """Run ``fn(*args)`` every ``period`` seconds.

        The first firing is after ``start_after`` seconds (defaults to
        one full period).
        """
        timer = PeriodicTimer(self, period, fn, args)
        timer._arm(period if start_after is None else start_after)
        return timer

    def halt(self) -> None:
        """Stop the run loop after the current event completes."""
        self._halted = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        while self._heap:
            time, _seq, handle, fn, args = heapq.heappop(self._heap)
            if handle is not None:
                if handle.cancelled:
                    self._cancelled_in_heap -= 1
                    self._events_cancelled += 1
                    self._flush_kernel_metrics()
                    continue
                handle.fired = True
            self._now = time
            self._events_executed += 1
            fn(*args)
            self._flush_kernel_metrics()
            return True
        return False

    def _sweep_cancelled(self) -> None:
        """Compact the heap in place, reaping cancelled events eagerly.

        Triggered from :meth:`Event.cancel` once cancelled entries
        dominate the heap (mass shutdowns, fault-plan churn), so the run
        loop does not carry thousands of dead slots to their timestamps.
        The list object is mutated in place: the run loop's local heap
        alias stays valid.
        """
        heap = self._heap
        live = [entry for entry in heap
                if entry[2] is None or not entry[2].cancelled]
        removed = len(heap) - len(live)
        if removed:
            heap[:] = live
            heapq.heapify(heap)
            self._events_cancelled += removed
        self._cancelled_in_heap = 0

    def _flush_kernel_metrics(self) -> None:
        """Push the plain-int kernel counters into the registry.

        The run loop counts events in local ints and flushes once at
        exit — per-event counter/gauge object calls used to dominate
        the kernel's own cost.
        """
        if self._events_executed > self._flushed_executed:
            self._metric_executed.inc(self._events_executed
                                      - self._flushed_executed)
            self._flushed_executed = self._events_executed
        if self._events_cancelled > self._flushed_cancelled:
            self._metric_cancelled.inc(self._events_cancelled
                                       - self._flushed_cancelled)
            self._flushed_cancelled = self._events_cancelled
        if self.tracer.spans_evicted > self._flushed_spans_evicted:
            # Lazily registered: the row only appears once retention is
            # actually evicting, so default-config snapshots are unchanged.
            self.metrics.counter("telemetry.trace.spans_evicted",
                                 component="tracer").inc(
                self.tracer.spans_evicted - self._flushed_spans_evicted)
            self._flushed_spans_evicted = self.tracer.spans_evicted
        self._metric_heap.set(len(self._heap))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the heap empties, ``until`` is reached, or
        ``max_events`` have executed.  Returns the final simulated time.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier, so back-to-back
        ``run(until=...)`` calls behave like a continuous timeline.

        The loop body is inlined (no step() call, no per-event metric
        objects) — this is the hottest few lines of the whole simulator.
        Events sharing a timestamp are dispatched as one batch: the
        until/cancelled guards run once per timestamp, not once per
        event.  A post (``handle is None``) costs a pop and a call.
        """
        self._halted = False
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        try:
            entry = heap[0] if heap else None
            while entry is not None and not self._halted:
                now, _seq, handle, fn, args = entry
                if handle is not None and handle.cancelled:
                    pop(heap)
                    self._cancelled_in_heap -= 1
                    self._events_cancelled += 1
                    entry = heap[0] if heap else None
                    continue
                if until is not None and now > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                # Batched same-timestamp dispatch.  Every event in the
                # batch shares now <= until, so only halt / max_events /
                # cancellation need re-checking; heap[0] is re-read
                # after each callback so zero-delay schedules made by
                # the callback join the current batch in order, and the
                # entry that ends a batch is carried back to the outer
                # checks without a second heap read.
                self._now = now
                while True:
                    pop(heap)
                    if handle is not None:
                        handle.fired = True
                    executed += 1
                    fn(*args)
                    if not heap or self._halted:
                        entry = None
                        break
                    entry = heap[0]
                    time, _seq, handle, fn, args = entry
                    if time != now or (handle is not None
                                       and handle.cancelled):
                        break
                    if max_events is not None and executed >= max_events:
                        break
        finally:
            # The executed count is accumulated in a local and folded in
            # once: nothing reads sim.events_executed mid-run (reports
            # and summaries consult it between runs) and the registry
            # counter was already flush-at-exit only.
            self._events_executed += executed
            self._flush_kernel_metrics()
        if until is not None and self._now < until:
            self._now = until
        return self._now
