"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.api import Process, SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("-inf")])
def test_nan_and_negative_times_are_refused(bad):
    # NaN compares False with everything: written ``x < bound`` the
    # guards let it through, the entry sat anywhere in the heap and the
    # clock *became* NaN when it fired.
    sim = Simulator()
    sim.run(until=1.0)
    fired = []
    for call in (sim.schedule, sim.at, sim.post, sim.post_at):
        with pytest.raises(SimulationError):
            call(bad, fired.append, "x")
    assert sim.pending_events == 0
    # The bounds themselves are fine: zero delay, and exactly now.
    sim.schedule(0.0, fired.append, "schedule")
    sim.at(sim.now, fired.append, "at")
    sim.post(0.0, fired.append, "post")
    sim.post_at(sim.now, fired.append, "post_at")
    sim.run()
    assert fired == ["schedule", "at", "post", "post_at"]
    assert sim.now == 1.0


def test_periodic_timer_fires_repeatedly_and_stops():
    sim = Simulator()
    ticks = []
    timer = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    timer.stop()
    sim.run(until=6.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_periodic_timer_start_after():
    sim = Simulator()
    ticks = []
    sim.every(2.0, lambda: ticks.append(sim.now), start_after=0.5)
    sim.run(until=5.0)
    assert ticks == [0.5, 2.5, 4.5]


def test_periodic_timer_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_events_nested_scheduling():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(1.0, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 2.0)]


def test_halt_stops_run_loop():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: (seen.append(1), sim.halt()))
    sim.schedule(2.0, seen.append, 2)
    sim.run()
    assert seen == [1]
    sim.run()
    assert seen == [1, 2]


def test_max_events_limit():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(float(i + 1), seen.append, i)
    sim.run(max_events=4)
    assert seen == [0, 1, 2, 3]


def test_rng_streams_are_deterministic_and_independent():
    sim_a = Simulator(seed=42)
    sim_b = Simulator(seed=42)
    child_a = sim_a.rng.child("net")
    child_b = sim_b.rng.child("net")
    assert [child_a.random() for _ in range(5)] == [child_b.random() for _ in range(5)]
    # A sibling stream must differ.
    other = sim_a.rng.child("prime")
    assert [other.random() for _ in range(5)] != [sim_b.rng.child("net").random() for _ in range(5)]


def test_event_log_carries_sim_time():
    sim = Simulator()
    sim.schedule(2.5, lambda: sim.log.log("src", "cat", "hello", a=1))
    sim.run()
    records = sim.log.records(category="cat")
    assert len(records) == 1
    assert records[0].time == 2.5
    assert records[0].data["a"] == 1


class _Ticker(Process):
    def __init__(self, sim):
        super().__init__(sim, "ticker")
        self.ticks = 0
        self.call_every(1.0, self._tick)

    def _tick(self):
        self.ticks += 1


def test_process_shutdown_cancels_timers():
    sim = Simulator()
    ticker = _Ticker(sim)
    sim.run(until=3.0)
    assert ticker.ticks == 3
    ticker.shutdown()
    sim.run(until=10.0)
    assert ticker.ticks == 3


def test_process_guarded_call_later_after_shutdown():
    sim = Simulator()
    ticker = _Ticker(sim)
    fired = []
    ticker.call_later(5.0, fired.append, "x")
    sim.run(until=1.5)
    ticker.shutdown()
    sim.run(until=10.0)
    assert fired == []


# ----------------------------------------------------------------------
# Batched same-timestamp dispatch, post(), lazy-cancel sweep
# ----------------------------------------------------------------------
def test_batched_dispatch_preserves_schedule_order_with_zero_delay():
    # Events scheduled *during* a same-timestamp batch at that same
    # timestamp must still run, after the already-queued ones.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "nested"]
    assert sim.now == 1.0


def test_batched_dispatch_respects_halt_mid_batch():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "a")
    sim.schedule(1.0, sim.halt)
    sim.schedule(1.0, order.append, "b")
    sim.run()
    assert order == ["a"]
    sim.run()
    assert order == ["a", "b"]


def test_batched_dispatch_respects_max_events_mid_batch():
    sim = Simulator()
    seen = []
    for i in range(6):
        sim.schedule(1.0, seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]


def test_post_runs_like_schedule_but_returns_no_handle():
    sim = Simulator()
    order = []
    assert sim.post(2.0, order.append, "b") is None
    sim.post(1.0, order.append, "a")
    sim.post_at(3.0, order.append, "c")
    with pytest.raises(SimulationError):
        sim.post(-1.0, order.append, "x")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.events_executed == 3


def test_schedule_events_are_never_recycled():
    # A handle stands for one heap entry for good: cancelling it after
    # unrelated posts have fired cancels its own event and nothing else.
    sim = Simulator()
    fired = []
    handle = sim.schedule(2.0, fired.append, "scheduled")
    sim.post(1.0, fired.append, "posted")
    sim.post(3.0, fired.append, "posted later")
    sim.run(until=1.0)
    handle.cancel()
    sim.run()
    assert fired == ["posted", "posted later"]


def test_mass_cancellation_sweeps_heap():
    sim = Simulator()
    keep = sim.schedule(500.0, lambda: None)
    handles = [sim.schedule(float(i + 1), lambda: None)
               for i in range(400)]
    for handle in handles:
        handle.cancel()
    # The sweep fired during cancellation: the heap is back below the
    # sweep threshold instead of holding 400 cancelled carcasses.
    assert len(sim._heap) <= 65
    assert sim.pending_events == 1
    sim.run()
    assert sim.now == 500.0
    assert keep.fired


# ----------------------------------------------------------------------
# (time, seq, handle, fn, args) heap entries
# ----------------------------------------------------------------------
class _Uncomparable:
    """A callable (and argument) that refuses to be ordered."""

    def __init__(self, sink, label):
        self.sink, self.label = sink, label

    def __call__(self, *args):
        self.sink.append(self.label)

    def _refuse(self, other):
        raise AssertionError("heap entries compared past seq")

    __lt__ = __le__ = __gt__ = __ge__ = _refuse


def test_heap_entries_never_compare_past_seq():
    # seq is unique per simulator, so tuple comparison stops there and
    # never reaches the handle, the callable or its arguments.
    sim = Simulator()
    order = []
    for i in range(50):
        label = f"post{i}"
        sim.post_at(1.0, _Uncomparable(order, label),
                    _Uncomparable(order, None))
        sim.at(1.0, _Uncomparable(order, f"at{i}"), {"unorderable": i})
    sim.at(1.0, order.append, "last").cancel()
    sim._sweep_cancelled()              # heapify compares entries too
    sim.run()
    assert order == [f"{kind}{i}" for i in range(50)
                     for kind in ("post", "at")]


def test_posts_carry_no_event_object():
    sim = Simulator()
    handle = sim.at(1.0, print, "x")
    sim.post_at(1.0, print, "y")
    assert sim._heap == [(1.0, 0, handle, print, ("x",)),
                         (1.0, 1, None, print, ("y",))]
    assert not hasattr(handle, "fn") and not hasattr(handle, "args")


def test_sweep_keeps_every_post_and_every_live_handle():
    sim = Simulator()
    fired = []
    live, dead = [], []
    for i in range(40):
        sim.post(1.0 + i, fired.append, ("post", i))
        live.append(sim.schedule(1.5 + i, fired.append, ("live", i)))
        dead.append(sim.schedule(1.25 + i, fired.append, ("dead", i)))
    for handle in dead:
        handle.cancel()                 # 40 < the automatic threshold
    assert len(sim._heap) == 120 and sim.pending_events == 80
    sim._sweep_cancelled()
    assert len(sim._heap) == 80 and sim.pending_events == 80
    assert sim._cancelled_in_heap == 0
    assert [entry[2] for entry in sorted(sim._heap)
            if entry[2] is not None] == live
    assert sum(entry[2] is None for entry in sim._heap) == 40
    sim.run()
    assert fired == [(kind, i) for i in range(40)
                     for kind in ("post", "live")]
    assert all(handle.fired for handle in live)
    assert not any(handle.fired for handle in dead)
    # Reaped by the sweep, counted as cancelled exactly once.
    assert sim.metrics.get("sim.events_cancelled", "kernel").value == 40


def test_periodic_timer_stopped_from_its_own_callback_stays_stopped():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 3:
            timer.stop()

    timer = sim.every(1.0, tick)
    sim.post(10.0, ticks.append, "end")
    sim.run()
    assert ticks == [1.0, 2.0, 3.0, "end"]
    assert timer.stopped and sim.pending_events == 0


def _mixed_batch(sim, seen):
    """Six entries at t=1.0, alternating post / at, halting at the
    third; one cancelled handle in the middle of the batch."""
    sim.post(1.0, seen.append, 0)
    sim.at(1.0, seen.append, 1)
    sim.post_at(1.0, sim.halt)
    sim.schedule(1.0, seen.append, "cancelled").cancel()
    sim.post(1.0, seen.append, 3)
    sim.at(1.0, seen.append, 4)
    sim.post(1.0, seen.append, 5)


def test_halt_stops_inside_a_batch_of_posts_and_handles():
    sim = Simulator()
    seen = []
    _mixed_batch(sim, seen)
    sim.run()
    assert seen == [0, 1] and sim.events_executed == 3
    assert sim.pending_events == 3
    sim.run()
    assert seen == [0, 1, 3, 4, 5] and sim.events_executed == 6


def test_max_events_stops_inside_a_batch_of_posts_and_handles():
    sim = Simulator()
    seen = []
    _mixed_batch(sim, seen)
    sim.run(max_events=2)
    assert seen == [0, 1] and sim.pending_events == 4
    # halt() fires as the third event and ends this run as well; the
    # cancelled entry is skipped without counting against max_events.
    sim.run(max_events=2)
    assert seen == [0, 1] and sim.events_executed == 3
    sim.run(max_events=2)
    assert seen == [0, 1, 3, 4]
    assert sim.step() and seen == [0, 1, 3, 4, 5]
    assert not sim.step()
    assert sim.events_executed == 6 and sim.now == 1.0


def test_same_timestamp_order_across_at_post_and_zero_delay_callbacks():
    sim = Simulator()
    order = []

    def fan_out(label):
        # Zero-delay schedules made by a callback join the batch that is
        # being dispatched, behind everything already scheduled for it.
        order.append(label)
        sim.post(0.0, order.append, label + ".post")
        sim.at(sim.now, order.append, label + ".at")
        sim.post_at(sim.now, order.append, label + ".post_at")

    sim.at(1.0, fan_out, "a")
    sim.post_at(1.0, order.append, "b")
    sim.schedule(1.0, fan_out, "c")
    sim.post(1.0, order.append, "d")
    sim.run()
    assert order == ["a", "b", "c", "d",
                     "a.post", "a.at", "a.post_at",
                     "c.post", "c.at", "c.post_at"]
    assert sim.now == 1.0 and sim.events_executed == 10


def test_pending_events_exact_through_cancel_and_sweep():
    sim = Simulator()
    fired = []
    handles = [sim.at(float(i % 7 + 1), fired.append, i) for i in range(300)]
    for i in range(300):
        sim.post(float(i % 5 + 1), fired.append, 1000 + i)
    assert sim.pending_events == 600
    cancelled = 0
    for i, handle in enumerate(handles):
        if i % 10:                      # cancel 270 of the 300 handles
            handle.cancel()
            handle.cancel()             # idempotent
            cancelled += 1
            assert sim.pending_events == 600 - cancelled
    # Cancelled entries never outnumbered live ones, so nothing swept
    # yet; a burst of short-lived timers tips it over.
    assert len(sim._heap) == 600
    timers = [sim.at(9.0, fired.append, -1) for _ in range(400)]
    for timer in timers:
        timer.cancel()
    assert len(sim._heap) < 600
    assert sim.pending_events == 330
    sim.run()
    assert sim.pending_events == 0
    assert len(fired) == 330 and -1 not in fired
    # By time, then scheduling order — also after the sweep's heapify.
    survivors = ([(i % 7 + 1, i) for i in range(0, 300, 10)]
                 + [(i % 5 + 1, 1000 + i) for i in range(300)])
    assert fired == [value for _time, value in sorted(survivors)]


class _Chain:
    """Picklable workload for the save/restore test: each firing logs,
    posts a follow-up and re-arms a cancellable handle."""

    def __init__(self, sim):
        self.sim = sim
        self.handle = None

    def tick(self, depth):
        self.sim.log.log("chain", "test.tick", f"depth={depth}")
        if self.handle is not None:
            self.handle.cancel()
        self.handle = self.sim.schedule(5.0, self.tick, -depth)
        if depth < 40:
            self.sim.post(0.25, self.tick, depth + 1)
            self.sim.post(0.0, self.sim.log.log, "chain", "test.echo",
                          f"depth={depth}")


def test_midrun_save_restores_to_same_digest(tmp_path):
    def build():
        sim = Simulator(seed=3)
        chain = _Chain(sim)
        sim.at(0.5, chain.tick, 0)
        sim.every(1.0, sim.log.log, "timer", "test.timer", "beat")
        return sim

    straight = build()
    straight.run(until=20.0)

    saved = build()
    saved.run(until=4.1)
    # Pending posts (bare tuples), live handles and a cancelled handle
    # still in the heap all ride along.
    handles = [entry[2] for entry in saved._heap]
    assert None in handles
    assert any(h is not None and h.cancelled for h in handles)
    assert any(h is not None and not h.cancelled for h in handles)
    assert saved._cancelled_in_heap > 0
    path = str(tmp_path / "kernel.snap")
    saved.save(path)
    restored = Simulator.restore(path)
    assert restored.pending_events == saved.pending_events > 0
    assert ([entry[:2] for entry in restored._heap]
            == [entry[:2] for entry in saved._heap])
    assert restored._cancelled_in_heap == saved._cancelled_in_heap
    assert restored.event_digest() == saved.event_digest()
    for sim in (saved, restored):
        sim.run(until=20.0)
        assert sim.event_digest() == straight.event_digest()
        assert sim.events_executed == straight.events_executed
