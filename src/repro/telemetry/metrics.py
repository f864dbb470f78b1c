"""Simulated-time-aware metrics: counters, gauges, histograms.

Every metric is keyed by ``(name, component)`` and timestamped with the
simulated clock, so the same registry can hold ``net.link.frames`` for
fifty links or ``prime.updates_executed`` for six replicas without name
collisions.  Histograms keep raw observations (bounded) and compute
proper interpolated quantiles — this is what replaced the hand-rolled
nearest-rank ``p50`` that the early benchmarks used.

The registry never consults the wall clock: bind it to a
:class:`~repro.sim.simulator.Simulator` and exported timestamps are
simulated seconds, reproducible across machines.
"""

from __future__ import annotations

import io
import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Clock = Callable[[], float]

# Histograms stop recording raw samples past this count (aggregates —
# count/sum/min/max — stay exact; quantiles become first-N approximate).
DEFAULT_MAX_SAMPLES = 100_000


def _zero_clock() -> float:
    """Default clock (module-level so unbound metrics stay picklable)."""
    return 0.0


class Metric:
    """Base: a named, component-scoped, simulated-time-stamped metric."""

    kind = "metric"

    def __init__(self, name: str, component: str = "",
                 clock: Optional[Clock] = None):
        self.name = name
        self.component = component
        clock = clock or _zero_clock
        self._clock = clock
        self.created_at = clock()
        self.updated_at = self.created_at

    @property
    def key(self) -> Tuple[str, str]:
        return (self.name, self.component)

    def _touch(self) -> None:
        self.updated_at = self._clock()

    def snapshot(self) -> Dict[str, Any]:
        raise NotImplementedError

    def state(self) -> Dict[str, Any]:
        """Full transportable state (superset of :meth:`snapshot`).

        ``state()`` round-trips through JSON/pickle and is what the
        parallel sweep engine ships from worker processes back to the
        report-side registry; :meth:`merge_state` is its inverse.
        """
        return self.snapshot()

    def merge_state(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"component={self.component!r})")


class Counter(Metric):
    """Monotonically increasing count (events, packets, drops...)."""

    kind = "counter"

    def __init__(self, name: str, component: str = "",
                 clock: Optional[Clock] = None):
        super().__init__(name, component, clock)
        self.value = 0

    def inc(self, amount: int = 1, now: Optional[float] = None) -> None:
        """Count ``amount``.  A per-frame caller that already holds the
        clock reading passes it as ``now`` and saves the clock call;
        ``updated_at`` is the same either way."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount
        self.updated_at = self._clock() if now is None else now

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "component": self.component, "value": self.value,
                "updated_at": self.updated_at}

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another counter's state in: totals add, timestamps max."""
        self.value += state["value"]
        self.updated_at = max(self.updated_at, state["updated_at"])


class Gauge(Metric):
    """A value that can go up and down (queue depth, heap size...)."""

    kind = "gauge"

    def __init__(self, name: str, component: str = "",
                 clock: Optional[Clock] = None):
        super().__init__(name, component, clock)
        self.value = 0.0
        self.min_seen: Optional[float] = None
        self.max_seen: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        self.min_seen = value if self.min_seen is None else min(self.min_seen, value)
        self.max_seen = value if self.max_seen is None else max(self.max_seen, value)
        self._touch()

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "component": self.component, "value": self.value,
                "min": self.min_seen, "max": self.max_seen,
                "updated_at": self.updated_at}

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another gauge's state in.

        ``min_seen``/``max_seen`` combine; the *level* is the most
        recently updated one (ties go to the incoming state, so merging
        worker snapshots in deterministic unit order yields a
        deterministic result).
        """
        for bound, pick in (("min", min), ("max", max)):
            other = state.get(bound)
            if other is not None:
                mine = getattr(self, f"{bound}_seen")
                setattr(self, f"{bound}_seen",
                        other if mine is None else pick(mine, other))
        if state["updated_at"] >= self.updated_at:
            self.value = state["value"]
            self.updated_at = state["updated_at"]


class Histogram(Metric):
    """Distribution of observations with interpolated quantiles.

    Aggregates (count/sum/min/max) are always exact.  Raw samples are
    kept up to ``max_samples``; beyond that quantiles are computed over
    the first ``max_samples`` observations (SCADA-scale runs stay far
    below the cap).
    """

    kind = "histogram"

    def __init__(self, name: str, component: str = "",
                 clock: Optional[Clock] = None,
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        super().__init__(name, component, clock)
        self.max_samples = max_samples
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._values: List[float] = []
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._values) < self.max_samples:
            self._values.append(value)
            self._sorted = None
        self._touch()

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Linearly interpolated quantile, ``q`` in [0, 1].

        Uses the standard "linear" method: rank ``q * (n - 1)`` with
        interpolation between the bracketing order statistics — so the
        p50 of ``[1, 2, 3, 4]`` is 2.5, not 3 (the nearest-rank mistake
        this helper exists to eliminate).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return None
        if self._sorted is None:
            self._sorted = sorted(self._values)
        values = self._sorted
        rank = q * (len(values) - 1)
        low = int(rank)
        high = min(low + 1, len(values) - 1)
        fraction = rank - low
        return values[low] * (1.0 - fraction) + values[high] * fraction

    def summary(self) -> Dict[str, Any]:
        """The conventional stats block (used by MeasurementDevice)."""
        if not self.count:
            return {"samples": 0}
        return {
            "samples": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> Dict[str, Any]:
        out = {"kind": self.kind, "name": self.name,
               "component": self.component, "count": self.count,
               "sum": self.sum, "updated_at": self.updated_at}
        out.update({k: v for k, v in self.summary().items() if k != "samples"})
        return out

    def state(self) -> Dict[str, Any]:
        """Snapshot plus the raw sample reservoir (for merging)."""
        out = self.snapshot()
        out["samples"] = list(self._values)
        return out

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's state in.

        Aggregates (count/sum/min/max) combine exactly; the raw samples
        are concatenated (up to ``max_samples``) and quantiles are
        recomputed over the pooled reservoir — merged quantiles are the
        quantiles of the union, **not** an average of per-shard
        quantiles.
        """
        self.count += state["count"]
        self.sum += state["sum"]
        for bound, pick in (("min", min), ("max", max)):
            other = state.get(bound)
            if other is not None:
                mine = getattr(self, bound)
                setattr(self, bound,
                        other if mine is None else pick(mine, other))
        room = self.max_samples - len(self._values)
        if room > 0:
            self._values.extend(state.get("samples", ())[:room])
            self._sorted = None
        self.updated_at = max(self.updated_at, state["updated_at"])

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another :class:`Histogram` into this one (in place);
        returns ``self`` so merges chain."""
        self.merge_state(other.state())
        return self


class MetricsRegistry:
    """All metrics of one simulation, keyed by ``(name, component)``.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call registers the instrument, later calls return the same object,
    so call sites stay one-liners.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self._clock: Clock = clock or _zero_clock
        self._metrics: Dict[Tuple[str, str], Metric] = {}

    def bind_clock(self, clock: Clock) -> None:
        """Attach the simulator clock (timestamps in simulated time)."""
        self._clock = clock
        for metric in self._metrics.values():
            metric._clock = clock

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, component: str = "") -> Counter:
        return self._get_or_create(Counter, name, component)

    def gauge(self, name: str, component: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, component)

    def histogram(self, name: str, component: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, component)

    def sync_counter(self, name: str, total: float,
                     component: str = "") -> Counter:
        """Raise a counter to an externally-maintained monotonic total.

        Hot loops (the simulation kernel, the crypto caches) count in
        plain ints and sync the registry at flush points instead of
        paying a method call per event; values below the counter's
        current total are ignored (counters never decrease).
        """
        counter = self.counter(name, component)
        if total > counter.value:
            counter.inc(total - counter.value)
        return counter

    def _get_or_create(self, cls, name: str, component: str) -> Any:
        key = (name, component)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, component, self._clock)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}/{component!r} already registered as "
                f"{metric.kind}, not {cls.kind}")
        return metric

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, name: str, component: str = "") -> Optional[Metric]:
        return self._metrics.get((name, component))

    def find(self, name: Optional[str] = None,
             component: Optional[str] = None,
             prefix: Optional[str] = None) -> List[Metric]:
        """Metrics matching an exact name, a component, and/or a dotted
        name prefix (``prefix="net.link"`` matches ``net.link.frames``)."""
        out = []
        for metric in self._metrics.values():
            if name is not None and metric.name != name:
                continue
            if component is not None and metric.component != component:
                continue
            if prefix is not None and not (
                    metric.name == prefix
                    or metric.name.startswith(prefix + ".")):
                continue
            out.append(metric)
        return sorted(out, key=lambda m: m.key)

    def total(self, name: str) -> float:
        """Sum a counter/gauge value across every component."""
        return sum(m.value for m in self.find(name=name)
                   if isinstance(m, (Counter, Gauge)))

    def merged_histogram(self, name: str) -> Histogram:
        """Combine one histogram name across components into a fresh
        (unregistered) histogram — e.g. delivery latency over all
        daemons."""
        merged = Histogram(name, "*", self._clock)
        for metric in self.find(name=name):
            if isinstance(metric, Histogram):
                for value in metric._values:
                    merged.observe(value)
        return merged

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.key))

    # ------------------------------------------------------------------
    # Merging (the parallel-sweep telemetry protocol)
    # ------------------------------------------------------------------
    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def state_snapshot(self) -> List[Dict[str, Any]]:
        """Full transportable state of every metric (JSON/pickle safe).

        Unlike :meth:`snapshot` this includes histogram sample
        reservoirs, so a worker process can ship its registry to the
        report side and :meth:`merge_snapshot` can reconstruct exact
        pooled quantiles.
        """
        return [metric.state() for metric in self]

    def merge_snapshot(self, states: List[Dict[str, Any]]) -> None:
        """Fold a :meth:`state_snapshot` from another registry into this
        one.

        Counters add, gauges keep the latest level (combining observed
        min/max), histograms pool their raw samples and recompute
        quantiles.  Merging per-worker snapshots in a deterministic
        order yields a deterministic merged registry.
        """
        for state in states:
            cls = self._KINDS.get(state.get("kind"))
            if cls is None:
                raise ValueError(
                    f"cannot merge metric state of kind {state.get('kind')!r}")
            metric = self._get_or_create(cls, state["name"],
                                         state.get("component", ""))
            metric.merge_state(state)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        return [metric.snapshot() for metric in self]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    CSV_FIELDS: Sequence[str] = (
        "kind", "name", "component", "value", "count", "sum", "mean",
        "min", "max", "p50", "p90", "p99", "updated_at",
    )

    def to_csv(self) -> str:
        import csv
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(self.CSV_FIELDS),
                                extrasaction="ignore")
        writer.writeheader()
        for row in self.snapshot():
            writer.writerow(row)
        return buffer.getvalue()
