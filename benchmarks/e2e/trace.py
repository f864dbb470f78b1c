"""Outside-in layer tracing: spans recorded from the benchmark's files.

The program under ``src/repro`` is not edited.  :func:`install` walks a
table of entry points (``entrypoints.TABLE``) and replaces each with a
wrapper that records a span — name, start, end, parent — in a
:class:`Recorder`; callbacks handed through public registration calls
(``Simulator.at``, ``Host.udp_bind``, ...) are wrapped in
:class:`TracedCallback` so the work they do is attributed to the
``repro.<package>`` that owns the callable, not to whoever dispatched it.

A layer's *self time* is the duration of its spans minus the part their
child spans cover (:func:`summarize`).  Spans stay in memory while the
workload runs and are written out afterwards (:func:`write_trace`).

Three things keep the hooks from silently coming off:

* every table entry must resolve (:class:`EntryPointError` otherwise);
* module-level functions are rebound *by identity* in every loaded
  ``repro.*`` module, because ``from repro.crypto.auth import
  sign_payload`` copies the reference;
* :func:`check_layers` requires at least one recorded call for each
  layer a workload exercises and none for the layers it bypasses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Callbacks whose owner is not a ``repro`` package (the benchmark's own
#: command injectors) are booked here and count against coverage.
OUTSIDE_LAYER = "bench"

#: Spans written to the trace file; the summary always covers all of them.
MAX_SPANS_WRITTEN = 200_000

#: Recorder the pickled :class:`TracedCallback` objects report to.  A
#: snapshot taken under tracing carries wrapped callbacks in its event
#: heap; unpickling has no caller to take a recorder from, so the
#: installed one is found here.  Set by :func:`install` only.
_installed: Optional["Recorder"] = None


class EntryPointError(RuntimeError):
    """A table entry does not name something the program defines."""


class Recorder:
    """Spans in parallel arrays (one Python object per span would double
    the traced run's heap), plus the name table they index."""

    def __init__(self) -> None:
        self.on = False
        self.names: List[str] = []          # "<layer>:<label>" per name id
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1                   # index of the open span

    def intern(self, layer: str, label: str) -> int:
        name = f"{layer}:{label}"
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)


# The span bookkeeping is written out three times (wrapped callback
# here, plain entry point and registering entry point in _wrap_entry)
# instead of being shared through a helper: one more Python frame per
# span is most of what a span costs, and that cost inflates exactly the
# layers with many short calls.
class TracedCallback:
    """A callback wrapped at a registration call.  A class with
    ``__reduce__`` rather than a closure: scheduled callbacks sit in the
    simulator heap, and the heap is pickled by ``repro.snapshot``."""

    __slots__ = ("fn", "nid")

    def __init__(self, fn: Callable, nid: int):
        self.fn = fn
        self.nid = nid

    def __call__(self, *args, **kwargs):
        rec = _installed
        if rec is None or not rec.on:
            return self.fn(*args, **kwargs)
        index = len(rec.start)
        parent = rec.current
        rec.name_id.append(self.nid)
        rec.parent.append(parent)
        rec.end.append(0.0)
        rec.current = index
        rec.start.append(perf_counter())
        try:
            return self.fn(*args, **kwargs)
        finally:
            rec.end[index] = perf_counter()
            rec.current = parent

    def __reduce__(self):
        return (TracedCallback, (self.fn, self.nid))


def owner_of(fn: Callable) -> Tuple[str, str]:
    """``(layer, label)`` of a callable: for a bound method the package
    of the *instance's* class (``Process._guarded`` bound to a Spines
    daemon is Spines work), otherwise the defining module's package."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    func = getattr(fn, "__func__", fn)
    bound_to = getattr(fn, "__self__", None)
    if bound_to is not None and not inspect.ismodule(bound_to):
        cls = bound_to if isinstance(bound_to, type) else type(bound_to)
        module = cls.__module__
        label = f"{cls.__name__}.{getattr(func, '__name__', '?')}"
    else:
        module = getattr(func, "__module__", None) or type(fn).__module__
        label = getattr(func, "__qualname__", type(fn).__name__)
    return layer_of_module(module), label


def layer_of_module(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return OUTSIDE_LAYER


# ----------------------------------------------------------------------
# Installing and removing the hooks
# ----------------------------------------------------------------------
class Hooks:
    """What :func:`install` did, so it can be undone."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []   # (holder, attr, original)

    def _set(self, holder: Any, attr: str, original: Any, new: Any) -> None:
        self._undo.append((holder, attr, original))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        global _installed
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()
        _installed = None


Watcher = Tuple[Optional[Callable], Callable]


def install(table: Sequence,
            watch: Optional[Dict[str, Watcher]] = None) -> Hooks:
    """Hook every entry of ``table``; raises :class:`EntryPointError` on
    the first one that does not resolve.  Recording starts switched off
    (``hooks.recorder.on = True`` turns it on).

    ``watch`` maps an entry's target to an ``(enter, exit)`` pair called
    around it while recording — ``token = enter(*args)`` before (``enter``
    may be None), ``exit(token, *args)`` after — for reading a simulator
    from outside where the program keeps no counter (heap depth after
    each push) or the benchmark cannot reach the world (campaign cells).
    """
    global _installed
    if _installed is not None:
        raise RuntimeError("tracing hooks are already installed")
    watch = dict(watch or {})
    rec = Recorder()
    hooks = Hooks(rec)
    try:
        for entry in table:
            _hook(hooks, entry, watch.pop(entry.target, None))
        if watch:
            raise EntryPointError(
                f"cannot watch {sorted(watch)}: not in the entry table")
    except Exception:
        hooks.uninstall()
        raise
    _installed = rec
    return hooks


def _hook(hooks: Hooks, entry, watcher: Optional[Watcher]) -> None:
    module_name, _, path = entry.target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise EntryPointError(f"{entry.target}: {exc}") from exc
    layer = layer_of_module(module_name)
    holder: Any = module
    *scopes, attr = path.split(".")
    for scope in scopes:
        holder = getattr(holder, scope, None)
        if not isinstance(holder, type):
            raise EntryPointError(f"{entry.target}: no class {scope!r}")
    raw = vars(holder).get(attr)
    if raw is None:
        raise EntryPointError(
            f"{entry.target}: {attr!r} is not defined there (list the "
            "class or module that defines it, not one that inherits or "
            "re-exports it)")
    kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
    func = raw.__func__ if kind else raw
    if not inspect.isfunction(func):
        raise EntryPointError(f"{entry.target}: not a function")
    wrapped = _wrap_entry(hooks.recorder, entry, layer, path, func)
    if watcher is not None:
        wrapped = _watched(hooks.recorder, wrapped, *watcher)
    new = kind(wrapped) if kind else wrapped
    hooks._set(holder, attr, raw, new)
    if holder is module:
        # Imported-by-name copies: rebind wherever the original object sits.
        for name, other in list(sys.modules.items()):
            if other is module or other is None:
                continue
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(other).items()):
                if value is raw:
                    hooks._set(other, key, raw, new)


def _watched(rec: Recorder, traced: Callable, enter: Callable,
             exit: Callable) -> Callable:
    @functools.wraps(traced)
    def watched(*args, **kwargs):
        if not rec.on:
            return traced(*args, **kwargs)
        token = enter(*args) if enter else None
        try:
            return traced(*args, **kwargs)
        finally:
            exit(token, *args)

    return watched


def _wrap_entry(rec: Recorder, entry, layer: str, label: str,
                func: Callable) -> Callable:
    nid = rec.intern(layer, label)
    slots = _callback_slots(entry, func)
    via = label.rsplit(".", 1)[-1]
    labels: Dict[Tuple[Any, Any], int] = {}

    def wrap_callback(fn: Callable) -> Callable:
        if fn is None or isinstance(fn, TracedCallback):
            return fn
        probe = fn
        while isinstance(probe, functools.partial):
            probe = probe.func
        key = (getattr(probe, "__func__", probe),
               type(getattr(probe, "__self__", None)))
        cb_nid = labels.get(key)
        if cb_nid is None:
            cb_layer, cb_label = owner_of(probe)
            cb_nid = labels[key] = rec.intern(cb_layer, f"{cb_label}@{via}")
        return TracedCallback(fn, cb_nid)

    name_id, parents, starts, ends = rec.name_id, rec.parent, rec.start, rec.end

    if not slots:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not rec.on:
                return func(*args, **kwargs)
            index = len(starts)
            parent = rec.current
            name_id.append(nid)
            parents.append(parent)
            ends.append(0.0)
            rec.current = index
            starts.append(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                rec.current = parent

        return traced

    span = entry.span

    @functools.wraps(func)
    def registering(*args, **kwargs):
        args = list(args)
        for index, name in slots:
            if name in kwargs:
                kwargs[name] = wrap_callback(kwargs[name])
            elif index < len(args):
                args[index] = wrap_callback(args[index])
        if not span or not rec.on:
            return func(*args, **kwargs)
        index = len(starts)
        parent = rec.current
        name_id.append(nid)
        parents.append(parent)
        ends.append(0.0)
        rec.current = index
        starts.append(perf_counter())
        try:
            return func(*args, **kwargs)
        finally:
            ends[index] = perf_counter()
            rec.current = parent

    return registering


def _callback_slots(entry, func: Callable) -> List[Tuple[int, str]]:
    if not entry.callbacks:
        return []
    params = list(inspect.signature(func).parameters)
    slots = []
    for name in entry.callbacks:
        if name not in params:
            raise EntryPointError(
                f"{entry.target}: no parameter {name!r} to wrap")
        slots.append((params.index(name), name))
    return slots


# ----------------------------------------------------------------------
# Reading a recording
# ----------------------------------------------------------------------
def summarize(rec: Recorder, window_wall: float) -> Dict[str, Any]:
    """Per-name calls/total/self and per-layer self time.

    ``coverage_share`` is the part of ``window_wall`` spent inside
    top-level spans of ``repro`` layers — what the hooks can account
    for at all.
    """
    count = len(rec.names)
    calls = [0] * count
    total = [0.0] * count
    self_s = [0.0] * count
    covered = 0.0
    name_id, parent, start, end = rec.name_id, rec.parent, rec.start, rec.end
    outside = {i for i, name in enumerate(rec.names)
               if name.startswith(OUTSIDE_LAYER + ":")}
    for index in range(len(start)):
        nid = name_id[index]
        duration = end[index] - start[index]
        calls[nid] += 1
        total[nid] += duration
        self_s[nid] += duration
        above = parent[index]
        if above >= 0:
            self_s[name_id[above]] -= duration
        if nid not in outside:
            # Outermost repro span: no repro ancestor.
            while above >= 0 and name_id[above] in outside:
                above = parent[above]
            if above < 0:
                covered += duration
    layers: Dict[str, Dict[str, float]] = {}
    names: Dict[str, Dict[str, float]] = {}
    for nid, name in enumerate(rec.names):
        if not calls[nid]:
            continue
        names[name] = {"calls": calls[nid], "total_s": total[nid],
                       "self_s": self_s[nid]}
        layer = layers.setdefault(name.partition(":")[0],
                                  {"calls": 0, "self_s": 0.0})
        layer["calls"] += calls[nid]
        layer["self_s"] += self_s[nid]
    for layer in layers.values():
        layer["self_share"] = (layer["self_s"] / window_wall
                               if window_wall > 0 else 0.0)
    return {"spans": len(start), "window_wall_s": window_wall,
            "coverage_share": covered / window_wall if window_wall > 0 else 0.0,
            "layers": layers, "names": names}


def calls_of(summary: Dict[str, Any], *names: str) -> int:
    return sum(int(summary["names"].get(name, {}).get("calls", 0))
               for name in names)


def calls_via(summary: Dict[str, Any], *vias: str) -> int:
    """Calls of callbacks registered through the named entry points."""
    suffixes = tuple("@" + via for via in vias)
    return sum(int(row["calls"]) for name, row in summary["names"].items()
               if name.endswith(suffixes))


def median_ms(rec: Recorder, *names: str) -> float:
    wanted = {rec._ids[name] for name in names if name in rec._ids}
    durations = [rec.end[i] - rec.start[i] for i in range(len(rec))
                 if rec.name_id[i] in wanted]
    return statistics.median(durations) * 1000.0 if durations else 0.0


def check_layers(summary: Dict[str, Any], active: Iterable[str],
                 bypassed: Iterable[str]) -> List[str]:
    """Problems with what the hooks saw: a layer the workload is known
    to exercise recorded nothing (a hook came off), or a layer it is
    built to bypass recorded something (the workload does not isolate
    what it claims to)."""
    problems = []
    layers = summary["layers"]
    for layer in sorted(active):
        if not layers.get(layer, {}).get("calls"):
            problems.append(f"trace: no call recorded into active layer "
                            f"{layer!r}")
    for layer in sorted(bypassed):
        if layers.get(layer, {}).get("calls"):
            problems.append(f"trace: {layers[layer]['calls']} calls into "
                            f"bypassed layer {layer!r}")
    return problems


def write_trace(rec: Recorder, path: str, meta: Dict[str, Any]) -> None:
    """Dump the spans as columns (``name``/``parent`` index into
    ``names``/the span list; times are seconds from the first span)."""
    kept = min(len(rec), MAX_SPANS_WRITTEN)
    origin = rec.start[0] if kept else 0.0
    document = {
        "meta": dict(meta, spans_recorded=len(rec), spans_written=kept),
        "names": rec.names,
        "spans": {
            "name": rec.name_id[:kept].tolist(),
            "parent": rec.parent[:kept].tolist(),
            "start": [round(t - origin, 7) for t in rec.start[:kept]],
            "end": [round(t - origin, 7) for t in rec.end[:kept]],
        },
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))
