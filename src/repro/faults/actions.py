"""Composable fault actions and the f + k budget guard.

Each :class:`FaultAction` is one declarative fault — crash a replica,
flip a replica byzantine, cut or degrade a cable, partition an overlay,
kill a client process, force proactive-recovery collisions — scheduled
at a simulated time, with an optional duration after which the fault is
reverted.  Targets left unspecified are picked at injection time from
the plan's deterministic RNG stream, so a fault schedule replays
bit-identically for a given seed.

The :class:`BudgetGuard` enforces the ``3f + 2k + 1`` availability
math: at most ``f`` byzantine replicas and at most ``f + k`` impaired
replicas (byzantine, crashed, isolated, or cut off) at any instant.  A
plan built with ``allow_over_budget=True`` deliberately exceeds the
bound — the guard then records the breach instead of denying it, so the
invariant monitors can demonstrate exactly which guarantee broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.prime.replica import STATE_NORMAL


class BudgetGuard:
    """Tracks simultaneous failures against the ``f + k`` bound.

    Two ledgers: ``byzantine`` (counts against ``f``) and ``down``
    (crashed / isolated / recovering, counts toward the combined
    ``f + k`` bound together with the byzantine set).
    """

    def __init__(self, f: int, k: int, enforce: bool = True):
        self.f = f
        self.k = k
        self.enforce = enforce
        self.byzantine: Set[str] = set()
        self.down: Set[str] = set()
        self.denied = 0
        self.went_over_budget = False
        self._over = False
        self.within_since = 0.0   # sim time the budget was last re-entered

    @property
    def limit(self) -> int:
        """Combined simultaneous-failure bound."""
        return self.f + self.k

    def impaired(self) -> Set[str]:
        return self.byzantine | self.down

    def over_budget(self) -> bool:
        return (len(self.byzantine) > self.f
                or len(self.impaired()) > self.limit)

    def _would_exceed(self, names: Set[str], kind: str) -> bool:
        byzantine = set(self.byzantine)
        down = set(self.down)
        (byzantine if kind == "byzantine" else down).update(names)
        return (len(byzantine) > self.f
                or len(byzantine | down) > self.limit)

    def acquire(self, sim, names, kind: str) -> bool:
        """Claim failure slots for ``names``.  Returns False (and counts
        a denial) when enforcement is on and the bound would break."""
        names = set(names)
        if self._would_exceed(names, kind):
            if self.enforce:
                self.denied += 1
                return False
            self.went_over_budget = True
            # A deliberate breach is a first-class event: log it so the
            # flight recorder can capture the window around it.
            sim.log.log("budget-guard", "faults.budget_breach",
                        f"fault budget exceeded: +{len(names)} {kind} "
                        f"(f={self.f}, k={self.k})",
                        names=sorted(names), budget_kind=kind,
                        byzantine=sorted(self.byzantine | names
                                         if kind == "byzantine"
                                         else self.byzantine),
                        down=sorted(self.down | names if kind != "byzantine"
                                    else self.down))
        (self.byzantine if kind == "byzantine" else self.down).update(names)
        self._track(sim)
        return True

    def release(self, sim, names, kind: str) -> None:
        target = self.byzantine if kind == "byzantine" else self.down
        target.difference_update(names)
        self._track(sim)

    def _track(self, sim) -> None:
        over = self.over_budget()
        if over and not self._over:
            self._over = True
        elif not over and self._over:
            self._over = False
            self.within_since = sim.now

    def currently_over(self) -> bool:
        return self._over

    def snapshot(self) -> dict:
        return {"f": self.f, "k": self.k, "limit": self.limit,
                "byzantine": sorted(self.byzantine),
                "down": sorted(self.down), "denied": self.denied,
                "went_over_budget": self.went_over_budget}


@dataclass
class FaultAction:
    """One scheduled fault.  ``at`` is absolute simulated time; a
    ``duration`` of None means the fault is never reverted."""

    at: float
    duration: Optional[float] = None

    kind = "fault"
    budget_kind = "down"

    def __post_init__(self):
        self.fault_id = ""          # assigned by the plan at arm time
        self.injected_at: Optional[float] = None
        self.reverted_at: Optional[float] = None
        self.denied = False
        self.targets: List[str] = []

    # -- hooks implemented by subclasses --------------------------------
    def resolve(self, ctx) -> List[str]:
        """Pick the impaired replica names (at injection time)."""
        return []

    def inject(self, ctx) -> None:
        raise NotImplementedError

    def revert(self, ctx) -> None:
        pass

    def describe(self) -> dict:
        return {"fault_id": self.fault_id, "kind": self.kind,
                "at": self.at, "duration": self.duration,
                "targets": list(self.targets), "denied": self.denied,
                "injected_at": self.injected_at,
                "reverted_at": self.reverted_at}


@dataclass
class CrashReplica(FaultAction):
    """Crash a replica; the revert recovers it (state transfer)."""

    replica: Optional[str] = None

    kind = "crash"

    def resolve(self, ctx) -> List[str]:
        name = self.replica or ctx.pick_replica()
        return [name] if name else []

    def inject(self, ctx) -> None:
        ctx.replicas[self.targets[0]].crash()

    def revert(self, ctx) -> None:
        replica = ctx.replicas[self.targets[0]]
        if not replica.running:
            replica.recover()


@dataclass
class SetByzantine(FaultAction):
    """Flip a replica into one of :class:`PrimeReplica`'s byzantine
    modes; ``replica="leader"`` resolves to the current leader."""

    replica: Optional[str] = None
    mode: str = "crash"
    options: Dict[str, object] = field(default_factory=dict)

    kind = "byzantine"
    budget_kind = "byzantine"

    def resolve(self, ctx) -> List[str]:
        if self.replica == "leader":
            return [ctx.current_leader()]
        name = self.replica or ctx.pick_replica()
        return [name] if name else []

    def inject(self, ctx) -> None:
        replica = ctx.replicas[self.targets[0]]
        replica.byzantine = self.mode
        for attr, value in self.options.items():
            setattr(replica, attr, value)

    def revert(self, ctx) -> None:
        replica = ctx.replicas[self.targets[0]]
        if replica.byzantine == self.mode:
            replica.byzantine = None


@dataclass
class LinkDown(FaultAction):
    """Administratively cut a replica's LAN cable."""

    replica: Optional[str] = None
    network: str = "internal"

    kind = "link-down"

    def resolve(self, ctx) -> List[str]:
        name = self.replica or ctx.pick_replica()
        return [name] if name else []

    def inject(self, ctx) -> None:
        ctx.link_of(self.targets[0], self.network).set_up(False)

    def revert(self, ctx) -> None:
        ctx.link_of(self.targets[0], self.network).set_up(True)


@dataclass
class DegradeLink(FaultAction):
    """Raise latency and/or lose a fraction of frames on a cable.

    Degradation is in-spec network asynchrony, not a failure: it does
    not consume budget, and the protocol must ride through it.
    """

    replica: Optional[str] = None
    network: str = "internal"
    latency: Optional[float] = None
    loss: float = 0.0

    kind = "degrade"

    def __post_init__(self):
        super().__post_init__()
        self._previous = None

    def resolve(self, ctx) -> List[str]:
        # Resolve a concrete target but claim no budget slots.
        name = self.replica or ctx.pick_replica(include_impaired=True)
        self.targets = [name] if name else []
        return []

    def inject(self, ctx) -> None:
        link = ctx.link_of(self.targets[0], self.network)
        self._previous = link.degrade(
            latency=self.latency, loss=self.loss,
            rng=ctx.rng.child(f"loss/{self.fault_id}"))

    def revert(self, ctx) -> None:
        if self._previous is not None:
            ctx.link_of(self.targets[0], self.network).restore(self._previous)


@dataclass
class PartitionNetwork(FaultAction):
    """Split one Spines overlay in two by removing every cross edge.

    ``isolate`` is either a list of replica names or an integer count of
    replicas to cut off (picked deterministically).  The minority side
    counts against the ``down`` budget: a partition that severs the
    ordering quorum is over budget by construction.
    """

    network: str = "internal"
    isolate: object = 1

    kind = "partition"

    def __post_init__(self):
        super().__post_init__()
        self._removed: List[Tuple[str, str]] = []

    def resolve(self, ctx) -> List[str]:
        if isinstance(self.isolate, int):
            return ctx.pick_replicas(self.isolate)
        return list(self.isolate)

    def inject(self, ctx) -> None:
        overlay = ctx.overlay(self.network)
        island = {ctx.daemon_name(name, self.network)
                  for name in self.targets}
        # Sorted: set iteration order varies with the process hash seed,
        # and the remove/re-add order determines neighbor (flood fan-out)
        # order — unsorted, the same seed gives different jitter draws
        # in different processes.
        self._removed = sorted((a, b) for a, b in overlay.edges
                               if (a in island) != (b in island))
        for a, b in self._removed:
            overlay.remove_edge(a, b)

    def revert(self, ctx) -> None:
        overlay = ctx.overlay(self.network)
        for a, b in self._removed:
            overlay.add_edge(a, b)
        self._removed = []


@dataclass
class KillProcess(FaultAction):
    """Shut a client-side process down for good (proxy, HMI, client).

    ``component`` names an attribute list on the system under test
    (``"proxies"``, ``"hmis"``, ``"clients"``); processes are not part
    of the replica budget — Spire tolerates their loss by design.
    """

    component: str = "proxies"
    index: int = 0

    kind = "kill"

    def inject(self, ctx) -> None:
        process = ctx.process_of(self.component, self.index)
        self.targets = [getattr(process, "name", self.component)]
        process.shutdown()


@dataclass
class RecoveryCollision(FaultAction):
    """Force ``count`` simultaneous proactive recoveries, bypassing the
    scheduler's own pacing — the collision the ``2k`` term exists for.
    ``count > k`` deliberately breaches recovery safety."""

    count: int = 1

    kind = "recovery-collision"

    def resolve(self, ctx) -> List[str]:
        scheduler = ctx.recovery_scheduler()
        in_progress = set(scheduler.currently_down())
        candidates = [t.name for t in scheduler.targets
                      if t.name not in in_progress]
        return candidates[:self.count]

    def inject(self, ctx) -> None:
        scheduler = ctx.recovery_scheduler()
        by_name = {t.name: t for t in scheduler.targets}
        for name in self.targets:
            scheduler.begin_recovery(by_name[name])


class FaultContext:
    """Resolved view of the system under test, shared by every armed
    action and by the invariant monitors.

    Works against the cluster shape a
    :class:`~repro.core.wiring.Deployment` holds — every world the
    library builds is one — or anything duck-typing it (the test
    fixtures' ``Cluster``).
    """

    def __init__(self, sim, target, guard: BudgetGuard, rng):
        self.sim = sim
        self.target = target
        self.guard = guard
        self.rng = rng
        self.active: Dict[str, FaultAction] = {}
        self.history: List[FaultAction] = []

    # -- system shape ---------------------------------------------------
    @property
    def replicas(self):
        return self.target.replicas

    @property
    def prime_config(self):
        return getattr(self.target, "prime_config", None) or self.target.config

    def overlay(self, network: str):
        return getattr(self.target, network)

    def lan(self, network: str):
        return getattr(self.target, f"{network}_lan")

    def daemon_of(self, replica: str, network: str):
        return getattr(self.replicas[replica], f"{network}_daemon")

    def daemon_name(self, replica: str, network: str) -> str:
        return self.daemon_of(replica, network).name

    def link_of(self, replica: str, network: str):
        return self.lan(network).link_of(self.daemon_of(replica, network).host)

    def process_of(self, component: str, index: int):
        group = getattr(self.target, component)
        if isinstance(group, dict):
            group = [group[key] for key in sorted(group)]
        return group[index]

    def recovery_scheduler(self):
        scheduler = getattr(self.target, "recovery", None)
        if scheduler is None:
            raise RuntimeError(
                "recovery-collision faults need a ProactiveRecoveryScheduler "
                "on the system under test (target.recovery)")
        return scheduler

    # -- deterministic target selection ---------------------------------
    def pick_replica(self, include_impaired: bool = False) -> Optional[str]:
        picks = self.pick_replicas(1, include_impaired=include_impaired)
        return picks[0] if picks else None

    def pick_replicas(self, count: int,
                      include_impaired: bool = False) -> List[str]:
        impaired = self.guard.impaired()
        candidates = [name for name in self.prime_config.replica_names
                      if include_impaired or name not in impaired]
        count = min(count, len(candidates))
        return sorted(self.rng.sample(candidates, count)) if count else []

    def current_leader(self) -> str:
        views = [rep.view for rep in self.replicas.values()
                 if rep.running and rep.state == STATE_NORMAL]
        view = max(views) if views else 0
        return self.prime_config.leader_of(view)

    # -- attribution ----------------------------------------------------
    def note_injected(self, action: FaultAction) -> None:
        self.active[action.fault_id] = action
        self.history.append(action)

    def note_reverted(self, action: FaultAction) -> None:
        self.active.pop(action.fault_id, None)

    def active_faults(self, window: float = 2.0) -> List[str]:
        """Fault ids currently injected, plus those reverted within the
        last ``window`` seconds — the attribution set for a violation."""
        now = self.sim.now
        out = list(self.active)
        for action in self.history:
            if (action.fault_id not in self.active
                    and action.reverted_at is not None
                    and now - action.reverted_at <= window):
                out.append(action.fault_id)
        return sorted(set(out))
