"""Self-contained system under test for resilience campaigns.

A layout over :mod:`repro.core.wiring`: the Fig. 2 replica core —
``3f + 2k + 1`` replicas dual-homed on an isolated internal LAN
(replication) and an external LAN (clients) — around a deterministic
replicated key-value app instead of a SCADA master, plus clients and a
seeded workload generator.  Scenarios arm a
:class:`~repro.faults.plan.FaultPlan` against it and a
:class:`~repro.faults.monitors.MonitorSuite` watches the invariants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.wiring import Deployment
from repro.prime.client import PrimeClient
from repro.prime.config import PrimeConfig, PrimeTiming, build_config


class _ResultsSink:
    """Picklable ``on_result`` sink: appends ``(seq, result)`` pairs to
    the harness's per-client results list (a lambda here would make the
    whole world unsnapshottable)."""

    def __init__(self, results: List[tuple]):
        self._results = results

    def __call__(self, seq, res) -> None:
        self._results.append((seq, res))


class ReplayApp:
    """Tiny deterministic replicated application (a stand-in SCADA
    master): applies ``{"set": (key, value)}`` ops and keeps an ordered
    oplog that travels with state transfer."""

    def __init__(self):
        self.store: Dict[str, object] = {}
        self.oplog: List[tuple] = []
        self.transfer_signals: List[str] = []

    def execute_update(self, update):
        op = update.op
        self.oplog.append((update.client_id, update.client_seq, repr(op)))
        if isinstance(op, dict) and "set" in op:
            key, value = op["set"]
            self.store[key] = value
            return {"ok": True, "key": key}
        return {"ok": True}

    def snapshot(self):
        return {"store": dict(self.store), "oplog": list(self.oplog)}

    def restore(self, state):
        self.store = dict(state["store"])
        self.oplog = [tuple(entry) for entry in state["oplog"]]

    def on_state_transfer(self, outcome):
        self.transfer_signals.append(outcome)


class ChaosHarness(Deployment):
    """A miniature Spire-style deployment for fault campaigns.

    Args:
        sim: simulation kernel.
        f, k: Prime sizing (``3f + 2k + 1`` replicas).
        n_clients: workload clients on the external network.
        with_recovery: start a proactive-recovery scheduler (required
            by recovery-collision scenarios).
        recovery_period / recovery_downtime: scheduler pacing.
        timing: optional Prime timing override.
    """

    def __init__(self, sim, f: int = 1, k: int = 1, n_clients: int = 2,
                 with_recovery: bool = False, recovery_period: float = 6.0,
                 recovery_downtime: float = 0.8,
                 timing: Optional[PrimeTiming] = None):
        super().__init__(sim, "chaos", build_config(f=f, k=k, timing=timing))
        self.config: PrimeConfig = self.prime_config
        self.clients: List[PrimeClient] = []
        self.results: Dict[str, list] = {}
        self.submitted: List[Tuple[str, int]] = []

        self.wire_networks("192.168.112.0/24", external_ports=16,
                           internal_cidr="192.168.111.0/24")
        # Harness hosts carry bare names (the event digests name them).
        self.apps: Dict[str, ReplayApp] = self.wire_replicas(
            lambda name: ReplayApp(), host_name_of=str)
        for index in range(n_clients):
            self.add_client(f"chaos-client-{index + 1}", port=7601 + index)
        self.external.connect_full_mesh()

        if with_recovery:
            self.start_recovery(period=recovery_period,
                                downtime=recovery_downtime)

    # ------------------------------------------------------------------
    def add_client(self, client_id: str, port: int) -> PrimeClient:
        daemon = self.wire_client_host(client_id, principal=client_id,
                                       host_name=f"{client_id}-host")
        results: list = []
        self.results[client_id] = results
        client = PrimeClient(
            self.sim, client_id, self.config, daemon, port,
            on_result=_ResultsSink(results))
        self.clients.append(client)
        return client

    # ------------------------------------------------------------------
    def start_workload(self, updates: int = 30, start: float = 0.2,
                       interval: float = 0.3) -> None:
        """Schedule a steady stream of ``set`` ops, round-robin across
        clients — the continuous supervisory traffic the invariants are
        checked against."""
        for index in range(updates):
            self.sim.schedule(start + index * interval,
                              self._submit_one, index)

    def _submit_one(self, index: int) -> None:
        client = self.clients[index % len(self.clients)]
        if not client.running:
            return
        seq = client.submit({"set": (f"k{index}", index)})
        self.submitted.append((client.client_id, seq))

    # ------------------------------------------------------------------
    # Campaign cells (repro.faults.campaign)
    # ------------------------------------------------------------------
    def start_campaign_workload(self, run_for: float) -> None:
        """One update every 0.3 s until 4 s before the end of a
        ``run_for``-second cell (at least eight)."""
        updates = max(int(max(run_for - 4.0, 2.0) / 0.3), 8)
        self.start_workload(updates=updates, start=0.2, interval=0.3)

    def campaign_summary(self) -> dict:
        """This world's share of a campaign run dict."""
        return {"workload": {"submitted": len(self.submitted),
                             "confirmed": self.confirmed_count()}}

    # ------------------------------------------------------------------
    def confirmed_count(self) -> int:
        return sum(len(client.confirmed) for client in self.clients)

    def correct_oplogs(self) -> List[tuple]:
        """Oplogs of running, non-byzantine, NORMAL replicas."""
        return [tuple(self.apps[name].oplog)
                for name, replica in self.replicas.items()
                if replica.running and replica.state == "normal"
                and replica.byzantine is None]
