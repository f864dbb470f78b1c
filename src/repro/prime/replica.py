"""Prime BFT replica.

Implements the Prime protocol (Amir, Coan, Kirsch, Lane — "Prime:
Byzantine Replication Under Attack"), extended with the deployment
features the Spire paper relies on:

* **Preordering**: each replica introduces client updates under its own
  (incarnation, sequence) slots via flooded, signed PO-Request batches;
  peers acknowledge in batched PO-Acks carrying cumulative PO-ARU
  vectors.  A slot is *certified* (preordered) once ``2f + k + 1``
  matching acks exist for one digest — quorum intersection makes the
  certified content unique even if the originator equivocates.
* **Global ordering**: the leader periodically proposes a summary
  matrix of the latest PO-ARU vectors; replicas run Prepare/Commit with
  ``2f + k + 1`` quorums.  A committed matrix makes every update
  vouched for by at least ``f + 1`` replicas eligible; eligible updates
  execute in a deterministic order.
* **Suspect-leader / bounded delay**: every replica tracks the age of
  its own oldest introduced-but-unexecuted update.  A leader that
  delays or censors updates beyond the timeout triggers a view change,
  bounding update latency even with a malicious leader.  (The deployed
  Prime derives its threshold from measured turnaround times; we use a
  configured bound, which preserves the shape of the guarantee.)
* **View changes** carry prepared-but-uncommitted proposals forward
  (PBFT-style), preserving safety across leader rotations.
* **Reconciliation**: replicas gossip execution progress and current
  view, fetch missed committed proposals and missing certified update
  contents from peers, and accept values vouched for by ``f + 1``
  distinct peers.
* **Stable checkpoints**: every ``CHECKPOINT_INTERVAL`` executed gseqs a
  replica records its state and a digest of it, and reports the latest
  on its reconciliation gossip.  Once ``2f + k + 1`` replicas, itself
  included, report the same checkpoint it is stable: ordering slots
  below it and preorder slots it covers are dropped, and a floor keeps
  late messages from reviving them.  A replica that fell behind the
  stable point installs the checkpoint from ``f + 1`` matching answers
  and reconciles forward from there.
* **State transfer signalling** (Section III-A of the paper): after a
  proactive recovery, the replication layer does not transfer
  application state itself — it *signals* the application, which runs
  an application-level state transfer (or, in the SCADA case, rebuilds
  from field devices).  The :class:`PrimeApp` protocol captures this
  split.

Incarnations: a recovered replica preorders under a fresh originator id
(``name#epoch``), sidestepping sequence-reuse equivocation after its
preorder state is wiped.

Simplifications relative to the C implementation, none of which change
the properties exercised by the reproduction: erasure-coded
reconciliation is replaced by direct retransmission, and the
suspect-leader threshold is a configuration constant rather than a
measured turnaround-time bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Protocol, Set, Tuple

from repro.crypto.auth import sign_payload, verify_signature
from repro.crypto.keys import KeyRing
from repro.prime.config import PrimeConfig
from repro.prime.messages import (
    AruExchange, ClientUpdate, CommitMsg, NewLeaderMsg, PoAckBatch,
    PoRequestBatch, PrePrepare, PrepareMsg, PRIME_CLIENT_PORT,
    PRIME_INTERNAL_PORT, ReconcRequest, ReconcResponse, Reply,
    SignedPrimeMessage, StateRequest, StateResponse, UpdateRequest,
    UpdateResponse,
)
from repro.sim.process import Process
from repro.spines.daemon import SpinesDaemon
from repro.spines.messages import IT_FLOOD, OverlayAddress


class PrimeApp(Protocol):
    """The replicated application (the SCADA master, in Spire)."""

    def execute_update(self, update: ClientUpdate) -> Any:
        """Apply one ordered update; the return value is the reply."""
        ...

    def snapshot(self) -> Any:
        """Application state for application-level state transfer."""
        ...

    def restore(self, state: Any) -> None:
        """Install transferred application state."""
        ...

    def on_state_transfer(self, outcome: str) -> None:
        """Replication-layer signal: "started", "retrying", "completed".
        Repeated "retrying" means fewer than f+1 consistent donors exist
        — the assumption-breach case where a SCADA app can rebuild from
        field devices and a generic BFT application cannot recover."""
        ...


@dataclass
class _Slot:
    """Global-ordering slot state for one gseq."""

    view: int = -1
    pre_prepare: Optional[PrePrepare] = None
    digest: Optional[bytes] = None
    prepares: Dict[str, bytes] = field(default_factory=dict)
    commits: Dict[str, bytes] = field(default_factory=dict)
    commit_sent: bool = False
    committed: bool = False
    executed: bool = False
    exec_batch: Optional[List[Tuple[str, int]]] = None


@dataclass
class _PoSlot:
    """Preorder slot (originator incarnation, seq).

    Tracks acks per digest so an equivocating originator cannot get two
    different contents certified.
    """

    updates: Dict[bytes, ClientUpdate] = field(default_factory=dict)
    acks: Dict[bytes, Set[str]] = field(default_factory=dict)
    certified: Optional[bytes] = None
    my_ack: Optional[bytes] = None

    def certified_update(self) -> Optional[ClientUpdate]:
        if self.certified is None:
            return None
        return self.updates.get(self.certified)


def _repr_digest(value: Any) -> bytes:
    return hashlib.sha256(repr(value).encode()).digest()


@dataclass
class _Checkpoint:
    """A replica's state right after executing ``gseq``.

    ``digest`` covers what state transfer groups donors by
    (``last_executed``, the executed-keys digest, the app digest);
    ``state`` is the catch-up answer itself, with this replica as its
    sender.
    """

    gseq: int
    digest: bytes
    state: StateResponse

    @classmethod
    def of(cls, state: StateResponse) -> "_Checkpoint":
        return cls(state.last_executed,
                   _repr_digest((state.last_executed,
                                 state.executed_keys_digest,
                                 state.app_digest)),
                   state)


STATE_NORMAL = "normal"
STATE_RECOVERING = "recovering"

RECOVERY_RETRY = 0.5
UPDATE_FETCH_RETRY = 0.1
CHECKPOINT_INTERVAL = 4
# The nonce of a StateResponse that answers a ReconcRequest with a
# stable checkpoint; recovery nonces count from 1.
CATCH_UP_NONCE = 0


class PrimeReplica(Process):
    """One Prime replica, attached to internal/external Spines daemons.

    Args:
        sim: simulation kernel.
        name: replica name (must be in ``config.replica_names``).
        config: shared Prime configuration.
        internal_daemon: Spines daemon on the isolated replication
            network.
        external_daemon: Spines daemon on the network shared with
            proxies/HMI (client traffic), or None for pure-ordering
            tests.
        app: the replicated application.
    """

    def __init__(self, sim, name: str, config: PrimeConfig,
                 internal_daemon: SpinesDaemon,
                 external_daemon: Optional[SpinesDaemon],
                 app: PrimeApp):
        super().__init__(sim, name)
        if name not in config.replica_names:
            raise ValueError(f"{name} not in configuration")
        self.config = config
        self.app = app
        self.internal_daemon = internal_daemon
        self.external_daemon = external_daemon
        self.key_ring: KeyRing = internal_daemon.host.key_ring
        self.epoch = 0
        self.state = STATE_NORMAL
        # --- preorder state ---
        self.next_po_seq = 1
        self.intro_queue: List[ClientUpdate] = []
        self.introduced: Set[Tuple[str, int]] = set()
        self.po_slots: Dict[Tuple[str, int], _PoSlot] = {}
        self.po_aru: Dict[str, int] = {}
        self.peer_aru: Dict[str, Dict[str, int]] = {}
        self._pending_acks: List[Tuple[str, int, bytes]] = []
        self._last_sent_aru: Dict[str, int] = {}
        # --- global order state ---
        self.view = 0
        self.slots: Dict[int, _Slot] = {}
        self.last_executed = 0
        self.exec_aru: Dict[str, int] = {}
        self.executed_updates: Dict[str, Set[int]] = {}
        self.next_gseq = 1
        # --- suspect-leader / view change ---
        # Certified-but-unexecuted preorder slots: if any lingers past
        # the suspect timeout, the leader is censoring or stalling.
        self._certified_pending: Dict[Tuple[str, int], float] = {}
        self.own_pending: Dict[Tuple[str, int], float] = {}
        self._slot_update_key: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self.suspected_view: Optional[int] = None
        self.new_leader_msgs: Dict[int, Dict[str, NewLeaderMsg]] = {}
        self.view_changes = 0
        self.peer_views: Dict[str, int] = {}
        # --- reconciliation / recovery / fetch ---
        self._fetching: Dict[Tuple[str, int], float] = {}
        self._fetch_claims: Dict[Tuple[str, int], Dict[bytes, Dict[str, ClientUpdate]]] = {}
        self._reconc_claims: Dict[int, Dict[bytes, Set[str]]] = {}
        self._recovery_nonce = 0
        self._recovery_responses: Dict[int, List[StateResponse]] = {}
        # --- checkpoints ---
        # The latest own checkpoint (what this replica reports), the
        # stable one (what it truncated at and answers catch-ups with),
        # each peer's latest report, and the preorder floor: every
        # (incarnation, seq) at or below it is executed and gone.
        self.checkpoint: Optional[_Checkpoint] = None
        self.stable_checkpoint: Optional[_Checkpoint] = None
        self._peer_checkpoints: Dict[str, Tuple[int, bytes]] = {}
        self._po_floor: Dict[str, int] = {}
        self._catch_up: Dict[str, StateResponse] = {}
        # --- stats ---
        self.updates_executed = 0
        self.replies_sent = 0
        # --- telemetry ---
        metrics = sim.metrics
        self._metric_executed = metrics.counter("prime.updates_executed",
                                                component=name)
        self._metric_view_changes = metrics.counter("prime.view_changes",
                                                    component=name)
        self._metric_ordinal = metrics.gauge("prime.last_executed",
                                             component=name)
        self._metric_intro_queue = metrics.gauge("prime.intro_queue",
                                                 component=name)
        self._metric_pending = metrics.gauge("prime.pending_slots",
                                             component=name)
        self._metric_order_latency = metrics.histogram("prime.order_latency",
                                                       component=name)
        # update key -> introduction time, for traced ordering spans
        self._trace_intro: Dict[Tuple[str, int], float] = {}
        # --- malicious behaviour hooks (red-team / benches) ---
        # None | "crash" | "mute-leader" | "slow-leader" | "censor"
        # | "censor-matrix"
        self.byzantine: Optional[str] = None
        self.byzantine_delay = 0.0
        self._last_proposal_time = 0.0
        self.censor_clients: Set[str] = set()
        self.censor_originators: Set[str] = set()  # replica names to zero out

        self._attach_sessions()
        self._start_timers()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def originator_id(self) -> str:
        return f"{self.name}#{self.epoch}"

    def _attach_sessions(self) -> None:
        self.internal_session = self.internal_daemon.create_session(
            PRIME_INTERNAL_PORT, self._internal_in)
        if self.external_daemon is not None:
            self.external_session = self.external_daemon.create_session(
                PRIME_CLIENT_PORT, self._client_in)
        else:
            self.external_session = None

    def _start_timers(self) -> None:
        t = self.config.timing
        self.call_every(t.po_batch_interval, self._flush_intro_queue)
        self.call_every(t.ack_interval, self._flush_acks)
        self.call_every(t.pre_prepare_interval, self._leader_propose)
        self.call_every(t.suspect_timeout / 4, self._check_suspect)
        self.call_every(t.reconciliation_interval, self._reconcile_tick)

    def _broadcast(self, body: Any) -> None:
        message = SignedPrimeMessage(sender=self.name, body=body)
        # Signing the message object (not a fresh signed_view() dict)
        # covers the same bytes but populates the encode-once cache that
        # every receiving replica's verification then hits.
        message.signature = sign_payload(self.key_ring, self.name, message)
        self.internal_session.send(("*", PRIME_INTERNAL_PORT), message,
                                   service=IT_FLOOD)

    # ------------------------------------------------------------------
    # Client updates (external network)
    # ------------------------------------------------------------------
    def _client_in(self, src: OverlayAddress, payload: Any) -> None:
        if not self.running or not isinstance(payload, ClientUpdate):
            return
        self.submit_update(payload)

    def submit_update(self, update: ClientUpdate) -> None:
        """Introduce a client update into preordering (deduplicated)."""
        if not self.running or self.state != STATE_NORMAL:
            return
        if update.signature is None or not verify_signature(
                self.key_ring, update.signature, update):
            self.log("prime.reject", "bad client signature",
                     client=update.client_id)
            return
        key = update.key()
        if key in self.introduced:
            return
        if update.client_seq in self.executed_updates.get(update.client_id, ()):
            self._send_reply(update, {"status": "duplicate"})
            return
        if self.byzantine == "censor" and update.client_id in self.censor_clients:
            return
        self.introduced.add(key)
        if update.trace is not None:
            self._trace_intro.setdefault(key, self.now)
        self.intro_queue.append(update)
        self._metric_intro_queue.set(len(self.intro_queue))

    def _flush_intro_queue(self) -> None:
        if not self.intro_queue or self.state != STATE_NORMAL:
            return
        if self.byzantine == "crash":
            return
        batch = PoRequestBatch(originator=self.originator_id,
                               start_seq=self.next_po_seq,
                               updates=list(self.intro_queue))
        for offset, update in enumerate(self.intro_queue):
            slot_key = (self.originator_id, self.next_po_seq + offset)
            self.own_pending[slot_key] = self.now
            self._slot_update_key[slot_key] = update.key()
        self.next_po_seq += len(self.intro_queue)
        self.intro_queue.clear()
        self._metric_intro_queue.set(0)
        self._po_request_in(self.name, batch)
        self._broadcast(batch)

    # ------------------------------------------------------------------
    # Internal message pump
    # ------------------------------------------------------------------
    def _internal_in(self, src: OverlayAddress, payload: Any) -> None:
        if not self.running or not isinstance(payload, SignedPrimeMessage):
            return
        if self.state == STATE_RECOVERING and not isinstance(
                payload.body, (StateResponse, StateRequest)):
            return
        if payload.sender == self.name:
            return  # own loopback: already processed locally
        if payload.sender not in self.config.replica_names:
            return
        if getattr(payload.body, "replica", payload.sender) != payload.sender:
            return  # a body speaks only for the replica that signed it
        if payload.signature is None or not verify_signature(
                self.key_ring, payload.signature, payload):
            self.log("prime.reject", "bad replica signature",
                     sender=payload.sender)
            return
        if self.byzantine == "crash":
            return
        body = payload.body
        handler = {
            PoRequestBatch: lambda: self._po_request_in(payload.sender, body),
            PoAckBatch: lambda: self._po_ack_in(payload.sender, body),
            PrePrepare: lambda: self._pre_prepare_in(payload.sender, body),
            PrepareMsg: lambda: self._prepare_in(body),
            CommitMsg: lambda: self._commit_in(body),
            NewLeaderMsg: lambda: self._new_leader_in(body),
            AruExchange: lambda: self._aru_exchange_in(body),
            ReconcRequest: lambda: self._reconc_request_in(body),
            ReconcResponse: lambda: self._reconc_response_in(body),
            UpdateRequest: lambda: self._update_request_in(body),
            UpdateResponse: lambda: self._update_response_in(body),
            StateRequest: lambda: self._state_request_in(body),
            StateResponse: lambda: self._state_response_in(body),
        }.get(type(body))
        if handler is not None:
            handler()

    # ------------------------------------------------------------------
    # Preordering
    # ------------------------------------------------------------------
    @staticmethod
    def _incarnation_owner(incarnation: str) -> str:
        return incarnation.split("#", 1)[0]

    def _po_request_in(self, sender: str, batch: PoRequestBatch) -> None:
        if self._incarnation_owner(batch.originator) != sender:
            return  # replicas may only introduce under their own id
        floor = self._po_floor.get(batch.originator, 0)
        for offset, update in enumerate(batch.updates):
            if batch.start_seq + offset <= floor:
                continue    # executed and truncated: never revived
            if update.signature is None or not verify_signature(
                    self.key_ring, update.signature, update):
                continue
            slot_key = (batch.originator, batch.start_seq + offset)
            slot = self.po_slots.setdefault(slot_key, _PoSlot())
            update_digest = update.view_digest()
            slot.updates.setdefault(update_digest, update)
            if slot.my_ack is None:
                # Ack at most one digest per slot (first seen).
                slot.my_ack = update_digest
                self._pending_acks.append(
                    (slot_key[0], slot_key[1], update_digest))
                self._record_ack(slot_key, self.name, update_digest)
            elif slot.my_ack == update_digest and slot.certified is None:
                # Duplicate request for a slot we already acked but that
                # never certified: the originator is retransmitting
                # because acks were lost — re-send ours (idempotent).
                self._pending_acks.append(
                    (slot_key[0], slot_key[1], update_digest))

    def _flush_acks(self) -> None:
        if self.state != STATE_NORMAL or self.byzantine == "crash":
            return
        if not self._pending_acks and self._last_sent_aru == self.po_aru:
            return  # nothing new: stay quiet (bandwidth + sim efficiency)
        batch = PoAckBatch(acker=self.name, acks=self._pending_acks,
                           po_aru=dict(self.po_aru))
        self._pending_acks = []
        self._last_sent_aru = dict(self.po_aru)
        self.peer_aru[self.name] = dict(self.po_aru)
        self._broadcast(batch)

    def _po_ack_in(self, sender: str, batch: PoAckBatch) -> None:
        if sender != batch.acker:
            return
        for originator, seq, update_digest in batch.acks:
            self._record_ack((originator, seq), sender, update_digest)
        self.peer_aru[sender] = dict(batch.po_aru)

    def _record_ack(self, slot_key: Tuple[str, int], acker: str,
                    update_digest: bytes) -> None:
        if slot_key[1] <= self._po_floor.get(slot_key[0], 0):
            return
        slot = self.po_slots.setdefault(slot_key, _PoSlot())
        ackers = slot.acks.setdefault(update_digest, set())
        ackers.add(acker)
        if slot.certified is None and len(ackers) >= self.config.quorum:
            slot.certified = update_digest
            self._certified_pending.setdefault(slot_key, self.now)
            self._advance_po_aru(slot_key[0])

    def _advance_po_aru(self, incarnation: str) -> None:
        # Slots at or below the floor are truncated, not missing.
        current = max(self.po_aru.get(incarnation, 0),
                      self._po_floor.get(incarnation, 0))
        advanced = False
        while True:
            nxt = self.po_slots.get((incarnation, current + 1))
            if nxt is None or nxt.certified is None:
                break
            current += 1
            advanced = True
        if advanced:
            self.po_aru[incarnation] = current

    # ------------------------------------------------------------------
    # Global ordering — leader side
    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.config.leader_of(self.view) == self.name

    def _current_matrix(self) -> Dict[str, Dict[str, int]]:
        matrix = {name: dict(aru) for name, aru in self.peer_aru.items()}
        matrix[self.name] = dict(self.po_aru)
        if self.byzantine == "censor-matrix" and self.censor_originators:
            # Malicious leader: misreport every replica's PO-ARU entry
            # for the targeted originators as zero, so their updates
            # never become eligible.
            for vector in matrix.values():
                for incarnation in list(vector):
                    if self._incarnation_owner(incarnation) in self.censor_originators:
                        vector[incarnation] = 0
        return matrix

    def _leader_propose(self) -> None:
        if (not self.is_leader or self.state != STATE_NORMAL
                or self.byzantine in ("crash", "mute-leader")):
            return
        if (self.byzantine == "slow-leader"
                and self.now - self._last_proposal_time < self.byzantine_delay):
            return
        matrix = self._current_matrix()
        gseq = self.next_gseq
        if gseq > 1:
            prev = self.slots.get(gseq - 1)
            if prev is None or prev.pre_prepare is None or not prev.committed:
                return  # one outstanding proposal at a time (simplification)
            if matrix == prev.pre_prepare.matrix:
                return  # nothing new to order
        proposal = PrePrepare(view=self.view, gseq=gseq, matrix=matrix)
        self.next_gseq += 1
        self._last_proposal_time = self.now
        self._pre_prepare_in(self.name, proposal)
        self._broadcast(proposal)

    # ------------------------------------------------------------------
    # Global ordering — all replicas
    # ------------------------------------------------------------------
    def _pre_prepare_in(self, sender: str, proposal: PrePrepare) -> None:
        if sender != self.config.leader_of(proposal.view):
            return
        if proposal.view != self.view or self._below_stable(proposal.gseq):
            return
        slot = self.slots.setdefault(proposal.gseq, _Slot())
        if slot.committed:
            return
        if slot.pre_prepare is not None and slot.view >= proposal.view:
            return
        slot.view = proposal.view
        slot.pre_prepare = proposal
        slot.digest = proposal.view_digest()
        slot.commit_sent = False
        slot.prepares = {r: d for r, d in slot.prepares.items()
                         if d == slot.digest}
        prepare = PrepareMsg(view=proposal.view, gseq=proposal.gseq,
                             digest=slot.digest, replica=self.name)
        self._prepare_in(prepare)
        self._broadcast(prepare)

    def _prepare_in(self, prepare: PrepareMsg) -> None:
        if prepare.view != self.view or self._below_stable(prepare.gseq):
            return
        slot = self.slots.setdefault(prepare.gseq, _Slot())
        slot.prepares[prepare.replica] = prepare.digest
        self._maybe_commit(prepare.gseq, slot)

    def _maybe_commit(self, gseq: int, slot: _Slot) -> None:
        if slot.pre_prepare is None or slot.digest is None or slot.commit_sent:
            return
        matching = sum(1 for d in slot.prepares.values() if d == slot.digest)
        if matching >= self.config.quorum:
            slot.commit_sent = True
            commit = CommitMsg(view=slot.view, gseq=gseq, digest=slot.digest,
                               replica=self.name)
            self._commit_in(commit)
            self._broadcast(commit)

    def _commit_in(self, commit: CommitMsg) -> None:
        if self._below_stable(commit.gseq):
            return
        slot = self.slots.setdefault(commit.gseq, _Slot())
        slot.commits[commit.replica] = commit.digest
        if slot.committed or slot.digest is None:
            return
        matching = sum(1 for d in slot.commits.values() if d == slot.digest)
        if matching >= self.config.quorum:
            slot.committed = True
            self._try_execute()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _eligible_vector(self, matrix: Dict[str, Dict[str, int]]) -> Dict[str, int]:
        """Highest seq per originator vouched for by >= f+1 replicas."""
        incarnations: Set[str] = set()
        for vector in matrix.values():
            incarnations.update(vector)
        eligible: Dict[str, int] = {}
        for incarnation in incarnations:
            values = sorted((vector.get(incarnation, 0)
                             for vector in matrix.values()), reverse=True)
            if len(values) >= self.config.vouch:
                threshold = values[self.config.vouch - 1]
                if threshold > 0:
                    eligible[incarnation] = threshold
        return eligible

    def _try_execute(self) -> None:
        while True:
            gseq = self.last_executed + 1
            slot = self.slots.get(gseq)
            if slot is None or not slot.committed:
                return
            if slot.exec_batch is None:
                eligible = self._eligible_vector(slot.pre_prepare.matrix)
                batch: List[Tuple[str, int]] = []
                for incarnation in sorted(eligible):
                    start = self.exec_aru.get(incarnation, 0)
                    for seq in range(start + 1, eligible[incarnation] + 1):
                        batch.append((incarnation, seq))
                slot.exec_batch = batch
            missing = []
            for key in slot.exec_batch:
                po = self.po_slots.get(key)
                if po is None or po.certified is None or po.certified_update() is None:
                    missing.append(key)
            if missing:
                self._fetch_updates(missing)
                return
            for slot_key in slot.exec_batch:
                self._execute_slot(slot_key)
                incarnation, seq = slot_key
                self.exec_aru[incarnation] = max(
                    self.exec_aru.get(incarnation, 0), seq)
            slot.exec_batch = []
            slot.executed = True
            self.last_executed = gseq
            self._metric_ordinal.set(gseq)
            self._metric_pending.set(
                len(self.own_pending) + len(self._certified_pending))
            if gseq % CHECKPOINT_INTERVAL == 0:
                self.checkpoint = _Checkpoint.of(
                    self._state_response(CATCH_UP_NONCE))
                self._check_stability()

    def _execute_slot(self, slot_key: Tuple[str, int]) -> None:
        update = self.po_slots[slot_key].certified_update()
        key = update.key()
        self._certified_pending.pop(slot_key, None)
        self.own_pending.pop(slot_key, None)
        own_slots = [sk for sk, uk in self._slot_update_key.items() if uk == key]
        for sk in own_slots:
            self.own_pending.pop(sk, None)
            self._slot_update_key.pop(sk, None)
        executed_seqs = self.executed_updates.setdefault(update.client_id, set())
        if update.client_seq in executed_seqs:
            return
        executed_seqs.add(update.client_seq)
        result = self.app.execute_update(update)
        self.updates_executed += 1
        self._metric_executed.inc()
        intro = self._trace_intro.pop(key, None)
        if update.trace is not None:
            start = intro if intro is not None else self.now
            self._metric_order_latency.observe(self.now - start)
            self.tracer.record("prime.order", component=self.name,
                               parent=update.trace, start=start,
                               client=update.client_id,
                               client_seq=update.client_seq)
        self._send_reply(update, result)

    def _send_reply(self, update: ClientUpdate, result: Any) -> None:
        if self.external_session is None or update.reply_to is None:
            return
        reply = Reply(replica=self.name, client_id=update.client_id,
                      client_seq=update.client_seq, result=result)
        self.external_session.send(tuple(update.reply_to), reply,
                                   service=IT_FLOOD)
        self.replies_sent += 1

    # ------------------------------------------------------------------
    # Missing-update fetch
    # ------------------------------------------------------------------
    def _fetch_updates(self, missing: List[Tuple[str, int]]) -> None:
        now = self.now
        to_ask = [key for key in missing
                  if now - self._fetching.get(key, -1e9) > UPDATE_FETCH_RETRY]
        if not to_ask:
            return
        for key in to_ask:
            self._fetching[key] = now
        self._broadcast(UpdateRequest(replica=self.name, slots=to_ask))

    def _update_request_in(self, request: UpdateRequest) -> None:
        items = []
        for slot_key in request.slots:
            po = self.po_slots.get(tuple(slot_key))
            if po is not None:
                update = po.certified_update()
                if update is None and po.my_ack is not None:
                    update = po.updates.get(po.my_ack)
                if update is not None:
                    items.append((slot_key[0], slot_key[1], update))
        if items:
            self._broadcast(UpdateResponse(replica=self.name, items=items))

    def _update_response_in(self, response: UpdateResponse) -> None:
        """Install fetched update contents.

        A response is trusted for a slot when either (a) its digest
        matches the slot's locally-known certificate, or (b) f+1
        distinct peers served the same content (at least one correct).
        """
        progressed = False
        for incarnation, seq, update in response.items:
            if seq <= self._po_floor.get(incarnation, 0):
                continue
            if update.signature is None or not verify_signature(
                    self.key_ring, update.signature, update):
                continue
            slot_key = (incarnation, seq)
            slot = self.po_slots.setdefault(slot_key, _PoSlot())
            update_digest = update.view_digest()
            slot.updates.setdefault(update_digest, update)
            if slot.certified == update_digest:
                progressed = True
                continue
            claims = self._fetch_claims.setdefault(slot_key, {})
            claims.setdefault(update_digest, {})[response.replica] = update
            if (slot.certified is None
                    and len(claims[update_digest]) >= self.config.vouch):
                slot.certified = update_digest
                self._advance_po_aru(incarnation)
                self._fetch_claims.pop(slot_key, None)
                progressed = True
        if progressed:
            self._try_execute()

    # ------------------------------------------------------------------
    # Suspect-leader and view changes
    # ------------------------------------------------------------------
    def _check_suspect(self) -> None:
        if self.state != STATE_NORMAL or self.byzantine == "crash":
            return
        ages = list(self.own_pending.values()) + list(
            self._certified_pending.values())
        if not ages:
            return
        oldest = min(ages)
        if self.now - oldest < self.config.timing.suspect_timeout:
            return
        target_view = self.view + 1
        if self.suspected_view is not None and self.suspected_view >= target_view:
            self._send_new_leader(self.suspected_view)   # periodic resend
            return
        self.suspected_view = target_view
        self.log("prime.suspect", "leader suspected",
                 view=self.view, leader=self.config.leader_of(self.view))
        self._send_new_leader(target_view)

    def _prepared_snapshot(self) -> Dict[int, Tuple[int, PrePrepare]]:
        snapshot = {}
        for gseq, slot in self.slots.items():
            if gseq <= self.last_executed or slot.pre_prepare is None:
                continue
            matching = sum(1 for d in slot.prepares.values() if d == slot.digest)
            if matching >= self.config.quorum or slot.committed:
                snapshot[gseq] = (slot.view, slot.pre_prepare)
        return snapshot

    def _send_new_leader(self, new_view: int) -> None:
        msg = NewLeaderMsg(new_view=new_view, replica=self.name,
                           last_executed=self.last_executed,
                           prepared=self._prepared_snapshot())
        self._new_leader_in(msg)
        self._broadcast(msg)

    def _new_leader_in(self, msg: NewLeaderMsg) -> None:
        if msg.new_view <= self.view:
            return
        votes = self.new_leader_msgs.setdefault(msg.new_view, {})
        votes[msg.replica] = msg
        if (self.name not in votes and len(votes) >= self.config.vouch
                and (self.suspected_view is None
                     or self.suspected_view < msg.new_view)):
            # Join the view change once f+1 replicas demand it (liveness).
            self.suspected_view = msg.new_view
            self._send_new_leader(msg.new_view)
            return
        if len(votes) >= self.config.quorum:
            self._install_view(msg.new_view, votes)

    def _install_view(self, new_view: int,
                      votes: Dict[str, NewLeaderMsg]) -> None:
        if new_view <= self.view:
            return
        self.view = new_view
        self.view_changes += 1
        self._metric_view_changes.inc()
        self.suspected_view = None
        self.new_leader_msgs = {v: m for v, m in self.new_leader_msgs.items()
                                if v > new_view}
        now = self.now
        self.own_pending = {key: now for key in self.own_pending}
        self._certified_pending = {key: now for key in self._certified_pending}
        self.log("prime.view", "installed view", view=new_view,
                 leader=self.config.leader_of(new_view))
        if self.config.leader_of(new_view) == self.name:
            self._leader_take_over(votes)

    def _leader_take_over(self, votes: Dict[str, NewLeaderMsg]) -> None:
        carried: Dict[int, Tuple[int, PrePrepare]] = {}
        top = self.last_executed
        for msg in votes.values():
            top = max(top, msg.last_executed)
            for gseq, (pview, proposal) in msg.prepared.items():
                if gseq <= self.last_executed:
                    continue
                if gseq not in carried or pview > carried[gseq][0]:
                    carried[gseq] = (pview, proposal)
        top = max([top] + list(carried))
        for gseq in range(self.last_executed + 1, top + 1):
            if gseq in carried:
                proposal = PrePrepare(view=self.view, gseq=gseq,
                                      matrix=carried[gseq][1].matrix)
            else:
                proposal = PrePrepare(view=self.view, gseq=gseq,
                                      matrix=self._current_matrix())
            self._pre_prepare_in(self.name, proposal)
            self._broadcast(proposal)
        self.next_gseq = top + 1
        self._last_proposal_time = self.now

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def _reconcile_tick(self) -> None:
        if self.state != STATE_NORMAL or self.byzantine == "crash":
            return
        latest = self.checkpoint
        self._broadcast(AruExchange(
            replica=self.name, last_executed=self.last_executed,
            view=self.view,
            checkpoint=None if latest is None else (latest.gseq,
                                                    latest.digest)))
        self._retransmit_unacked_po_requests()
        self._adopt_view_evidence()
        self._try_execute()

    def _retransmit_unacked_po_requests(self) -> None:
        """Prime retransmits PO-Requests until they certify; without
        this, a message-loss burst (partition, DoS) could strand an
        introduced update forever."""
        stale = []
        for slot_key in self.own_pending:
            slot = self.po_slots.get(slot_key)
            if slot is None or slot.certified is not None:
                continue
            if self.now - self.own_pending[slot_key] < \
                    self.config.timing.reconciliation_interval:
                continue
            update = slot.updates.get(slot.my_ack) if slot.my_ack else None
            if update is not None:
                stale.append((slot_key[1], update))
        for seq, update in sorted(stale)[:64]:
            self._broadcast(PoRequestBatch(originator=self.originator_id,
                                           start_seq=seq, updates=[update]))

    def _aru_exchange_in(self, msg: AruExchange) -> None:
        self.peer_views[msg.replica] = max(
            self.peer_views.get(msg.replica, 0), msg.view)
        if msg.last_executed > self.last_executed:
            self._broadcast(ReconcRequest(replica=self.name,
                                          from_gseq=self.last_executed + 1,
                                          to_gseq=msg.last_executed))
        self._adopt_view_evidence()
        if msg.checkpoint is not None:
            self._peer_checkpoints[msg.replica] = msg.checkpoint
            self._check_stability()

    def _adopt_view_evidence(self) -> None:
        """Adopt a higher view when f+1 peers claim it (heals replicas
        that missed a view change, e.g. right after recovery)."""
        views = sorted(self.peer_views.values(), reverse=True)
        if len(views) >= self.config.vouch:
            evident = views[self.config.vouch - 1]
            if evident > self.view:
                self.view = evident
                self.view_changes += 1
                self._metric_view_changes.inc()
                self.suspected_view = None
                now = self.now
                self.own_pending = {key: now for key in self.own_pending}
                self._certified_pending = {
                    key: now for key in self._certified_pending}
                self.log("prime.view", "adopted evident view", view=evident)

    def _reconc_request_in(self, request: ReconcRequest) -> None:
        stable = self.stable_checkpoint
        if stable is not None and request.from_gseq <= stable.gseq:
            # The history asked for is truncated here: answer with the
            # stable checkpoint, and the requester reconciles on from it.
            self._broadcast(replace(stable.state, view=self.view))
            return
        batches = []
        for gseq in range(request.from_gseq,
                          min(request.to_gseq, request.from_gseq + 50) + 1):
            slot = self.slots.get(gseq)
            if slot is not None and slot.committed and slot.pre_prepare is not None:
                batches.append(slot.pre_prepare)
        if batches:
            self._broadcast(ReconcResponse(replica=self.name, batches=batches))

    def _reconc_response_in(self, response: ReconcResponse) -> None:
        """Adopt committed proposals vouched for by f+1 distinct peers."""
        for proposal in response.batches:
            if not isinstance(proposal, PrePrepare):
                continue
            gseq = proposal.gseq
            if gseq <= self.last_executed:
                continue
            slot = self.slots.setdefault(gseq, _Slot())
            if slot.committed:
                continue
            claim_digest = proposal.view_digest()
            claims = self._reconc_claims.setdefault(gseq, {})
            claims.setdefault(claim_digest, set()).add(response.replica)
            if len(claims[claim_digest]) >= self.config.vouch:
                slot.view = proposal.view
                slot.pre_prepare = proposal
                slot.digest = claim_digest
                slot.committed = True
                self._reconc_claims.pop(gseq, None)
        self._try_execute()

    # ------------------------------------------------------------------
    # Crash / proactive recovery / state transfer
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Stop participating and lose all volatile state."""
        self.log("prime.lifecycle", "replica crashed")
        self.shutdown()

    def cold_reset(self) -> None:
        """Assumption-breach reset (Section III-A): wipe everything and
        resume from scratch *without* state transfer.  Only meaningful
        when coordinated across all replicas; the SCADA application
        rebuilds its state from the field devices afterwards."""
        self.recover(new_epoch=True, cold=True)

    def recover(self, new_epoch: bool = True, cold: bool = False) -> None:
        """Restart after a crash or proactive recovery: wipe state, bump
        the incarnation, and run the state-transfer protocol."""
        self.restart()
        if new_epoch:
            self.epoch += 1
        self.state = STATE_RECOVERING
        self.next_po_seq = 1
        self.intro_queue.clear()
        self.introduced.clear()
        self.po_slots.clear()
        self.po_aru.clear()
        self.peer_aru.clear()
        self._pending_acks = []
        self._last_sent_aru = {}
        self.view = 0
        self.slots.clear()
        self.last_executed = 0
        self.exec_aru.clear()
        self.executed_updates.clear()
        self.next_gseq = 1
        self.own_pending.clear()
        self._certified_pending.clear()
        self._slot_update_key.clear()
        self.suspected_view = None
        self.new_leader_msgs.clear()
        self.peer_views.clear()
        self._fetching.clear()
        self._fetch_claims.clear()
        self._reconc_claims.clear()
        self._recovery_responses.clear()
        self.checkpoint = self.stable_checkpoint = None
        self._peer_checkpoints.clear()
        self._po_floor = {}
        self._catch_up = {}
        self._start_timers()
        if cold:
            self.state = STATE_NORMAL
            self.app.on_state_transfer("cold-reset")
            self.log("prime.lifecycle", "cold reset", epoch=self.epoch)
            return
        self.app.on_state_transfer("started")
        self.log("prime.lifecycle", "replica recovering", epoch=self.epoch)
        self._request_state()

    def _request_state(self) -> None:
        if self.state != STATE_RECOVERING:
            return
        self._recovery_nonce += 1
        nonce = self._recovery_nonce
        self._recovery_responses[nonce] = []
        self._broadcast(StateRequest(replica=self.name, nonce=nonce))
        self.call_later(RECOVERY_RETRY, self._check_recovery, nonce)

    def _state_request_in(self, request: StateRequest) -> None:
        if self.state != STATE_NORMAL:
            return
        self._broadcast(self._state_response(request.nonce))

    def _state_response(self, nonce: int) -> StateResponse:
        """This replica's state as state transfer carries it.  Both
        digests are SHA-256 over a ``repr``: a checkpoint takes one of
        these every ``CHECKPOINT_INTERVAL`` gseqs."""
        snapshot = self.app.snapshot()
        executed = {c: sorted(s) for c, s in self.executed_updates.items()}
        return StateResponse(
            replica=self.name, nonce=nonce,
            last_executed=self.last_executed, view=self.view,
            exec_aru=dict(self.exec_aru),
            executed_keys_digest=_repr_digest(sorted(executed.items())),
            app_state={"app": snapshot, "executed": executed},
            app_digest=_repr_digest(snapshot),
        )

    def _state_response_in(self, response: StateResponse) -> None:
        if response.nonce == CATCH_UP_NONCE:
            self._catch_up_in(response)
            return
        if self.state != STATE_RECOVERING:
            return
        bucket = self._recovery_responses.get(response.nonce)
        if bucket is None:
            return
        if any(r.replica == response.replica for r in bucket):
            return
        bucket.append(response)
        members = self._vouched(bucket)
        if members is not None:
            self._install_state(members)
            self.app.on_state_transfer("completed")
            self.log("prime.lifecycle", "state transfer complete",
                     last_executed=self.last_executed, view=self.view)

    def _catch_up_in(self, response: StateResponse) -> None:
        """A stable checkpoint ahead of this replica's execution."""
        if (self.state != STATE_NORMAL
                or response.last_executed <= self.last_executed):
            return
        answers = {name: answer for name, answer in self._catch_up.items()
                   if answer.last_executed > self.last_executed}
        answers[response.replica] = response
        self._catch_up = answers
        members = self._vouched(answers.values())
        if members is not None:
            self._install_state(members)
            self.log("prime.checkpoint", "caught up from checkpoint",
                     last_executed=self.last_executed, view=self.view)
            self._try_execute()

    def _vouched(self, responses) -> Optional[List[StateResponse]]:
        """The first group of ``f + 1`` responses agreeing on what
        state transfer groups donors by, if there is one."""
        groups: Dict[Tuple[int, bytes, bytes], List[StateResponse]] = {}
        for response in responses:
            key = (response.last_executed, response.app_digest,
                   response.executed_keys_digest)
            groups.setdefault(key, []).append(response)
        for members in groups.values():
            if len(members) >= self.config.vouch:
                return members
        return None

    def _install_state(self, members: List[StateResponse]) -> None:
        """Install state vouched for by ``f + 1`` donors: the end of a
        recovery's state transfer, or a checkpoint catch-up.  The
        installed state is this replica's stable point from then on."""
        response = members[0]
        self.state = STATE_NORMAL
        self.last_executed = response.last_executed
        # Adopt the highest view among the vouching donors; a stale view
        # heals via view evidence gossip.
        self.view = max([self.view] + [m.view for m in members])
        self.exec_aru = dict(response.exec_aru)
        self.executed_updates = {
            c: set(s) for c, s in response.app_state["executed"].items()}
        self.app.restore(response.app_state["app"])
        self._recovery_responses.clear()
        self._catch_up = {}
        self.checkpoint = _Checkpoint.of(
            replace(response, replica=self.name, nonce=CATCH_UP_NONCE))
        self._stabilize(self.checkpoint)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _check_stability(self) -> None:
        """The latest own checkpoint is stable once ``2f + k + 1``
        replicas, this one included, report the same one."""
        mine = self.checkpoint
        if mine is None or self._below_stable(mine.gseq):
            return
        report = (mine.gseq, mine.digest)
        votes = 1 + sum(1 for peer in self._peer_checkpoints.values()
                        if peer == report)
        if votes >= self.config.quorum:
            self._stabilize(mine)

    def _below_stable(self, gseq: int) -> bool:
        stable = self.stable_checkpoint
        return stable is not None and gseq <= stable.gseq

    def _stabilize(self, checkpoint: _Checkpoint) -> None:
        """Truncate everything ``checkpoint`` covers: ordering slots
        below its gseq, and every preorder slot at or below its
        executed-through vector, old incarnations included.  The stable
        gseq's own slot stays until the next checkpoint: the leader
        compares its next proposal's matrix with it."""
        self.stable_checkpoint = checkpoint
        gseq = checkpoint.gseq
        floor = self._po_floor = checkpoint.state.exec_aru
        self.slots = {g: slot for g, slot in self.slots.items() if g >= gseq}
        # Every table keyed by a preorder slot.
        for name in ("po_slots", "_fetching", "_fetch_claims",
                     "_certified_pending", "own_pending", "_slot_update_key"):
            setattr(self, name, {key: value for key, value
                                 in getattr(self, name).items()
                                 if key[1] > floor.get(key[0], 0)})
        self._reconc_claims = {g: v for g, v in self._reconc_claims.items()
                               if g > gseq}
        self.new_leader_msgs = {v: votes for v, votes in
                                self.new_leader_msgs.items() if v > self.view}

    def _check_recovery(self, nonce: int) -> None:
        if self.state != STATE_RECOVERING:
            return
        self.app.on_state_transfer("retrying")
        self._request_state()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "name": self.name, "view": self.view, "state": self.state,
            "last_executed": self.last_executed,
            "updates_executed": self.updates_executed,
            "view_changes": self.view_changes,
            "epoch": self.epoch,
        }
