"""Prime protocol messages.

All replica-to-replica messages are signed by the sending replica (the
signature lives in the envelope produced by ``PrimeReplica._broadcast``;
the structures here are the signed bodies).  Client updates carry their
own client signature and are therefore self-certifying when relayed.

Messages on the hot path (client updates, the signed envelope, leader
proposals) mix in :class:`~repro.crypto.serialize.FrozenViewMixin`:
their authenticated view is serialized and digested once per object —
sign-then-freeze — instead of once per signing, digesting, and
verifying replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.auth import Signature
from repro.crypto.serialize import (
    FrozenViewMixin, UnserializableError, canonical_cached,
)

PRIME_INTERNAL_PORT = 7000
PRIME_CLIENT_PORT = 7100


@dataclass(frozen=True)
class ClientUpdate(FrozenViewMixin):
    """An update submitted by a SCADA client (proxy or HMI).

    ``op`` is opaque to Prime; the SCADA master interprets it.
    """

    client_id: str
    client_seq: int
    op: Any
    reply_to: Optional[Tuple[str, int]] = None   # overlay address for replies
    signature: Optional[Signature] = None
    # Telemetry-only trace context ({"trace_id", "span_id"}); excluded
    # from the signed view so tracing never perturbs authentication.
    trace: Optional[Dict[str, str]] = None

    def key(self) -> Tuple[str, int]:
        return (self.client_id, self.client_seq)

    VIEW_KEYS = ("client_id", "client_seq", "op_repr", "reply_to")

    def view_values(self) -> tuple:
        return (self.client_id, self.client_seq, repr(self.op),
                list(self.reply_to) if self.reply_to else None)

    def wire_size(self) -> int:
        return 80 + len(repr(self.op))


@dataclass
class PoRequestBatch:
    """Preorder requests: the originator assigns (originator, seq) slots
    to client updates it introduces."""

    originator: str
    start_seq: int                      # first update gets this po-seq
    updates: List[ClientUpdate]

    def wire_size(self) -> int:
        return 24 + sum(u.wire_size() for u in self.updates)


@dataclass
class PoAckBatch:
    """Acknowledges preorder slots and carries the sender's cumulative
    PO-ARU vector (originator -> highest contiguous acked seq)."""

    acker: str
    acks: List[Tuple[str, int, bytes]]   # (originator, seq, digest)
    po_aru: Dict[str, int]

    def wire_size(self) -> int:
        return 16 + 44 * len(self.acks) + 12 * len(self.po_aru)


@dataclass
class PrePrepare(FrozenViewMixin):
    """Leader proposal: a summary matrix of PO-ARU vectors."""

    view: int
    gseq: int
    matrix: Dict[str, Dict[str, int]]    # replica -> its po_aru vector

    # The proposal digest every replica computes (pre-prepare handling,
    # reconciliation claims) covers these fields — cache it.
    VIEW_KEYS = ("view", "gseq", "matrix")

    def view_values(self) -> tuple:
        return (self.view, self.gseq, self.matrix)

    def wire_size(self) -> int:
        return 16 + 12 * sum(len(v) for v in self.matrix.values())


@dataclass
class PrepareMsg:
    view: int
    gseq: int
    digest: bytes
    replica: str

    def wire_size(self) -> int:
        return 56


@dataclass
class CommitMsg:
    view: int
    gseq: int
    digest: bytes
    replica: str

    def wire_size(self) -> int:
        return 56


@dataclass
class NewLeaderMsg:
    """Vote to install ``new_view``, carrying the sender's prepared (but
    possibly uncommitted) proposals for carry-over safety."""

    new_view: int
    replica: str
    last_executed: int
    prepared: Dict[int, Tuple[int, Any]]   # gseq -> (view, PrePrepare)

    def wire_size(self) -> int:
        return 24 + 64 * len(self.prepared)


@dataclass
class ReconcRequest:
    """Ask peers for committed proposals the sender missed."""

    replica: str
    from_gseq: int
    to_gseq: int

    def wire_size(self) -> int:
        return 24


@dataclass
class ReconcResponse:
    replica: str
    batches: List[Any]                    # list of PrePrepare

    def wire_size(self) -> int:
        return 8 + sum(b.wire_size() for b in self.batches)


@dataclass
class UpdateRequest:
    """Ask peers for preordered update content the sender is missing."""

    replica: str
    slots: List[Tuple[str, int]]          # (originator, po-seq)

    def wire_size(self) -> int:
        return 8 + 16 * len(self.slots)


@dataclass
class UpdateResponse:
    replica: str
    items: List[Tuple[str, int, ClientUpdate]]

    def wire_size(self) -> int:
        return 8 + sum(u.wire_size() + 16 for (_, _, u) in self.items)


@dataclass
class AruExchange:
    """Periodic 'how far have you executed' gossip for reconciliation,
    also carrying the sender's view (view-evidence healing) and its
    latest checkpoint as ``(gseq, digest)`` (stability)."""

    replica: str
    last_executed: int
    view: int = 0
    checkpoint: Optional[Tuple[int, bytes]] = None

    def wire_size(self) -> int:
        # A checkpoint adds its gseq (8 bytes) and SHA-256 digest.
        return 20 if self.checkpoint is None else 60


@dataclass
class StateRequest:
    """A recovering replica asking for replication + application state."""

    replica: str
    nonce: int

    def wire_size(self) -> int:
        return 16


@dataclass
class StateResponse:
    """Replication + application state: a donor's answer to a
    ``StateRequest`` (``nonce`` echoes it), or a stable checkpoint
    answering a ``ReconcRequest`` that reaches below it."""

    replica: str
    nonce: int
    last_executed: int
    view: int
    exec_aru: Dict[str, int]             # executed-through vector
    executed_keys_digest: bytes
    app_state: Any
    app_digest: bytes

    def wire_size(self) -> int:
        return 120 + len(repr(self.app_state))


@dataclass
class Reply:
    """Replica's answer to a client update (client waits for f+1
    matching)."""

    replica: str
    client_id: str
    client_seq: int
    result: Any

    def wire_size(self) -> int:
        return 48 + len(repr(self.result))


@dataclass
class SignedPrimeMessage(FrozenViewMixin):
    """Envelope for replica-to-replica traffic: body + replica signature.

    The signature covers the canonical serialization of the body, so any
    in-flight modification (even by a keyed-but-compromised overlay
    daemon) is detected by the receiving replica.
    """

    sender: str
    body: Any
    signature: Optional[Signature] = None

    VIEW_KEYS = ("sender", "body_type", "body")

    def view_values(self) -> tuple:
        try:
            body_bytes = canonical_cached(self.body)
        except UnserializableError:
            body_bytes = repr(self.body).encode()
        return (self.sender, type(self.body).__name__, body_bytes)

    def wire_size(self) -> int:
        inner = getattr(self.body, "wire_size", lambda: 64)()
        return 40 + inner
