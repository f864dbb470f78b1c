"""SCADA update vocabulary and master→client push messages.

Client updates (ordered through Prime) are plain dicts with a ``type``
field so they stay canonically serializable:

* ``plc_status`` — a proxy's poll result: full breaker/current snapshot
  of one PLC (sent every poll; the full snapshot is what makes
  ground-truth rebuild after an assumption breach automatic).
* ``breaker_command`` — a supervisory command from an HMI operator.
* ``register_proxy`` / ``register_hmi`` — clients announcing the
  overlay addresses masters should push to (kept in replicated state so
  every replica pushes identically).

Master → client pushes (NOT ordered; consistency comes from the
receiver requiring f+1 replicas to send byte-identical content):

* :class:`CommandDirective` — masters instructing a proxy to operate a
  breaker.
* :class:`HmiFeed` — masters pushing the current system view to HMIs
  and historians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.serialize import FrozenViewMixin


def plc_status_op(plc: str, breakers: Dict[str, bool],
                  currents: Dict[str, int],
                  trace: Optional[Dict[str, str]] = None) -> dict:
    op = {"type": "plc_status", "plc": plc,
          "breakers": dict(sorted(breakers.items())),
          "currents": dict(sorted(currents.items()))}
    if trace is not None:
        op["trace"] = dict(trace)
    return op


def breaker_command_op(plc: str, breaker: str, close: bool,
                       trace: Optional[Dict[str, str]] = None) -> dict:
    op = {"type": "breaker_command", "plc": plc, "breaker": breaker,
          "close": close}
    if trace is not None:
        op["trace"] = dict(trace)
    return op


def register_proxy_op(plc_names: List[str],
                      directive_addr: Tuple[str, int]) -> dict:
    return {"type": "register_proxy", "plcs": sorted(plc_names),
            "directive_addr": list(directive_addr)}


def register_hmi_op(feed_addr: Tuple[str, int]) -> dict:
    return {"type": "register_hmi", "feed_addr": list(feed_addr)}


@dataclass
class CommandDirective(FrozenViewMixin):
    """Masters → proxy: operate a breaker.

    The proxy acts only once f+1 replicas agree — either by counting
    matching directives from distinct replicas (default), or, when the
    deployment uses threshold crypto, by combining the attached partial
    signatures into one verifiable k-of-n signature.
    """

    command_id: Tuple[str, int]        # (client_id, client_seq) of the op
    plc: str
    breaker: str
    close: bool
    replica: str
    partial: Any = None                # Optional[PartialSignature]
    # Telemetry-only trace context; excluded from matching_key() and
    # the signed view so tracing never affects f+1 agreement.
    trace: Optional[Dict[str, str]] = None

    def matching_key(self) -> str:
        return repr((tuple(self.command_id), self.plc, self.breaker, self.close))

    VIEW_KEYS = ("command_id", "plc", "breaker", "close")

    def view_values(self) -> tuple:
        return (list(self.command_id), self.plc, self.breaker, self.close)

    def wire_size(self) -> int:
        return 64 + (32 if self.partial is not None else 0)


@dataclass
class HmiFeed:
    """Masters → HMI/historian: current system view.

    ``version`` increases with every executed update; ``reset_epoch``
    distinguishes state rebuilt after a coordinated system reset.
    Receivers display a version once f+1 replicas push identical
    content for it.
    """

    version: int
    reset_epoch: int
    replica: str
    plcs: Dict[str, Dict[str, bool]]          # plc -> breaker -> closed
    currents: Dict[str, Dict[str, int]]
    alarms: List[str] = field(default_factory=list)
    # Telemetry-only trace context; excluded from matching_key() so
    # tracing never affects the f+1 display rule.
    trace: Optional[Dict[str, str]] = None

    def matching_key(self) -> str:
        return repr((self.version, self.reset_epoch,
                     sorted((p, tuple(sorted(b.items())))
                            for p, b in self.plcs.items()),
                     sorted((p, tuple(sorted(c.items())))
                            for p, c in self.currents.items()),
                     tuple(self.alarms)))

    def wire_size(self) -> int:
        return 48 + 16 * sum(len(b) for b in self.plcs.values())
