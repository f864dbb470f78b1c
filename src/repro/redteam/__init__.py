"""Red-team attack harness and the commercial SCADA baseline."""

from repro.redteam.attacks import (
    ArpMitm, AttackRecord, Attacker, fairness_flood, patch_spines_binary,
    run_unkeyed_daemon, stop_spines_daemon, substitute_payloads,
)
from repro.redteam.commercial import (
    CommercialHmi, CommercialScadaServer, Heartbeat, OperatorCommand,
    StatePush, COMMAND_PORT, HEARTBEAT_PORT, HISTORIAN_FEED_PORT,
    STATE_PUSH_PORT,
)

__all__ = [
    "ArpMitm", "AttackRecord", "Attacker", "fairness_flood",
    "patch_spines_binary", "run_unkeyed_daemon", "stop_spines_daemon",
    "substitute_payloads",
    "CommercialHmi", "CommercialScadaServer", "Heartbeat",
    "OperatorCommand", "StatePush", "COMMAND_PORT", "HEARTBEAT_PORT",
    "HISTORIAN_FEED_PORT", "STATE_PUSH_PORT",
]
