"""Outcome witness: what the system *did*, independent of how many
frames it took.

``tests/test_golden_digests.py`` pins the event stream, which any
change to Spines dissemination moves (fewer forwards, fewer frames,
fewer kernel events).  These literals pin what must not move with it:
which updates were executed, that every correct replica executed them
in one order, that every submitted update was confirmed, where the
breakers ended up in the field, in every SCADA master and on every HMI,
what the invariant monitors said, and whether each fault scenario
passed.  None of it reads a timestamp, an event count or a latency.

Captured on the commit before K-disjoint-path dissemination (9a7c173,
whole-overlay flooding) under ``PYTHONHASHSEED`` 0, 3 and default.  A
change to how messages travel keeps every literal; a literal that has
to move is a behaviour change and must say so.  The red-team verdicts
(E5-E7) are pinned the same way in ``tests/test_redteam.py``, on the
experiment that module already runs.

Only worlds that drop no frames are used: ``make_town_spec(25)`` loses
status updates under its own heartbeat bursts (ROADMAP item 2), so an
outcome there is not a function of the protocol alone.
"""

import hashlib
import json

import pytest

from repro.api import GridSpec, build_world, make_town_spec, run_campaign
from repro.faults.campaign import BUILTIN_SCENARIOS
from repro.faults.monitors import MonitorSuite
from repro.prime.replica import STATE_NORMAL

#: How long before the end of a run the submitted-update cut is taken:
#: everything submitted before it has had time to be ordered, executed,
#: confirmed and displayed (confirmation takes ~50 sim-ms).
DRAIN = 0.5


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def _observe_world(world, commands, until):
    """Drive ``commands`` (``(time, hmi index, plc, breaker, close)``)
    through ``world``'s HMIs, run to ``until`` and return the outcome as
    plain data."""
    sim, clients, hmis = world.sim, world.clients, world.hmis
    units = [unit for substation in world.substations.values()
             for unit in substation.units.values()]
    suite = MonitorSuite(sim, world)
    for client in clients:
        suite.watch_client(client)
    suite.start()
    for at, index, plc, breaker, close in commands:
        sim.at(at, hmis[index].command_breaker, plc, breaker, close)
    next_seq = {}
    sim.at(until - DRAIN, lambda: next_seq.update(
        (client.client_id, client.next_seq) for client in clients))
    world.run(until)

    submitted = sorted((client_id, seq)
                       for client_id, upto in next_seq.items()
                       for seq in range(1, upto))
    by_id = {client.client_id: client for client in clients}
    unconfirmed = [key for key in submitted
                   if key[1] not in by_id[key[0]].confirmed]
    correct = {name: replica for name, replica in world.replicas.items()
               if replica.running and replica.state == STATE_NORMAL}
    unexecuted = sorted(
        (name,) + key for name, replica in correct.items()
        for key in submitted
        if key[1] not in replica.executed_updates.get(key[0], ()))
    logs = sorted((suite.exec_logs[name] for name in correct), key=len)
    one_order = all(longer[:len(shorter)] == shorter
                    for shorter, longer in zip(logs, logs[1:]))

    field = {unit.device.name: unit.topology.breaker_states()
             for unit in units}
    masters = {name: replica.app.system_view()
               for name, replica in correct.items()}
    return {
        "submitted": len(submitted),
        "submitted_set": _digest(submitted),
        "unconfirmed": unconfirmed,
        "unexecuted": unexecuted,
        "correct_replicas": len(correct),
        "one_order": one_order,
        "open_breakers": sorted(
            f"{plc}/{breaker}" for plc, states in field.items()
            for breaker, closed in states.items() if not closed),
        "masters_match_field": all(view == field
                                   for view in masters.values()),
        "hmis_match_field": all(hmi.view == field for hmi in hmis),
        "violations": sorted({v.monitor for v in suite.violations}),
    }


PLANT_COMMANDS = [
    (0.4, 0, "plc-physical", "B57", False),
    (0.9, 1, "plc-physical", "B56", False),
    (1.4, 2, "plc-dist-3", "S3-f1", False),
    (1.9, 0, "plc-physical", "B57", True),
    (2.4, 1, "plc-gen-2", "G2-output", False),
]

TOWN_COMMANDS = [
    (0.4, 0, "sub-01-r1", "sub-01-r1-f1", False),
    (0.8, 1, "sub-03-r2", "sub-03-r2-f2", False),
    (1.2, 0, "sub-05-r1", "sub-05-r1-main", False),
    (1.6, 1, "sub-01-r1", "sub-01-r1-f1", True),
    (2.0, 0, "sub-04-r2", "sub-04-r2-f1", False),
]


#: What every in-budget, fault-free run shows besides its own update
#: set and breaker end state.
QUIET = {
    "unconfirmed": [], "unexecuted": [], "correct_replicas": 6,
    "one_order": True, "masters_match_field": True,
    "hmis_match_field": True, "violations": [],
}

TOWN_OUTCOME = dict(
    QUIET, submitted=27, submitted_set="657d8355fc242504",
    open_breakers=["sub-03-r2/sub-03-r2-f2", "sub-04-r2/sub-04-r2-f1",
                   "sub-05-r1/sub-05-r1-main"])


def test_single_plant_outcome():
    world = build_world(GridSpec.single_plant())
    assert _observe_world(world, PLANT_COMMANDS, until=4.0) == dict(
        QUIET, submitted=62, submitted_set="f218707fc590ed0b",
        open_breakers=["plc-dist-3/S3-f1", "plc-gen-2/G2-output",
                       "plc-physical/B56"])


def test_town5_outcome():
    world = build_world(make_town_spec(5))
    assert _observe_world(world, TOWN_COMMANDS, until=4.0) == TOWN_OUTCOME


def _cell(confirmed, injected, reverted, violations=(), over=False):
    return {"passed": True, "violations": list(violations),
            "workload": {"submitted": 46, "confirmed": confirmed},
            "faults": {"injected": injected, "reverted": reverted,
                       "denied": 0, "went_over_budget": over}}


# ``passed`` is the scenario meeting its expectation: the two
# over-budget scenarios pass *because* their monitor fires.
CAMPAIGN_OUTCOMES = {
    "baseline": _cell(46, 0, 0),
    "byzantine-storm": _cell(15, 3, 0, ["liveness"], over=True),
    "crash-recover": _cell(46, 3, 3),
    "flap-degrade": _cell(46, 5, 5),
    "partition": _cell(46, 3, 3),
    "recovery-breach": _cell(46, 1, 0, ["recovery-budget"]),
    "recovery-collision": _cell(46, 2, 0),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_campaign_cell_outcome(name):
    """One fault-campaign cell per built-in scenario: pass/fail, which
    monitors fired, how much of the workload confirmed, and the fault
    ledger."""
    report = run_campaign([name], seeds=[1])
    run, = report["scenarios"][name]["runs"]
    outcome = {
        "passed": run["passed"],
        "violations": sorted({v["monitor"] for v in run["violations"]}),
        "workload": run["workload"],
        "faults": {key: run["faults"][key] for key in
                   ("injected", "reverted", "denied", "went_over_budget")},
    }
    assert outcome == CAMPAIGN_OUTCOMES[name]
