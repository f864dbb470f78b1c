"""Detection scorecard: alert attribution, campaign integration,
live-MANA snapshot survival, and report rendering."""

import json

import pytest

from repro.faults import BUILTIN_SCENARIOS, report_digest, run_campaign
from repro.faults.campaign import _build_cell
from repro.mana.alerts import Alert, AlertCorrelator, Incident
from repro.mana.scoring import score_alerts
from repro.obs.scorecard import (
    build_detection_section, detection_rates, quantile,
)


# ----------------------------------------------------------------------
# Pure attribution math
# ----------------------------------------------------------------------
def test_score_alerts_attribution():
    windows = [
        {"fault_id": "p:0:crash", "kind": "crash", "start": 2.0, "end": 4.0},
        {"fault_id": "p:1:partition", "kind": "partition",
         "start": 10.0, "end": 12.0},
    ]
    # 2.5 inside the first window, 5.5 inside its grace tail, 8.0 in
    # clean air; nothing ever lands on the second window.
    alerts = [{"time": 2.5}, {"time": 5.5}, {"time": 8.0}]
    result = score_alerts(windows, alerts, until=20.0, grace=2.0)
    assert result["true_positives"] == 2
    assert result["false_positives"] == 1
    assert result["detected"] == 1
    assert result["missed"] == ["p:1:partition"]
    assert result["windows"][0]["time_to_detect"] == 0.5
    assert result["windows"][1]["detected"] is False
    # clean time excludes both grace-extended spans: [2,6] and [10,14]
    assert result["clean_seconds"] == pytest.approx(12.0)


def test_score_alerts_overlapping_windows_counts_each_alert_once():
    windows = [
        {"fault_id": "a", "kind": "crash", "start": 1.0, "end": 5.0},
        {"fault_id": "b", "kind": "partition", "start": 3.0, "end": 7.0},
    ]
    result = score_alerts(windows, [{"time": 4.0}], until=10.0, grace=0.0)
    # One alert detects both windows but is a single true positive.
    assert result["true_positives"] == 1
    assert result["false_positives"] == 0
    assert result["detected"] == 2
    # Overlapping spans never double-count clean-time coverage.
    assert result["clean_seconds"] == pytest.approx(4.0)


def test_score_alerts_no_windows_all_false_positives():
    result = score_alerts([], [{"time": 1.0}, {"time": 2.0}], until=10.0)
    assert result["true_positives"] == 0
    assert result["false_positives"] == 2
    assert result["clean_seconds"] == pytest.approx(10.0)


def test_quantile_nearest_rank():
    assert quantile([], 0.5) is None
    assert quantile([3.0], 0.9) == 3.0
    values = [1.0, 2.0, 3.0, 4.0]
    assert quantile(values, 0.50) == 2.0
    assert quantile(values, 0.90) == 4.0


def test_detection_rates_undefined_cases():
    rates = detection_rates(0, 0, 0, 0, 0.0, [])
    assert rates["precision"] is None
    assert rates["recall"] is None
    assert rates["fpr_per_clean_hour"] is None
    assert rates["mttd_p50"] is None
    rates = detection_rates(3, 1, 4, 3, 3600.0, [0.4, 0.5, 0.6])
    assert rates["precision"] == pytest.approx(0.75)
    assert rates["recall"] == pytest.approx(0.75)
    assert rates["fpr_per_clean_hour"] == pytest.approx(1.0)
    assert rates["mttd_p50"] == 0.5


# ----------------------------------------------------------------------
# Alert / Incident serialization (deterministic JSON)
# ----------------------------------------------------------------------
def test_alert_and_incident_to_dict_round_trip_json():
    np = pytest.importorskip("numpy")
    alert = Alert(time=np.float64(3.5), network="lan-a",
                  score=np.float64(2.25),
                  models_flagging=("kmeans", "mahalanobis"),
                  top_features=(("packet_count", np.float64(4.0)),))
    payload = alert.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["score"] == 2.25
    assert payload["models_flagging"] == ["kmeans", "mahalanobis"]

    correlator = AlertCorrelator(gap=5.0)
    incident = correlator.add(alert)
    assert isinstance(incident, Incident)
    doc = incident.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["alerts"][0] == payload
    assert doc["peak_score"] == 2.25


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
def test_mana_campaign_scores_and_is_byte_identical():
    kwargs = dict(scenarios=["partition"], seeds=[2], mana=True,
                  duration=8.0)
    warm = run_campaign(**kwargs)
    cold = run_campaign(**kwargs, warm_cache=False)
    fanned = run_campaign(**kwargs, jobs=2)
    assert report_digest(warm) == report_digest(cold) == report_digest(fanned)

    detection = warm["detection"]
    assert detection is not None
    totals = detection["campaign"]
    assert totals["window_count"] > 0
    assert set(totals) >= {"precision", "recall", "fpr_per_clean_hour",
                           "mttd_p50", "mttd_p90", "true_positives",
                           "false_positives"}
    run = warm["scenarios"]["partition"]["runs"][0]
    assert run["detection"]["networks"]          # per-network stats present
    for alert in run["detection"]["sample_alerts"]:
        assert json.loads(json.dumps(alert)) == alert


def test_mana_ground_truth_windows_from_armed_plan():
    report = run_campaign(scenarios=["partition"], seeds=[1], mana=True,
                          duration=8.0)
    detection = report["scenarios"]["partition"]["runs"][0]["detection"]
    # Within 8 s the partition plan fires only its first action.
    assert detection["window_count"] == 1
    window = detection["windows"][0]
    assert window["kind"] == "partition"
    assert window["fault_id"].startswith("partition:")
    assert window["start"] == pytest.approx(3.0)


def test_campaign_without_mana_has_no_detection():
    report = run_campaign(scenarios=["baseline"], seeds=[1], duration=6.0)
    assert "detection" not in report
    assert report["config"]["mana"] is False
    for run in report["scenarios"]["baseline"]["runs"]:
        assert "detection" not in run


def test_missed_detection_produces_recorder_dump():
    # Synthetic attribution path: verify the report section aggregates
    # misses; the dump trigger itself is covered by the scoring dict
    # contract (missed -> mana.missed_detection dump in _finish_run).
    campaign = {"scenarios": {"s": {"runs": [{"detection": {
        "window_count": 2, "detected": 1, "missed": ["s:1:crash"],
        "true_positives": 3, "false_positives": 1, "alert_count": 4,
        "incidents": 2, "clean_seconds": 7200.0, "ttd": [0.5],
        "grace": 2.0,
    }}]}}}
    section = build_detection_section(campaign)
    assert section["campaign"]["missed"] == 1
    assert section["campaign"]["fpr_per_clean_hour"] == pytest.approx(0.5)
    assert section["scenarios"]["s"]["recall"] == pytest.approx(0.5)


def test_build_detection_section_none_without_detection():
    assert build_detection_section({"scenarios": {
        "s": {"runs": [{"passed": True}]}}}) is None


# ----------------------------------------------------------------------
# Live MANA across snapshot save/restore (satellite: scorecard state
# participates in the warm-start snapshot)
# ----------------------------------------------------------------------
def test_live_mana_survives_snapshot_roundtrip():
    from repro.snapshot import restore_world_bytes, save_world_bytes

    cell = _build_cell(grid=None, seed=5, f=1, k=1, harness={},
                       run_for=12.0, arm_at=3.0, mana=True)
    assert cell.mana and all(inst.trained for inst in cell.mana.values())
    assert all(inst._live_timer is not None for inst in cell.mana.values())
    image = save_world_bytes(cell)

    # Uninterrupted continuation.
    plan = BUILTIN_SCENARIOS["partition"].build(1, 1)
    plan.arm(cell.sim, cell.world)
    cell.sim.run(until=12.0)
    baseline = {network: [alert.to_dict() for alert in instance.alerts]
                for network, instance in cell.mana.items()}
    assert sum(len(alerts) for alerts in baseline.values()) > 0
    baseline_digest = cell.sim.event_digest()

    # Restored copy follows the identical schedule.
    restored = restore_world_bytes(image)
    assert restored.sim.now == pytest.approx(3.0)
    plan2 = BUILTIN_SCENARIOS["partition"].build(1, 1)
    plan2.arm(restored.sim, restored.world)
    restored.sim.run(until=12.0)
    replayed = {network: [alert.to_dict() for alert in instance.alerts]
                for network, instance in restored.mana.items()}
    assert replayed == baseline
    assert restored.sim.event_digest() == baseline_digest


# ----------------------------------------------------------------------
# HealthBoard: incident bursts mark the network suspect
# ----------------------------------------------------------------------
def test_health_board_marks_network_suspect_on_mana_burst():
    from repro.obs import HealthBoard
    from repro.sim.process import Process
    from repro.sim.simulator import Simulator

    sim = Simulator(seed=1)
    board = HealthBoard(sim, interval=None, mana_burst=3,
                        mana_burst_window=10.0)
    emitter = Process(sim, "mana-test")
    emitter.log("mana.alert", "anomaly", network="lan-a", score=2.0)
    emitter.log("mana.alert", "anomaly", network="lan-a", score=2.1)
    assert board.state_of("lan-a") == "healthy"
    emitter.log("mana.alert", "anomaly", network="lan-a", score=2.2)
    assert board.state_of("lan-a") == "suspect"
    assert board.components["lan-a"].kind == "network"
    # Alerts without a network tag (or on other networks) do nothing.
    emitter.log("mana.alert", "anomaly", score=9.9)
    assert board.state_of("lan-b") == "healthy"


def test_ground_truth_windows_skip_denied_actions():
    report = run_campaign(scenarios=["recovery-breach"], seeds=[1],
                          mana=True, duration=8.0)
    detection = report["scenarios"]["recovery-breach"]["runs"][0]["detection"]
    faults = report["scenarios"]["recovery-breach"]["runs"][0]["faults"]
    denied = [a for a in faults["actions"] if a["denied"]]
    fired = [a for a in faults["actions"]
             if not a["denied"] and a["injected_at"] is not None]
    assert detection["window_count"] == len(fired)
    for window in detection["windows"]:
        assert window["fault_id"] not in {a["fault_id"] for a in denied}
