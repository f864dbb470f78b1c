"""Checks of the benchmark itself (not tier-1: ``testpaths`` is ``tests``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q

The quick pass runs every workload with a 1 s budget, in both modes, and
checks what the driver of ``BENCHMARK.json`` relies on: every declared
metric printed once with its unit, legal names, a final JSON line with
exactly the contract's keys, failures counted against attempts.  The
tracing unit tests need no simulator.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from e2e import trace  # noqa: E402
from e2e.entrypoints import Entry  # noqa: E402
from e2e.workloads import WORKLOADS, measurement_device, quantile  # noqa: E402


def test_contract_names_and_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {"setup_s", "sim_s_per_wall_s", "wall_ms_per_op",
            "peak_rss_mb"} == {m["name"] for m in CONTRACT["end_to_end"]}
    for workload in CONTRACT["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_follow_the_seed(name):
    make = WORKLOADS[name]().make_inputs
    assert make(3, 10) == make(3, 10)
    assert make(3, 10) != make(4, 10)


@pytest.mark.parametrize("mode,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_pass_prints_every_metric_once(name, mode, section):
    done = subprocess.run(
        RUN + ["--workload", name, "--seed", "5", "--seconds", "1",
               "--trace", str(mode)],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    printed = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        workload, metric, value, unit = line.split()
        assert workload == name
        assert metric not in printed, f"{metric} printed twice"
        float(value)
        printed[metric] = unit
    attempted = printed.pop("ops_attempted")
    failed = printed.pop("ops_failed")
    assert attempted == failed == "count"
    assert printed.pop("noisy") == "flag"
    assert printed == declared
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == set(declared)
    for metric, body in result["metrics"].items():
        assert set(body) == {"value", "unit"} and body["unit"] == declared[metric]
    if mode == 0:
        assert all(body["value"] > 0 for body in result["metrics"].values())


def test_flips_happen_at_the_generated_times():
    """First flip included: the device schedules it while it is built."""
    from repro.api import Simulator
    from repro.plc import redteam_topology

    inputs = WORKLOADS["commercial_scan"]().make_inputs(3, 1)
    sim = Simulator(seed=0)
    world_rng = sim.rng
    sim.run(until=5.0)
    device = measurement_device(sim, inputs, topology=redteam_topology(),
                                breaker="B57", sensors={})
    assert sim.rng is world_rng
    sim.run(until=5.0 + inputs["window_sim_s"])
    flips = [sample.flip_time - 5.0 for sample in device.samples]
    wanted = [at for at in inputs["flip_offsets_sim_s"]
              if at <= inputs["window_sim_s"]]
    assert len(wanted) == inputs["window_sim_s"] / inputs["flip_period_s"]
    assert flips == pytest.approx(wanted, abs=1e-9)


def test_aa_reports_both_sets(tmp_path):
    """``--aa`` compares two sets metric by metric and keeps both in the
    JSON; at a 1 s window they need not agree, so any of 0/1 may come."""
    path = tmp_path / "aa.json"
    done = subprocess.run(
        RUN + ["--aa", "--workload", "commercial_scan", "--seed", "5",
               "--seconds", "1", "--json", str(path)],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    assert done.returncode in (0, 1), done.stderr[-3000:]
    verdicts = [line.split() for line in done.stdout.splitlines()
                if line.startswith("aa ")]
    assert [row[2] for row in verdicts] == [
        m["name"] for m in CONTRACT["end_to_end"]]
    document = json.loads(path.read_text())
    assert [len(records) for records in document["sets"]] == [1, 1]
    first, second = (records[0] for records in document["sets"])
    assert first["deterministic"] == second["deterministic"]
    assert {"noisy", "problems", "failed"} <= set(first)
    disagreed = bool(document["aa_disagreements"])
    assert done.returncode == int(disagreed or bool(
        first["problems"] or second["problems"]))


def test_replicas_count_each_step_with_its_fastest_time():
    from e2e.run import steady_wall_s

    replicas = [{"wall_s": 6.1, "step_wall_s": [1.0, 2.0, 3.0]},
                {"wall_s": 7.1, "step_wall_s": [2.0, 1.0, 4.0]},
                {"wall_s": 9.1, "step_wall_s": [3.0, 3.0, 3.0]}]
    assert steady_wall_s(replicas) == 1.0 + 1.0 + 3.0
    assert steady_wall_s(replicas[:1]) == 6.0
    whole = [{"wall_s": wall, "step_wall_s": []} for wall in (5.0, 9.0, 6.0)]
    assert steady_wall_s(whole) == 6.0
    assert WORKLOADS["town5_ckpt_chain"].replicas == 3


def test_no_program_means_no_result(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's own
    files the driver must fail without printing a result."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "plant_e9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# trace.py on its own
# ----------------------------------------------------------------------
def _busy(n):
    return sum(range(n))


def test_unresolvable_entry_fails_loudly():
    with pytest.raises(trace.EntryPointError):
        trace.install([Entry("repro.sim.simulator:Simulator.no_such_method")])
    with pytest.raises(trace.EntryPointError):
        trace.install([Entry("repro.no_such_module:thing")])
    # Inherited, not defined: Router gets udp_send from Host.
    with pytest.raises(trace.EntryPointError):
        trace.install([Entry("repro.net.router:Router.udp_send")])
    with pytest.raises(trace.EntryPointError):
        trace.install([Entry("repro.sim.simulator:Simulator.at",
                             callbacks=("no_such_parameter",))])
    assert trace._installed is None


def test_functions_are_rebound_where_imported_by_name():
    import repro.crypto
    import repro.crypto.auth
    import repro.prime.client

    original = repro.crypto.auth.sign_payload
    hooks = trace.install([Entry("repro.crypto.auth:sign_payload")])
    try:
        wrapped = repro.crypto.auth.sign_payload
        assert wrapped is not original
        assert repro.prime.client.sign_payload is wrapped
        assert repro.crypto.sign_payload is wrapped
    finally:
        hooks.uninstall()
    assert repro.prime.client.sign_payload is original
    assert repro.crypto.sign_payload is original


def test_self_time_is_span_minus_children_and_callbacks_pickle():
    import pickle

    from repro.sim.simulator import Simulator

    hooks = trace.install([
        Entry("repro.sim.simulator:Simulator.run"),
        Entry("repro.sim.simulator:Simulator.at", callbacks=("fn",)),
    ])
    try:
        rec = hooks.recorder
        sim = Simulator(seed=1)
        sim.schedule(1.0, _busy, 20000)       # bench-owned callback
        sim.schedule(2.0, sim.event_digest)   # sim-owned callback
        restored = pickle.loads(pickle.dumps(sim))
        rec.on = True
        restored.run(until=3.0)
        rec.on = False
        summary = trace.summarize(rec, window_wall=rec.end[0] - rec.start[0])
    finally:
        hooks.uninstall()
    names = summary["names"]
    assert names["sim:Simulator.run"]["calls"] == 1
    assert names["bench:_busy@at"]["calls"] == 1
    assert names["sim:Simulator.event_digest@at"]["calls"] == 1
    run = names["sim:Simulator.run"]
    children = (names["bench:_busy@at"]["total_s"]
                + names["sim:Simulator.event_digest@at"]["total_s"])
    assert run["self_s"] == pytest.approx(run["total_s"] - children)
    assert trace.calls_via(summary, "at") == restored.events_executed == 2
    # The window given is the run span itself, so it is fully covered.
    assert summary["coverage_share"] == pytest.approx(1.0)
    assert summary["layers"]["bench"]["calls"] == 1
    assert trace.check_layers(summary, active=("sim",), bypassed=("net",)) == []
    assert len(trace.check_layers(summary, active=("net",),
                                  bypassed=("sim",))) == 2


def test_quantile_interpolates():
    assert quantile([], 0.5) == 0.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert quantile([4.0, 1.0], 0.9) == pytest.approx(3.7)
