"""Tests for the spire-sim command-line interface."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_quickstart_command():
    code, output = run_cli(["--seed", "3", "quickstart"])
    assert code == 0
    assert "replicas" in output
    assert "views consistent: True" in output


def test_breach_command():
    code, output = run_cli(["--seed", "3", "breach"])
    assert code == 0
    assert "rebuilt from field devices: True" in output


def test_chaos_list_command():
    code, output = run_cli(["chaos", "--list"])
    assert code == 0
    assert "baseline" in output
    assert "byzantine-storm" in output


def test_chaos_command_produces_report(tmp_path):
    report_path = tmp_path / "report.json"
    code, _output = run_cli(["--seed", "1", "chaos",
                             "--scenarios", "baseline,byzantine-storm",
                             "--duration", "12.0",
                             "--output", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"]
    baseline = report["scenarios"]["baseline"]
    assert baseline["violations"] == 0
    storm = report["scenarios"]["byzantine-storm"]
    assert storm["expect"] == "violation"
    assert storm["violations"] > 0


def test_chaos_command_writes_deployment_report_and_dumps(tmp_path):
    report_path = tmp_path / "deployment.md"
    dumps_dir = tmp_path / "dumps"
    code, _output = run_cli(["--seed", "3", "chaos",
                             "--scenarios", "byzantine-storm",
                             "--duration", "12.0",
                             "--report", str(report_path),
                             "--dumps-dir", str(dumps_dir)])
    assert code == 0
    markdown = report_path.read_text()
    assert markdown.startswith("# Spire deployment report")
    assert "byzantine-storm" in markdown
    dump_paths = sorted(dumps_dir.glob("byzantine-storm-seed*.json"))
    assert dump_paths, "no automatic black-box dumps written"
    dump = json.loads(dump_paths[0].read_text())
    assert dump["fault_ids"]
    assert dump["reason"].startswith("faults.violation")


def test_report_command_renders_all_formats(tmp_path):
    json_path = tmp_path / "report.json"
    md_path = tmp_path / "report.md"
    html_path = tmp_path / "report.html"
    code, _output = run_cli(["--seed", "1", "report", "--skip-plant",
                             "--scenarios", "byzantine-storm",
                             "--seeds", "1", "--duration", "12.0",
                             "--output", str(json_path),
                             "--markdown", str(md_path),
                             "--html", str(html_path)])
    assert code == 0
    document = json.loads(json_path.read_text())
    assert document["meta"]["generator"] == "spire-sim report"
    assert "jobs" not in document["meta"]          # determinism witness
    campaign = document["campaign"]
    assert campaign["scenarios"]["byzantine-storm"]["violations"] > 0
    assert md_path.read_text().startswith("# Spire deployment report")
    assert html_path.read_text().startswith("<!DOCTYPE html>")


def test_report_command_plant_only_prints_markdown():
    code, output = run_cli(["--seed", "1", "report", "--skip-campaign",
                            "--plant-duration", "14"])
    assert code == 0
    assert output.startswith("# Spire deployment report")
    assert "Reaction-time distributions" in output
    assert "Per-hop latency" in output


# ---------------------------------------------------------------------------
# Bad input ends in one line on stderr and argparse's status, not a traceback
# ---------------------------------------------------------------------------
def run_cli_process(argv, cwd):
    """Run ``spire-sim`` in a child interpreter, so an uncaught exception
    shows as the traceback a user would see."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "repro.cli"] + argv,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def assert_one_line_error(result, message):
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == [f"spire-sim: error: {message}"]


def test_restoring_a_file_that_is_not_a_snapshot_is_one_line(tmp_path):
    (tmp_path / "garbage.snap").write_bytes(b"garbage")
    result = run_cli_process(["snapshot", "restore", "garbage.snap"],
                             tmp_path)
    assert_one_line_error(
        result, "garbage.snap: not a snapshot file (bad magic b'garbage')")


def test_restoring_a_sharded_container_is_refused_by_name(tmp_path):
    from repro.snapshot.format import dumps

    (tmp_path / "sharded.snap").write_bytes(
        dumps("sharded", {"kernels": {}}, {"now": 1.0}))
    result = run_cli_process(["snapshot", "restore", "sharded.snap"],
                             tmp_path)
    assert_one_line_error(
        result, "sharded.snap: expected a 'world' snapshot, found 'sharded'")


def test_a_malformed_grid_spec_is_one_line(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(
        {"name": "bad", "substations": [{"name": "s1", "rtus": 0}]}))
    result = run_cli_process(["grid", "--spec", "bad.json"], tmp_path)
    assert_one_line_error(
        result, "bad.json: spec.substations[0].rtus: must be >= 1, got 0")
