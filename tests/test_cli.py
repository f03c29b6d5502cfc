"""Command-line behavior: output shapes, exit codes, determinism."""

import json

import numpy as np
import pytest

from opinionbudget.cli import main

from conftest import PAPER_EXAMPLE

PAPER = str(PAPER_EXAMPLE)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", PAPER)
    assert code == 0
    assert json.loads(out) == {"valid": True, "agents": 12}


def test_validate_bad_instance_exit_1(capsys, tmp_path):
    doc = json.loads(PAPER_EXAMPLE.read_text())
    doc["opinions"][0] = 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid_instance"
    assert payload["violations"][0]["code"] == "OpinionOutOfRange"


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out = run(capsys, "decompose", str(bad))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def test_decompose_output(capsys):
    code, out = run(capsys, "decompose", PAPER)
    assert code == 0
    doc = json.loads(out)
    assert doc["transient"] == ["d", "e", "f", "g", "h"]
    assert doc["classes"] == [["a", "b", "c"], ["i", "j", "k", "l"]]


def test_analyze_output(capsys):
    code, out = run(capsys, "analyze", PAPER)
    doc = json.loads(out)
    assert code == 0
    assert np.allclose(doc["pi"][0], [20 / 47, 15 / 47, 12 / 47], atol=1e-9)
    assert np.allclose(doc["consensus"], [19.3 / 47, 9.6 / 39], atol=1e-9)
    assert len(doc["asymptotic"]) == 12


def test_min_class_budget(capsys):
    code, out = run(capsys, "min-class-budget", PAPER, "--class", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["critical_item"] == "a"
    assert abs(doc["total"] - 210.0) <= 1e-9


def test_min_class_budget_bad_class(capsys):
    code, out = run(capsys, "min-class-budget", PAPER, "--class", "5")
    assert code == 1


def test_solve_paper_309(capsys):
    code, out = run(capsys, "solve", PAPER, "--budget", "309")
    doc = json.loads(out)
    assert code == 0
    assert doc["supporter_count"] == 12
    assert doc["mode"] == "milp"
    assert doc["optimality"] == "proven"
    assert abs(doc["payments"]["a"] - 210.0) <= 0.01
    assert abs(doc["payments"]["j"] - 99.0) <= 0.01


def test_solve_uses_instance_budget_by_default(capsys):
    code, out = run(capsys, "solve", PAPER)
    doc = json.loads(out)
    assert doc["supporter_count"] == 12  # fixture stores budget 309


def test_solve_knapsack_mode_refused_with_transients(capsys):
    code, out = run(capsys, "solve", PAPER, "--mode", "knapsack")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] in ("mode_not_applicable", "parse_error")
    assert "transient" in doc["message"]


def test_solve_auto_picks_knapsack_without_transients(capsys, tmp_path):
    doc = {
        "agents": ["a", "b"],
        "edges": [
            {"from": "a", "to": "a", "w": 0.5}, {"from": "a", "to": "b", "w": 0.5},
            {"from": "b", "to": "a", "w": 0.5}, {"from": "b", "to": "b", "w": 0.5},
        ],
        "opinions": [0.2, 0.2],
        "costs": [10.0, 10.0],
        "threshold": 0.5,
        "budget": 100.0,
    }
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "solve", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["mode"] == "knapsack"
    assert payload["supporter_count"] == 2


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", PAPER, "--budgets", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["budget,supporters,total_spend", "0,0,0"]


def test_sweep_json(capsys):
    code, out = run(capsys, "sweep", PAPER, "--budgets", "99,117")
    doc = json.loads(out)
    assert [row["supporters"] for row in doc["rows"]] == [4, 6]


def test_solve_then_simulate_round_trip(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    code, _ = run(capsys, "solve", PAPER, "--budget", "293", "--out", str(plan_path))
    assert code == 0
    solved = json.loads(plan_path.read_text())
    code, out = run(capsys, "simulate", PAPER, "--plan", str(plan_path))
    assert code == 0
    simulated = json.loads(out)
    assert simulated["supporters"] == solved["supporters"]


def test_simulate_without_plan(capsys):
    code, out = run(capsys, "simulate", PAPER)
    doc = json.loads(out)
    assert code == 0
    assert doc["supporters"] == []


def test_byte_identical_reruns(capsys):
    _, first = run(capsys, "solve", PAPER, "--budget", "293")
    _, second = run(capsys, "solve", PAPER, "--budget", "293")
    assert first == second


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, stdout = run(capsys, "decompose", PAPER, "--out", str(out_path))
    assert code == 0
    assert stdout == ""
    assert json.loads(out_path.read_text())["transient"] == ["d", "e", "f", "g", "h"]


def test_simulate_rejects_plan_above_one(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"payments": {"j": 300.0}}))  # cap for j is 180
    code, out = run(capsys, "simulate", PAPER, "--plan", str(plan_path))
    assert code == 1
    assert "above 1" in json.loads(out)["message"]


def test_missing_instance_exit_1(capsys, tmp_path):
    missing = str(tmp_path / "nonexistent.json")
    code, out = run(capsys, "solve", missing)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "io_error"
    assert doc["path"] == missing


def test_missing_plan_exit_1(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out = run(capsys, "simulate", PAPER, "--plan", missing)
    assert code == 1
    assert json.loads(out)["path"] == missing


def test_unwritable_out_reports_on_stdout(capsys, tmp_path):
    code, out = run(capsys, "decompose", PAPER, "--out", str(tmp_path))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "io_error"
    assert doc["path"] == str(tmp_path)


def test_node_limit_environment(capsys, monkeypatch):
    monkeypatch.setenv("OBO_NODE_LIMIT", "abc")
    code, out = run(capsys, "solve", PAPER, "--budget", "309")
    assert code == 1
    assert json.loads(out)["error"] == "invalid_input"
    monkeypatch.setenv("OBO_NODE_LIMIT", "1")
    code, out = run(capsys, "solve", PAPER, "--budget", "309")
    assert code == 0
    assert json.loads(out)["optimality"] == "heuristic"


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field, code", [
    ("opinion", "OpinionOutOfRange"), ("cost", "NonFiniteCost"), ("weight", "NonFiniteWeight"),
    ("threshold", "ThresholdOutOfRange"), ("budget", "NonFiniteBudget"),
])
def test_nonfinite_number_exit_1(capsys, tmp_path, field, code, value):
    doc = json.loads(PAPER_EXAMPLE.read_text())
    if field == "opinion":
        doc["opinions"][4] = value
    elif field == "cost":
        doc["costs"][4] = value
    elif field == "weight":
        doc["edges"][4]["w"] = value
    else:
        doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # json writes NaN / Infinity, and reads them back
    for command in ("validate", "solve"):
        status, out = run(capsys, command, str(bad))
        payload = json.loads(out)
        assert status == 1
        assert payload["error"] == "invalid_instance"
        assert [v["code"] for v in payload["violations"]] == [code]


@pytest.mark.parametrize("amount", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_simulate_rejects_nonfinite_payment(capsys, tmp_path, amount):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"payments": {"j": amount}}))
    code, out = run(capsys, "simulate", PAPER, "--plan", str(plan_path))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def test_repeated_main_calls_reuse_one_parser(capsys):
    from opinionbudget import cli

    first = run(capsys, "analyze", PAPER)
    parser = cli._parser()
    assert run(capsys, "analyze", PAPER) == first
    assert cli._parser() is parser
    assert run(capsys, "min-class-budget", PAPER, "--class", "2")[0] == 0
    assert run(capsys, "analyze", PAPER) == first
