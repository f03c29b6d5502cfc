"""Command-line behavior: output shapes, exit codes, determinism."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionbudget import cli
from opinionbudget.cli import main

from conftest import PAPER_EXAMPLE, classes_raw

PAPER = str(PAPER_EXAMPLE)


def indent_encoder(doc) -> str:
    """What the CLI's JSON must be, byte for byte."""
    return json.dumps(cli._fmt(doc), indent=2) + "\n"


@pytest.fixture(autouse=True)
def json_is_the_indent_encoder(monkeypatch):
    """Every document a test here prints, error documents included, is also checked byte for byte."""
    emit = cli._json

    def checked(doc):
        text = emit(doc)
        assert text == indent_encoder(doc)
        return text

    monkeypatch.setattr(cli, "_json", checked)


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
           | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), "é\u2028\ud800", '"\\\n\t\x00']))
KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=6) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=6),
    max_leaves=40,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_json_matches_the_indent_encoder(doc):
    assert cli._json(doc) == indent_encoder(doc)


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
    code, out = run(capsys, "solve", PAPER, "--epsilon", "0.1")
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
    for value in ("abc", "0", "-5"):
        monkeypatch.setenv("OBO_NODE_LIMIT", value)
        code, out = run(capsys, "solve", PAPER, "--budget", "309")
        assert code == 1, value
        assert json.loads(out)["error"] == "invalid_input"
    monkeypatch.setenv("OBO_NODE_LIMIT", "1")
    code, out = run(capsys, "solve", PAPER, "--budget", "309")
    assert code == 0
    assert json.loads(out)["optimality"] == "heuristic"


def test_only_a_node_limited_solve_prints_its_count_bound(capsys, monkeypatch):
    # at budget 293 the root's LP bound allows 11 supporters; 8 is the optimum
    monkeypatch.setenv("OBO_NODE_LIMIT", "1")
    doc = json.loads(run(capsys, "solve", PAPER, "--budget", "293")[1])
    assert list(doc)[-5:] == ["supporter_count", "optimality", "count_bound", "node_count", "mode"]
    assert (doc["optimality"], doc["supporter_count"], doc["count_bound"]) == ("heuristic", 5, 11)
    monkeypatch.delenv("OBO_NODE_LIMIT")
    doc = json.loads(run(capsys, "solve", PAPER, "--budget", "293")[1])
    assert doc["optimality"] == "proven" and "count_bound" not in doc


def test_node_limit_environment_is_checked_without_transient_states(capsys, monkeypatch, tmp_path):
    path = tmp_path / "classes.json"
    path.write_text(json.dumps(classes_raw(np.random.default_rng(11), 40, budget=30.0)))
    for argv in (("solve", str(path)), ("sweep", str(path), "--budgets", "1,30")):
        for value in ("abc", "0"):
            monkeypatch.setenv("OBO_NODE_LIMIT", value)
            code, out = run(capsys, *argv)
            assert code == 1, (argv, value)
            assert json.loads(out)["error"] == "invalid_input"
        monkeypatch.setenv("OBO_NODE_LIMIT", "1")  # the class knapsack never uses it
        assert run(capsys, *argv)[0] == 0


def paper_with(field, value, index=4):
    """The paper example's document with one number field set to ``value``: an entry of a list, or a scalar."""
    doc = json.loads(PAPER_EXAMPLE.read_text())
    if field == "opinion":
        doc["opinions"][index] = value
    elif field == "cost":
        doc["costs"][index] = value
    elif field == "weight":
        doc["edges"][index]["w"] = value
    else:
        doc[field] = value
    return doc


def test_row_total_overflow_names_the_agent(capsys, tmp_path):
    # two finite weights of agent a add up to inf: normalizing its row would divide by it
    doc = json.loads(PAPER_EXAMPLE.read_text())
    for edge in doc["edges"][:2]:
        assert edge["from"] == "a"
        edge["w"] = 1e308
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("validate", "solve"):
        status, out = run(capsys, command, str(bad))
        assert status == 1
        assert json.loads(out) == {"error": "invalid_instance", "violations": [{
            "code": "NonStochasticRow", "agent": "a",
            "message": "agent 'a' has infinite total outgoing weight; row cannot be normalized"}]}


#: Stands for a number in a document until its JSON text is spliced in.
MARK = "number-goes-here"


def write_with_number(path, doc, literal):
    """Write ``doc`` as JSON with the string ``MARK`` replaced by the raw JSON text ``literal``."""
    path.write_text(json.dumps(doc).replace(json.dumps(MARK), literal))
    return str(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field, code", [
    ("opinion", "OpinionOutOfRange"), ("cost", "NonFiniteCost"), ("weight", "NonFiniteWeight"),
    ("threshold", "ThresholdOutOfRange"), ("budget", "NonFiniteBudget"),
])
def test_nonfinite_number_exit_1(capsys, tmp_path, field, code, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(paper_with(field, value)))  # json writes NaN / Infinity, and reads them back
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


#: Where one number of an input can sit: a field of the instance, or the plan's payment.
NUMBER_FIELDS = ("budget", "threshold", "opinion", "cost", "weight", "payment")
#: JSON texts for it: out of the double range, non-finite, signed zero, and not numbers at all.
NUMBER_TEXTS = ("1" + "0" * 400, "-1" + "0" * 400, "1e400", "-1e400", "NaN", "-0.0", "true", '"1"', "null")


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_integer_past_the_double_range_reads_as_the_float_literal(capsys, tmp_path, field, sign):
    # JSON integers are unbounded; 1e400 already parses as infinity
    outputs = []
    for literal in (sign + "1" + "0" * 400, sign + "1e400"):
        if field == "payment":
            argv = ("simulate", PAPER, "--plan", write_with_number(tmp_path / "plan.json", {"payments": {"j": MARK}},
                                                                   literal))
        else:
            argv = ("validate", write_with_number(tmp_path / "bad.json", paper_with(field, MARK), literal))
        outputs.append(run(capsys, *argv))
    assert outputs[0] == outputs[1]
    code, out = outputs[0]
    assert code == 1
    assert json.loads(out)["error"] == ("parse_error" if field == "payment" else "invalid_instance")


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.sampled_from(NUMBER_FIELDS), st.integers(0, 11), st.sampled_from(NUMBER_TEXTS))
def test_no_number_in_an_input_file_crashes_the_cli(tmp_path_factory, field, index, literal):
    tmp = tmp_path_factory.mktemp("numbers")
    plan = {"payments": {"j": 100.0, "k": 50.0}}
    if field == "payment":
        plan["payments"][["j", "k"][index % 2]] = MARK
        instance = PAPER
    else:
        instance = write_with_number(tmp / "instance.json", paper_with(field, MARK, index), literal)
    plan_path = write_with_number(tmp / "plan.json", plan, literal)
    for argv in (("validate", instance), ("solve", instance), ("simulate", instance, "--plan", plan_path)):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(list(argv))
        assert code in (0, 1), argv
        if code:
            assert "error" in json.loads(out.getvalue()), argv


@pytest.mark.parametrize("value", ["-5", "nan", "inf"])
@pytest.mark.parametrize("command, flag, knapsack", [
    ("solve", "--budget", False), ("solve", "--budget", True),
    ("sweep", "--budgets", False), ("simulate", "--tol", False),
], ids=["solve", "knapsack-solve", "sweep", "simulate"])
def test_negative_or_nonfinite_number_option_exit_1(capsys, tmp_path, command, flag, knapsack, value):
    path = PAPER
    if knapsack:  # one agent, no transient states
        path = tmp_path / "closed.json"
        path.write_text(json.dumps({"agents": ["a"], "edges": [{"from": "a", "to": "a", "w": 1.0}],
                                    "opinions": [0.2], "costs": [1.0], "threshold": 0.5, "budget": 1.0}))
    code, out = run(capsys, command, str(path), f"{flag}={value}")
    assert code == 1
    assert json.loads(out)["error"] == "invalid_input"


def test_repeated_main_calls_reuse_one_parser(capsys):
    from opinionbudget import cli

    first = run(capsys, "analyze", PAPER)
    parser = cli._parser()
    assert run(capsys, "analyze", PAPER) == first
    assert cli._parser() is parser
    assert run(capsys, "min-class-budget", PAPER, "--class", "2")[0] == 0
    assert run(capsys, "analyze", PAPER) == first
