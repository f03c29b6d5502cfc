"""Instance validation, confidence matrix construction, and file round-trips."""

import json

import numpy as np
import pytest

from opinionbudget.model import (
    InvalidInstance,
    ParseError,
    confidence_matrix,
    load_instance,
    load_payments,
    save_instance,
    save_plan,
    validate,
)
from opinionbudget.chain_analysis import evaluate_plan, analyze
from opinionbudget.decompose import decompose

from conftest import PAPER_EXAMPLE, dense, random_instance, random_raw


def tiny_raw(**overrides):
    raw = {
        "agents": ["a", "b"],
        "edges": [
            {"from": "a", "to": "a", "w": 1.0},
            {"from": "a", "to": "b", "w": 1.0},
            {"from": "b", "to": "b", "w": 1.0},
        ],
        "opinions": [0.5, 0.5],
        "costs": [1.0, 1.0],
        "threshold": 0.5,
        "budget": 1.0,
    }
    raw.update(overrides)
    return raw


def codes(excinfo):
    return {v.code for v in excinfo.value.violations}


def test_paper_instance_is_valid(paper_instance):
    assert paper_instance.n == 12
    assert paper_instance.agents[0] == "a"
    assert paper_instance.threshold == 0.5
    # per-unit costs are 10x the per-0.1 dollar figures
    assert paper_instance.costs[0] == 1000
    assert paper_instance.costs[9] == 200


def test_no_self_confidence():
    raw = tiny_raw(edges=[
        {"from": "a", "to": "b", "w": 1.0},
        {"from": "b", "to": "b", "w": 1.0},
    ])
    with pytest.raises(InvalidInstance) as e:
        validate(raw)
    assert "NoSelfConfidence" in codes(e)


def test_zero_weight_self_loop_rejected():
    raw = tiny_raw(edges=[
        {"from": "a", "to": "a", "w": 0.0},
        {"from": "a", "to": "b", "w": 1.0},
        {"from": "b", "to": "b", "w": 1.0},
    ])
    with pytest.raises(InvalidInstance) as e:
        validate(raw)
    assert "NoSelfConfidence" in codes(e)


def test_opinion_out_of_range():
    with pytest.raises(InvalidInstance) as e:
        validate(tiny_raw(opinions=[1.2, 0.5]))
    assert "OpinionOutOfRange" in codes(e)


def test_nonpositive_cost_and_negative_budget_collected_together():
    with pytest.raises(InvalidInstance) as e:
        validate(tiny_raw(costs=[0.0, 1.0], budget=-5))
    assert {"NonpositiveCost", "NegativeBudget"} <= codes(e)


def test_threshold_out_of_range():
    with pytest.raises(InvalidInstance) as e:
        validate(tiny_raw(threshold=1.5))
    assert "ThresholdOutOfRange" in codes(e)


def test_negative_weight_rejected():
    raw = tiny_raw(edges=[
        {"from": "a", "to": "a", "w": 1.0},
        {"from": "a", "to": "b", "w": -0.5},
        {"from": "b", "to": "b", "w": 1.0},
    ])
    with pytest.raises(InvalidInstance) as e:
        validate(raw)
    assert "NegativeWeight" in codes(e)


def test_confidence_matrix_paper(paper_instance):
    a = dense(confidence_matrix(paper_instance))
    expected_first_rows = np.array([
        [0.7, 0.3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0.6, 0.4, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0.5, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0.1, 0.3, 0.4, 0, 0.2, 0, 0, 0, 0, 0, 0],
    ])
    assert np.allclose(a[:4], expected_first_rows, atol=1e-15)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_confidence_matrix_single_agent():
    raw = {
        "agents": ["a"], "edges": [{"from": "a", "to": "a", "w": 5.0}],
        "opinions": [0.3], "costs": [1.0], "threshold": 0.5, "budget": 0.0,
    }
    a = dense(confidence_matrix(validate(raw)))
    assert a.shape == (1, 1) and a[0, 0] == 1.0


def test_confidence_matrix_two_agents_halving():
    a = dense(confidence_matrix(validate(tiny_raw())))
    assert np.allclose(a, [[0.5, 0.5], [0.0, 1.0]])


def test_confidence_matrix_random_row_stochastic():
    rng = np.random.default_rng(7)
    for _ in range(25):
        inst = random_instance(rng)
        a = dense(confidence_matrix(inst))
        assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-12
        assert (np.diag(a) > 0).all()
        assert (a >= 0).all()


def test_instance_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    inst = random_instance(rng)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.agents == inst.agents
    order = np.lexsort((inst.targets, inst.sources))  # the file lists edges by (source, target)
    for column in ("sources", "targets", "weights"):
        assert np.array_equal(getattr(back, column), getattr(inst, column)[order])
    assert np.array_equal(back.true_opinions, inst.true_opinions)
    assert np.array_equal(back.costs, inst.costs)
    assert back.threshold == inst.threshold
    assert back.budget == inst.budget


def test_cost_unit_per_tenth():
    raw = tiny_raw(costs=[10, 20], cost_unit="per_0.1")
    inst = validate(raw)
    assert np.array_equal(inst.costs, [100.0, 200.0])


def test_paper_fixture_survives_per_tenth_convention():
    with open(PAPER_EXAMPLE, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["costs"] = [c / 10 for c in raw["costs"]]
    raw["cost_unit"] = "per_0.1"
    inst = validate(raw)
    assert np.array_equal(inst.costs, load_instance(PAPER_EXAMPLE).costs)


def test_parse_error_empty_agents():
    with pytest.raises(ParseError):
        validate(tiny_raw(agents=[]))


def test_parse_error_duplicate_agent():
    with pytest.raises(ParseError) as e:
        validate(tiny_raw(agents=["a", "a"]))
    assert "duplicate" in str(e.value)


def test_parse_error_duplicate_edge():
    raw = tiny_raw()
    raw["edges"].append({"from": "a", "to": "b", "w": 2.0})
    with pytest.raises(ParseError):
        validate(raw)


def test_parse_error_unknown_endpoint():
    raw = tiny_raw()
    raw["edges"].append({"from": "a", "to": "zz", "w": 1.0})
    with pytest.raises(ParseError):
        validate(raw)


def test_parse_error_missing_field():
    raw = tiny_raw()
    del raw["opinions"]
    with pytest.raises(ParseError) as e:
        validate(raw)
    assert e.value.field == "opinions"


def test_parse_error_length_mismatch():
    with pytest.raises(ParseError):
        validate(tiny_raw(costs=[1.0]))


def test_parse_error_bad_cost_unit():
    with pytest.raises(ParseError):
        validate(tiny_raw(cost_unit="per_cent"))


def test_parse_error_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"agents\": [,\n}")
    with pytest.raises(ParseError) as e:
        load_instance(path)
    assert e.value.line is not None


def test_plan_round_trip(tmp_path, paper_instance, paper_matrix):
    analysis = analyze(paper_matrix, decompose(paper_matrix), paper_instance.true_opinions)
    payments = np.zeros(12)
    payments[9] = 99.0
    plan = evaluate_plan(paper_instance, analysis, payments)
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = json.loads(path.read_text())
    assert loaded["total_spend"] == 99.0
    assert loaded["supporters"] == ["i", "j", "k", "l"]
    assert np.array_equal(load_payments(path, paper_instance), payments)


def test_load_payments_rejects_unknown_agent(tmp_path, paper_instance):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"payments": {"zz": 1.0}}))
    with pytest.raises(ParseError):
        load_payments(path, paper_instance)


def test_random_raw_instances_validate():
    rng = np.random.default_rng(23)
    for _ in range(50):
        validate(random_raw(rng))


def test_load_payments_maps_agents_by_name_not_order(tmp_path, paper_instance):
    # the plan lists agents in reverse file order; each amount must land at
    # its agent's own index
    amounts = {a: float(i + 1) for i, a in enumerate(paper_instance.agents)}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"payments": dict(reversed(list(amounts.items())))}))
    expected = np.arange(1.0, paper_instance.n + 1)
    assert np.array_equal(load_payments(path, paper_instance), expected)
    path.write_text(json.dumps({"payments": {"l": 5.0, "a": 2.0}}))
    loaded = load_payments(path, paper_instance)
    assert loaded[paper_instance.index("l")] == 5.0
    assert loaded[paper_instance.index("a")] == 2.0
    assert loaded.sum() == 7.0


def wide_raw():
    """Valid instance of 100 agents and 500 distinct edges (self-loops first)."""
    agents = [f"v{i}" for i in range(100)]
    pairs = [(i, i) for i in range(100)] + [(i, (i + s) % 100) for s in (1, 2, 3, 5) for i in range(100)]
    return {
        "agents": agents,
        "edges": [{"from": agents[i], "to": agents[j], "w": 1.0 + (i * 7 + j) % 5} for i, j in pairs],
        "opinions": [0.5] * 100,
        "costs": [1.0] * 100,
        "threshold": 0.5,
        "budget": 1.0,
    }


def _edge(key, value):
    def edit(raw, k):
        raw["edges"][k][key] = value
    return edit


def _field(key, pos, value):
    def edit(raw, k):
        raw[key][pos] = value
    return edit


def _top(key, value):
    def edit(raw, k):
        raw[key] = value
    return edit


def _non_dict(raw, k):
    raw["edges"][k] = [raw["edges"][k]["from"], raw["edges"][k]["to"], 1.0]


def _drop_weight(raw, k):
    del raw["edges"][k]["w"]


def _duplicate(raw, k):
    raw["edges"][k] = dict(raw["edges"][180])


#: fault -> (edit of edge k, message for k = 250, field)
SCHEMA_FAULTS = {
    "non-dict edge": (_non_dict, "each edge needs 'from', 'to' and 'w'", "edges"),
    "missing key": (_drop_weight, "each edge needs 'from', 'to' and 'w'", "edges"),
    "unknown endpoint": (_edge("to", "zz"), "edge endpoint not in agent list: 'v50' -> 'zz'", "edges"),
    "unhashable endpoint": (_edge("from", ["a"]), "edge endpoint not in agent list: ['a'] -> 'v52'", "edges"),
    "bool weight": (_edge("w", True), "edge weight must be a number", "edges"),
    "string weight": (_edge("w", "1.0"), "edge weight must be a number", "edges"),
    "duplicate edge": (_duplicate, "duplicate edge 'v80' -> 'v81'", "edges"),
    "bool opinion": (_field("opinions", 50, False), "entries must be numbers", "opinions"),
    "bool cost": (_field("costs", 50, True), "entries must be numbers", "costs"),
    "bool threshold": (_top("threshold", True), "must be a number", "threshold"),
    "non-string agent": (_field("agents", 50, 50), "agent identifiers must be strings", "agents"),
}


@pytest.mark.parametrize("fault", SCHEMA_FAULTS)
def test_schema_fault_in_a_long_list_names_it_exactly(fault):
    edit, message, field = SCHEMA_FAULTS[fault]
    raw = wide_raw()
    validate(raw)
    edit(raw, 250)
    with pytest.raises(ParseError) as e:
        validate(raw)
    assert str(e.value) == f"{message} (field: {field})"
    assert e.value.field == field


@pytest.mark.parametrize("first, second", [
    ("bool weight", "unknown endpoint"),
    ("unknown endpoint", "missing key"),
    ("duplicate edge", "non-dict edge"),
    ("non-dict edge", "string weight"),
])
def test_first_faulty_edge_wins(first, second):
    """With faults at edges 250 and 320, the one at edge 250 is reported."""
    for early, late in ((first, second), (second, first)):
        raw = wide_raw()
        SCHEMA_FAULTS[early][0](raw, 250)
        SCHEMA_FAULTS[late][0](raw, 320)
        with pytest.raises(ParseError) as e:
            validate(raw)
        assert str(e.value) == f"{SCHEMA_FAULTS[early][1]} (field: edges)"


NAN, INF = float("nan"), float("inf")
#: field -> (edit of tiny_raw putting ``value`` in it, violation code)
NONFINITE_FIELDS = {
    "opinion": (lambda raw, v: raw["opinions"].__setitem__(0, v), "OpinionOutOfRange"),
    "cost": (lambda raw, v: raw["costs"].__setitem__(0, v), "NonFiniteCost"),
    "weight": (lambda raw, v: raw["edges"][1].__setitem__("w", v), "NonFiniteWeight"),
    "threshold": (lambda raw, v: raw.__setitem__("threshold", v), "ThresholdOutOfRange"),
    "budget": (lambda raw, v: raw.__setitem__("budget", v), "NonFiniteBudget"),
}


@pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
@pytest.mark.parametrize("field", NONFINITE_FIELDS)
def test_nonfinite_number_is_a_violation(field, value):
    edit, code = NONFINITE_FIELDS[field]
    raw = tiny_raw()
    edit(raw, value)
    with pytest.raises(InvalidInstance) as e:
        validate(raw)
    assert codes(e) == {code}


def test_nonfinite_weights_keep_edge_order():
    raw = tiny_raw()
    raw["edges"][1]["w"] = NAN
    raw["edges"][0]["w"] = -INF
    raw["edges"][2]["w"] = INF
    with pytest.raises(InvalidInstance) as e:
        validate(raw)
    assert [v.code for v in e.value.violations] == [
        "NegativeWeight", "NonFiniteWeight", "NonFiniteWeight", "NoSelfConfidence", "NonStochasticRow",
    ]
    assert e.value.violations[1].message == "edge 'a' -> 'b' has non-finite weight nan"


@pytest.mark.parametrize("amount", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_load_payments_rejects_nonfinite_amount(tmp_path, paper_instance, amount):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"payments": {"a": amount}}))
    with pytest.raises(ParseError) as e:
        load_payments(path, paper_instance)
    assert e.value.field == "payments"
