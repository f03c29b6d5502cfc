"""The README's promises that code can check: its CLI examples and its tolerance ladder."""

import re
import shlex
from pathlib import Path

from opinionbudget import chain_analysis, cli, knapsack, lp, milp, model

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def assert_readme_example(command_pattern, capsys, monkeypatch):
    block = re.search(rf"```sh\n\$ ({command_pattern})\n(.*?)```", README, re.S)
    command, expected = block.group(1), block.group(2)
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def test_readme_sweep_example_is_what_obo_prints(capsys, monkeypatch):
    assert_readme_example(r"obo sweep .*? --format csv", capsys, monkeypatch)


def test_readme_min_class_budget_example_is_what_obo_prints(capsys, monkeypatch):
    # a nested list, a dict, floats and a boolean, as the JSON emitter writes them
    assert_readme_example(r"obo min-class-budget .*?", capsys, monkeypatch)


def test_tolerance_ladder():
    # evaluate_plan re-checks every returned plan against BUDGET_TOL, so each
    # budget slack a solver allows must fit inside it
    assert lp.FEAS_TOL <= model.BUDGET_TOL  # the LP's budget row
    assert milp.SPEND_TOL <= model.BUDGET_TOL  # rounding payments up to whole dollars
    assert knapsack.WEIGHT_TOL <= model.BUDGET_TOL  # a selection's fit
    # the hitting column sums are checked against OPINION_TOL after a solve held to SOLVE_TOL
    assert chain_analysis.SOLVE_TOL < model.OPINION_TOL


def test_readme_tolerance_table_lists_every_constant_at_its_value():
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (chain_analysis, knapsack, lp, milp, model)}
    rows = re.findall(r"^\| `(\w+_TOL)` \| `(\w+)` \| ([0-9e.-]+) \|", README, re.M)
    assert len(rows) == 14
    assert {name for name, _, _ in rows} == {name for m in modules.values() for name in vars(m)
                                             if name.endswith("_TOL")}
    for name, module, value in rows:
        source = Path(modules[module].__file__).read_text(encoding="utf-8")
        assert re.search(rf"^{name} = ", source, re.M), f"{name} is not defined in {module}"
        assert getattr(modules[module], name) == float(value), name
    values = [float(value) for _, _, value in rows]
    assert values == sorted(values)
