"""The frozen benchmark's view of the library: what ``perfbench/`` patches and reads."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from opinionbudget import build_milp
from opinionbudget.cli import main

from conftest import PAPER_EXAMPLE, classes_raw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """``perfbench/`` on the import path, read and never written to (no bytecode either)."""
    sys.path.insert(0, str(PERFBENCH))
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield
    finally:
        sys.dont_write_bytecode = bytecode
        sys.path.remove(str(PERFBENCH))


def test_every_traced_span_has_its_attribute(perfbench):
    spans = importlib.import_module("spans")
    for module, attr, _ in spans.PATCHES:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_gate_reads_what_build_milp_exposes(perfbench, paper_instance, paper_analysis):
    importlib.import_module("gate")
    mi = build_milp(paper_instance, paper_analysis, budget=117.0)
    for name in ("degenerate", "lower_bound", "baseline", "rates", "caps", "pay_agents",
                 "threshold"):
        assert hasattr(mi, name), name


def test_gate_passes_real_solve_output(perfbench, capsys, tmp_path):
    gate = importlib.import_module("gate")
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(classes_raw(np.random.default_rng(3), 60, budget=40.0)))
    for argv in (["solve", str(PAPER_EXAMPLE)], ["solve", str(classes)]):
        assert main(argv) == 0
        assert gate.check(argv, argv[1], capsys.readouterr().out) == []
