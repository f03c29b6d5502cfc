"""The frozen benchmark's view of the library: what ``perfbench/`` patches and reads."""

import importlib
import sys
from pathlib import Path

import pytest

from opinionbudget import build_milp

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
