"""Layer spans recorded from outside the library.

While a traced pass runs, each public function below is replaced, at the
module attribute its caller looks it up through, by a wrapper that
records a span (name, start, end, parent, pass id).  Untraced passes run
the original functions untouched.  Spans stay in memory and are written
when the run ends.
"""

import contextlib
import importlib
import json
import statistics
import time
from collections import defaultdict

#: (module, attribute, span name).  Every caller's lookup path is listed:
#: ``cli`` calls ``model.load_instance`` and ``chain_analysis.analyze``
#: through their modules, while ``milp`` and ``knapsack`` bind names at
#: import time.  ``milp.budget_sweep`` is not wrapped: no workload runs
#: ``obo sweep``.
PATCHES = (
    ("opinionbudget.cli", "main", "cli"),
    ("opinionbudget.model", "load_instance", "model.load"),
    ("opinionbudget.cli", "confidence_matrix", "model.matrix"),
    ("opinionbudget.cli", "decompose", "decompose"),
    ("opinionbudget.chain_analysis", "analyze", "chain_analysis.analyze"),
    ("opinionbudget.milp", "evaluate_plan", "chain_analysis.evaluate"),
    ("opinionbudget.knapsack", "evaluate_plan", "chain_analysis.evaluate"),
    ("opinionbudget.knapsack", "min_budget_for_class", "class_budget.price"),
    ("opinionbudget.knapsack", "solve_by_classes", "knapsack.solve"),
    ("opinionbudget.knapsack", "knapsack_exact", "knapsack.dp"),
    ("opinionbudget.milp", "build_milp", "milp.build"),
    ("opinionbudget.milp", "solve_milp", "milp.bnb"),
    ("opinionbudget.milp", "solve_lp", "lp.solve"),
)

#: Span names whose self time makes up each layer's share of the pass.
LAYERS = {
    "cli": ("cli",),
    "model": ("model.load", "model.matrix"),
    "decompose": ("decompose",),
    "chain_analysis": ("chain_analysis.analyze", "chain_analysis.evaluate"),
    "class_budget": ("class_budget.price",),
    "knapsack": ("knapsack.solve", "knapsack.dp"),
    "milp": ("milp.build", "milp.bnb"),
    "lp": ("lp.solve",),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, pass id, attrs]
        self.pass_walls = {}
        self._stack = []
        self._pass = None

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self._pass, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if name == "lp.solve":
                span[5] = {"rows": int(args[0].rows.shape[0]), "status": out.status}
            elif name == "milp.bnb":
                span[5] = {"nodes": out.node_count}
            return out
        return wrapper

    @contextlib.contextmanager
    def recording(self, enabled: bool, pass_id: int):
        """Patch the layer functions for the duration of one traced pass."""
        if not enabled:
            yield
            return
        originals = []
        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        self._pass = pass_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.pass_walls[pass_id] = time.perf_counter() - start
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)
            self._pass = None

    def _pass_metrics(self, pass_id: int) -> dict:
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        covered = defaultdict(float)  # time of each span spent in its children
        for _, s in spans:
            if s[3] is not None:
                covered[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i, s in spans:
            total[s[0]] += s[2] - s[1]
            own[s[0]] += s[2] - s[1] - covered[i]
            calls[s[0]] += 1
        spans = [s for _, s in spans]
        lps = [s[5] for s in spans if s[0] == "lp.solve"]
        nodes = sum(s[5]["nodes"] for s in spans if s[0] == "milp.bnb")
        wall = self.pass_walls[pass_id]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "trace.wall_s": wall,
            "lp.solves": len(lps),
            "lp.s": total["lp.solve"],
            "lp.s_per_solve": ratio(total["lp.solve"], len(lps)),
            "lp.rows_mean": ratio(sum(lp["rows"] for lp in lps), len(lps)),
            "lp.nonoptimal_frac": ratio(sum(lp["status"] != "optimal" for lp in lps), len(lps)),
            "milp.nodes": nodes,
            "milp.nodes_per_solve": ratio(nodes, calls["milp.bnb"]),
            "milp.bnb_self_s": own["milp.bnb"],
            "milp.build_s": total["milp.build"],
            "chain_analysis.analyze_s": total["chain_analysis.analyze"],
            "chain_analysis.evaluate_s": total["chain_analysis.evaluate"],
            "chain_analysis.evaluate_calls": calls["chain_analysis.evaluate"],
            "knapsack.dp_s": total["knapsack.dp"],
            "knapsack.self_s": own["knapsack.solve"],
            "class_budget.price_s": total["class_budget.price"],
            "class_budget.calls": calls["class_budget.price"],
            "model.load_s": total["model.load"],
            "model.matrix_s": total["model.matrix"],
            "decompose.s": total["decompose"],
            "cli.self_s": own["cli"],
        }
        for layer, names in LAYERS.items():
            out[f"{layer}.share"] = sum(own[n] for n in names) / wall
        return out

    def metrics(self) -> dict:
        """Per-layer metrics: the median over traced passes of each figure."""
        per_pass = [self._pass_metrics(p) for p in sorted(self.pass_walls)]
        return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}

    def dump(self, path) -> None:
        fields = ("name", "start", "end", "parent", "pass", "attrs")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]), encoding="utf-8")
