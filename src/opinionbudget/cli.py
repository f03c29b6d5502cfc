"""Command-line front end: validate, decompose, analyze, price, solve, sweep.

All reals in JSON/CSV output are serialized with 12 significant digits, so
repeated runs on the same input are byte-identical.  Exit codes: 0 on
success, 1 on validation or usage errors (with machine-readable
diagnostics on stdout), 2 on solver failures.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import chain_analysis, class_budget, knapsack, milp, model
from .decompose import decompose
from .model import confidence_matrix


def _fmt(value):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _json(doc) -> str:
    return json.dumps(_fmt(doc), indent=2) + "\n"


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.12g}" if isinstance(v, float) else str(v) for v in row
        ))
    return "\n".join(lines) + "\n"


def _emit(text: str, args) -> None:
    """Write finished output to ``--out`` when given, else to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    instance = model.load_instance(args.instance)
    cm = confidence_matrix(instance)
    return instance, cm


def _analysis(instance, cm):
    return chain_analysis.analyze(cm, decompose(cm), instance.true_opinions)


def _plan_doc(instance, solution, mode):
    doc = solution.plan.to_dict()
    doc["supporter_count"] = solution.supporter_count
    doc["optimality"] = solution.optimality
    doc["node_count"] = solution.node_count
    doc["mode"] = mode
    return doc


def _cmd_validate(args) -> int:
    instance, _ = _load(args)
    _emit(_json({"valid": True, "agents": instance.n}), args)
    return 0


def _cmd_decompose(args) -> int:
    instance, cm = _load(args)
    d = decompose(cm)
    _emit(_json({
        "transient": [instance.agents[i] for i in d.transient],
        "classes": [[instance.agents[i] for i in members] for members in d.classes],
    }), args)
    return 0


def _cmd_analyze(args) -> int:
    instance, cm = _load(args)
    an = _analysis(instance, cm)
    _emit(_json({
        "agents": list(instance.agents),
        "transient": [instance.agents[i] for i in an.decomposition.transient],
        "classes": [[instance.agents[i] for i in members] for members in an.decomposition.classes],
        "pi": [[float(v) for v in vec] for vec in an.pi],
        "hitting": [[float(v) for v in vec] for vec in an.hitting],
        "consensus": [float(v) for v in an.consensus],
        "asymptotic": [float(v) for v in an.asymptotic],
    }), args)
    return 0


def _cmd_min_class_budget(args) -> int:
    instance, cm = _load(args)
    an = _analysis(instance, cm)
    k = args.klass - 1
    if not 0 <= k < len(an.decomposition.classes):
        raise model.ParseError(
            f"class {args.klass} out of range (instance has {len(an.decomposition.classes)} classes)"
        )
    members = np.asarray(an.decomposition.classes[k])
    result = class_budget.min_budget_for_class(
        an.pi[k], instance.true_opinions[members], instance.costs[members], instance.threshold
    )
    critical = None
    if result.critical_item is not None:
        critical = instance.agents[members[result.critical_item]]
    _emit(_json({
        "class": args.klass,
        "members": [instance.agents[i] for i in members],
        "payments": {
            instance.agents[i]: float(p) for i, p in zip(members, result.payments)
        },
        "critical_item": critical,
        "total": float(result.total),
        "feasible": result.feasible,
    }), args)
    return 0


def _cmd_solve(args) -> int:
    instance, cm = _load(args)
    an = _analysis(instance, cm)
    budget = instance.budget if args.budget is None else args.budget
    mode = args.mode
    if mode == "auto":
        mode = "milp" if an.decomposition.transient else "knapsack"
    if mode == "knapsack":
        plan, selection = knapsack.solve_by_classes(
            instance, an, budget=budget, epsilon=args.epsilon
        )
        doc = plan.to_dict()
        doc["supporter_count"] = len(plan.supporters)
        doc["selected_classes"] = list(selection.selected)
        doc["mode"] = "knapsack"
        _emit(_json(doc), args)
        return 0
    mi = milp.build_milp(instance, an, budget=budget)
    solution = milp.solve_milp(mi, round_dollars=not args.exact_payments)
    _emit(_json(_plan_doc(instance, solution, "milp")), args)
    return 0


def _cmd_sweep(args) -> int:
    instance = model.load_instance(args.instance)
    budgets = [float(tok) for tok in args.budgets.split(",") if tok.strip() != ""]
    curve = milp.budget_sweep(instance, budgets, round_dollars=not args.exact_payments)
    if args.format == "csv":
        _emit(_csv(curve.rows(), ("budget", "supporters", "total_spend")), args)
    else:
        _emit(_json({
            "rows": [
                {"budget": b, "supporters": c, "total_spend": s}
                for b, c, s in curve.rows()
            ],
            "plans": [sol.plan.to_dict() for sol in curve.solutions],
        }), args)
    return 0


def _cmd_simulate(args) -> int:
    instance, cm = _load(args)
    payments = model.load_payments(args.plan, instance) if args.plan else np.zeros(instance.n)
    expressed = chain_analysis.expressed_opinions(instance, payments)
    final, steps = chain_analysis.iterate_dynamics(cm, expressed, tol=args.tol)
    mask = chain_analysis.is_supporter(final, instance.threshold)
    _emit(_json({
        "supporters": [a for a, s in zip(instance.agents, mask) if s],
        "asymptotic": [float(v) for v in final],
        "steps": steps,
    }), args)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="obo",
        description="Budgeted opinion promotion on directed influence graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, help="check an instance file")
    add("decompose", _cmd_decompose, help="print transient states and ergodic classes")
    add("analyze", _cmd_analyze, help="stationary/hitting vectors, consensi, limits")

    p = add("min-class-budget", _cmd_min_class_budget,
            help="cheapest payments lifting one class to the threshold")
    p.add_argument("--class", dest="klass", type=int, required=True,
                   help="ergodic class number (1-based, ordered by smallest member)")

    p = add("solve", _cmd_solve, help="maximize supporters under the budget")
    p.add_argument("--budget", type=float, help="override the instance budget")
    p.add_argument("--mode", choices=("auto", "knapsack", "milp"), default="auto",
                   help="auto picks knapsack when there are no transient states")
    p.add_argument("--epsilon", type=float,
                   help="use the knapsack FPTAS with this epsilon instead of exact DP")
    p.add_argument("--exact-payments", action="store_true",
                   help="report the raw certificate instead of whole-dollar payments")

    p = add("sweep", _cmd_sweep, help="solve along an ascending budget grid")
    p.add_argument("--budgets", required=True, help="comma-separated ascending budgets")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--exact-payments", action="store_true")

    p = add("simulate", _cmd_simulate, help="power-iterate a plan's expressed opinions")
    p.add_argument("--plan", help="plan JSON with a 'payments' map (default: no payments)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="max-norm convergence tolerance")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except model.ParseError as e:
        doc, code = {"error": "parse_error", "message": str(e),
                     "field": e.field, "line": e.line}, 1
    except model.InvalidInstance as e:
        doc, code = {
            "error": "invalid_instance",
            "violations": [
                {"code": v.code, "agent": v.agent, "message": v.message}
                for v in e.violations
            ],
        }, 1
    except knapsack.TransientsPresent as e:
        doc, code = {"error": "mode_not_applicable", "message": str(e)}, 1
    except ValueError as e:
        doc, code = {"error": "invalid_input", "message": str(e)}, 1
    except OSError as e:
        doc, code = {"error": "io_error", "message": str(e), "path": e.filename}, 1
    except RuntimeError as e:
        # SingularSystem, NonConvergence, NumericalFailure, fewer supporters than certified
        doc, code = {"error": "solver_failure", "message": str(e)}, 2
    try:
        _emit(_json(doc), args)
    except OSError:  # --out itself cannot be written
        sys.stdout.write(_json(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
