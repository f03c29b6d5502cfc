"""Budgeted opinion promotion on directed influence graphs.

Pipeline: validate the instance, decompose the equivalent Markov chain
into transient states and ergodic classes, compute stationary and hitting
vectors, price each class, then select payments by knapsack (no
transients) or branch and bound on the supporter indicators (general
case).
"""

from .chain_analysis import (
    ChainAnalysis,
    NonConvergence,
    SingularSystem,
    analyze,
    asymptotic_opinions,
    consensus_opinion,
    evaluate_plan,
    expressed_opinions,
    hitting_probabilities,
    is_supporter,
    iterate_dynamics,
    stationary_distribution,
)
from .class_budget import (
    ClassBudgetResult,
    InfeasibleThreshold,
    TargetOutOfRange,
    class_cost_curve,
    min_budget_for_class,
)
from .decompose import Decomposition, decompose, submatrix
from .knapsack import (
    KnapsackItem,
    KnapsackSolution,
    TransientsPresent,
    knapsack_exact,
    knapsack_fptas,
    solve_by_classes,
)
from .lp import LinearProgram, LpResult, NumericalFailure, solve_lp
from .milp import (
    MilpInstance,
    MilpSolution,
    SweepCurve,
    TooLarge,
    brute_force_oracle,
    budget_sweep,
    build_milp,
    solve_milp,
)
from .model import (
    ConfidenceMatrix,
    Instance,
    InvalidInstance,
    ParseError,
    PaymentPlan,
    Violation,
    confidence_matrix,
    load_instance,
    load_payments,
    save_instance,
    save_plan,
    validate,
)

__version__ = "0.1.0"
