"""Dense bounded-variable simplex: cold primal solves, dual warm starts.

Maximizes ``c . x`` subject to general-sense rows and per-variable bounds
(infinities allowed).  A cold solve runs two primal phases, with
artificials only where the slack cannot absorb the initial residual;
Dantzig pricing switches to Bland's rule after a fixed pivot count so
degenerate problems cannot cycle.

An optimal result carries its :class:`Basis`; a program that differs
only in its bounds can start from it.  Nonbasics go onto their new
bounds, one solve recomputes the basics, and a bounded dual simplex
drops the basic with the largest bound violation (ties to the smallest
variable index) for the column of smallest ``|d_j / alpha_j|`` that moves
it toward its bound.  Ties go to the largest index, so a slack enters
before a structural column and more variables stay on their bounds
(smallest-index ties tripled the branch-and-bound nodes on random
16-40-agent instances).  The primal iteration then cleans up.  A row
with no entering column means "infeasible" only if ``rho . A x`` over
the variable box misses ``rho . b`` by more than ``FEAS_TOL`` (a Farkas
check); a failed check, the pivot limit or a numerical failure sends the
program to a cold solve.  The same program and start always give the
same pivots and the same result.
"""

from dataclasses import dataclass

import numpy as np

#: Constraint satisfaction required of reported optima.
FEAS_TOL = 1e-7
#: Bound satisfaction required of reported optima.
BOUND_TOL = 1e-9
#: Reduced-cost optimality threshold.
COST_TOL = 1e-9
#: Smallest |alpha_j| the dual ratio test pivots on.
PIVOT_TOL = 1e-9
#: Smallest |w_r| that blocks a primal step; smaller entries are rounding noise.
PRIMAL_PIVOT_TOL = 1e-11
#: Step lengths or dual ratios this close count as tied, so the index tie-break decides.
TIE_TOL = 1e-12
#: Pivots before switching from Dantzig to Bland pricing.
BLAND_AFTER = 500
#: Hard pivot limit; beyond it the solve is abandoned.
PIVOT_LIMIT = 20_000

_SENSES = ("<=", "=", ">=")
_SLACK_BOUNDS = {"<=": (0.0, np.inf), "=": (0.0, 0.0), ">=": (-np.inf, 0.0)}


class NumericalFailure(RuntimeError):
    """The solve could not be completed reliably (cycling or singular basis).

    Distinct from infeasibility, which is an ordinary result status.
    """


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  s.t.  rows x (sense) rhs,  lower <= x <= upper."""

    objective: np.ndarray
    rows: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        n = len(self.objective)
        m = len(self.senses)
        if self.rows.shape != (m, n):
            raise ValueError(f"rows must be {m}x{n}, got {self.rows.shape}")
        if len(self.rhs) != m:
            raise ValueError("rhs length must match row count")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bounds must give one pair per variable")
        if any(s not in _SENSES for s in self.senses):
            raise ValueError(f"senses must be one of {_SENSES}")
        if (np.asarray(self.lower) > np.asarray(self.upper)).any():
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class Basis:
    """Column basic in each row, and the nonbasics at their upper bound."""

    basic: np.ndarray  # [structural | slack] column index per row
    at_upper: np.ndarray


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    basis: Basis | None = None  # set on optimal results without basic artificials


class _Simplex:
    """Working state: extended columns are [structural | slack | artificial]."""

    def __init__(self, lp: LinearProgram):
        self.n = len(lp.objective)
        self.m = len(lp.senses)

        self.b = np.asarray(lp.rhs, dtype=float).copy()
        # slack bounds encode the row sense: row . x + s = b
        slack = np.array([_SLACK_BOUNDS[s] for s in lp.senses]).reshape(self.m, 2)
        self.A = np.hstack([np.asarray(lp.rows, dtype=float), np.eye(self.m)])
        self.lower = np.concatenate([np.asarray(lp.lower, dtype=float), slack[:, 0]])
        self.upper = np.concatenate([np.asarray(lp.upper, dtype=float), slack[:, 1]])
        self.n_real = self.n + self.m  # columns that are not artificial

        # start every variable at its nearest finite bound (free vars at 0)
        self.x = np.where(np.isfinite(self.lower), self.lower,
                          np.where(np.isfinite(self.upper), self.upper, 0.0))
        self.pivots = 0

    def _install_start_basis(self) -> np.ndarray:
        """Basic slack where it can absorb the residual, artificial otherwise.
        Returns the phase-1 objective, all-zero without artificials."""
        residual = self.b - self.A @ self.x
        slack = np.arange(self.n, self.n_real)
        fits = (self.lower[slack] <= residual) & (residual <= self.upper[slack])
        self.x[slack[fits]] = residual[fits]
        art = np.flatnonzero(~fits)  # rows that need an artificial
        up = residual[art] >= 0
        self.basis = slack
        self.basis[art] = self.n_real + np.arange(len(art))
        self.A = np.hstack([self.A, np.eye(self.m)[:, art]])
        self.lower = np.concatenate([self.lower, np.where(up, 0.0, -np.inf)])
        self.upper = np.concatenate([self.upper, np.where(up, np.inf, 0.0)])
        self.x = np.concatenate([self.x, residual[art]])
        return np.concatenate([np.zeros(self.n_real), np.where(up, -1.0, 1.0)])

    def _solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``B^-1 rhs`` (or ``B^-T rhs``) for the current basis matrix ``B``."""
        basis_matrix = self.A[:, self.basis]
        try:
            return np.linalg.solve(basis_matrix.T if transpose else basis_matrix, rhs)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"singular basis: {e}") from e

    def _exchange(self, enter: int, step: float, w: np.ndarray, row: int, value: float) -> None:
        """Move ``enter`` by ``step``; it takes row ``row``, whose basic leaves at ``value``."""
        self.x[self.basis] = self.x[self.basis] - step * w
        self.x[enter] += step
        self.x[self.basis[row]] = value
        self.basis[row] = enter
        self.pivots += 1

    def _check_pivot_limit(self) -> None:
        if self.pivots >= PIVOT_LIMIT:
            raise NumericalFailure(f"pivot limit {PIVOT_LIMIT} exceeded")

    def run(self, c: np.ndarray) -> str:
        """Iterate to optimality for objective ``c`` (maximize)."""
        A, lower, upper = self.A, self.lower, self.upper
        total_cols = A.shape[1]
        while True:
            self._check_pivot_limit()
            in_basis = np.zeros(total_cols, dtype=bool)
            in_basis[self.basis] = True
            reduced = c - self._solve(c[self.basis], transpose=True) @ A

            bland = self.pivots >= BLAND_AFTER
            enter = -1
            sigma = 0
            best = COST_TOL
            for j in range(total_cols):
                if in_basis[j] or lower[j] == upper[j]:
                    continue
                d = reduced[j]
                can_up = self.x[j] < upper[j]
                can_down = self.x[j] > lower[j]
                if can_up and d > COST_TOL:
                    score, direction = d, 1
                elif can_down and d < -COST_TOL:
                    score, direction = -d, -1
                else:
                    continue
                if bland:
                    enter, sigma = j, direction
                    break
                if score > best:
                    best, enter, sigma = score, j, direction
            if enter < 0:
                return "optimal"

            w = self._solve(A[:, enter])

            # largest step t >= 0 keeping basics and the entering variable in box
            span = upper[enter] - lower[enter]
            t_limit = span if np.isfinite(span) else np.inf
            candidates = []  # (limit, variable index, row)
            for r in range(self.m):
                coef = sigma * w[r]
                i = self.basis[r]
                if coef > PRIMAL_PIVOT_TOL:
                    if np.isfinite(lower[i]):
                        candidates.append(((self.x[i] - lower[i]) / coef, i, r))
                elif coef < -PRIMAL_PIVOT_TOL:
                    if np.isfinite(upper[i]):
                        candidates.append(((upper[i] - self.x[i]) / (-coef), i, r))
            t_basic = min((c0 for c0, _, _ in candidates), default=np.inf)
            t = min(t_limit, t_basic)
            if not np.isfinite(t):
                return "unbounded"
            t = max(t, 0.0)

            if t_basic < t_limit - TIE_TOL:
                # basis change; ties resolved toward the smallest variable index
                hits = [(i, r) for c0, i, r in candidates if c0 <= t_basic + TIE_TOL]
                leave_var, leave_row = min(hits)
                coef = sigma * w[leave_row]
                self._exchange(enter, sigma * t, w, leave_row,
                               lower[leave_var] if coef > 0 else upper[leave_var])
            else:
                # bound flip: snap exactly onto the opposite bound
                self.x[self.basis] = self.x[self.basis] - sigma * t * w
                self.x[enter] = upper[enter] if sigma > 0 else lower[enter]
                self.pivots += 1

    def dual(self, c: np.ndarray, start: Basis) -> str:
        """Bounded dual simplex from ``start``: "feasible", "infeasible" or "unproven"."""
        A, lower, upper = self.A, self.lower, self.upper
        self.basis = start.basic.copy()
        self.x = np.where(start.at_upper & np.isfinite(upper), upper, self.x)
        self.x[self.basis] = 0.0
        self.x[self.basis] = self._solve(self.b - A @ self.x)
        reduced = c - self._solve(c[self.basis], transpose=True) @ A
        while True:
            self._check_pivot_limit()
            xb = self.x[self.basis]
            viol = np.maximum(lower[self.basis] - xb, xb - upper[self.basis])
            worst = viol.max(initial=0.0)
            if worst <= BOUND_TOL:
                return "feasible"
            row = min(np.flatnonzero(viol == worst), key=lambda r: self.basis[r])
            leave = self.basis[row]
            toward = 1.0 if xb[row] < lower[leave] else -1.0  # direction x_leave must move
            rho = self._solve(np.eye(self.m)[row], transpose=True)
            alpha = rho @ A
            movable = lower < upper
            movable[self.basis] = False
            eligible = movable & (((self.x < upper) & (toward * alpha < -PIVOT_TOL))
                                  | ((self.x > lower) & (toward * alpha > PIVOT_TOL)))
            if not eligible.any():
                return "infeasible" if self.farkas(rho, row) else "unproven"
            ratio = np.full(len(alpha), np.inf)
            ratio[eligible] = np.abs(reduced[eligible] / alpha[eligible])
            enter = int(np.flatnonzero(ratio <= ratio.min() + TIE_TOL)[-1])
            target = lower[leave] if toward > 0 else upper[leave]
            reduced = reduced - reduced[enter] / alpha[enter] * alpha
            self._exchange(enter, (xb[row] - target) / alpha[enter],
                           self._solve(A[:, enter]), row, target)

    def farkas(self, rho: np.ndarray, row: int) -> bool:
        """Whether row ``rho . A x = rho . b`` proves the box infeasible."""
        g = rho @ self.A
        g[self.basis] = 0.0
        g[self.basis[row]] = 1.0
        nz = np.flatnonzero(g)
        ends = (g[nz] * self.lower[nz], g[nz] * self.upper[nz])
        lo, hi = np.minimum(*ends).sum(), np.maximum(*ends).sum()
        target = rho @ self.b
        return bool(hi < target - FEAS_TOL or lo > target + FEAS_TOL)

    def seal_artificials(self) -> float:
        """Pin artificials to zero after phase 1; returns their residual mass."""
        mass = float(np.sum(np.abs(self.x[self.n_real:])))
        self.lower[self.n_real:] = 0.0
        self.upper[self.n_real:] = 0.0
        return mass

    def result(self, lp: LinearProgram, status: str, spent: int) -> LpResult:
        """The result for ``status``; an optimum is verified and carries its
        basis unless an artificial is basic."""
        if status != "optimal":
            return LpResult(status, None, None, spent + self.pivots)
        x = self.x[: self.n].copy()
        _verify(lp, x)
        basis = None
        if (self.basis < self.n_real).all():
            basis = Basis(self.basis.copy(), self.x[: self.n_real] == self.upper[: self.n_real])
        return LpResult("optimal", x, float(np.dot(lp.objective, x)), spent + self.pivots, basis)


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpResult:
    """Solve the program; statuses are "optimal", "infeasible", "unbounded".

    ``start`` is the basis of an optimal result for a program with the same
    rows, senses, rhs and objective; only the bounds may differ.  Optimal
    solutions satisfy rows within 1e-7 and bounds within 1e-9; anything
    the solver cannot certify raises :class:`NumericalFailure`.
    """
    c = np.concatenate([np.asarray(lp.objective, dtype=float), np.zeros(len(lp.senses))])
    spent = 0  # pivots of an abandoned warm start
    if start is not None:
        state = _Simplex(lp)
        try:
            status = state.dual(c, start)
            if status == "feasible":
                status = state.run(c)
            if status != "unproven":
                return state.result(lp, status, 0)
        except NumericalFailure:
            pass
        spent = state.pivots

    state = _Simplex(lp)
    phase1 = state._install_start_basis()
    if phase1.any():
        status = state.run(phase1)
        if status != "optimal":
            raise NumericalFailure(f"phase 1 ended with status {status!r}")
        if state.seal_artificials() > FEAS_TOL:
            return state.result(lp, "infeasible", spent)
    else:
        state.seal_artificials()

    c = np.concatenate([c, np.zeros(state.A.shape[1] - state.n_real)])
    return state.result(lp, state.run(c), spent)


def _verify(lp: LinearProgram, x: np.ndarray) -> None:
    if ((x < np.asarray(lp.lower) - BOUND_TOL) | (x > np.asarray(lp.upper) + BOUND_TOL)).any():
        raise NumericalFailure("solution violates variable bounds")
    if len(lp.senses):
        lhs = lp.rows @ x
        for r, sense in enumerate(lp.senses):
            err = lhs[r] - lp.rhs[r]
            bad = (sense == "<=" and err > FEAS_TOL) or \
                  (sense == ">=" and err < -FEAS_TOL) or \
                  (sense == "=" and abs(err) > FEAS_TOL)
            if bad:
                raise NumericalFailure(f"row {r} violated by {err:.3e}")
