"""Dense bounded-variable simplex on an explicit basis inverse: cold primal
solves, dual warm starts.

Maximizes ``c . x`` subject to general-sense rows and per-variable bounds
(infinities allowed).  A solve keeps the explicit inverse ``B^-1`` of its
basic columns, so prices, pivot columns and basic values are matrix-vector
products.  Each pivot applies one rank-one (eta) update to ``B^-1``; one
``np.linalg.inv`` refactorizes it at every cold start and after every
``REFACTOR_EVERY`` updates, which bounds the rounding that the updates
accumulate.  A cold solve runs two primal phases, with artificials only
where the slack cannot absorb the initial residual; Dantzig pricing
switches to Bland's rule after a fixed pivot count so degenerate problems
cannot cycle.

An optimal result carries its :class:`Basis`: the basic columns, the
nonbasics at their upper bound, ``B^-1`` with its update count, and the
program's bound-independent data (``[rows | I]``, ``b``, the costs and the
slack bounds), which the cold solve builds once and every warm start
shares.  A program that differs only in its bounds starts from it without
a rebuild or a factorization; :func:`crash_basis` builds such a start from
chosen basic columns.  Nonbasics go onto their new bounds, one product
``B^-1 (b - N x_N)`` recomputes the basics, and a bounded dual
simplex drops the basic with the largest bound violation (ties to the
smallest variable index) for the column of smallest ``|d_j / alpha_j|``
that moves it toward its bound.  Ties go to the largest index, so a slack
enters before a structural column and more variables stay on their bounds
(smallest-index ties tripled the branch-and-bound nodes on random
16-40-agent instances).  The primal iteration then cleans up.  A row with
no entering column means "infeasible" only if ``rho . A x`` over the
variable box misses ``rho . b`` by more than ``FEAS_TOL`` (a Farkas
check); a failed check, the pivot limit or a numerical failure sends the
program to a cold solve, and every optimum is verified against the
program's own rows and bounds.  The same program and start always give
the same pivots and the same result.
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
#: Smallest |w_r| that blocks a primal step, and the size, relative to the
#: largest, below which a Farkas multiplier entry is dropped: smaller entries
#: are rounding noise (the eta updates leave it where a factorization has zeros).
PRIMAL_PIVOT_TOL = 1e-11
#: Step lengths or dual ratios this close count as tied, so the index tie-break decides.
TIE_TOL = 1e-12
#: Pivots before switching from Dantzig to Bland pricing.
BLAND_AFTER = 500
#: Hard pivot limit; beyond it the solve is abandoned.
PIVOT_LIMIT = 20_000
#: Eta updates of the basis inverse between two factorizations.
REFACTOR_EVERY = 32

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


@dataclass(frozen=True, eq=False)
class Extended:
    """A program's bound-independent data over [structural | slack] columns:
    ``A = [rows | I]``, ``b``, the cost vector ``c`` (zero on slacks) and the
    slack bounds that encode the row senses.  All arrays are read-only."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    slack_lower: np.ndarray
    slack_upper: np.ndarray

    @classmethod
    def of(cls, lp: LinearProgram) -> "Extended":
        m = len(lp.senses)
        slack = np.array([_SLACK_BOUNDS[s] for s in lp.senses]).reshape(m, 2).T.copy()
        arrays = (np.hstack([np.asarray(lp.rows, dtype=float), np.eye(m)]),
                  np.array(lp.rhs, dtype=float),
                  np.concatenate([np.asarray(lp.objective, dtype=float), np.zeros(m)]),
                  *slack)
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays)


@dataclass(frozen=True, eq=False)
class Basis:
    """What a warm start needs from an optimum: the column basic in each
    row, the nonbasics at their upper bound, the read-only inverse of the
    basic columns with the eta updates it has taken since its last
    factorization, and the program's shared :class:`Extended` data."""

    basic: np.ndarray  # [structural | slack] column index per row
    at_upper: np.ndarray
    inverse: np.ndarray
    etas: int
    data: Extended


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    basis: Basis | None = None  # set on optimal results without basic artificials


class _Simplex:
    """Working state: extended columns are [structural | slack | artificial]."""

    def __init__(self, lp: LinearProgram, data: Extended):
        self.n = len(lp.objective)
        self.m = len(lp.senses)
        self.data = data
        self.A, self.b = data.A, data.b
        self.lower = np.concatenate([np.asarray(lp.lower, dtype=float), data.slack_lower])
        self.upper = np.concatenate([np.asarray(lp.upper, dtype=float), data.slack_upper])
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
        art = (~fits).nonzero()[0]  # rows that need an artificial
        up = residual[art] >= 0
        self.basis = slack
        self.basis[art] = self.n_real + np.arange(len(art))
        self.A = np.hstack([self.A, np.eye(self.m)[:, art]])
        self.lower = np.concatenate([self.lower, np.where(up, 0.0, -np.inf)])
        self.upper = np.concatenate([self.upper, np.where(up, np.inf, 0.0)])
        self.x = np.concatenate([self.x, residual[art]])
        self._factorize()
        return np.concatenate([np.zeros(self.n_real), np.where(up, -1.0, 1.0)])

    def _factorize(self) -> None:
        """Recompute ``B^-1`` from the basic columns."""
        try:
            self.binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"singular basis: {e}") from e
        self.etas = 0

    def _solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``B^-1 rhs`` (or ``B^-T rhs``) for the current basis matrix ``B``."""
        return rhs @ self.binv if transpose else self.binv @ rhs

    def _exchange(self, enter: int, step: float, w: np.ndarray, row: int, value: float) -> None:
        """Move ``enter`` by ``step``; it takes row ``row``, whose basic leaves at ``value``.
        ``w = B^-1 a_enter``; ``B^-1`` takes the matching eta update."""
        self.x[self.basis] = self.x[self.basis] - step * w
        self.x[enter] += step
        self.x[self.basis[row]] = value
        self.basis[row] = enter
        self.pivots += 1
        if self.etas + 1 >= REFACTOR_EVERY:
            self._factorize()
            return
        pivot_row = self.binv[row] / w[row]
        self.binv -= w[:, None] * pivot_row
        self.binv[row] = pivot_row
        self.etas += 1

    def _check_pivot_limit(self) -> None:
        if self.pivots >= PIVOT_LIMIT:
            raise NumericalFailure(f"pivot limit {PIVOT_LIMIT} exceeded")

    def run(self, c: np.ndarray) -> str:
        """Iterate to optimality for objective ``c`` (maximize)."""
        A, lower, upper = self.A, self.lower, self.upper
        fixed = lower == upper
        limit = np.empty(self.m)
        while True:
            self._check_pivot_limit()
            reduced = c - self._solve(c[self.basis], transpose=True) @ A

            # Dantzig: the first column of largest |d_j| that can move with
            # its sign; Bland after BLAND_AFTER pivots: the first such column
            up = (reduced > COST_TOL) & (self.x < upper)
            down = (reduced < -COST_TOL) & (self.x > lower)
            score = np.where(up | down, np.abs(reduced), 0.0)
            score[fixed] = 0.0
            score[self.basis] = 0.0
            enter = int((score > 0.0 if self.pivots >= BLAND_AFTER else score).argmax())
            if score[enter] == 0.0:
                return "optimal"
            sigma = 1 if reduced[enter] > 0 else -1

            w = self._solve(A[:, enter])

            # largest step t >= 0 keeping basics and the entering variable in box
            span = upper[enter] - lower[enter]
            t_limit = span if np.isfinite(span) else np.inf
            coef = sigma * w
            xb, lb, ub = self.x[self.basis], lower[self.basis], upper[self.basis]
            falls = (coef > PRIMAL_PIVOT_TOL) & np.isfinite(lb)
            rises = (coef < -PRIMAL_PIVOT_TOL) & np.isfinite(ub)
            limit.fill(np.inf)
            limit[falls] = (xb[falls] - lb[falls]) / coef[falls]
            limit[rises] = (ub[rises] - xb[rises]) / -coef[rises]
            t_basic = limit.min(initial=np.inf)
            t = min(t_limit, t_basic)
            if not np.isfinite(t):
                return "unbounded"
            t = max(t, 0.0)

            if t_basic < t_limit - TIE_TOL:
                # basis change; ties resolved toward the smallest variable index
                hits = (limit <= t_basic + TIE_TOL).nonzero()[0]
                leave_row = int(hits[self.basis[hits].argmin()])
                leave_var = self.basis[leave_row]
                self._exchange(enter, sigma * t, w, leave_row,
                               lower[leave_var] if coef[leave_row] > 0 else upper[leave_var])
            else:
                # bound flip: snap exactly onto the opposite bound
                self.x[self.basis] = self.x[self.basis] - sigma * t * w
                self.x[enter] = upper[enter] if sigma > 0 else lower[enter]
                self.pivots += 1

    def dual(self, c: np.ndarray, start: Basis) -> str:
        """Bounded dual simplex from ``start``: "feasible", "infeasible" or "unproven"."""
        A, lower, upper = self.A, self.lower, self.upper
        self.basis = start.basic.copy()
        self.binv, self.etas = start.inverse.copy(), start.etas
        self.x = np.where(start.at_upper & np.isfinite(upper), upper, self.x)
        self.x[self.basis] = 0.0
        self.x[self.basis] = self._solve(self.b - A @ self.x)
        reduced = c - self._solve(c[self.basis], transpose=True) @ A
        free = lower < upper
        ratio = np.empty(len(free))
        while True:
            self._check_pivot_limit()
            xb = self.x[self.basis]
            viol = np.maximum(lower[self.basis] - xb, xb - upper[self.basis])
            worst = viol.max(initial=0.0)
            if worst <= BOUND_TOL:
                return "feasible"
            worst_rows = (viol == worst).nonzero()[0]
            row = int(worst_rows[self.basis[worst_rows].argmin()])
            leave = self.basis[row]
            toward = 1.0 if xb[row] < lower[leave] else -1.0  # direction x_leave must move
            rho = self.binv[row]
            alpha = rho @ A
            slope = toward * alpha
            eligible = free & (((self.x < upper) & (slope < -PIVOT_TOL))
                               | ((self.x > lower) & (slope > PIVOT_TOL)))
            eligible[self.basis] = False
            if not eligible.any():
                return "infeasible" if self.farkas(rho, row) else "unproven"
            ratio.fill(np.inf)
            np.abs(np.divide(reduced, alpha, out=ratio, where=eligible), out=ratio)
            enter = int((ratio <= ratio.min() + TIE_TOL).nonzero()[0][-1])
            target = lower[leave] if toward > 0 else upper[leave]
            reduced = reduced - reduced[enter] / alpha[enter] * alpha
            self._exchange(enter, (xb[row] - target) / alpha[enter],
                           self._solve(A[:, enter]), row, target)

    def farkas(self, rho: np.ndarray, row: int) -> bool:
        """Whether row ``rho . A x = rho . b`` proves the box infeasible.

        Noise entries of ``rho`` are dropped first; the check is a proof for
        whichever multiplier it uses."""
        rho = np.where(np.abs(rho) > PRIMAL_PIVOT_TOL * np.abs(rho).max(), rho, 0.0)
        g = rho @ self.A
        g[self.basis] = 0.0
        g[self.basis[row]] = 1.0
        nz = g.nonzero()[0]
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
        _verify(lp, self.data, x)
        basis = None
        if (self.basis < self.n_real).all():
            self.binv.flags.writeable = False
            basis = Basis(self.basis.copy(), self.x[: self.n_real] == self.upper[: self.n_real],
                          self.binv, self.etas, self.data)
        return LpResult("optimal", x, float(np.dot(lp.objective, x)), spent + self.pivots, basis)


def crash_basis(lp: LinearProgram, basic) -> Basis:
    """A start for :func:`solve_lp` with the [structural | slack] columns
    ``basic`` basic, one per row, and every nonbasic at its lower bound."""
    data = Extended.of(lp)
    basic = np.asarray(basic, dtype=np.intp)
    inverse = np.linalg.inv(data.A[:, basic])
    inverse.flags.writeable = False
    return Basis(basic, np.zeros(len(data.c), dtype=bool), inverse, 0, data)


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpResult:
    """Solve the program; statuses are "optimal", "infeasible", "unbounded".

    ``start`` is the basis of an optimal result for a program with the same
    rows, senses, rhs and objective; only the bounds may differ, and the
    solve reuses the start's extended data and basis inverse.  Optimal
    solutions satisfy rows within 1e-7 and bounds within 1e-9; anything
    the solver cannot certify raises :class:`NumericalFailure`.
    """
    spent = 0  # pivots of an abandoned warm start
    if start is not None:
        data = start.data
        state = _Simplex(lp, data)
        try:
            status = state.dual(data.c, start)
            if status == "feasible":
                status = state.run(data.c)
            if status != "unproven":
                return state.result(lp, status, 0)
        except NumericalFailure:
            pass
        spent = state.pivots
    else:
        data = Extended.of(lp)

    state = _Simplex(lp, data)
    phase1 = state._install_start_basis()
    if phase1.any():
        status = state.run(phase1)
        if status != "optimal":
            raise NumericalFailure(f"phase 1 ended with status {status!r}")
        if state.seal_artificials() > FEAS_TOL:
            return state.result(lp, "infeasible", spent)
    else:
        state.seal_artificials()

    c = np.concatenate([data.c, np.zeros(state.A.shape[1] - state.n_real)])
    return state.result(lp, state.run(c), spent)


def _verify(lp: LinearProgram, data: Extended, x: np.ndarray) -> None:
    """Check ``x`` against the bounds and against each row's slack ``-err``, which
    must lie within the row's slack bounds up to ``FEAS_TOL``."""
    if ((x < np.asarray(lp.lower) - BOUND_TOL) | (x > np.asarray(lp.upper) + BOUND_TOL)).any():
        raise NumericalFailure("solution violates variable bounds")
    err = lp.rows @ x - lp.rhs
    bad = (-err < data.slack_lower - FEAS_TOL) | (-err > data.slack_upper + FEAS_TOL)
    if bad.any():
        r = int(bad.argmax())  # the first violated row
        raise NumericalFailure(f"row {r} violated by {err[r]:.3e}")
