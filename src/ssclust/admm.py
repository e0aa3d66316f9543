"""ADMM solver for the l1 self-expressive program.

Solves

    min ||C||_1 + (mu/2) ||Y - Y A||_F^2
    s.t. A^T 1 = 1,  A = C - diag(C)

by alternating a linear-system update of A, a soft-threshold update of C,
and gradient-ascent updates of the Lagrange multipliers (delta, Delta).
The steps take and return plain arrays; `solve_ssc` keeps the iterates as
locals.  Every C handed to a step has an exactly zero diagonal, because
`update_c` zeroes it, so the A-update uses C as given.  The solver is
deterministic: identical inputs produce identical iterates.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DivergenceError, InputError

DEFAULT_MU_SCALE = 800.0


def check_data_matrix(Y):
    """Validate and return a D x N data matrix (columns are points)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise InputError(f"data matrix must be 2-d, got shape {Y.shape}")
    if Y.shape[0] < 1 or Y.shape[1] < 2:
        raise InputError(f"need D >= 1 and N >= 2, got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise InputError("data matrix contains non-finite entries")
    return Y


def soft_threshold(values, level):
    """Shrink toward zero: max(|v| - level, 0) * sgn(v), elementwise.

    A scalar input gives a numpy float64 scalar.
    """
    v = np.asarray(values, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - level, 0.0)


@dataclass
class SolverConfig:
    """Parameters of the self-expressive solve.

    mu is the data-fidelity weight, rho the penalty weight of the
    augmented terms.  Leave either at None to pick a data-dependent
    default: mu = 800 / max_{i != j} |y_i^T y_j|, rho = mu.
    """

    mu: float | None = None
    rho: float | None = None
    max_iter: int = 5000
    tol_primal: float = 1e-4
    tol_change: float = 1e-5

    def __post_init__(self):
        if self.mu is not None and not self.mu > 0:
            raise InputError(f"mu must be positive, got {self.mu}")
        if self.rho is not None and not self.rho > 0:
            raise InputError(f"rho must be positive, got {self.rho}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (self.tol_primal > 0 and self.tol_change > 0):
            raise InputError("tolerances must be positive")


@dataclass
class SolveReport:
    """Outcome of a solve: convergence flag, final residuals, history."""

    converged: bool
    iterations: int
    r_affine: float
    r_split: float
    r_change: float
    mu: float
    rho: float
    history: list = field(default_factory=list)


class FactorizationCache:
    """Cholesky factorization of M = mu Y^T Y + rho I + rho 1 1^T.

    M is constant across iterations, so it is factored once and reused;
    the cache also keeps the constant part of the A-update right-hand
    side, mu Y^T Y + rho 1 1^T.
    """

    def __init__(self, gram, mu, rho):
        n = gram.shape[0]
        self.rho = rho
        # overflow handled by the finiteness check below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            self.rhs_const = mu * gram + rho * np.ones((n, n))
            M = self.rhs_const + rho * np.eye(n)
        if not np.isfinite(M).all():
            raise DivergenceError(
                "non-finite normal matrix at iteration 0; "
                "mu, rho, or the data scale overflows"
            )
        try:
            self._factor = cho_factor(M)
        except np.linalg.LinAlgError as exc:
            raise InputError(
                f"normal matrix is not numerically positive definite ({exc}); "
                "rho is too small for this data scale"
            )

    def solve(self, rhs):
        # M was checked finite when factored; the loop checks every iterate
        return cho_solve(self._factor, rhs, check_finite=False)


def default_mu(Y, scale=DEFAULT_MU_SCALE):
    """Data-dependent fidelity weight: scale / max off-diagonal coherence."""
    Y = check_data_matrix(Y)
    return _mu_from_gram(Y.T @ Y, scale)


def _mu_from_gram(gram, scale):
    coh = np.abs(gram - np.diag(np.diag(gram))).max()
    if coh <= 0.0:
        return float(scale)  # mutually orthogonal columns; any positive weight works
    return float(scale / coh)


def update_a(C, delta, Delta, cache):
    """Minimize the augmented Lagrangian over A with C, delta, Delta fixed.

    Solves M A = mu Y^T Y + rho 1 1^T + rho C - 1 delta^T - Delta using the
    cached factorization of M.  C must have an exactly zero diagonal (every
    C from `update_c` has one); it stands in for C - diag(C) as it is.
    """
    rhs = cache.rhs_const + cache.rho * C - delta[None, :] - Delta
    return cache.solve(rhs)


def update_c(A_next, Delta, rho):
    """Soft-threshold A + Delta/rho at level 1/rho and zero the diagonal."""
    J = soft_threshold(A_next + Delta / rho, 1.0 / rho)
    np.fill_diagonal(J, 0.0)
    return J


def update_multipliers(delta, Delta, A_next, C_next, rho):
    """Ascent step on both multipliers from the current constraint residuals."""
    delta_next = delta + rho * (A_next.T @ np.ones(A_next.shape[0]) - 1.0)
    Delta_next = Delta + rho * (A_next - C_next)
    return delta_next, Delta_next


def residual_report(A, C, C_prev):
    """Return (||A^T 1 - 1||_inf, ||A - C||_inf, ||C - C_prev||_inf)."""
    r_affine = np.abs(A.sum(axis=0) - 1.0).max()
    r_split = np.abs(A - C).max()
    r_change = np.abs(C - C_prev).max()
    return float(r_affine), float(r_split), float(r_change)


def objective_value(Y, C, mu):
    """Evaluate ||C||_1 + (mu/2) ||Y - Y C||_F^2."""
    resid = Y - Y @ C
    return float(np.abs(C).sum() + 0.5 * mu * np.sum(resid * resid))


def solve_ssc(Y, cfg=None):
    """Compute the sparse self-representation of the columns of Y.

    Parameters
    ----------
    Y : array, shape (D, N)
        Data matrix, one point per column.
    cfg : SolverConfig, optional
        Solver parameters; defaults are data-dependent (see SolverConfig).

    Returns
    -------
    C : array, shape (N, N)
        Coefficient matrix with exactly zero diagonal; column i is the
        sparse representation of point i in terms of the other points.
    report : SolveReport
        Convergence flag, iteration count, final residuals, effective
        (mu, rho), and the full residual history.
    """

    Y = check_data_matrix(Y)
    if cfg is None:
        cfg = SolverConfig()
    n = Y.shape[1]

    # overflow here is detected by the finiteness checks and raised as
    # DivergenceError, so the numpy warnings are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        gram = Y.T @ Y
        mu = float(cfg.mu) if cfg.mu is not None else _mu_from_gram(gram, DEFAULT_MU_SCALE)
        rho = float(cfg.rho) if cfg.rho is not None else mu
        cache = FactorizationCache(gram, mu, rho)

    C = np.zeros((n, n))
    delta = np.zeros(n)
    Delta = np.zeros((n, n))
    history = []
    converged = False
    for iteration in range(1, cfg.max_iter + 1):
        C_prev = C
        with np.errstate(over="ignore", invalid="ignore"):
            A = update_a(C, delta, Delta, cache)
            C = update_c(A, Delta, rho)
            delta, Delta = update_multipliers(delta, Delta, A, C, rho)
        if not all(np.isfinite(x).all() for x in (A, C, delta, Delta)):
            raise DivergenceError(f"non-finite iterate at iteration {iteration}")
        r_affine, r_split, r_change = residual_report(A, C, C_prev)
        history.append((r_affine, r_split, r_change))
        if max(r_affine, r_split) <= cfg.tol_primal and r_change <= cfg.tol_change:
            converged = True
            break

    report = SolveReport(
        converged=converged,
        iterations=len(history),
        r_affine=r_affine,
        r_split=r_split,
        r_change=r_change,
        mu=mu,
        rho=rho,
        history=history,
    )
    return C, report
