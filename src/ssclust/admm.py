"""ADMM solver for the l1 self-expressive program.

Solves

    min ||C||_1 + (mu/2) ||Y - Y A||_F^2
    s.t. A^T 1 = 1,  A = C - diag(C)

by alternating a linear-system update of A, a soft-threshold update of C,
and ascent steps on the Lagrange multipliers (delta, Delta) of the two
constraints.  The multipliers are kept in scaled form, u = delta / rho and
U = Delta / rho (Boyd et al. 2011, section 3.1.1), so no step scales an
N x N array by rho: `update_c` reads rho only as its shrink level, and the
multiplier step adds the residuals as they are.  The A-update applies the
inverse of its normal matrix through a thin factor of Y of numerical rank
r <= min(D, N), the singular values above the `np.linalg.matrix_rank`
tolerance (see `FactorizationCache`), so an iteration costs O(N^2 r) for
two thin products plus O(N^2) elementwise passes.

Unless rho is given, it starts at mu and is balanced in a damped window
(Boyd et al. 2011, section 3.4.1): every BALANCE_EVERY iterations up to
iteration BALANCE_UNTIL, rho is multiplied by BALANCE_FACTOR when the
primal residual norm sqrt(||A^T 1 - 1||^2 + ||A - C||_F^2) exceeds
BALANCE_RATIO times the dual residual norm rho ||C - C_prev||_F, and
divided by it in the opposite case.  A change of rho by t divides u and U
by t and refactors only an N x r block (`FactorizationCache.set_rho`).
After the window rho stays fixed, so the usual fixed-rho convergence
argument holds for the rest of the run.

The steps take and return plain arrays, and write into the `out`/`work`
arrays they are given.  `solve_ssc` allocates its five N x N float arrays
(A, C, the previous C, U and one work array) once and runs every
iteration in them.  Every C handed to a step has an exactly zero
diagonal, because `update_c` zeroes it, so the A-update uses C as given.
The solver is deterministic: identical inputs produce identical iterates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InputError

DEFAULT_MU_SCALE = 800.0
BALANCE_EVERY = 10
BALANCE_UNTIL = 500
BALANCE_RATIO = 10.0
BALANCE_FACTOR = 2.0


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


def soft_threshold(values, level, out=None, work=None):
    """Shrink toward zero: max(|v| - level, 0) * sgn(v), elementwise.

    Computed as v - clip(v, -level, level), which differs only in the sign
    of exact zeros; the clipped part goes to `work`, the result to `out`
    (which may be `values` itself).  A scalar input gives a numpy float64
    scalar.
    """
    v = np.asarray(values, dtype=float)
    return np.subtract(v, v.clip(-level, level, out=work), out=out)


@dataclass
class SolverConfig:
    """Parameters of the self-expressive solve.

    mu is the data-fidelity weight, rho the penalty weight of the
    augmented terms.  Leave mu at None to pick the data-dependent default
    mu = 800 / max_{i != j} |y_i^T y_j|.  rho starts at mu and is balanced
    unless given (see the module docstring); a given rho stays fixed.
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
    """Outcome of a solve: convergence flag, final residuals, history.

    rho is the value at exit and rho_changes the number of times the
    balancing changed it (0 when rho was given).
    """

    converged: bool
    iterations: int
    r_affine: float
    r_split: float
    r_change: float
    mu: float
    rho: float
    rho_changes: int
    history: list = field(default_factory=list)


class FactorizationCache:
    """M^-1 for M = mu Y^T Y + rho I + rho 1 1^T, through a thin factor of Y.

    The thin SVD Y = W diag(s) V^T gives mu Y^T Y = F F^T with
    F = sqrt(mu) V_r diag(s_r), where r counts the singular values above
    s_0 max(D, N) eps, the tolerance of `np.linalg.matrix_rank`.  Around
    B = rho (I + 1 1^T), whose inverse is (I - 1 1^T / (N + 1)) / rho, the
    Woodbury identity gives

        M^-1 = B^-1 - G K^-1 G^T,   G = B^-1 F,   K = I + F^T G,

    where the r x r matrix K is SPD with eigenvalues >= 1.  The cache holds
    this as M^-1 = (I - L Q^T) / rho with the N x (r + 1) factors
    Q = [1, rho G], kept transposed as `Qt`, and L = [1 / (N + 1), G K^-1].
    Applying M^-1 thus costs two thin products, O(N^2 r); the cache holds
    no N x N matrix, and the loop in `solve_ssc` holds five.
    v = (N + 1) e_0 - Q^T 1 carries the multiplier u through the A-update.
    `bench/trace_child.py` times this class, by this name, as `admm.factor`.
    """

    def __init__(self, Y, mu, rho):
        n = Y.shape[1]
        # overflow is caught by the finiteness checks, not reported as a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # M's largest entry, since |y_i^T y_j| <= max_i ||y_i||^2
            if not np.isfinite(mu * np.einsum("ij,ij->j", Y, Y).max() + 2.0 * rho):
                raise DivergenceError(
                    "non-finite normal matrix at iteration 0; "
                    "mu, rho, or the data scale overflows"
                )
            _, s, Vt = np.linalg.svd(Y, full_matrices=False)
            r = int(np.count_nonzero(s > s[0] * max(Y.shape) * np.finfo(float).eps))
            F = np.sqrt(mu) * (Vt[:r].T * s[:r])
            rhoG = F - F.sum(axis=0) / (n + 1)
            self._Ft_rhoG = F.T @ rhoG
        self.Qt = np.vstack([np.ones((1, n)), rhoG.T])
        self.L = np.empty((n, r + 1))
        self.L[:, 0] = 1.0 / (n + 1)
        self.v = -self.Qt.sum(axis=1)
        self.v[0] += n + 1
        self.set_rho(rho)

    def set_rho(self, rho):
        """Refactor M^-1 for a new rho, in place.

        rho G = F - 1 1^T F / (N + 1) does not depend on rho, so Q, v and
        F^T (rho G) are kept, and only L's last r columns, G K^-1 with
        K = I + F^T (rho G) / rho, are solved again: O(N r^2).
        """
        r = self._Ft_rhoG.shape[0]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            K = np.eye(r) + self._Ft_rhoG / rho
            finite = np.isfinite(1.0 / rho) and np.isfinite(K).all()
            if finite:
                G_Kinv = np.linalg.solve(K, self.Qt[1:]).T / rho
                finite = np.isfinite(G_Kinv).all()
        if not finite:
            raise InputError(
                "the normal matrix cannot be inverted in floating point; "
                f"rho = {rho!r} is too small for this data scale"
            )
        self.L[:, 1:] = G_Kinv


def _mu_from_gram(gram):
    """DEFAULT_MU_SCALE / max off-diagonal coherence; zeroes gram's diagonal."""
    np.fill_diagonal(gram, 0.0)
    coh = _max_abs(gram)
    if coh <= 0.0:
        return DEFAULT_MU_SCALE  # mutually orthogonal columns; any weight works
    return float(DEFAULT_MU_SCALE / coh)


def _max_abs(x):
    """max |x| without an |x| temporary; NaN if x holds a NaN."""
    return float(max(x.max(), -x.min()))


def update_a(C, U, u, cache, out=None, work=None):
    """Minimize the augmented Lagrangian over A with C, u, U fixed.

    Solves M A = mu Y^T Y + rho (1 1^T + C - 1 u^T - U).  That right-hand
    side is M - rho I plus the rest, so A = I + rho M^-1 (C - I - 1 u^T - U);
    with M^-1 = (I - L Q^T) / rho the identity and rho cancel, and L's first
    column, 1 / (N + 1), absorbs 1 u^T:

        A = S - L (Q^T S - Q^T + v u^T),   S = C - U.

    C must have an exactly zero diagonal (every C from `update_c` has one);
    it stands in for C - diag(C) as it is.  A is written to `out` and S to
    `work`, two N x N arrays distinct from each other and from the inputs.
    """
    S = np.subtract(C, U, out=work)
    E = cache.Qt @ S
    E -= cache.Qt
    E += cache.v[:, None] * u
    A = np.matmul(cache.L, E, out=out)
    return np.subtract(S, A, out=A)


def update_c(A, U, rho, out=None, work=None):
    """Soft-threshold A + U at level 1/rho and zero the diagonal.

    The result is written to `out` and the shrink's clipped part to `work`,
    two N x N arrays distinct from each other and from the inputs.
    """
    J = np.add(A, U, out=out)
    J = soft_threshold(J, 1.0 / rho, out=J, work=work)
    np.fill_diagonal(J, 0.0)
    return J


def update_multipliers(u, U, residuals):
    """Ascent step on the scaled multipliers: u += A^T 1 - 1, U += A - C.

    `residuals` is that pair of residuals as `residual_report(..., out=...)`
    left it.  u and U are updated in place and returned.
    """
    affine, split = residuals
    u += affine
    U += split
    return u, U


def _balance_factor(affine, split, C, C_prev, rho):
    """The factor for rho from the primal and dual residual norms.

    `affine` and `split` hold A^T 1 - 1 and A - C as `residual_report`
    left them; `split` is overwritten with C - C_prev, so no N x N
    temporary is made.
    """
    primal = math.hypot(np.linalg.norm(affine), np.linalg.norm(split))
    dual = rho * np.linalg.norm(np.subtract(C, C_prev, out=split))
    if primal > BALANCE_RATIO * dual:
        return BALANCE_FACTOR
    if dual > BALANCE_RATIO * primal:
        return 1.0 / BALANCE_FACTOR
    return 1.0


def residual_report(A, C, C_prev, out=None):
    """Return (||A^T 1 - 1||_inf, ||A - C||_inf, ||C - C_prev||_inf).

    `out`, a length-N array and an N x N array, is left holding A^T 1 - 1
    and A - C for `update_multipliers`.
    """
    affine, split = out if out is not None else (None, None)
    split = np.subtract(C, C_prev, out=split)
    r_change = _max_abs(split)
    affine = A.sum(axis=0, out=affine)
    affine -= 1.0
    np.subtract(A, C, out=split)
    return float(np.abs(affine).max()), _max_abs(split), r_change


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
        Convergence flag, iteration count, final residuals, mu, the final
        rho and its number of changes, and the full residual history.
    """

    Y = check_data_matrix(Y)
    if cfg is None:
        cfg = SolverConfig()
    n = Y.shape[1]

    # the loop's N x N arrays, written in place; C and C_prev swap roles.
    # Allocated before the Gram matrix and the SVD: allocated after them,
    # they raised the peak RSS at N = 1000 by 2.4 MB (90.1 -> 92.5 MB).
    A, C, C_prev, U, work = (np.zeros((n, n)) for _ in range(5))
    u, affine = np.zeros(n), np.zeros(n)
    residuals = (affine, work)  # A^T 1 - 1 and A - C, for the multiplier step
    history = []
    converged = False
    rho_changes = 0
    # overflow here is detected by the finiteness checks and raised as
    # DivergenceError, so the numpy warnings are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(cfg.mu) if cfg.mu is not None else _mu_from_gram(Y.T @ Y)
        rho = float(cfg.rho) if cfg.rho is not None else mu
        cache = FactorizationCache(Y, mu, rho)
        for iteration in range(1, cfg.max_iter + 1):
            A = update_a(C, U, u, cache, out=A, work=work)
            C_prev, C = C, C_prev
            C = update_c(A, U, rho, out=C, work=work)
            r_affine, r_split, r_change = residual_report(A, C, C_prev, out=residuals)
            u, U = update_multipliers(u, U, residuals)
            # a non-finite A or C makes max |A - C| non-finite
            finite = np.isfinite(u).all() and np.isfinite(U).all()
            if not (math.isfinite(r_split) and finite):
                raise DivergenceError(f"non-finite iterate at iteration {iteration}")
            history.append((r_affine, r_split, r_change))
            if max(r_affine, r_split) <= cfg.tol_primal and r_change <= cfg.tol_change:
                converged = True
                break
            if (
                cfg.rho is None
                and iteration % BALANCE_EVERY == 0
                and iteration <= BALANCE_UNTIL
            ):
                t = _balance_factor(affine, work, C, C_prev, rho)
                if t != 1.0:
                    cache.set_rho(rho * t)
                    rho *= t
                    u /= t
                    U /= t
                    rho_changes += 1

    report = SolveReport(
        converged=converged,
        iterations=len(history),
        r_affine=r_affine,
        r_split=r_split,
        r_change=r_change,
        mu=mu,
        rho=rho,
        rho_changes=rho_changes,
        history=history,
    )
    return C, report
