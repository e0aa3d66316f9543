"""ADMM solver for the l1 self-expressive program.

Solves

    min ||C||_1 + (mu/2) ||Y - Y A||_F^2
    s.t. A^T 1 = 1,  A = C - diag(C)

by alternating a linear-system update of A, a soft-threshold update of C,
and ascent steps on the Lagrange multipliers (delta, Delta) of the two
constraints.  The multipliers are kept in scaled form, u = delta / rho and
U = Delta / rho (Boyd et al. 2011, section 3.1.1), so no step scales an
N x N array by rho.  The A-update applies the inverse of its normal matrix
through a thin factor of Y of numerical rank r <= min(D, N), taken from
the eigendecomposition of the smaller of Y^T Y and Y Y^T (see
`FactorizationCache`).  With S = C - U it reads

    A = S - L E,   E = Q^T S - Q^T + v u^T,

so an iteration costs one (r + 1) x N x N product for E, the same again
for L E, and O(N^2) elementwise work.  The affine residual A^T 1 - 1 and
the step on u, u += A^T 1 - 1 (`update_multipliers`), need no pass over
A: since Q's first column is 1, E's first row is S^T 1 - 1 + u, and
A^T 1 = S^T 1 - E^T (L^T 1) (`FactorizationCache.affine_residual`).

The solve holds three N x N arrays, C, U and S = C - U, and does the rest
of an iteration's work in one pass over tiles of consecutive rows,
max(1, TILE_ELEMENTS // N) rows each, so that every step of a tile finds
its rows still in cache.  For the rows b of a tile:

    A_b = S_b - L_b E                                   (update_a)
    J_b = A_b + U_b
    U_b <- clip(J_b, -1/rho, 1/rho), with U_ii = J_ii
    C+_b = J_b - U_b                                    (update_c)
    max |A_b - C+_b|, max |C+_b - C_b|, and on
    balancing iterations their squared norms           (residual_report)
    C_b <- C+_b,  S_b <- C_b - U_b

The multiplier step on U is taken by the shrink.  By the Moreau
decomposition of the l1 prox (Parikh & Boyd 2014, section 2.5), the
shrink of J at level 1/rho is J - clip(J, -1/rho, 1/rho), so the ascent
step U + A - C+ = J - C+ is clip(J) off the diagonal and J_ii on it, where
C+ is zero.  U is not scanned for non-finite entries: one can only come
from a non-finite J entry, which leaves a non-finite entry in C+
(inf - inf on the diagonal), so max |A - C+| and max |C+ - C| are
non-finite in the same iteration.

Unless rho is given, it starts at mu and is balanced in a damped window
(Boyd et al. 2011, section 3.4.1): every BALANCE_EVERY iterations up to
iteration BALANCE_UNTIL, rho is multiplied by BALANCE_FACTOR when the
primal residual norm sqrt(||A^T 1 - 1||^2 + ||A - C||_F^2) exceeds
BALANCE_RATIO times the dual residual norm rho ||C - C_prev||_F, and
divided by it in the opposite case.  A change of rho by t divides u and U
by t, forms S again, and refactors only an N x r block
(`FactorizationCache.set_rho`).  After the window rho stays fixed, so the
usual fixed-rho convergence argument holds for the rest of the run.

The steps take and return plain arrays, and write into the `out`/`work`
arrays they are given.  The solver is deterministic: identical inputs
produce identical iterates.  They agree with the textbook loop (U += A - C
and A^T 1 - 1 on whole arrays) up to rounding: U is rounded once, as
clip(J), instead of twice, and A^T 1 is formed from E.
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

# Elements of an N x N array in one tile of the solve's elementwise pass:
# three float64 tiles take 768 KB and stay in a core's L2 cache.  The size
# is set in bytes, not rows: fixed 32-row tiles made the N = 200 default
# run slower, as their extra numpy calls cost more than the cache saved.
TILE_ELEMENTS = 2**15


def tile_rows(n):
    """Rows per tile of the elementwise pass over an N x N array."""
    return max(1, TILE_ELEMENTS // n)


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


@dataclass
class SolverConfig:
    """Parameters of the self-expressive solve.

    mu is the data-fidelity weight, rho the penalty weight of the
    augmented terms; each must be positive and finite.  Leave mu at None
    to pick the data-dependent default mu = 800 / max_{i != j} |y_i^T y_j|.
    rho starts at mu and is balanced unless given (see the module
    docstring); a given rho stays fixed.
    """

    mu: float | None = None
    rho: float | None = None
    max_iter: int = 5000
    tol_primal: float = 1e-4
    tol_change: float = 1e-5

    def __post_init__(self):
        if self.mu is not None and not 0 < self.mu < math.inf:
            raise InputError(f"mu must be positive and finite, got {self.mu}")
        if self.rho is not None and not 0 < self.rho < math.inf:
            raise InputError(f"rho must be positive and finite, got {self.rho}")
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

    mu Y^T Y = F F^T is taken from the eigendecomposition of the smaller
    Gram matrix: for D >= N, Y^T Y = V diag(lam) V^T gives
    F = sqrt(mu) V_r diag(sqrt(lam_r)); for D < N, Y Y^T = W diag(lam) W^T
    gives F = sqrt(mu) Y^T W_r.  r counts the eigenvalues above
    lam_0 max(D, N) eps, the rounding floor of the Gram matrix itself, so
    the components dropped change M by no more than forming mu Y^T Y in
    floating point does.  Around B = rho (I + 1 1^T), whose inverse is
    (I - 1 1^T / (N + 1)) / rho, the Woodbury identity gives

        M^-1 = B^-1 - G K^-1 G^T,   G = B^-1 F,   K = I + F^T G,

    where the r x r matrix K is SPD with eigenvalues >= 1.  The cache holds
    this as M^-1 = (I - L Q^T) / rho with the N x (r + 1) factors
    Q = [1, rho G], kept transposed as `Qt`, and L = [1 / (N + 1), G K^-1].
    Applying M^-1 thus costs two thin products, O(N^2 r), and the cache
    holds no N x N matrix.  v = (N + 1) e_0 - Q^T 1 carries the multiplier
    u through the A-update.  `bench/trace_child.py` times this class, by
    this name, as `admm.factor`.
    """

    def __init__(self, Y, mu, rho):
        d, n = Y.shape
        # overflow is caught by the finiteness checks, not reported as a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # M's largest entry, since |y_i^T y_j| <= max_i ||y_i||^2
            if not np.isfinite(mu * np.einsum("ij,ij->j", Y, Y).max() + 2.0 * rho):
                raise DivergenceError(
                    "non-finite normal matrix at iteration 0; "
                    "mu, rho, or the data scale overflows"
                )
            # the smaller Gram: Y^T Y = V diag(lam) V^T, or Y Y^T = W diag(lam) W^T in V
            lam, V = np.linalg.eigh(Y.T @ Y if d >= n else Y @ Y.T)
            keep = lam > lam[-1] * max(d, n) * np.finfo(float).eps
            thin = V[:, keep] * np.sqrt(lam[keep]) if d >= n else Y.T @ V[:, keep]
            F = np.sqrt(mu) * thin
            rhoG = F - F.sum(axis=0) / (n + 1)
            self._Ft_rhoG = F.T @ rhoG
        r = rhoG.shape[1]
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
        self._Lt_1 = self.L.sum(axis=0)

    def thin_product(self, S, u):
        """E = Q^T S - Q^T + v u^T, the (r + 1) x N factor of the A-update.

        S is C - U for the whole N x N iterate; `update_a` reads E for
        every block of rows.
        """
        E = self.Qt @ S
        E -= self.Qt
        E += self.v[:, None] * u
        return E

    def affine_residual(self, E, u):
        """A^T 1 - 1 for A = S - L E, from E = thin_product(S, u) alone.

        Q's first column is 1 and v's first entry is 1, so E's first row is
        S^T 1 - 1 + u, and A^T 1 = S^T 1 - E^T (L^T 1): no pass over A.
        """
        return E[0] - u - self._Lt_1 @ E


def _default_mu(Y):
    """DEFAULT_MU_SCALE / max_{i != j} |y_i^T y_j|, the default data weight."""
    gram = Y.T @ Y
    np.fill_diagonal(gram, 0.0)
    coh = _max_abs(gram)
    if coh <= 0.0:
        return DEFAULT_MU_SCALE  # mutually orthogonal columns; any weight works
    return float(DEFAULT_MU_SCALE / coh)


def _max_abs(x):
    """max |x| without an |x| temporary; NaN if x holds a NaN."""
    return float(max(x.max(), -x.min()))


def update_a(S, E, L, out=None):
    """Minimize the augmented Lagrangian over A with C, u, U fixed.

    Solves M A = mu Y^T Y + rho (1 1^T + C - 1 u^T - U).  That right-hand
    side is M - rho I plus the rest, so A = I + rho M^-1 (C - I - 1 u^T - U);
    with M^-1 = (I - L Q^T) / rho the identity and rho cancel, and L's first
    column, 1 / (N + 1), absorbs 1 u^T:

        A = S - L E,   S = C - U,   E = Q^T S - Q^T + v u^T,

    where E is `FactorizationCache.thin_product(S, u)`.  S and L may be
    the same rows of the whole S and L, which gives those rows of A.  C
    must have an exactly zero diagonal (every C from `update_c` has one);
    it stands in for C - diag(C) as it is.  A is written to `out`, an
    array distinct from S.
    """
    A = np.matmul(L, E, out=out)
    return np.subtract(S, A, out=A)


def update_c(A, U, rho, out=None, work=None, lo=0):
    """Soft-threshold J = A + U at level 1/rho and zero the diagonal.

    A and U may hold rows lo, lo + 1, ... of N x N matrices; the diagonal
    is then the block's entries (i, lo + i).  The shrink,
    max(|J| - 1/rho, 0) sgn(J), is taken as J - clip(J, -1/rho, 1/rho),
    which differs only in the sign of exact zeros.  The clipped part goes
    to `work`, with J_ii itself on the diagonal, so the result J - work has
    an exactly zero diagonal, and work = U + A - C is the next scaled
    multiplier U; the solve passes U itself as `work`.  A non-finite J_ii
    gives a NaN C_ii.  The result is written to `out`; `out` and `work` are
    distinct from each other and from A, and `out` from U.
    """
    J = np.add(A, U, out=out)
    work = J.clip(-1.0 / rho, 1.0 / rho, out=work)
    work.flat[lo :: J.shape[1] + 1] = J.diagonal(lo)
    return np.subtract(J, work, out=J)


def update_multipliers(u, affine):
    """Ascent step on the scaled multiplier u: u += A^T 1 - 1, in place.

    `affine` is A^T 1 - 1.  The step on U, U += A - C, is taken by
    `update_c` (see the module docstring).
    """
    u += affine
    return u


def _balance_factor(affine, split_sq, change_sq, rho):
    """The factor for rho from the primal and dual residual norms.

    `affine` is A^T 1 - 1, and split_sq and change_sq are ||A - C||_F^2
    and ||C - C_prev||_F^2, as summed from `residual_report`.
    """
    primal = math.hypot(np.linalg.norm(affine), math.sqrt(split_sq))
    dual = rho * math.sqrt(change_sq)
    if primal > BALANCE_RATIO * dual:
        return BALANCE_FACTOR
    if dual > BALANCE_RATIO * primal:
        return 1.0 / BALANCE_FACTOR
    return 1.0


def residual_report(A, C, C_prev, work=None, norms=False):
    """The split and change residuals of a block of rows of A, C and C_prev.

    Returns the block's (||A - C||_inf, ||C - C_prev||_inf), followed,
    when `norms`, by ||A - C||_F^2 and ||C - C_prev||_F^2 for the
    balancing.  The differences are formed in `work`, an array of A's
    shape.  The affine residual comes from `FactorizationCache`.
    """
    peaks, squares = [], []
    for left, right in ((A, C), (C, C_prev)):
        diff = np.subtract(left, right, out=work)
        peaks.append(_max_abs(diff))
        if norms:
            squares.append(float(np.vdot(diff, diff)))
    return peaks + squares


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
    rows = tile_rows(n)

    # the loop's N x N arrays and tiles, written in place.  Allocated before
    # the Gram matrix: allocated after it, the N x N arrays raised the peak
    # RSS at N = 1000 by 2.4 MB (90.1 -> 92.5 MB).
    C, U, S = (np.zeros((n, n)) for _ in range(3))
    a_tile, c_tile, diff_tile = (np.empty((min(rows, n), n)) for _ in range(3))
    u = np.zeros(n)
    history = []
    converged = False
    rho_changes = 0
    # overflow here is detected by the finiteness checks and raised as
    # DivergenceError, so the numpy warnings are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(cfg.mu) if cfg.mu is not None else _default_mu(Y)
        rho = float(cfg.rho) if cfg.rho is not None else mu
        cache = FactorizationCache(Y, mu, rho)
        # per tile: max |A - C|, max |C - C_prev|, and their squared norms
        tile_residuals = np.empty((-(-n // rows), 4))
        for iteration in range(1, cfg.max_iter + 1):
            balance = (
                cfg.rho is None
                and iteration % BALANCE_EVERY == 0
                and iteration <= BALANCE_UNTIL
            )
            width = 4 if balance else 2
            E = cache.thin_product(S, u)
            affine = cache.affine_residual(E, u)
            for k, lo in enumerate(range(0, n, rows)):
                b, h = slice(lo, lo + rows), min(rows, n - lo)
                A_b = update_a(S[b], E, cache.L[b], out=a_tile[:h])
                C_next = update_c(A_b, U[b], rho, out=c_tile[:h], work=U[b], lo=lo)
                tile_residuals[k, :width] = residual_report(
                    A_b, C_next, C[b], work=diff_tile[:h], norms=balance
                )
                C[b] = C_next
                np.subtract(C_next, U[b], out=S[b])
            r_affine = _max_abs(affine)
            # the maximum over tiles keeps a NaN
            r_split, r_change = tile_residuals[:, :2].max(axis=0).tolist()
            u = update_multipliers(u, affine)
            # a non-finite A, C or U makes max |A - C| or max |C - C_prev|
            # non-finite, and a non-finite E a non-finite u
            finite = math.isfinite(r_split) and math.isfinite(r_change)
            if not (finite and np.isfinite(u).all()):
                raise DivergenceError(f"non-finite iterate at iteration {iteration}")
            history.append((r_affine, r_split, r_change))
            if max(r_affine, r_split) <= cfg.tol_primal and r_change <= cfg.tol_change:
                converged = True
                break
            if balance:
                split_sq, change_sq = tile_residuals[:, 2:].sum(axis=0)
                t = _balance_factor(affine, split_sq, change_sq, rho)
                if t != 1.0:
                    cache.set_rho(rho * t)
                    rho *= t
                    u /= t
                    U /= t
                    np.subtract(C, U, out=S)
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
