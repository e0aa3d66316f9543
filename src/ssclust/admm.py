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

    A = S - L E,   E = Q^T S - Q^T + v u^T.

The program splits by column: column j of C is its own lasso (Elhamifar
& Vidal 2013), and column j of A needs only column j of S and E.  So the
solve keeps its iterate point-major, one point per row, and takes the
transposed form one tile of points b at a time:

    E^T_b = S^T_b Q - Q_b + u_b v^T,   A^T_b = S^T_b - E^T_b L^T,

an (r + 1) x N x |b| product each, so an iteration costs two
(r + 1) x N x N products in all and O(N^2) elementwise work.  The affine
residual A^T 1 - 1 and the step on u, u += A^T 1 - 1
(`update_multipliers`), need no pass over A: since Q's first column is
1, E^T_b's first column is S^T_b 1 - 1 + u_b, and
A^T_b 1 = S^T_b 1 - E^T_b (L^T 1) (`FactorizationCache.affine_residual`).

The solve holds one N x N array, J^T with J = A + U, and the vector u.
J alone fixes C and U.  By the Moreau decomposition of the l1 prox
(Parikh & Boyd 2014, section 2.5), the shrink of J at level 1/rho is
J - clip(J, -1/rho, 1/rho), so the ascent step U + A - C+ = J - C+ is
clip(J) off the diagonal and J_ii on it, where C+ is zero.  `update_c`
takes this split of J into (U, C+).  And since A^T = S^T - E^T L^T with
S = C - U, the next J^T is A^T + U^T = C^T - E^T L^T: neither A nor S is
kept.
Each tile of consecutive rows of J^T, as `tiles(N, N)` cuts them, takes
every step while its rows are still in cache.  For the rows b of a tile:

    (U^T_b, C^T_b) = split of J^T_b                       (update_c)
    S^T_b = C^T_b - U^T_b
    E^T_b and the tile's A^T_b 1 - 1          (FactorizationCache)
    J^T_b <- C^T_b - E^T_b L^T                            (update_a)
    (U+_b, C+_b) = split of J^T_b                         (update_c)
    max |U+_b - U^T_b|, max |C+_b - C^T_b|, and on
    balancing iterations their squared norms           (residual_report)

U+ - U is A - C+ in exact arithmetic, the split residual, diagonal
included.  The split, the residuals and the multiplier step are
elementwise, so they read the transposed tiles as they are; a tile's
diagonal entries are the same in either orientation.  u is stepped once
every tile has read it.  At exit J^T is shrunk to C^T, a tile at a time,
and the solve returns C as its transposed view.

The iterate J^T, its tiles and the factors Q, L^T and v are held in the
solve's dtype, float64 unless float32 is asked for, as the command line
does: then each elementwise pass and each thin product moves half the
bytes.  Y, mu, the factorization itself, u, the affine residual and the
residual maxima stay float64.  The solve's one N x N buffer is float64,
and a float32 J^T is a view over its first half.  At exit each tile of
J^T is shrunk into a tile buffer and widened into the same rows of the
float64 C^T, last tile first: tile b's float64 rows overwrite the float32
entries from index 2 b.start N on, rows of b and of the tiles after it,
all read already.  So C is float64 in either dtype, in the same buffer.
float32 resolves about 6e-8 of an entry's size, so a tolerance below
about 1e-6 may never be met, and the solve then runs to max_iter.

Nothing is scanned for non-finite entries.  A non-finite J entry gives a
non-finite C+ entry in the same split: clip(NaN) is NaN, inf - clip(inf)
is inf, and on the diagonal inf - inf is NaN.  So max |C+ - C| is
non-finite in the iteration where J first is, and a non-finite E^T
leaves a non-finite u.

Unless rho is given, it starts at mu and is balanced in a damped window
(Boyd et al. 2011, section 3.4.1): every BALANCE_EVERY iterations up to
iteration BALANCE_UNTIL, rho is multiplied by BALANCE_FACTOR when the
primal residual norm sqrt(||A^T 1 - 1||^2 + ||A - C||_F^2) exceeds
BALANCE_RATIO times the dual residual norm rho ||C - C_prev||_F, and
divided by it in the opposite case.  A change of rho by t divides u and U
by t, rewriting each tile of J as C + U / t, and refactors only an r x N
block (`FactorizationCache.set_rho`).  With t a power of two the clip of
the new J at level 1 / (rho t) is exactly U / t, and C moves by at most
one ulp of the new J entry.  After the window rho stays fixed, so the
usual fixed-rho convergence argument holds for the rest of the run.

The steps take and return plain arrays, and write into the `out`/`work`
arrays they are given.  The solver is deterministic: identical inputs
produce identical iterates.  They agree with the textbook loop (U += A - C
and A^T 1 - 1 on whole arrays) up to rounding: U is rounded once, as
clip(J), instead of twice, J as C - E^T L^T, and A^T 1 is formed from
E^T.
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
# three float64 tiles take 768 KB, three float32 ones 384 KB, and stay in a
# core's L2 cache.  The size is set in bytes, not rows: fixed 32-row tiles
# made the N = 200 default run slower, as their extra numpy calls cost more
# than the cache saved.
TILE_ELEMENTS = 2**15


def tiles(count, width):
    """The row slices of a pass over `count` rows of `width` elements each.

    Each slice holds max(1, TILE_ELEMENTS // width) consecutive rows, the
    last one fewer when that does not divide `count`; every stop is
    clipped to `count`, so a slice b holds b.stop - b.start rows.
    """
    rows = max(1, TILE_ELEMENTS // max(width, 1))
    return [slice(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


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


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the self-expressive solve.

    Its fields declare the command line's solver flags (max_iter is
    --max-iter), their types and defaults, and `__post_init__` their
    bounds; the CLI checks each flag and config value here as it reads it.
    mu is the data-fidelity weight, rho the penalty weight of the
    augmented terms; each must be positive and finite.  Leave mu at None
    to pick the data-dependent default mu = 800 / max_{i != j} |y_i^T y_j|.
    rho starts at mu and is balanced unless given (see the module
    docstring); a given rho stays fixed.  It is frozen, so no value can
    change after its check: `dataclasses.replace` builds a new one and
    checks it again.
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
    Q = [1, rho G] and L = [1 / (N + 1), G K^-1], the latter kept
    transposed as `Lt`, so that both are contiguous in the layouts the
    point-major tile products S^T_b Q and E^T_b L^T read.  Applying M^-1
    thus costs two thin products, O(N^2 r), and the cache holds no N x N
    matrix.  v = (N + 1) e_0 - Q^T 1 carries the multiplier u through the
    A-update.  Q, L^T, v and L^T 1 are held in `dtype`, the solve's: a
    float32 cache casts them from the float64 factorization, and `set_rho`
    solves from the float64 rho G it keeps.  `bench/trace_child.py` times
    this class, by this name, as `admm.factor`.
    """

    def __init__(self, Y, mu, rho, dtype=np.float64):
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
            Q = np.empty((n, r + 1))
            Q[:, 0] = 1.0
            Q[:, 1:] = rhoG
            v = -Q.sum(axis=0)
            v[0] += n + 1
            # a cast past float32's range leaves an inf, which the solve's
            # finiteness check reports
            self.Q = Q.astype(dtype, copy=False)
            self.v = v.astype(dtype, copy=False)
        self._rhoG = Q[:, 1:]  # float64: set_rho solves from it
        self.Lt = np.empty((r + 1, n), dtype)
        self.Lt[0] = 1.0 / (n + 1)
        self.set_rho(rho)

    def set_rho(self, rho):
        """Refactor M^-1 for a new rho, in place.

        rho G = F - 1 1^T F / (N + 1) does not depend on rho, so Q, v and
        F^T (rho G) are kept, and only L^T's last r rows, (G K^-1)^T with
        K = I + F^T (rho G) / rho, are solved again: O(N r^2).  They and
        1 / rho, the solve's shrink level, are checked finite in the cache's
        dtype, after the cast; a refused rho leaves L^T as it was.
        """
        r = self._Ft_rhoG.shape[0]
        dtype = self.Lt.dtype
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            K = np.eye(r) + self._Ft_rhoG / rho
            finite = np.isfinite(dtype.type(1.0 / rho)) and np.isfinite(K).all()
            if finite:
                Kinv_Gt = np.linalg.solve(K, self._rhoG.T)
                Kinv_Gt /= rho
                Kinv_Gt = Kinv_Gt.astype(dtype, copy=False)
                finite = np.isfinite(Kinv_Gt).all()
        if not finite:
            raise InputError(
                "the normal matrix cannot be inverted in floating point; "
                f"rho = {rho!r} is too small for this data scale"
            )
        self.Lt[1:] = Kinv_Gt
        self._Lt_1 = self.Lt.sum(axis=1, dtype=float).astype(dtype, copy=False)

    def thin_product(self, St, u, lo=0):
        """E^T = S^T Q - Q + u v^T for the rows lo, lo + 1, ... of S^T.

        St holds those rows of S^T = (C - U)^T, one point per row, and u
        the same points' entries of the scaled multiplier; the result is
        E's columns for those points, one per row, as `update_a` reads it.
        """
        Et = St @ self.Q
        Et -= self.Q[lo : lo + St.shape[0]]
        Et += u[:, None] * self.v
        return Et

    def affine_residual(self, Et, u):
        """A^T 1 - 1 for A^T = S^T - E^T L^T, from E^T = thin_product(St, u).

        Q's first column is 1 and v's first entry is 1, so E^T's first
        column is S^T 1 - 1 + u, and A^T 1 = S^T 1 - E^T (L^T 1): no pass
        over A.  Et and u may hold the rows of a tile of points.
        """
        return Et[:, 0] - u - Et @ self._Lt_1


def _default_mu(Y):
    """DEFAULT_MU_SCALE / max_{i != j} |y_i^T y_j|, the default data weight.

    The Gram matrix Y^T Y is taken one tile of `tiles(N, N)` rows at a
    time, so no N x N array is formed; its entries are the same dot
    products, so mu is too.
    """
    n = Y.shape[1]
    peaks = []
    for b in tiles(n, n):
        gram = Y[:, b].T @ Y
        gram.flat[b.start :: n + 1] = 0.0  # the entries (i, b.start + i)
        peaks.append(_max_abs(gram))
    coh = float(np.max(peaks))  # keeps a NaN, as one whole-Gram maximum does
    if coh <= 0.0:
        return DEFAULT_MU_SCALE  # mutually orthogonal columns; any weight works
    return float(DEFAULT_MU_SCALE / coh)


def _max_abs(x):
    """max |x| without an |x| temporary; NaN if x holds a NaN."""
    return float(max(x.max(), -x.min()))


def update_a(Bt, Et, Lt, out=None):
    """Minimize the augmented Lagrangian over A with C, u, U fixed.

    Solves M A = mu Y^T Y + rho (1 1^T + C - 1 u^T - U).  That right-hand
    side is M - rho I plus the rest, so A = I + rho M^-1 (C - I - 1 u^T - U);
    with M^-1 = (I - L Q^T) / rho the identity and rho cancel, and L's first
    column, 1 / (N + 1), absorbs 1 u^T:

        A = S - L E,   S = C - U,   E = Q^T S - Q^T + v u^T.

    It is taken point-major, as Bt - E^T L^T, where E^T is
    `FactorizationCache.thin_product(St, u)` and Lt the cache's L^T.  With
    Bt = S^T this is A^T; with Bt = C^T it is A^T + U^T, the next J^T the
    solve keeps.  Bt and Et may hold the same rows (points) of the whole
    arrays, which gives those rows of the result.  C must have an exactly
    zero diagonal (every C from `update_c` has one); it stands in for
    C - diag(C) as it is.  The result is written to `out`, an array
    distinct from Bt.
    """
    out = np.matmul(Et, Lt, out=out)
    return np.subtract(Bt, out, out=out)


def update_c(J, rho, out=None, work=None, lo=0):
    """Split J = A + U into the next multiplier U and the shrink C of J.

    J may hold rows lo, lo + 1, ... of an N x N matrix, or of its
    transpose as in the solve; the diagonal is then the block's entries
    (i, lo + i).  U is clip(J, -1/rho, 1/rho) off the diagonal and J_ii on
    it, and C = J - U is the soft threshold max(|J| - 1/rho, 0) sgn(J) with
    an exactly zero diagonal; it differs from that formula only in the sign
    of exact zeros.  U is the ascent step U + A - C on the multiplier, and
    C + U is J up to the one rounding of J - U.  A non-finite J entry gives
    a non-finite C entry, a NaN on the diagonal.  Returns (U, C), written
    to `work` and `out`; `work` is distinct from J and `out`, and `out` may
    be J itself.
    """
    U = J.clip(-1.0 / rho, 1.0 / rho, out=work)
    U.flat[lo :: J.shape[1] + 1] = J.diagonal(lo)
    return U, np.subtract(J, U, out=out)


def update_multipliers(u, affine):
    """Ascent step on the scaled multiplier u: u += A^T 1 - 1, in place.

    `affine` is A^T 1 - 1.  The step on U, U += A - C, is the split that
    `update_c` takes (see the module docstring).
    """
    u += affine
    return u


def _balance_factor(affine, split_sq, change_sq, rho):
    """The factor for rho from the primal and dual residual norms.

    `affine` is A^T 1 - 1, and split_sq and change_sq are ||A - C||_F^2,
    taken as ||U - U_prev||_F^2, and ||C - C_prev||_F^2, as summed from
    `residual_report`.
    """
    primal = math.hypot(np.linalg.norm(affine), math.sqrt(split_sq))
    dual = rho * math.sqrt(change_sq)
    if primal > BALANCE_RATIO * dual:
        return BALANCE_FACTOR
    if dual > BALANCE_RATIO * primal:
        return 1.0 / BALANCE_FACTOR
    return 1.0


def residual_report(U, U_prev, C, C_prev, work=None, norms=False):
    """The split and change residuals of a block of the iterates.

    U - U_prev is A - C in exact arithmetic, so it is the split residual.
    The block may be rows of the four arrays or, as in the solve, rows of
    their transposes: the maxima and squared norms of a difference do not
    depend on its orientation.

    Returns the block's (||U - U_prev||_inf, ||C - C_prev||_inf),
    followed, when `norms`, by ||U - U_prev||_F^2 and ||C - C_prev||_F^2
    for the balancing.  The differences are formed in `work`, an array of
    the blocks' shape, which may be U itself.  The affine residual comes
    from `FactorizationCache`.
    """
    peaks, squares = [], []
    for left, right in ((U, U_prev), (C, C_prev)):
        diff = np.subtract(left, right, out=work)
        peaks.append(_max_abs(diff))
        if norms:
            squares.append(float(np.vdot(diff, diff)))
    return peaks + squares


def objective_value(Y, C, mu):
    """Evaluate ||C||_1 + (mu/2) ||Y - Y C||_F^2.

    ||C||_1 is summed one strip of C's columns at a time, as `tiles` cuts
    them, so no N x N temporary is made; the residual holds D x N arrays
    only.
    """
    l1 = sum(np.abs(C[:, b]).sum() for b in tiles(C.shape[1], C.shape[0]))
    resid = Y - Y @ C
    return float(l1 + 0.5 * mu * np.sum(resid * resid))


def solve_ssc(Y, cfg=None, dtype=np.float64):
    """Compute the sparse self-representation of the columns of Y.

    Parameters
    ----------
    Y : array, shape (D, N)
        Data matrix, one point per column.
    cfg : SolverConfig, optional
        Solver parameters; defaults are data-dependent (see SolverConfig).
    dtype : np.float64 or np.float32, optional
        The precision of the iterate and the factors it is multiplied by
        (see the module docstring); C is float64 in either.  A float32
        solve may never meet a tolerance below about 1e-6.

    Returns
    -------
    C : array, shape (N, N)
        Coefficient matrix with exactly zero diagonal; column i is the
        sparse representation of point i in terms of the other points.
        It is the transposed view of the solve's point-major C^T, shrunk
        from J^T at exit into the same buffer, so it is Fortran-ordered.
    report : SolveReport
        Convergence flag, iteration count, final residuals, mu, the final
        rho and its number of changes, and the full residual history.
    """

    Y = check_data_matrix(Y)
    if cfg is None:
        cfg = SolverConfig()
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise InputError(f"the iterate must be float32 or float64, got {dtype}")
    n = Y.shape[1]
    blocks = tiles(n, n)
    u, affine = np.zeros(n), np.empty(n)
    history = []
    converged = False
    rho_changes = 0
    # overflow here is detected by the finiteness checks and raised as
    # DivergenceError, so the numpy warnings are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(cfg.mu) if cfg.mu is not None else _default_mu(Y)
        rho = float(cfg.rho) if cfg.rho is not None else mu
        cache = FactorizationCache(Y, mu, rho, dtype)
        # the solve's one N x N float64 buffer, C^T at exit, made once the
        # factorization's temporaries are freed.  J^T = (A + U)^T in `dtype`
        # is a view over its start, so a float32 J^T touches only half of
        # its zero pages.  The tiles, written in place, hold the split of a
        # tile's J^T into U and C, S, and the split of the next J^T
        buf = np.zeros(n * n)
        Jt = buf.view(dtype)[: n * n].reshape(n, n)
        u_tile, c_tile, s_tile, next_tile = (
            np.empty((blocks[0].stop, n), dtype) for _ in range(4)
        )
        # per tile: max |U - U_prev|, max |C - C_prev|, and their squared norms
        tile_residuals = np.empty((len(blocks), 4))
        for iteration in range(1, cfg.max_iter + 1):
            balance = (
                cfg.rho is None
                and iteration % BALANCE_EVERY == 0
                and iteration <= BALANCE_UNTIL
            )
            width = 4 if balance else 2
            for k, b in enumerate(blocks):
                h = b.stop - b.start
                Ut_b, Ct_b = update_c(
                    Jt[b], rho, out=c_tile[:h], work=u_tile[:h], lo=b.start
                )
                St_b = np.subtract(Ct_b, Ut_b, out=s_tile[:h])
                Et_b = cache.thin_product(St_b, u[b], b.start)
                affine[b] = cache.affine_residual(Et_b, u[b])
                update_a(Ct_b, Et_b, cache.Lt, out=Jt[b])
                # S^T_b is spent: its buffer takes the next U, then the differences
                U_next, C_next = update_c(
                    Jt[b], rho, out=next_tile[:h], work=s_tile[:h], lo=b.start
                )
                tile_residuals[k, :width] = residual_report(
                    U_next, Ut_b, C_next, Ct_b, work=U_next, norms=balance
                )
            r_affine = _max_abs(affine)
            # the maximum over tiles keeps a NaN
            r_split, r_change = tile_residuals[:, :2].max(axis=0).tolist()
            u = update_multipliers(u, affine)
            # a non-finite J makes max |C - C_prev| non-finite, and a
            # non-finite E^T a non-finite u
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
                    # J = C + U / t: its split at the new rho is U / t and C,
                    # the latter up to one ulp of the new J
                    for b in blocks:
                        h = b.stop - b.start
                        Ut_b, Ct_b = update_c(
                            Jt[b], rho, out=c_tile[:h], work=u_tile[:h], lo=b.start
                        )
                        np.add(Ct_b, np.divide(Ut_b, t, out=Ut_b), out=Jt[b])
                    rho *= t
                    u /= t
                    rho_changes += 1
        # last tile first: tile b's float64 rows of C^T overwrite only
        # entries of J^T that b and the tiles after it held
        Ct = buf.reshape(n, n)
        for b in reversed(blocks):
            h = b.stop - b.start
            Ct[b] = update_c(Jt[b], rho, out=c_tile[:h], work=u_tile[:h], lo=b.start)[1]

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
    return Ct.T, report
