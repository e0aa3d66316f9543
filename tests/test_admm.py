"""Solver unit tests: update formulas checked against independent oracles,
convergence behavior, determinism, and error paths."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from ssclust import (
    DivergenceError,
    InputError,
    SolverConfig,
    build_affinity,
    cluster,
    objective_value,
    solve_ssc,
    synth_union_of_subspaces,
)
from ssclust import admm
from ssclust.admm import (
    FactorizationCache,
    check_data_matrix,
    residual_report,
    tiles,
    update_a,
    update_c,
    update_multipliers,
)


def test_check_data_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        check_data_matrix(np.ones(4))
    with pytest.raises(InputError):
        check_data_matrix(np.ones((3, 1)))  # a single point cannot self-express
    bad = np.ones((2, 3))
    bad[0, 1] = np.nan
    with pytest.raises(InputError):
        check_data_matrix(bad)
    bad[0, 1] = np.inf
    with pytest.raises(InputError):
        check_data_matrix(bad)


def test_solver_config_validation():
    with pytest.raises(InputError):
        SolverConfig(mu=0.0)
    with pytest.raises(InputError):
        SolverConfig(mu=-1.0)
    with pytest.raises(InputError):
        SolverConfig(mu=np.inf)
    with pytest.raises(InputError):
        SolverConfig(rho=0.0)
    with pytest.raises(InputError):
        SolverConfig(rho=np.inf)
    with pytest.raises(InputError):
        SolverConfig(max_iter=0)
    with pytest.raises(InputError):
        SolverConfig(tol_primal=0.0)
    with pytest.raises(InputError):
        SolverConfig(tol_change=-1e-5)
    cfg = SolverConfig()
    assert cfg.mu is None and cfg.rho is None
    assert cfg.max_iter == 5000
    assert cfg.tol_primal == 1e-4
    assert cfg.tol_change == 1e-5


def test_solver_config_is_frozen():
    # a field set after the checks would bypass them: max_iter = 0 would
    # reach the solve loop with no iteration to report
    cfg = SolverConfig()
    for name, value in (("max_iter", 0), ("mu", -1.0), ("tol_primal", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == SolverConfig()
    # replace builds a new config, and checks it
    assert dataclasses.replace(cfg, max_iter=7).max_iter == 7
    with pytest.raises(InputError, match="max_iter must be >= 1, got 0"):
        dataclasses.replace(cfg, max_iter=0)


def test_default_mu_scaling():
    def default_mu(Y):
        return solve_ssc(Y, SolverConfig(max_iter=1))[1].mu

    # two unit columns with inner product 0.5 -> mu = 800 / 0.5
    Y = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    assert default_mu(Y) == pytest.approx(1600.0)
    # orthogonal columns have zero coherence; the scale itself is returned
    assert default_mu(np.eye(3)) == pytest.approx(800.0)
    # wide (D < N): the cache factors Y Y^T, and mu comes from Y^T Y alone;
    # its off-diagonal entries are -4, 2 and 0, below the diagonal's 16
    Y = np.array([[1.0, -4.0, 0.0], [2.0, 0.0, 1.0]])
    assert default_mu(Y) == pytest.approx(200.0)
    # N = 300 takes the Gram matrix in three tiles, the last one short:
    # mu is the whole Gram matrix's, bit for bit
    Y = np.random.default_rng(48).normal(size=(7, 300))
    cuts = tiles(300, 300)
    assert len(cuts) >= 3 and cuts[-1].stop - cuts[-1].start < cuts[0].stop
    gram = Y.T @ Y
    np.fill_diagonal(gram, 0.0)
    assert default_mu(Y) == 800.0 / np.abs(gram).max()


@pytest.mark.parametrize(
    "count, width",
    [(0, 5), (1, 1), (60, 60), (200, 200), (300, 300), (4, 3), (5, 2**15 + 1)],
)
def test_tiles_cover_every_row_once_in_order(count, width):
    # tiles of max(1, TILE_ELEMENTS // width) rows, only the last one shorter
    rows = max(1, admm.TILE_ELEMENTS // width)
    cuts = tiles(count, width)
    assert [i for b in cuts for i in range(count)[b]] == list(range(count))
    heights = [b.stop - b.start for b in cuts]
    assert all(h == rows for h in heights[:-1])
    assert all(0 < h <= rows for h in heights[-1:])


def test_tiles_edge_cases_and_the_tile_size_read_at_call_time(monkeypatch):
    assert tiles(0, 5) == []
    # a row wider than a tile still takes one row per tile
    assert tiles(3, admm.TILE_ELEMENTS + 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    monkeypatch.setattr(admm, "TILE_ELEMENTS", 3 * 8)
    assert tiles(8, 8) == [slice(0, 3), slice(3, 6), slice(6, 8)]


def _a_update(C, U, u, cache):
    """The A-update of every point at once, taken point-major as A^T."""
    St = (C - U).T
    return update_a(St, cache.thin_product(St, u), cache.Lt).T


def _random_state(rng, n):
    """A zero-diagonal C and random multipliers (delta, Delta)."""
    C = rng.normal(size=(n, n))
    np.fill_diagonal(C, 0.0)
    return C, rng.normal(size=n), rng.normal(size=(n, n))


def test_update_a_fixed_point_at_feasible_c():
    # duplicate pairs: C swapping each pair is feasible (YC = Y, col sums 1)
    rng = np.random.default_rng(5)
    y = rng.normal(size=4)
    z = rng.normal(size=4)
    Y = np.column_stack([y, y, z, z])
    C = np.zeros((4, 4))
    C[1, 0] = C[0, 1] = 1.0
    C[3, 2] = C[2, 3] = 1.0
    cache = FactorizationCache(Y, mu=1.0, rho=1.0)
    A = _a_update(C, np.zeros((4, 4)), np.zeros(4), cache)
    assert np.allclose(A, C, atol=1e-10)


def test_update_a_matches_dense_solve():
    rng = np.random.default_rng(21)

    def check(Y):
        C, delta, Delta = _random_state(rng, Y.shape[1])
        mu = float(rng.uniform(0.5, 5))
        rho = float(rng.uniform(0.5, 5))
        cache = FactorizationCache(Y, mu, rho)
        # the thin factor keeps exactly the numerical rank of Y
        assert cache.Q.shape[1] - 1 == np.linalg.matrix_rank(Y)
        A = _a_update(C, Delta / rho, delta / rho, cache)
        expected = oracles.dense_a_update(Y, C, delta, Delta, mu, rho)
        assert np.max(np.abs(A - expected)) <= 1e-10

    for _ in range(15):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 7))
        check(rng.normal(size=(d, n)))
    # inputs whose Gram matrix is rank-deficient: tall of rank 3, a
    # duplicate column, a zero column, and rank 1
    tall = rng.normal(size=(9, 3)) @ rng.normal(size=(3, 6))
    duplicate = rng.normal(size=(8, 6))
    duplicate[:, 4] = duplicate[:, 1]
    zero = rng.normal(size=(7, 5))
    zero[:, 0] = 0.0
    rank_one = np.outer(rng.normal(size=4), rng.normal(size=5))
    for Y in (tall, duplicate, zero, rank_one):
        check(Y)


def test_update_a_gradient_vanishes():
    rng = np.random.default_rng(22)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        Y = rng.normal(size=(4, n))
        C, delta, Delta = _random_state(rng, n)
        mu, rho = 1.5, 2.0
        cache = FactorizationCache(Y, mu, rho)
        A = _a_update(C, Delta / rho, delta / rho, cache)
        # the Lagrangian is quadratic in A, so a wide central difference has
        # no truncation error and stays clear of the rounding floor of 1e-6
        grad = oracles.fd_gradient_wrt_a(Y, A, C, delta, Delta, mu, rho, step=1e-3)
        assert np.max(np.abs(grad)) <= 1e-8


def test_factorization_cache_solves_the_normal_system():
    rng = np.random.default_rng(23)
    Y = rng.normal(size=(5, 6))
    mu, rho = 2.0, 3.0
    cache = FactorizationCache(Y, mu, rho)
    rhs = rng.normal(size=(6, 6))

    def check(rho):
        M = mu * (Y.T @ Y) + rho * np.eye(6) + rho * np.ones((6, 6))
        M_inv = (np.eye(6) - cache.Lt.T @ cache.Q.T) / rho
        assert np.allclose(M_inv @ rhs, np.linalg.solve(M, rhs), atol=1e-10)

    check(rho)
    # refactored in place for rho' = t rho, as the balancing does
    for t in (2.0, 0.5):
        cache.set_rho(t * rho)
        check(t * rho)


def test_factorization_cache_rejects_degenerate_scales():
    # overflow is a divergence, numerically indefinite M an input error
    with pytest.raises(DivergenceError):
        FactorizationCache(np.eye(3), mu=1e308, rho=1e308)
    rng = np.random.default_rng(24)
    wide = rng.normal(size=(2, 6))  # rank-2 gram, ridge vanishes
    with pytest.raises(InputError) as built:
        FactorizationCache(wide, mu=1.0, rho=1e-320)
    # a refactor to that rho fails the same way
    cache = FactorizationCache(wide, mu=1.0, rho=1.0)
    with pytest.raises(InputError) as rebuilt:
        cache.set_rho(1e-320)
    assert str(rebuilt.value) == str(built.value)


def test_update_c_example_grid():
    shifted = np.array([[0.3, 1.5], [-0.2, 2.0]])
    _, C = update_c(shifted, rho=1.0)
    assert np.allclose(C, [[0.0, 0.5], [0.0, 0.0]], atol=0)


def test_update_c_large_rho_limit():
    rng = np.random.default_rng(31)
    A = rng.normal(size=(5, 5))
    _, C = update_c(A, rho=1e12)
    target = A.copy()
    np.fill_diagonal(target, 0.0)
    assert np.max(np.abs(C - target)) <= 2e-12


def test_update_c_matches_scalar_oracle():
    rng = np.random.default_rng(32)
    A = rng.normal(size=(4, 4))
    Delta = rng.normal(size=(4, 4))
    _, C = update_c(A + Delta / 2.0, rho=2.0)
    expected = oracles.scalar_soft_threshold(A + Delta / 2.0, 0.5)
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(C, expected, atol=0)
    assert np.max(np.abs(np.diag(C))) == 0.0


def test_update_c_split_invariants():
    # U = clip(J) off the diagonal and J_ii on it, and C = J - U, rounded
    # once, with a zero diagonal.  After the balancing's rewrite
    # J' = C + U / t, the split at rho t gives back U / t exactly, and C up
    # to one ulp of J'
    rng = np.random.default_rng(35)
    for _ in range(200):
        h, n = sorted(rng.integers(1, 12, size=2))
        lo = int(rng.integers(0, n - h + 1))
        J = rng.normal(size=(h, n)) * 10 ** rng.uniform(-3, 3)
        rho = 1.0 / rng.uniform(0.01, 3)
        U, C = update_c(J, rho, lo=lo)
        diagonal = np.zeros((h, n), dtype=bool)
        diagonal[np.arange(h), lo + np.arange(h)] = True
        assert np.all(np.abs(U[~diagonal]) <= 1.0 / rho)
        assert np.array_equal(U[diagonal], J[diagonal])
        assert np.all(C[diagonal] == 0.0)
        assert np.array_equal(C, J - U)
        assert np.all(np.abs(C + U - J) <= np.spacing(np.abs(J)))
        for t in (2.0, 0.5):
            J_t = C + U / t
            U_t, C_t = update_c(J_t, rho * t, lo=lo)
            assert np.array_equal(U_t, U / t)
            assert np.all(np.abs(C_t - C) <= np.spacing(np.abs(J_t)))
    # the block split in place, as the solve shrinks J at exit
    U, C = update_c(J, rho, lo=lo)
    U_in_place, C_in_place = update_c(J, rho, out=J, work=np.empty_like(J), lo=lo)
    assert C_in_place is J
    assert np.array_equal(C_in_place, C) and np.array_equal(U_in_place, U)


# The shrink max(|v| - 1/rho, 0) sgn(v) is update_c's off-diagonal action;
# these three tests check it as 2 x 2 cases and as row blocks of A + U.


def test_soft_threshold_scalar_examples():
    # level 0.5: 1.2 shrinks to 0.7, -0.3 to zero
    _, C = update_c(np.array([[9.0, 1.2], [-0.3, 9.0]]), rho=2.0)
    assert C.dtype == np.float64
    assert C[0, 1] == pytest.approx(0.7)
    assert C[1, 0] == 0.0

    # level 0 (rho = inf) is the identity on any finite off-diagonal value
    for v in (-4.0, -0.1, 0.0, 2.5, 1e9):
        _, C = update_c(np.array([[1.0, v], [-v, 1.0]]), rho=np.inf)
        assert np.array_equal(C, [[0.0, v], [-v, 0.0]])


def test_soft_threshold_matches_scalar_oracle():
    # blocks of rows of random shape (h <= n), at random offsets and levels
    rng = np.random.default_rng(11)
    for _ in range(20):
        h, n = sorted(rng.integers(1, 6, size=2))
        lo = int(rng.integers(0, n - h + 1))
        A = rng.normal(size=(h, n)) * 3
        U = rng.normal(size=(h, n))
        rho = 1.0 / float(rng.uniform(0, 2))
        expected = oracles.scalar_soft_threshold(A + U, 1.0 / rho)
        expected[np.arange(h), lo + np.arange(h)] = 0.0
        _, C = update_c(A + U, rho, lo=lo)
        assert np.allclose(C, expected, atol=0)
        assert np.all(C[np.arange(h), lo + np.arange(h)] == 0.0)


def test_soft_threshold_properties():
    # shrinks toward zero and never past it; zero exactly when |v| <= level
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = float(rng.normal() * 4)
        rho = 1.0 / float(rng.uniform(0, 3))
        level = 1.0 / rho
        A = np.array([[0.0, v], [0.0, 0.0]])
        out = update_c(A, rho=rho)[1][0, 1]
        assert abs(out) <= abs(v)
        if abs(v) <= level:
            assert out == 0.0
        else:
            assert out != 0.0
            assert np.sign(out) == np.sign(v)


def test_update_multipliers_examples():
    # column sums 1.1 and 0.95 -> u gains the residual (0.1, -0.05)
    A = np.array([[1.1, 0.95], [0.0, 0.0]])
    u = np.zeros(2)
    assert update_multipliers(u, A.sum(axis=0) - 1.0) is u  # updated in place
    assert np.allclose(u, [0.1, -0.05])

    # the step on U is the split's: a feasible pair whose U is sgn(C) / rho
    # on the support is a fixed point of both
    C0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    U0 = np.array([[0.0, 0.25], [0.25, 0.0]])
    U, C = update_c(C0 + U0, rho=4.0)
    assert np.array_equal(C, C0)
    assert np.array_equal(U, U0)

    # from U = 0: U gains exactly A - C, which is clip(A) off the diagonal
    # and A_ii on it
    A = np.array([[2.0, -3.0, 0.5], [0.25, 4.0, -0.75], [1.5, -0.5, -2.0]])
    U, C = update_c(A, rho=1.0)
    assert np.array_equal(C, [[0.0, -2.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    assert np.array_equal(U, A - C)


def test_update_multipliers_deterministic_recompute():
    rng = np.random.default_rng(33)
    A = rng.normal(size=(4, 4))
    u0 = rng.normal(size=4)
    U0 = rng.normal(size=(4, 4))
    affine = A.sum(axis=0) - 1.0
    steps = []
    for _ in range(2):
        U, C = update_c(A + U0, rho=2.0)
        steps.append((update_multipliers(u0.copy(), affine), C, U))
    (u1, C1, U1), (u2, C2, U2) = steps
    assert np.array_equal(u1, u2) and np.array_equal(C1, C2) and np.array_equal(U1, U2)
    # the scaled step adds the residuals as they are: exactly for u, and
    # for U up to the rounding of forming U0 + (A - C) instead of clip(J)
    assert np.array_equal(u1, u0 + affine)
    assert np.max(np.abs(U1 - (U0 + (A - C1)))) <= 1e-15 * np.max(np.abs(A + U0))
    assert np.array_equal(np.diag(U1), np.diag(A + U0))
    assert np.max(np.abs(U1 - np.diag(np.diag(U1)))) <= 0.5


def test_residual_report_cases():
    zeros = np.zeros((3, 3))
    assert residual_report(zeros, zeros, zeros, zeros) == [0.0, 0.0]

    # a feasible state, where the multiplier has stopped moving, reports a
    # zero split residual
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    U = np.array([[0.5, 0.25], [0.25, -0.5]])
    r2, _ = residual_report(U, U, C, np.zeros((2, 2)))
    assert r2 == 0.0

    # hand 2x2 case against a scalar computation: U - U_prev is A - C
    U_prev = np.array([[0.5, 1.0], [1.0, -0.25]])
    U = np.array([[1.1, 0.95], [0.95, 0.65]])
    C = np.array([[0.0, 0.25], [0.35, 0.0]])
    C_prev = np.array([[0.0, 0.2], [0.3, 0.0]])
    whole = residual_report(U, U_prev, C, C_prev, norms=True)
    assert whole == pytest.approx([0.9, 0.05, 0.6**2 + 2 * 0.05**2 + 0.9**2, 2 * 0.05**2])
    # a row at a time: the maxima and squares per row
    rows = [
        residual_report(*(M[i : i + 1] for M in (U, U_prev, C, C_prev)), norms=True)
        for i in range(2)
    ]
    assert np.max(rows, axis=0)[:2].tolist() == whole[:2]
    assert np.sum(rows, axis=0)[2:] == pytest.approx(whole[2:])
    # the differences may be formed in U itself, as the solve does
    assert residual_report(U.copy(), U_prev, C, C_prev, work=U, norms=True) == whole


def test_affine_residual_matches_column_sums():
    # A^T 1 - 1 read off the thin product equals the column sums of A
    rng = np.random.default_rng(34)
    for d, n in ((4, 7), (9, 6), (3, 40)):
        Y = rng.normal(size=(d, n))
        C, delta, Delta = _random_state(rng, n)
        cache = FactorizationCache(Y, mu=3.0, rho=2.0)
        for rho in (2.0, 16.0):
            cache.set_rho(rho)
            St, u = (C - Delta / rho).T, delta / rho
            Et = cache.thin_product(St, u)
            want = update_a(St, Et, cache.Lt).sum(axis=1) - 1.0
            got = cache.affine_residual(Et, u)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(St))
            # a tile of the points from lo on gives those rows of E^T
            lo = n // 2
            tile = cache.thin_product(St[lo:], u[lo:], lo)
            assert np.max(np.abs(tile - Et[lo:])) <= 1e-12 * np.max(np.abs(Et))


def test_solve_ssc_duplicate_columns():
    # y1 = y2 with two orthogonal fillers: the cheapest representation of
    # point 1 is its duplicate with weight 1
    Y = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    C, report = solve_ssc(Y, SolverConfig(mu=10.0, rho=10.0, max_iter=2000))
    assert report.converged
    assert abs(C[1, 0] - 1.0) <= 0.05
    col = C[:, 0].copy()
    col[1] = 0.0
    assert np.max(np.abs(col)) <= 0.05
    # the exhaustive minimum-l1 oracle agrees that {point 2: 1.0} is optimal
    best = oracles.min_l1_exact_representation(Y, 0, max_support=2)
    assert best is not None
    assert np.allclose(best, [0.0, 1.0, 0.0, 0.0], atol=1e-9)


def test_solve_ssc_zero_diagonal_and_report():
    rng = np.random.default_rng(41)
    Y = rng.normal(size=(6, 8))
    C, report = solve_ssc(Y, SolverConfig(mu=5.0, rho=5.0, max_iter=800))
    assert np.max(np.abs(np.diag(C))) == 0.0
    assert np.isfinite(C).all()
    assert report.iterations == len(report.history)
    if report.converged:
        assert report.r_affine <= 1e-4
        assert report.r_split <= 1e-4


def test_solve_ssc_objective_matches_bruteforce():
    rng = np.random.default_rng(42)
    tight = SolverConfig(mu=8.0, rho=8.0, tol_primal=1e-7, tol_change=1e-8, max_iter=3000)
    for _ in range(5):
        n = int(rng.integers(4, 6))
        d = int(rng.integers(3, 7))
        Y = rng.normal(size=(d, n))
        Y /= np.linalg.norm(Y, axis=0)
        C, report = solve_ssc(Y, tight)
        got = objective_value(Y, C, 8.0)
        want = oracles.penalized_objective_oracle(Y, 8.0, max_support=3)
        assert got <= want + 1e-6
        assert abs(got - want) <= 1e-4


def test_solve_ssc_monotone_feasibility():
    rng = np.random.default_rng(43)
    Y = oracles.subspace_dataset(rng, 2, 2, 20, 6)
    C, report = solve_ssc(Y, SolverConfig(tol_change=1e-4))
    assert report.converged
    assert report.r_affine <= report.history[0][0]


def test_solve_ssc_deterministic():
    rng = np.random.default_rng(44)
    Y = rng.normal(size=(5, 7))
    cfg = SolverConfig(mu=3.0, rho=3.0, max_iter=200)
    C1, rep1 = solve_ssc(Y, cfg)
    C2, rep2 = solve_ssc(Y, cfg)
    assert np.array_equal(C1, C2)
    assert rep1.history == rep2.history


def test_solve_ssc_matches_reference_loop():
    # rank 12 at N = 200: the solve's reused buffers and scaled multipliers
    # against a loop that allocates every iterate afresh and keeps the
    # multipliers unscaled, so a change of rho rescales nothing there.
    # The default balances rho; the second solve keeps rho = mu fixed.
    rng = np.random.default_rng(46)
    Y = oracles.subspace_dataset(rng, 4, 3, 30, 50)
    assert len(tiles(200, 200)) == 2  # the solve's pass takes two tiles
    cfg = SolverConfig(max_iter=30, tol_primal=1e-300, tol_change=1e-300)
    C, report = solve_ssc(Y, cfg)
    assert report.rho_changes >= 1
    fixed = dataclasses.replace(cfg, mu=report.mu, rho=report.mu)
    for solver in (cfg, fixed):
        C, report = solve_ssc(Y, solver)
        C_ref, history_ref, rho_ref = oracles.reference_admm(
            Y, report.mu, report.mu, 30, balance=solver.rho is None
        )
        assert np.max(np.abs(C - C_ref)) <= 1e-9
        assert report.iterations == 30
        history = np.array(report.history)
        assert np.max(np.abs(history - np.array(history_ref))) <= 1e-9
        assert report.rho == rho_ref
    assert report.rho_changes == 0
    # a later solve writes none of the arrays the first one returned
    kept = C.copy()
    solve_ssc(oracles.subspace_dataset(rng, 4, 3, 30, 50), cfg)
    assert np.array_equal(C, kept)


@pytest.mark.parametrize("rows", [1, 7, 60])
def test_solve_ssc_result_does_not_depend_on_the_tile_size(monkeypatch, rows):
    # 60 points: one row per tile, 7 rows (a four-row tail), and one tile;
    # the balanced default changes rho on the way
    Y = synth_union_of_subspaces(3, 2, 30, 20, 0.01, 3).Y
    cfg = SolverConfig(tol_primal=1e-3, tol_change=1e-4)
    assert tiles(60, 60) == [slice(0, 60)]  # the default takes a single tile here
    C_ref, ref = solve_ssc(Y, cfg)
    assert ref.converged and ref.rho_changes >= 1
    monkeypatch.setattr(admm, "TILE_ELEMENTS", rows * 60)
    assert tiles(60, 60)[0] == slice(0, rows)
    C, report = solve_ssc(Y, cfg)
    assert report.iterations == ref.iterations
    assert report.rho_changes == ref.rho_changes
    assert np.max(np.abs(C - C_ref)) <= 1e-12
    assert np.max(np.abs(np.array(report.history) - np.array(ref.history))) <= 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["A", "U"])
@pytest.mark.parametrize("diagonal", [True, False])
def test_non_finite_entries_are_caught_without_scanning_u(
    monkeypatch, value, target, diagonal
):
    # one bad entry in A or U as the middle tile (rows 3-5 of 8) reads it
    # at iteration 4: A through the J = A + U that the tile's second split
    # reads, U as its first split returns it.  The tile's residuals report
    # it, and the solve stops there
    monkeypatch.setattr(admm, "TILE_ELEMENTS", 3 * 8)
    state = {"calls": 0, "reports": []}

    def poisoned_update_c(J, rho, out=None, work=None, lo=0):
        state["calls"] += 1  # two splits per tile, three tiles per iteration
        column = lo + 1 if diagonal else lo + 2
        if target == "A" and state["calls"] == 3 * 6 + 2 * 1 + 2:
            J[1, column] = value
        U, C = update_c(J, rho, out=out, work=work, lo=lo)
        if target == "U" and state["calls"] == 3 * 6 + 2 * 1 + 1:
            U[1, column] = value
        return U, C

    def recorded_residual_report(*args, **kwargs):
        report = residual_report(*args, **kwargs)
        state["reports"].append(report)
        return report

    monkeypatch.setattr(admm, "update_c", poisoned_update_c)
    monkeypatch.setattr(admm, "residual_report", recorded_residual_report)
    Y = np.random.default_rng(47).normal(size=(5, 8))
    with pytest.raises(DivergenceError) as err:
        solve_ssc(Y, SolverConfig(mu=5.0, rho=5.0))
    assert "iteration 4" in str(err.value)
    r_split, r_change = state["reports"][3 * 3 + 1][:2]
    assert not (np.isfinite(r_split) and np.isfinite(r_change))


def test_default_solve_stops_near_the_optimum():
    # the balanced default certifies its stop on three planes (N = 24)
    # and ends within 1e-4 of a long fixed-rho solve, below the objective
    # that 5000 iterations at rho = mu reach
    Y = synth_union_of_subspaces(3, 2, 50, 8, 0.0, 7).Y
    C, report = solve_ssc(Y)
    assert report.converged and report.iterations <= 1500
    assert report.rho_changes >= 1
    mu = report.mu
    got = objective_value(Y, C, mu)
    long_cfg = SolverConfig(
        mu=mu, rho=mu / 100, max_iter=100000, tol_primal=1e-10, tol_change=1e-10
    )
    C_ref, ref_report = solve_ssc(Y, long_cfg)
    assert ref_report.converged
    want = objective_value(Y, C_ref, mu)
    assert abs(got - want) <= 1e-4 * want
    C_fixed, _ = solve_ssc(Y, SolverConfig(mu=mu, rho=mu))
    assert got <= objective_value(Y, C_fixed, mu)


def test_solve_ssc_block_structure():
    # 24 points in 3 disjoint planes: affinity mass stays in the blocks
    ds = synth_union_of_subspaces(3, 2, 50, 8, 0.0, 7)
    C, report = solve_ssc(ds.Y, SolverConfig(tol_primal=1e-4, tol_change=1e-4))
    assert report.converged
    W = build_affinity(C)
    assert oracles.block_mass_fraction(W, [8, 8, 8]) >= 0.9


def test_solve_ssc_error_paths():
    with pytest.raises(InputError):
        solve_ssc(np.ones((4, 1)))
    Yn = np.eye(3)
    with pytest.raises(DivergenceError) as err:
        solve_ssc(Yn, SolverConfig(mu=1e308, rho=1e308))
    assert "iteration" in str(err.value)


def test_float32_factors_keep_the_checks():
    # the factors are cast from the float64 factorization and checked after
    # the cast: 1 / rho = 1e39 is finite in float64 only
    rng = np.random.default_rng(24)
    wide = rng.normal(size=(2, 6))
    FactorizationCache(wide, mu=1.0, rho=1e-39)
    with pytest.raises(InputError, match="rho = 1e-39 is too small"):
        FactorizationCache(wide, mu=1.0, rho=1e-39, dtype=np.float32)
    # an L^T entry past float32's range, from a rho G scaled up: float64
    # takes it, float32 refuses it and keeps its L^T
    for dtype in (np.float64, np.float32):
        cache = FactorizationCache(wide, mu=1.0, rho=1.0, dtype=dtype)
        assert cache.Q.dtype == cache.Lt.dtype == cache.v.dtype == dtype
        cache._rhoG = cache._rhoG * 1e300
        before = cache.Lt.copy()
        if dtype is np.float64:
            cache.set_rho(1.0)
            assert np.isfinite(cache.Lt).all()
            continue
        with pytest.raises(InputError, match="rho = 1.0 is too small"):
            cache.set_rho(1.0)
        assert np.array_equal(cache.Lt, before)
    # mu = rho = 1e77 overflows a float32 iterate only
    Y, cfg = np.eye(3), SolverConfig(mu=1e77, rho=1e77, max_iter=20)
    assert solve_ssc(Y, cfg)[1].converged
    with pytest.raises(DivergenceError, match="non-finite iterate at iteration"):
        solve_ssc(Y, cfg, dtype=np.float32)
    with pytest.raises(InputError, match="float32 or float64, got float16"):
        solve_ssc(Y, cfg, dtype=np.float16)


@pytest.mark.parametrize(
    "spec, cfg",
    [
        ("10,5,200,100,0.0,0", SolverConfig(max_iter=50, tol_primal=1e-300, tol_change=1e-300)),
        ("3,2,50,8,0.0,7", None),
        ("5,3,100,40,0.05,0", None),
    ],
    ids=["bench-n1000-iter50", "default-n24", "default-noisy-n200"],
)
def test_float32_solve_matches_float64(spec, cfg):
    # the command line's float32 iterate: a Fortran-ordered C in the
    # solve's dtype with an exactly zero diagonal, the same iteration count,
    # the objective within 1e-6 relative and the same labels
    K, d, D, n_per, noise, seed = spec.split(",")
    Y = synth_union_of_subspaces(int(K), int(d), int(D), int(n_per), float(noise), int(seed)).Y
    runs = {}
    for dtype in (np.float64, np.float32):
        C, report = solve_ssc(Y, cfg, dtype=dtype)
        assert C.dtype == dtype and C.flags.f_contiguous
        assert np.all(np.diag(C) == 0.0)
        objective = objective_value(Y, C, report.mu)
        runs[dtype] = report.iterations, objective, cluster(build_affinity(C)).labels
    (it64, obj64, labels64), (it32, obj32, labels32) = runs[np.float64], runs[np.float32]
    assert it32 == it64
    assert abs(obj32 - obj64) <= 1e-6 * obj64
    assert np.array_equal(labels32, labels64)


def test_objective_value_direct():
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    C = np.array([[0.0, 0.5], [-0.5, 0.0]])
    resid = Y - Y @ C
    want = 1.0 + 2.0 / 2.0 * np.sum(resid * resid)
    assert objective_value(Y, C, 2.0) == pytest.approx(want)


def test_objective_value_makes_no_square_temporary():
    # the bench's N = 1000 solve after 50 iterations, as the solve returns
    # C (Fortran-ordered) and C-ordered: ||C||_1 is summed a strip at a
    # time, so the peak is the D x N residual's, not a copy of C
    Y = synth_union_of_subspaces(10, 5, 200, 100, 0.0, 0).Y
    cfg = SolverConfig(max_iter=50, tol_primal=1e-300, tol_change=1e-300)
    C, report = solve_ssc(Y, cfg)
    for layout in (C, np.ascontiguousarray(C)):
        tracemalloc.start()
        try:
            got = objective_value(Y, layout, report.mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * layout.nbytes
        resid = Y - Y @ layout
        want = np.abs(layout).sum() + 0.5 * report.mu * np.sum(resid * resid)
        assert abs(got - want) <= 1e-12 * want


def test_augmented_lagrangian_decreases_along_a_update():
    # the A-update minimizes the augmented Lagrangian in A, so its value
    # there can only undercut the previous iterate's
    rng = np.random.default_rng(45)
    Y = rng.normal(size=(4, 5))
    C, delta, Delta = _random_state(rng, 5)
    A = rng.normal(size=(5, 5))
    mu, rho = 2.0, 2.0
    cache = FactorizationCache(Y, mu, rho)
    before = oracles.augmented_lagrangian(Y, A, C, delta, Delta, mu, rho)
    A_next = _a_update(C, Delta / rho, delta / rho, cache)
    after = oracles.augmented_lagrangian(Y, A_next, C, delta, Delta, mu, rho)
    assert after <= before + 1e-12
