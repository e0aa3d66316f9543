"""Solver unit tests: update formulas checked against independent oracles,
convergence behavior, determinism, and error paths."""

import numpy as np
import pytest

import oracles
from ssclust import (
    DivergenceError,
    InputError,
    SolverConfig,
    build_affinity,
    objective_value,
    solve_ssc,
    synth_union_of_subspaces,
)
from ssclust.admm import (
    FactorizationCache,
    check_data_matrix,
    residual_report,
    soft_threshold,
    update_a,
    update_c,
    update_multipliers,
)


def test_soft_threshold_scalar_examples():
    assert soft_threshold(1.2, 0.5) == pytest.approx(0.7)
    assert isinstance(soft_threshold(1.2, 0.5), np.float64)
    assert soft_threshold(-0.3, 0.5) == 0.0
    # s = 0 is the identity on any finite value
    for v in (-4.0, -0.1, 0.0, 2.5, 1e9):
        assert soft_threshold(v, 0.0) == v


def test_soft_threshold_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6))) * 3
        s = float(rng.uniform(0, 2))
        expected = oracles.scalar_soft_threshold(M, s)
        assert np.allclose(soft_threshold(M, s), expected, atol=0)


def test_soft_threshold_properties():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = float(rng.normal() * 4)
        s = float(rng.uniform(0, 3))
        out = soft_threshold(v, s)
        assert abs(out) <= abs(v)
        if abs(v) <= s:
            assert out == 0.0
        else:
            assert out != 0.0
            assert np.sign(out) == np.sign(v)


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
        SolverConfig(rho=0.0)
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


def test_default_mu_scaling():
    def default_mu(Y):
        return solve_ssc(Y, SolverConfig(max_iter=1))[1].mu

    # two unit columns with inner product 0.5 -> mu = 800 / 0.5
    Y = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    assert default_mu(Y) == pytest.approx(1600.0)
    # orthogonal columns have zero coherence; the scale itself is returned
    assert default_mu(np.eye(3)) == pytest.approx(800.0)


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
    A = update_a(C, np.zeros((4, 4)), np.zeros(4), cache)
    assert np.allclose(A, C, atol=1e-10)


def test_update_a_matches_dense_solve():
    rng = np.random.default_rng(21)

    def check(Y):
        C, delta, Delta = _random_state(rng, Y.shape[1])
        mu = float(rng.uniform(0.5, 5))
        rho = float(rng.uniform(0.5, 5))
        cache = FactorizationCache(Y, mu, rho)
        # the thin factor keeps exactly the numerical rank of Y
        assert cache.Qt.shape[0] - 1 == np.linalg.matrix_rank(Y)
        A = update_a(C, Delta / rho, delta / rho, cache)
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
        A = update_a(C, Delta / rho, delta / rho, cache)
        # the Lagrangian is quadratic in A, so a wide central difference has
        # no truncation error and stays clear of the rounding floor of 1e-6
        grad = oracles.fd_gradient_wrt_a(Y, A, C, delta, Delta, mu, rho, step=1e-3)
        assert np.max(np.abs(grad)) <= 1e-8


def test_factorization_cache_solves_the_normal_system():
    rng = np.random.default_rng(23)
    Y = rng.normal(size=(5, 6))
    mu, rho = 2.0, 3.0
    cache = FactorizationCache(Y, mu, rho)
    M = mu * (Y.T @ Y) + rho * np.eye(6) + rho * np.ones((6, 6))
    rhs = rng.normal(size=(6, 6))
    M_inv = (np.eye(6) - cache.L @ cache.Qt) / rho
    assert np.allclose(M_inv @ rhs, np.linalg.solve(M, rhs), atol=1e-10)


def test_factorization_cache_rejects_degenerate_scales():
    # overflow is a divergence, numerically indefinite M an input error
    with pytest.raises(DivergenceError):
        FactorizationCache(np.eye(3), mu=1e308, rho=1e308)
    rng = np.random.default_rng(24)
    wide = rng.normal(size=(2, 6))  # rank-2 gram, ridge vanishes
    with pytest.raises(InputError):
        FactorizationCache(wide, mu=1.0, rho=1e-320)


def test_update_c_example_grid():
    shifted = np.array([[0.3, 1.5], [-0.2, 2.0]])
    C = update_c(shifted, np.zeros((2, 2)), rho=1.0)
    assert np.allclose(C, [[0.0, 0.5], [0.0, 0.0]], atol=0)


def test_update_c_large_rho_limit():
    rng = np.random.default_rng(31)
    A = rng.normal(size=(5, 5))
    C = update_c(A, np.zeros((5, 5)), rho=1e12)
    target = A.copy()
    np.fill_diagonal(target, 0.0)
    assert np.max(np.abs(C - target)) <= 2e-12


def test_update_c_matches_scalar_oracle():
    rng = np.random.default_rng(32)
    A = rng.normal(size=(4, 4))
    Delta = rng.normal(size=(4, 4))
    C = update_c(A, Delta / 2.0, rho=2.0)
    expected = oracles.scalar_soft_threshold(A + Delta / 2.0, 0.5)
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(C, expected, atol=0)
    assert np.max(np.abs(np.diag(C))) == 0.0


def _multiplier_step(u, U, A, C):
    """Residuals as the solve leaves them, then the step on (u, U)."""
    residuals = (np.empty(A.shape[1]), np.empty_like(A))
    residual_report(A, C, C, out=residuals)
    out = update_multipliers(u, U, residuals)
    assert out[0] is u and out[1] is U  # updated in place, not copied
    return out


def test_update_multipliers_examples():
    # column sums 1.1 and 0.95 -> u gains the residual (0.1, -0.05)
    A = np.array([[1.1, 0.95], [0.0, 0.0]])
    u, U = _multiplier_step(np.zeros(2), np.zeros((2, 2)), A, A)
    assert np.allclose(u, [0.1, -0.05])
    assert np.array_equal(U, np.zeros((2, 2)))

    # feasible pair: both multipliers unchanged
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    u0 = np.array([0.4, -0.2])
    U0 = np.array([[0.0, 0.3], [-0.1, 0.0]])
    u1, U1 = _multiplier_step(u0.copy(), U0.copy(), C, C)
    assert np.array_equal(u1, u0)
    assert np.array_equal(U1, U0)

    # A - C = all ones: U gains exactly ones
    n = 3
    A = np.ones((n, n))
    _, U2 = _multiplier_step(np.zeros(n), np.zeros((n, n)), A, np.zeros((n, n)))
    assert np.array_equal(U2, np.ones((n, n)))


def test_update_multipliers_deterministic_recompute():
    rng = np.random.default_rng(33)
    A = rng.normal(size=(4, 4))
    C = rng.normal(size=(4, 4))
    u0 = rng.normal(size=4)
    U0 = rng.normal(size=(4, 4))
    first = _multiplier_step(u0.copy(), U0.copy(), A, C)
    second = _multiplier_step(u0.copy(), U0.copy(), A, C)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    # the scaled step adds the residuals as they are
    assert np.array_equal(first[0], u0 + (A.sum(axis=0) - 1.0))
    assert np.array_equal(first[1], U0 + (A - C))


def test_residual_report_cases():
    zeros = np.zeros((3, 3))
    r1, _, _ = residual_report(zeros, zeros, zeros)
    assert r1 == 1.0  # all-zero A: column sums miss 1 by exactly 1

    # feasible state reports zero primal residuals
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    r1, r2, _ = residual_report(C, C, np.zeros((2, 2)))
    assert r1 == 0.0 and r2 == 0.0

    # hand 2x2 case against a scalar computation
    A = np.array([[0.6, 0.2], [0.3, 0.9]])
    C = np.array([[0.0, 0.25], [0.35, 0.0]])
    C_prev = np.array([[0.0, 0.2], [0.3, 0.0]])
    r1, r2, r3 = residual_report(A, C, C_prev)
    assert r1 == pytest.approx(max(abs(0.6 + 0.3 - 1), abs(0.2 + 0.9 - 1)))
    assert r2 == pytest.approx(0.9)  # A[1,1] - C[1,1]
    assert r3 == pytest.approx(0.05)


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
    # rank 12 at N = 200: the solve's reused buffers against a loop that
    # allocates every iterate afresh
    rng = np.random.default_rng(46)
    Y = oracles.subspace_dataset(rng, 4, 3, 30, 50)
    cfg = SolverConfig(max_iter=30, tol_primal=1e-300, tol_change=1e-300)
    C, report = solve_ssc(Y, cfg)
    C_ref, history_ref = oracles.reference_admm(Y, report.mu, report.rho, 30)
    assert np.max(np.abs(C - C_ref)) <= 1e-9
    assert report.iterations == 30
    assert np.max(np.abs(np.array(report.history) - np.array(history_ref))) <= 1e-9
    # a later solve writes none of the arrays the first one returned
    kept = C.copy()
    solve_ssc(oracles.subspace_dataset(rng, 4, 3, 30, 50), cfg)
    assert np.array_equal(C, kept)


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


def test_objective_value_direct():
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    C = np.array([[0.0, 0.5], [-0.5, 0.0]])
    resid = Y - Y @ C
    want = 1.0 + 2.0 / 2.0 * np.sum(resid * resid)
    assert objective_value(Y, C, 2.0) == pytest.approx(want)


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
    A_next = update_a(C, Delta / rho, delta / rho, cache)
    after = oracles.augmented_lagrangian(Y, A_next, C, delta, Delta, mu, rho)
    assert after <= before + 1e-12
