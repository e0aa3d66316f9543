"""Independent reference implementations used to check the package.

Everything in here is deliberately written the slow, obvious way (scalar
loops, dense solves, exhaustive enumeration) and shares no code with the
package under test.
"""

import itertools

import numpy as np


def dense_a_update(Y, C, delta, Delta, mu, rho):
    """Assemble and solve the A-update linear system with a generic solver."""
    n = Y.shape[1]
    ones = np.ones((n, n))
    C_zd = C - np.diag(np.diag(C))
    M = mu * (Y.T @ Y) + rho * np.eye(n) + rho * ones
    rhs = mu * (Y.T @ Y) + rho * ones + rho * C_zd - np.outer(np.ones(n), delta) - Delta
    return np.linalg.solve(M, rhs)


def reference_admm(Y, mu, rho, iterations):
    """A fixed number of ADMM iterations, every iterate allocated afresh.

    Dense A-update, scalar-loop shrink and the textbook multiplier step;
    returns C and the per-iteration (r_affine, r_split, r_change) history.
    """
    n = Y.shape[1]
    ones = np.ones(n)
    C = np.zeros((n, n))
    delta = np.zeros(n)
    Delta = np.zeros((n, n))
    history = []
    for _ in range(iterations):
        A = dense_a_update(Y, C, delta, Delta, mu, rho)
        C_next = scalar_soft_threshold(A + Delta / rho, 1.0 / rho)
        np.fill_diagonal(C_next, 0.0)
        affine = A.T @ ones - 1.0
        delta = delta + rho * affine
        Delta = Delta + rho * (A - C_next)
        history.append(
            (
                np.abs(affine).max(),
                np.abs(A - C_next).max(),
                np.abs(C_next - C).max(),
            )
        )
        C = C_next
    return C, history


def augmented_lagrangian(Y, A, C, delta, Delta, mu, rho):
    """Scalar value of the augmented Lagrangian at (A, C, delta, Delta)."""
    C_zd = C - np.diag(np.diag(C))
    fit = Y - Y @ A
    aff = A.T @ np.ones(A.shape[0]) - 1.0
    split = A - C_zd
    return (
        np.abs(C).sum()
        + 0.5 * mu * np.sum(fit * fit)
        + 0.5 * rho * np.sum(aff * aff)
        + 0.5 * rho * np.sum(split * split)
        + delta @ aff
        + np.sum(Delta * split)
    )


def fd_gradient_wrt_a(Y, A, C, delta, Delta, mu, rho, step=1e-6):
    """Central finite-difference gradient of the augmented Lagrangian in A."""
    grad = np.zeros_like(A)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            Ap = A.copy()
            Am = A.copy()
            Ap[i, j] += step
            Am[i, j] -= step
            fp = augmented_lagrangian(Y, Ap, C, delta, Delta, mu, rho)
            fm = augmented_lagrangian(Y, Am, C, delta, Delta, mu, rho)
            grad[i, j] = (fp - fm) / (2.0 * step)
    return grad


def scalar_soft_threshold(M, s):
    """Entrywise max(|v| - s, 0) * sgn(v) via an explicit python loop."""
    M = np.asarray(M, dtype=float)
    out = np.zeros_like(M)
    for idx in np.ndindex(M.shape):
        v = M[idx]
        mag = abs(v) - s
        if mag > 0:
            out[idx] = mag if v > 0 else -mag
    return out


def min_l1_exact_representation(Y, i, max_support=2, fit_tol=1e-9):
    """Minimum-l1 exact self-representation of column i over small supports.

    Enumerates every support pattern of size <= max_support drawn from the
    other columns, solves the stacked system [Y_S; 1^T] c = [y_i; 1] by
    least squares, keeps solutions that are exactly feasible, and returns
    the feasible full-length vector of smallest l1 norm (or None).
    """
    D, N = Y.shape
    others = [j for j in range(N) if j != i]
    best = None
    best_l1 = np.inf
    for size in range(1, max_support + 1):
        for supp in itertools.combinations(others, size):
            Q = np.vstack([Y[:, list(supp)], np.ones((1, size))])
            t = np.concatenate([Y[:, i], [1.0]])
            c_s, *_ = np.linalg.lstsq(Q, t, rcond=None)
            if np.linalg.norm(Q @ c_s - t) > fit_tol:
                continue
            l1 = np.abs(c_s).sum()
            if l1 < best_l1 - 1e-12:
                best_l1 = l1
                best = np.zeros(N)
                best[list(supp)] = c_s
    return best


def penalized_column_optimum(Y, i, mu, max_support=3):
    """Exact optimum of the per-column penalized program on small supports.

    Minimizes (mu/2) ||y_i - Y_S c||_2^2 + ||c||_1 subject to 1^T c = 1
    over all supports S of the other columns with |S| <= max_support.  For
    each support the l1 term is resolved by enumerating sign patterns and
    solving the resulting equality-constrained least-squares KKT system;
    every KKT solution is feasible, so evaluating the true objective at
    each candidate and taking the minimum gives the restricted optimum.
    """
    D, N = Y.shape
    y = Y[:, i]
    others = [j for j in range(N) if j != i]
    best_obj = np.inf
    best_c = None
    for size in range(1, max_support + 1):
        for supp in itertools.combinations(others, size):
            Q = Y[:, list(supp)]
            for signs in itertools.product((-1.0, 1.0), repeat=size):
                sigma = np.array(signs)
                kkt = np.zeros((size + 1, size + 1))
                kkt[:size, :size] = mu * (Q.T @ Q)
                kkt[:size, size] = 1.0
                kkt[size, :size] = 1.0
                rhs = np.concatenate([mu * (Q.T @ y) - sigma, [1.0]])
                try:
                    sol = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    continue
                c_s = sol[:size]
                resid = y - Q @ c_s
                obj = 0.5 * mu * resid @ resid + np.abs(c_s).sum()
                if obj < best_obj:
                    best_obj = obj
                    best_c = (list(supp), c_s.copy())
    return best_obj, best_c


def penalized_objective_oracle(Y, mu, max_support=3):
    """Optimal total objective, summed per column (supports <= max_support)."""
    return sum(
        penalized_column_optimum(Y, i, mu, max_support)[0]
        for i in range(Y.shape[1])
    )


def scalar_normalized_laplacian(W):
    """Loop reference for L = I - D^{-1/2} W D^{-1/2}, zero rows isolated."""
    n = W.shape[0]
    deg = [sum(W[i][j] for j in range(n)) for i in range(n)]
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                L[i, j] = 1.0 if deg[i] > 0 else 0.0
            elif deg[i] > 0 and deg[j] > 0:
                L[i, j] = -W[i][j] / np.sqrt(deg[i]) / np.sqrt(deg[j])
    return L


def brute_force_kmeans_cost(points, k):
    """Minimum within-cluster sum of squares over all assignments."""
    n = len(points)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) < k:
            continue
        cost = 0.0
        for c in range(k):
            members = np.array([points[i] for i in range(n) if labels[i] == c])
            center = members.mean(axis=0)
            cost += np.sum((members - center) ** 2)
        best = min(best, cost)
    return best


def pair_counting_agreement(a, b):
    """Fraction of point pairs on which two labelings agree, by hand."""
    n = len(a)
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            if (a[i] == a[j]) == (b[i] == b[j]):
                agree += 1
    return agree / total


def block_mass_fraction(W, sizes):
    """Share of total matrix mass inside consecutive diagonal blocks."""
    total = np.abs(W).sum()
    if total == 0:
        return 0.0
    inside = 0.0
    start = 0
    for s in sizes:
        inside += np.abs(W[start : start + s, start : start + s]).sum()
        start += s
    return inside / total


def subspace_dataset(rng, n_clusters, dim_sub, dim_amb, n_per):
    """Minimal union-of-subspaces sampler used by solver-level tests."""
    cols = []
    for _ in range(n_clusters):
        basis, _ = np.linalg.qr(rng.standard_normal((dim_amb, dim_sub)))
        coeffs = rng.standard_normal((dim_sub, n_per))
        coeffs /= np.linalg.norm(coeffs, axis=0)
        cols.append(basis @ coeffs)
    return np.hstack(cols)
