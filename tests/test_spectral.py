"""Spectral pipeline tests: affinity construction, Laplacian, eigengap
model selection, k-means, and the end-to-end cluster() contract."""

import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from ssclust import (
    InputError,
    build_affinity,
    cluster,
    estimate_num_clusters,
    kmeans,
    normalized_laplacian,
    symmetric_eigendecomposition,
)
from ssclust import admm, spectral
from ssclust.admm import tiles
from ssclust.spectral import check_cluster_settings


def ideal_block_affinity(sizes):
    """Zero-diagonal affinity with all-ones blocks along the diagonal."""
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for s in sizes:
        W[start : start + s, start : start + s] = 1.0
        start += s
    np.fill_diagonal(W, 0.0)
    return W


def test_build_affinity_hand_case():
    C = np.array([[0.0, 0.5], [-0.25, 0.0]])
    W = build_affinity(C)
    assert np.array_equal(W, [[0.0, 2.0], [2.0, 0.0]])


def test_build_affinity_zero_matrix():
    assert np.array_equal(build_affinity(np.zeros((4, 4))), np.zeros((4, 4)))


def test_build_affinity_properties():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        C = rng.normal(size=(n, n))
        C[np.abs(C) < 0.7] = 0.0  # sparsify so zero entries actually occur
        np.fill_diagonal(C, 0.0)
        W = build_affinity(C.copy())
        assert np.array_equal(W, W.T)
        assert W.min() >= 0.0
        assert np.max(np.abs(np.diag(W))) == 0.0
        # entrywise against an explicit scalar construction
        ref = np.zeros((n, n))
        for j in range(n):
            peak = max(abs(C[i, j]) for i in range(n))
            for i in range(n):
                ref[i, j] = abs(C[i, j]) / peak if peak > 0 else 0.0
        ref = ref + ref.T
        assert np.allclose(W, ref, atol=1e-15)
        for i in range(n):
            for j in range(n):
                assert (W[i, j] > 0) == (C[i, j] != 0 or C[j, i] != 0)


def test_build_affinity_rejects_bad_input():
    with pytest.raises(InputError):
        build_affinity(np.ones((2, 3)))
    with pytest.raises(InputError):
        build_affinity(np.eye(3))


def test_normalized_laplacian_two_node_graph():
    L = normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
    ev, _ = symmetric_eigendecomposition(L)
    assert np.allclose(ev, [0.0, 2.0], atol=1e-12)


def test_normalized_laplacian_zero_eigenvalue_per_block():
    for sizes in ([3, 4], [2, 2, 5], [4, 4, 4, 4]):
        W = ideal_block_affinity(sizes)
        ev, _ = symmetric_eigendecomposition(normalized_laplacian(W))
        assert np.sum(ev < 1e-8) == len(sizes)


def test_normalized_laplacian_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    for _ in range(8):
        raw = rng.uniform(0, 1, size=(6, 6))
        W = (raw + raw.T) / 2
        np.fill_diagonal(W, 0.0)
        W[0, :] = 0.0  # make vertex 0 isolated in some draws
        W[:, 0] = 0.0
        L = normalized_laplacian(W)
        assert np.max(np.abs(L - oracles.scalar_normalized_laplacian(W))) <= 1e-12
        assert np.array_equal(L, L.T)


def test_normalized_laplacian_isolated_vertex_convention():
    W = np.zeros((3, 3))
    W[1, 2] = W[2, 1] = 1.0
    L = normalized_laplacian(W)
    assert L[0, 0] == 0.0
    assert np.all(L[0, :] == 0.0) and np.all(L[:, 0] == 0.0)
    ev, _ = symmetric_eigendecomposition(L)
    assert np.sum(ev < 1e-8) == 2  # isolated vertex plus the edge component


def test_normalized_laplacian_rejects_non_finite():
    # unchecked, a NaN or inf pair gives NaN eigenvalues and no labels, and
    # inf raises a RuntimeWarning in the product with W
    for bad in (np.nan, np.inf):
        W = ideal_block_affinity([3, 3])
        W[0, 1] = W[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="non-finite"):
                normalized_laplacian(W)
            with pytest.raises(InputError, match="non-finite"):
                cluster(W)


def test_normalized_laplacian_rejects_negative():
    W = np.zeros((2, 2))
    W[0, 1] = W[1, 0] = -0.5
    with pytest.raises(InputError):
        normalized_laplacian(W)


def test_eigendecomposition_basics():
    ev, V = symmetric_eigendecomposition(np.eye(4))
    assert np.allclose(ev, 1.0)

    ev, V = symmetric_eigendecomposition(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(ev, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_eigendecomposition_reconstruction():
    rng = np.random.default_rng(9)
    for _ in range(6):
        raw = rng.normal(size=(8, 8))
        S = (raw + raw.T) / 2
        ev, V = symmetric_eigendecomposition(S)
        assert np.all(np.diff(ev) >= 0)
        norm_s = np.linalg.norm(S)
        assert np.linalg.norm(S - V @ np.diag(ev) @ V.T) <= 1e-8 * max(norm_s, 1.0)
        assert np.max(np.abs(V.T @ V - np.eye(8))) <= 1e-8
        for i in range(8):
            resid = np.linalg.norm(S @ V[:, i] - ev[i] * V[:, i])
            assert resid <= 1e-8 * max(1.0, abs(ev[i]))


def test_eigendecomposition_rejects_nonsymmetric():
    S = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        symmetric_eigendecomposition(S)
    # one-way entry 3 -> 0 between the pairs {0, 1} and {2, 3}: refused
    # with W, before the components are searched along its rows
    W = ideal_block_affinity([2, 2])
    W[3, 0] = 1.0
    with pytest.raises(InputError, match="not symmetric"):
        cluster(W)


def test_eigendecomposition_refuses_one_ulp_and_nan():
    # no tolerance: eigh reads one triangle, so an entry one ulp off its
    # mirror would be dropped unseen; NaN equals nothing, not even itself
    # 300 rows are three strips of the check, and the entries sit in each
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(300, 300))
    S = (raw + raw.T) / 2
    assert len(tiles(300, 300)) == 3
    symmetric_eigendecomposition(S)
    for i, j in ((290, 3), (3, 290), (150, 151)):
        off = S.copy()
        off[i, j] = np.nextafter(off[i, j], np.inf)
        with pytest.raises(InputError, match="^matrix is not symmetric$"):
            symmetric_eigendecomposition(off)
    for i, j in ((0, 0), (299, 1), (1, 299), (299, 299)):
        bad = S.copy()
        bad[i, j] = bad[j, i] = np.nan
        with pytest.raises(InputError, match="^matrix is not symmetric$"):
            symmetric_eigendecomposition(bad)


def test_eigendecomposition_refuses_infinity():
    # inf equals its mirror, so only a finiteness check sees it; unchecked,
    # eigh returns NaN eigenvalues
    for pair in ((0, 1), (0, 0)):
        S = np.eye(3)
        S[pair] = S[pair[::-1]] = np.inf
        with pytest.raises(InputError, match="^matrix has non-finite entries$"):
            symmetric_eigendecomposition(S)
    # checked one strip at a time: -inf in the last of three strips
    rng = np.random.default_rng(33)
    raw = rng.normal(size=(300, 300))
    S = (raw + raw.T) / 2
    S[299, 5] = S[5, 299] = -np.inf
    assert len(tiles(300, 300)) == 3
    with pytest.raises(InputError, match="^matrix has non-finite entries$"):
        symmetric_eigendecomposition(S)


def test_symmetry_and_finiteness_checks_make_no_square_temporary():
    # 600 rows, 55 to a strip: the check's temporaries are a strip's, far
    # below the 2.9 MB of one 600 x 600 float array
    rng = np.random.default_rng(34)
    raw = rng.normal(size=(600, 600))
    S = (raw + raw.T) / 2
    tracemalloc.start()
    try:
        spectral._check_symmetric(S, "matrix")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * S.nbytes


def test_normalized_laplacian_checks_given_degrees():
    # a triangle: deg must hold one finite, nonnegative degree per vertex
    W = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(normalized_laplacian(W, W.sum(axis=1)), normalized_laplacian(W))
    for deg, message in (
        ([2.0, 2.0], "^deg must hold 3 degrees, got shape \\(2,\\)$"),
        ([[2.0, 2.0, 2.0]], "^deg must hold 3 degrees, got shape \\(1, 3\\)$"),
        ([2.0, np.nan, 2.0], "^degrees must be finite and nonnegative$"),
        ([2.0, -2.0, 2.0], "^degrees must be finite and nonnegative$"),
        ([2.0, np.inf, 2.0], "^degrees must be finite and nonnegative$"),
    ):
        with pytest.raises(InputError, match=message):
            normalized_laplacian(W, deg)


def test_non_square_input_is_refused():
    for shape in ((2, 3), (4,), (2, 2, 2)):
        M = np.zeros(shape)
        for refuse, name in (
            (symmetric_eigendecomposition, "matrix"),
            (normalized_laplacian, "affinity"),
            (cluster, "affinity"),
        ):
            with pytest.raises(InputError) as info:
                refuse(M)
            assert str(info.value) == f"{name} must be square, got {shape}"


def test_normalized_laplacian_refuses_an_asymmetric_affinity():
    # L's symmetry rests on W's: an asymmetric W would give an asymmetric L
    W = ideal_block_affinity([3, 3])
    W[0, 4] = 0.5
    with pytest.raises(InputError, match="^affinity is not symmetric$"):
        normalized_laplacian(W)
    W = ideal_block_affinity([3, 3])
    W[2, 1] = np.nextafter(1.0, 2.0)
    with pytest.raises(InputError, match="^affinity is not symmetric$"):
        normalized_laplacian(W)


def test_components_follow_every_strip_of_the_frontier(monkeypatch):
    # strips of two rows: the first frontier {1, ..., 5} takes three, and
    # vertex 6 hangs off vertex 5 in the last one
    monkeypatch.setattr(admm, "TILE_ELEMENTS", 24)
    W = ideal_block_affinity([7, 5])
    W[:7, :7] = 0.0
    for i, j in ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)):
        W[i, j] = W[j, i] = 1.0
    components = spectral._connected_components(W)
    assert [c.tolist() for c in components] == [list(range(7)), list(range(7, 12))]
    assert cluster(W).components == 2


def test_cluster_refuses_a_one_way_entry_before_the_component_search(monkeypatch):
    def never(*_):
        raise AssertionError("component search or eigendecomposition called")

    monkeypatch.setattr(spectral, "symmetric_eigendecomposition", never)
    monkeypatch.setattr(spectral, "_connected_components", never)
    # the non-finite and negative checks still come first
    for entry, message in (
        (0.5, "affinity is not symmetric"),
        (np.inf, "affinity has non-finite entries"),
        (-0.5, "affinity has negative entries"),
    ):
        W = ideal_block_affinity([6, 6])
        W[11, 0] = entry
        with pytest.raises(InputError) as info:
            cluster(W, k_override=2)
        assert str(info.value) == message


def test_estimate_num_clusters_examples():
    assert estimate_num_clusters([0, 0, 0, 0.9, 1.0, 1.1], k_max=5) == 3
    assert estimate_num_clusters([0, 1, 1, 1], k_max=3) == 1


def test_estimate_num_clusters_tie_goes_low():
    # consecutive gaps all equal: smallest k wins
    assert estimate_num_clusters([0.0, 1.0, 2.0, 3.0], k_max=3) == 1


def test_estimate_num_clusters_scale_invariant():
    rng = np.random.default_rng(10)
    for _ in range(10):
        ev = np.sort(rng.uniform(0, 2, size=12))
        k = estimate_num_clusters(ev, k_max=8)
        assert estimate_num_clusters(ev * 17.3, k_max=8) == k


def test_estimate_num_clusters_errors():
    with pytest.raises(InputError):
        estimate_num_clusters([], k_max=1)
    with pytest.raises(InputError, match="^empty spectrum$"):
        estimate_num_clusters([], 3)
    with pytest.raises(InputError):
        estimate_num_clusters([0.0, 1.0], k_max=2)
    with pytest.raises(InputError):
        estimate_num_clusters([0.0, 1.0], k_max=0)


def test_estimate_on_ideal_blocks():
    for k in (2, 3, 5):
        W = ideal_block_affinity([6] * k)
        ev, _ = symmetric_eigendecomposition(normalized_laplacian(W))
        assert estimate_num_clusters(ev, k_max=min(len(ev) - 1, 15)) == k


def test_kmeans_separated_pairs():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels = kmeans(pts, 2)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(5, 2))
    labels = kmeans(pts, 5)
    assert sorted(labels) == [0, 1, 2, 3, 4]


def test_kmeans_recovers_blobs():
    rng = np.random.default_rng(14)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    pts = np.vstack([c + 0.2 * rng.normal(size=(10, 2)) for c in centers])
    truth = np.repeat([0, 1, 2], 10)
    labels = kmeans(pts, 3)
    assert oracles.pair_counting_agreement(labels, truth) == 1.0


def test_kmeans_ends_at_a_lloyd_fixpoint_below_the_seeds_cost():
    # each label is the nearest of the cluster means, and the within-cluster
    # cost is at most that of assigning each point to its nearest seed
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        pts = rng.normal(size=(n, int(rng.integers(1, 5))))
        k = int(rng.integers(1, n + 1))
        labels = kmeans(pts, k)
        used = np.unique(labels)
        assert np.array_equal(used, np.arange(used.size))
        centers = np.array([pts[labels == c].mean(axis=0) for c in used])
        dist2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.all(dist2[np.arange(n), labels] <= dist2.min(axis=1) + 1e-12)
        seeds = pts[oracles.pivoted_rows(pts, k)]
        seed_cost = ((pts[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2).min(axis=1).sum()
        assert dist2[np.arange(n), labels].sum() <= seed_cost + 1e-12


def test_kmeans_deterministic_and_bounds():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(12, 3))
    a = kmeans(pts, 3)
    b = kmeans(pts, 3)
    assert np.array_equal(a, b)
    with pytest.raises(InputError):
        kmeans(pts, 13)
    with pytest.raises(InputError):
        kmeans(pts, 0)
    # a non-finite point has no distance to compare
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError, match="non-finite"):
            kmeans(np.where(np.arange(12)[:, None] == 5, bad, pts), 3)
    for shape in ((12,), (2, 3, 2)):
        with pytest.raises(InputError, match="^points must be 2-d"):
            kmeans(np.zeros(shape), 1)
    # fewer distinct points than k: the seeds are equal rows, the reseated
    # centers coincide, ties go to the lower index, and clusters stay empty
    assert np.array_equal(kmeans(np.ones((6, 2)), 3), np.zeros(6))


def test_kmeans_matches_reference():
    # integer points in 1-3 dims repeat rows and directions and tie
    # distances, so pivoting meets zero residuals and Lloyd meets ties;
    # 422 of the 600 cases reseat an empty cluster at the first assignment,
    # and 129 after a mean update
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(600):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, n + 1))
        pts = np.rint(rng.normal(scale=2.0, size=(n, int(rng.integers(1, 4)))))
        rng.integers(1000)  # a retired seed's draw, so the cases stay the same
        cases.append((pts, k))
    # the first two reseat at the first assignment; in the last three, a
    # mean update empties a cluster and its reseat takes a point over
    for pts, k in (
        ([[0, 1], [0, 4], [4, 2], [5, 2], [1, 5], [0, 2], [0, 2]], 4),
        ([[0, 1], [2, 4], [5, 4], [5, 5], [0, 5], [0, 4], [2, 0], [4, 5]], 4),
        ([[5, 3], [5, 5], [0, 0], [0, 2], [2, 5], [4, 3], [5, 2], [0, 1]], 3),
        ([[2, 1], [3, 5], [0, 2], [4, 5], [2, 5], [1, 1], [1, 5]], 3),
        ([[2, 5], [1, 5], [0, 1], [1, 0], [0, 5]], 3),
        ([[2, 1], [2, 2], [5, 3], [4, 5], [4, 4]], 3),
    ):
        cases.append((np.array(pts, dtype=float), k))
    for pts, k in cases:
        assert np.array_equal(kmeans(pts, k), oracles.reference_kmeans(pts, k))


def test_labels_are_numbered_by_each_clusters_first_member():
    # the pivots order the seeds, not the points; the labels are numbered
    # by each cluster's smallest member whatever the order of the points
    assert kmeans([[1.0, 0.0], [0.0, 3.0], [1.1, 0.0]], 2).tolist() == [0, 1, 0]
    rng = np.random.default_rng(21)
    W = ideal_block_affinity([5, 7, 6])
    for _ in range(5):
        perm = rng.permutation(W.shape[0])
        labels = cluster(W[np.ix_(perm, perm)]).labels
        truth = np.repeat([0, 1, 2], [5, 7, 6])[perm]
        _, first = np.unique(truth, return_index=True)
        expected = np.empty(3, dtype=int)
        expected[truth[np.sort(first)]] = np.arange(3)
        assert np.array_equal(labels, expected[truth])


def test_cluster_three_ideal_blocks():
    W = ideal_block_affinity([8, 8, 8])
    result = cluster(W)
    assert result.estimated_k == 3
    truth = np.repeat([0, 1, 2], 8)
    assert oracles.pair_counting_agreement(result.labels, truth) == 1.0


def test_cluster_single_block():
    W = ideal_block_affinity([30])
    result = cluster(W)
    assert result.estimated_k == 1
    assert np.all(result.labels == 0)


def test_cluster_result_invariants():
    W = ideal_block_affinity([5, 7, 6])
    result = cluster(W)
    ev = result.eigenvalues
    assert np.all(np.diff(ev) >= -1e-12)
    assert ev[0] >= -1e-8 and ev[-1] <= 2.0 + 1e-8
    assert set(result.labels) == set(range(result.estimated_k))


def test_cluster_k_override(monkeypatch):
    W = ideal_block_affinity([6, 6])
    result = cluster(W, k_override=4)
    assert result.estimated_k == 4
    assert len(set(result.labels)) == 4
    # checked before any eigendecomposition, and so before the N x k
    # embedding is built: -1 would reach numpy's ValueError, and a huge k
    # a MemoryError
    def no_eigh(S):
        raise AssertionError("symmetric_eigendecomposition called")

    monkeypatch.setattr(spectral, "symmetric_eigendecomposition", no_eigh)
    for k in (0, -1, 13, 10**15):
        with pytest.raises(InputError, match="need 1 <= k <= 12"):
            cluster(W, k_override=k)


def test_cluster_rejects_empty_affinity():
    # no component gives no spectrum to take an eigengap from
    with pytest.raises(InputError, match="empty spectrum"):
        cluster(np.zeros((0, 0)))
    # a given k is checked first, against no points
    with pytest.raises(InputError, match="need 1 <= k <= 0, got k=1"):
        cluster(np.zeros((0, 0)), k_override=1)


def test_cluster_refuses_settings_before_the_component_search(monkeypatch):
    # k_max is checked with k, before the component search and any
    # eigendecomposition
    def never(*_):
        raise AssertionError("component search or eigendecomposition called")

    monkeypatch.setattr(spectral, "symmetric_eigendecomposition", never)
    monkeypatch.setattr(spectral, "_connected_components", never)
    W = ideal_block_affinity([6, 6])
    for settings, message in (
        ({"k_max": 12}, "need 1 <= k_max <= 11, got 12"),
        ({"k_max": 0}, "need 1 <= k_max <= 11, got 0"),
    ):
        with pytest.raises(InputError) as info:
            cluster(W, **settings)
        assert str(info.value) == message


def dense_cluster(W):
    """The pipeline with one eigh of the whole Laplacian, as a reference."""
    ev, V = np.linalg.eigh(normalized_laplacian(W))
    k = estimate_num_clusters(ev, check_cluster_settings(W.shape[0]))
    rows = np.linalg.norm(V[:, :k], axis=1)
    return ev, k, kmeans(V[:, :k] / np.where(rows > 0, rows, 1.0)[:, None], k)


def test_cluster_permutation_equivariant():
    # three weighted blocks and an isolated vertex, shuffled: the spectrum
    # taken block by block equals the dense one, and so do k and the partition
    rng = np.random.default_rng(17)
    W = ideal_block_affinity([4, 5, 6, 1]) * rng.uniform(0.5, 1.5, size=(16, 16))
    W = np.triu(W) + np.triu(W).T
    base = cluster(W)
    assert base.components == 4 and base.estimated_k == 4
    for _ in range(5):
        perm = rng.permutation(W.shape[0])
        Wp = W[np.ix_(perm, perm)]
        permuted = cluster(Wp)
        ev, k, labels = dense_cluster(Wp)
        assert np.max(np.abs(permuted.eigenvalues - ev)) <= 1e-12
        assert permuted.estimated_k == k == 4
        assert permuted.components == 4
        assert oracles.pair_counting_agreement(permuted.labels, labels) == 1.0
        assert oracles.pair_counting_agreement(permuted.labels, base.labels[perm]) == 1.0


def test_cluster_holds_no_dense_eigendecomposition():
    # ten blocks of 100: small blocks of L, not an N x N eigh; one block:
    # L, then eigh's N x N output (the symmetry checks and the component
    # search read W a strip of rows at a time)
    rng = np.random.default_rng(19)
    for sizes, bound in (([100] * 10, 1.5), ([1000], 2.2)):
        W = ideal_block_affinity(sizes) * rng.uniform(0.5, 1.5, size=(1000, 1000))
        W = np.triu(W) + np.triu(W).T
        tracemalloc.start()
        try:
            result = cluster(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.components == result.estimated_k == len(sizes)
        assert peak <= bound * W.nbytes


def whole_laplacian_cluster(W):
    """The split pipeline on blocks cut from the whole L, as a reference.

    The components come from the transitive closure of W != 0, ordered by
    their smallest vertex, and each block is L[np.ix_(c, c)] of the one
    N x N Laplacian.
    """
    reach = (W != 0) | np.eye(W.shape[0], dtype=bool)
    while True:
        wider = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    components = [np.flatnonzero(row) for row in np.unique(reach, axis=0)]
    components.sort(key=lambda c: c[0])
    L = normalized_laplacian(W)
    spectra = [symmetric_eigendecomposition(L[np.ix_(c, c)]) for c in components]
    eigenvalues = np.concatenate([v for v, _ in spectra])
    order = np.argsort(eigenvalues, kind="stable")
    k = estimate_num_clusters(eigenvalues[order], check_cluster_settings(W.shape[0]))
    chosen = order[:k]
    embedding = np.zeros((W.shape[0], k))
    start = 0
    for members, (_, vectors) in zip(components, spectra):
        cols = np.flatnonzero((chosen >= start) & (chosen < start + members.size))
        embedding[np.ix_(members, cols)] = vectors[:, chosen[cols] - start]
        start += members.size
    rows = np.linalg.norm(embedding, axis=1)
    labels = kmeans(embedding / np.where(rows > 0, rows, 1.0)[:, None], k)
    return eigenvalues[order], k, labels


def test_split_cluster_matches_blocks_of_the_whole_laplacian():
    # each component's Laplacian is built alone, from the degrees of W's
    # full rows, so it equals the whole L's block bit for bit; the points
    # are shuffled so that no component is a run of consecutive indices,
    # and W is given in both memory layouts
    rng = np.random.default_rng(29)
    for sizes in ([40, 35, 30, 25, 1], [60, 60, 60]):
        n = sum(sizes)
        W = ideal_block_affinity(sizes) * rng.uniform(0.01, 1.0, size=(n, n))
        W = np.triu(W) + np.triu(W).T
        perm = rng.permutation(n)
        W = W[np.ix_(perm, perm)]
        for layout in (W, np.asfortranarray(W)):
            result = cluster(layout)
            ev, k, labels = whole_laplacian_cluster(layout)
            assert result.components == len(sizes)
            assert np.array_equal(result.eigenvalues, ev)
            assert result.estimated_k == k
            assert np.array_equal(result.labels, labels)


def test_build_affinity_equals_the_symmetric_sum():
    # the in-place sum, strip by strip (300 points take three strips, the
    # last one shorter), against |C~| + |C~|^T on the whole array, bit for bit,
    # for a C- and a Fortran-ordered C; W takes C's memory and is C-ordered
    # either way
    rng = np.random.default_rng(31)
    C = rng.normal(size=(300, 300)) * (rng.uniform(size=(300, 300)) < 0.2)
    np.fill_diagonal(C, 0.0)
    C[:, 7] = 0.0  # a zero column passes through
    cuts = tiles(300, 300)
    assert len(cuts) >= 3 and cuts[-1].stop - cuts[-1].start < cuts[0].stop
    scaled = np.abs(C)
    peaks = scaled.max(axis=0)
    scaled /= np.where(peaks > 0, peaks, 1.0)
    want = scaled + scaled.T
    for layout in (C.copy(), np.asfortranarray(C)):
        W = build_affinity(layout)
        assert W.flags.c_contiguous
        assert np.shares_memory(W, layout)
        assert np.array_equal(W, want)


def test_build_affinity_refuses_what_it_would_copy():
    # a strided view, an integer or a read-only array cannot hold W:
    # refused, not copied
    C = np.zeros((6, 6))
    C[0, 1] = C[1, 0] = 1.0
    frozen = C.copy()
    frozen.flags.writeable = False
    for bad in (C[::2, ::2], C.astype(int), frozen):
        with pytest.raises(InputError):
            build_affinity(bad)
    assert C[0, 1] == 1.0


def test_zero_eigenvalues_count_components_up_to_30():
    # unions of complete blocks plus isolated vertices, N up to 30
    rng = np.random.default_rng(18)
    for _ in range(8):
        sizes = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(2, 7)))]
        n = sum(sizes)
        if n > 30:
            continue
        W = ideal_block_affinity(sizes)
        ev, _ = symmetric_eigendecomposition(normalized_laplacian(W))
        assert np.sum(ev < 1e-8) == len(sizes)
