"""Sketching tests: generator statistics, determinism, shapes, the
row-block streaming of the sketch, and the distance-distortion report,
whose pairwise distances are checked against scipy's `pdist`."""

import tracemalloc

import numpy as np
import pytest

from ssclust import (
    InputError,
    SolverConfig,
    build_affinity,
    cluster,
    compare_partitions,
    gaussian_matrix,
    jl_distortion,
    project,
    solve_ssc,
    synth_union_of_subspaces,
)
from ssclust.projection import BLOCK_ROWS, column_distances


@pytest.fixture(scope="module")
def tall_data():
    # the shape of the command line's frame data: 144 x 144 pixels, 64 frames
    return np.random.default_rng(11).normal(size=(20736, 64))


def test_gaussian_matrix_tall_sketch_shape():
    G = gaussian_matrix(1000, 20736, 3)
    assert G.values.shape == (1000, 20736)
    assert G.seed == 3


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(40, 90, 12)
    b = gaussian_matrix(40, 90, 12)
    assert np.array_equal(a.values, b.values)
    c = gaussian_matrix(40, 90, 13)
    assert not np.array_equal(a.values, c.values)


def test_gaussian_matrix_bounds():
    with pytest.raises(InputError):
        gaussian_matrix(0, 10, 0)
    with pytest.raises(InputError):
        gaussian_matrix(11, 10, 0)
    # m = D is allowed
    assert gaussian_matrix(4, 4, 0).values.shape == (4, 4)


def test_gaussian_matrix_statistics():
    m, D = 200, 400
    G = gaussian_matrix(m, D, 7).values
    # mean of m*D entries with std 1/sqrt(m): three standard errors
    assert abs(G.mean()) <= 3.0 / np.sqrt(m * D * m)
    assert abs(G.var() - 1.0 / m) <= 0.1 / m


def test_project_shapes_and_hand_case():
    rng = np.random.default_rng(1)
    Y = rng.normal(size=(20736, 24))
    G = gaussian_matrix(1000, 20736, 0)
    assert project(G, Y).shape == (1000, 24)

    # the identity gives back the sketch itself, across block boundaries
    G2 = gaussian_matrix(2 * BLOCK_ROWS + 1, 300, 4)
    assert np.array_equal(project(G2, np.eye(300)), G2.values)
    # zero data projects to exact zeros
    assert np.array_equal(project(G2, np.zeros((300, 3))), np.zeros((G2.m, 3)))


def test_blocks_tile_the_sketch_without_one_row_tails():
    for m in (1, 2, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2, 2 * BLOCK_ROWS + 1):
        G = gaussian_matrix(m, 200, 9)
        blocks = list(G.blocks())
        starts = [start for start, _ in blocks]
        sizes = [block.shape[0] for _, block in blocks]
        assert starts == list(np.cumsum([0] + sizes[:-1]))
        assert sum(sizes) == m
        assert m == 1 or min(sizes) >= 2
        assert np.array_equal(np.vstack([block for _, block in blocks]), G.values)


@pytest.mark.parametrize(
    "m",
    [1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 1000],
)
def test_project_streamed_equals_dense_product(tall_data, m):
    G = gaussian_matrix(m, tall_data.shape[0], m)
    assert np.array_equal(project(G, tall_data), G.values @ tall_data)


def test_project_never_holds_the_whole_sketch(tall_data):
    m, D = 1000, tall_data.shape[0]
    tracemalloc.start()
    try:
        out = project(gaussian_matrix(m, D, 0), tall_data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (m, tall_data.shape[1])
    assert peak < m * D * 8 / 4


def test_project_dimension_mismatch():
    G = gaussian_matrix(2, 6, 0)
    with pytest.raises(InputError):
        project(G, np.ones((5, 3)))


def test_project_is_linear():
    rng = np.random.default_rng(2)
    G = gaussian_matrix(8, 30, 5)
    for _ in range(10):
        Y1 = rng.normal(size=(30, 4))
        Y2 = rng.normal(size=(30, 4))
        a, b = rng.normal(size=2)
        left = project(G, a * Y1 + b * Y2)
        right = a * project(G, Y1) + b * project(G, Y2)
        scale = max(np.abs(left).max(), 1.0)
        assert np.max(np.abs(left - right)) <= 1e-10 * scale


def test_jl_distortion_identity_and_scaling():
    rng = np.random.default_rng(3)
    Y = rng.normal(size=(6, 5))
    rep = jl_distortion(Y, Y)
    assert rep.max_expansion == 0.0
    assert rep.max_contraction == 0.0
    assert rep.pair_count == 10

    rep2 = jl_distortion(Y, 2.0 * Y)
    assert rep2.max_expansion == pytest.approx(1.0)
    assert rep2.max_contraction == 0.0


def test_jl_distortion_skips_duplicate_columns():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(6, 4))
    Y = np.column_stack([base, base[:, 0]])  # duplicate pair (0, 4)
    rep = jl_distortion(Y, 0.5 * Y)
    assert rep.pair_count == 10
    assert rep.skipped_pairs == 1
    assert rep.max_contraction == pytest.approx(0.5)


@pytest.mark.parametrize("D, N", [(1, 2), (3, 3), (3, 7), (40, 25), (500, 60)])
def test_column_distances_match_pdist(D, N):
    from scipy.spatial.distance import pdist

    rng = np.random.default_rng(D * N)
    Y = rng.normal(size=(D, N))
    Y[:, -1] = Y[:, 0]  # duplicate columns, adjacent and not
    if N > 3:
        Y[:, 2] = Y[:, 1]
    got = column_distances(Y)
    expected = pdist(Y.T)
    assert got.shape == expected.shape
    assert np.allclose(got, expected, rtol=1e-13, atol=0)
    assert np.array_equal(got == 0, expected == 0)
    assert np.count_nonzero(got == 0) == (2 if N > 3 else 1)


def test_jl_distortion_input_errors():
    Y = np.ones((3, 4))
    with pytest.raises(InputError):
        jl_distortion(Y, np.ones((2, 3)))
    with pytest.raises(InputError):
        jl_distortion(np.ones((3, 1)), np.ones((2, 1)))


def test_jl_distortion_budget_at_desk_scale():
    # frozen seeds; validated to sit well under the 0.5 budget
    rng = np.random.default_rng(42)
    Y = rng.standard_normal((2000, 20))
    for seed in range(5):
        G = gaussian_matrix(100, 2000, seed)
        rep = jl_distortion(Y, project(G, Y))
        assert rep.max_expansion <= 0.5
        assert rep.max_contraction <= 0.5


def test_projected_pipeline_keeps_labels():
    # sketching should not change which points cluster together
    ds = synth_union_of_subspaces(3, 2, 50, 8, 0.0, 7)
    cfg = SolverConfig(tol_primal=1e-4, tol_change=1e-4)
    C, _ = solve_ssc(ds.Y, cfg)
    base = cluster(build_affinity(C))
    G = gaussian_matrix(25, 50, 0)
    Cp, _ = solve_ssc(project(G, ds.Y), cfg)
    proj = cluster(build_affinity(Cp))
    assert compare_partitions(base.labels, proj.labels) == 1.0
