"""Acceptance suite. One test per advertised guarantee; each prints a single
ACCEPTANCE <name>: PASS/FAIL line with the measured numbers. Shared solves are
cached so the whole suite stays fast."""

import time
import tracemalloc

import numpy as np

import oracles
from ssclust import (
    SolverConfig,
    build_affinity,
    cluster,
    compare_partitions,
    gaussian_matrix,
    jl_distortion,
    load_frame,
    normalized_laplacian,
    project,
    solve_ssc,
    symmetric_eigendecomposition,
    synth_union_of_subspaces,
)
from ssclust.admm import (
    FactorizationCache,
    objective_value,
    update_a,
    update_c,
)
from ssclust.cli import main
from ssclust.data import export_heatmap


def _verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


_SHARED = {}


def _reference_run():
    """Three-subspace dataset used by several criteria; solved once."""
    if "k3" not in _SHARED:
        data = synth_union_of_subspaces(3, 2, 50, 8, noise_sigma=0.0, seed=7)
        cfg = SolverConfig(tol_primal=1e-4, tol_change=1e-4)
        start = time.perf_counter()
        C, report = solve_ssc(data.Y, cfg)
        elapsed = time.perf_counter() - start
        _SHARED["k3"] = (data, C, report, elapsed)
    return _SHARED["k3"]


def _pipeline_labels(Y):
    C, _ = solve_ssc(Y, SolverConfig(tol_primal=1e-4, tol_change=1e-4))
    return cluster(build_affinity(C))


def test_admm_objective_vs_oracle():
    # against exhaustive support enumeration the solver must land on the
    # global optimum; instances small enough that supports of size <= 3
    # cover the true solution
    rng = np.random.default_rng(4)
    mu = 2.0
    cfg = SolverConfig(mu=mu, rho=mu, tol_primal=1e-7, tol_change=1e-8, max_iter=3000)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(20):
        n = int(rng.integers(4, 6))
        d = int(rng.integers(3, 7))
        Y = rng.standard_normal((d, n))
        Y /= np.linalg.norm(Y, axis=0)
        C, _ = solve_ssc(Y, cfg)
        got = objective_value(Y, C, mu)
        want = oracles.penalized_objective_oracle(Y, mu, max_support=3)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict(
        "admm-objective-vs-oracle",
        ok,
        f"max |objective - oracle| = {worst:.2e} over 20 instances, {elapsed:.2f} s",
    )


def test_a_update_stationarity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 7))
        Y = rng.standard_normal((d, n))
        C = rng.standard_normal((n, n))
        np.fill_diagonal(C, 0.0)
        delta = rng.standard_normal(n)
        Delta = rng.standard_normal((n, n))
        mu, rho = 4.0, 3.0
        cache = FactorizationCache(Y, mu, rho)
        St = (C - Delta / rho).T
        A = update_a(St, cache.thin_product(St, delta / rho), cache.Lt).T
        grad = oracles.fd_gradient_wrt_a(Y, A, C, delta, Delta, mu, rho)
        worst = max(worst, float(np.abs(grad).max()))
    ok = worst <= 1e-6
    _verdict(
        "a-update-stationarity",
        ok,
        f"max finite-difference gradient = {worst:.2e} over 10 instances",
    )


def test_feasibility_at_convergence():
    _, _, report, elapsed = _reference_run()
    ok = (
        report.converged
        and report.iterations <= 5000
        and report.r_affine <= 1e-4
        and report.r_split <= 1e-4
        and elapsed < 30.0
    )
    _verdict(
        "feasibility-at-convergence",
        ok,
        f"converged={report.converged} after {report.iterations} iterations, "
        f"r1={report.r_affine:.2e}, r2={report.r_split:.2e}, {elapsed:.2f} s",
    )


def test_three_block_structure():
    data, C, _, _ = _reference_run()
    W = build_affinity(C.copy())  # the shared C stays for the other tests
    mass = oracles.block_mass_fraction(W, [8, 8, 8])
    result = cluster(W)
    agreement = compare_partitions(result.labels, data.labels)
    ok = mass >= 0.9 and result.estimated_k == 3 and agreement == 1.0
    _verdict(
        "three-block-structure",
        ok,
        f"block mass = {mass:.3f}, estimated_k = {result.estimated_k}, "
        f"agreement = {agreement:.3f}",
    )


def test_single_subspace_collapses_to_one_cluster():
    data = synth_union_of_subspaces(1, 4, 50, 30, noise_sigma=0.0, seed=0)
    result = _pipeline_labels(data.Y)
    ok = result.estimated_k == 1
    _verdict(
        "single-subspace-k1",
        ok,
        f"estimated_k = {result.estimated_k} on 30 points from one subspace",
    )


def test_five_subspace_recovery():
    data = synth_union_of_subspaces(5, 3, 100, 20, noise_sigma=0.0, seed=0)
    result = _pipeline_labels(data.Y)
    agreement = compare_partitions(result.labels, data.labels)
    ok = result.estimated_k == 5 and agreement >= 0.99
    _verdict(
        "five-subspace-recovery",
        ok,
        f"estimated_k = {result.estimated_k}, agreement = {agreement:.3f} "
        f"on 100 points from 5 subspaces",
    )


def test_projection_preserves_partition():
    data, C, _, _ = _reference_run()
    base = cluster(build_affinity(C.copy()))
    worst_distortion = 0.0
    worst_agreement = 1.0
    for m in (25, 50):
        for seed in range(5):
            G = gaussian_matrix(m, data.Y.shape[0], seed)
            Yp = project(G, data.Y)
            rep = jl_distortion(data.Y, Yp)
            worst_distortion = max(
                worst_distortion, rep.max_expansion, rep.max_contraction
            )
            projected = _pipeline_labels(Yp)
            worst_agreement = min(
                worst_agreement, compare_partitions(base.labels, projected.labels)
            )
    ok = worst_agreement >= 0.99 and worst_distortion <= 0.5
    _verdict(
        "projection-preserves-partition",
        ok,
        f"min agreement = {worst_agreement:.3f}, max distortion = "
        f"{worst_distortion:.3f} over m in (25, 50) x 5 seeds",
    )


def test_projection_shapes_and_speed():
    data = synth_union_of_subspaces(3, 2, 20736, 8, noise_sigma=0.0, seed=7)
    assert data.Y.shape == (20736, 24)
    G = gaussian_matrix(1000, 20736, 0)
    assert G.values.shape == (1000, 20736)
    Yp = project(G, data.Y)
    shapes_ok = Yp.shape == (1000, 24)

    # fixed iteration budget isolates the per-solve cost; tolerances set
    # low enough that no run stops early
    cfg = SolverConfig(tol_primal=1e-12, tol_change=1e-13, max_iter=30)

    def best_of(Y, repeats=9):
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            solve_ssc(Y, cfg)
            best = min(best, time.perf_counter() - start)
        return best

    ratio = np.inf
    for _ in range(2):  # one retry absorbs a noisy first measurement
        t_full = best_of(data.Y)
        t_proj = best_of(Yp)
        ratio = min(ratio, t_proj / t_full)
        if ratio < 1.0:
            break
    ok = shapes_ok and ratio < 1.0
    _verdict(
        "projection-shapes-and-speed",
        ok,
        f"sketch shape = {Yp.shape}, projected/full solve time ratio = {ratio:.2f}",
    )


def test_invariant_suite(tmp_path):
    rng = np.random.default_rng(123)
    ok = True
    notes = []

    # soft threshold: the C-update shrinks the off-diagonal entries toward
    # zero by exactly its level 1/rho, never past it
    off = ~np.eye(6, dtype=bool)
    for _ in range(20):
        M = rng.standard_normal((6, 6)) * rng.uniform(0.1, 5.0)
        rho = 1.0 / float(rng.uniform(0.01, 2.0))
        _, out = update_c(M, rho)
        want = np.sign(M) * np.maximum(np.abs(M) - 1.0 / rho, 0.0)
        ok &= bool(np.array_equal(out[off], want[off]))
    notes.append("soft-threshold")

    # diagonal purity: every solve returns an exactly zero diagonal
    for seed in range(3):
        g = np.random.default_rng(seed)
        Y = g.standard_normal((6, 10))
        Y /= np.linalg.norm(Y, axis=0)
        C, _ = solve_ssc(Y, SolverConfig(max_iter=200, tol_change=1e-3))
        ok &= bool(np.all(np.diag(C) == 0.0))
    notes.append("diagonal-purity")

    # affinity symmetry and nonnegativity
    for _ in range(10):
        C = rng.standard_normal((12, 12))
        np.fill_diagonal(C, 0.0)
        W = build_affinity(C)
        ok &= bool(np.array_equal(W, W.T)) and bool(np.all(W >= 0.0))
    notes.append("affinity-symmetry")

    # zero eigenvalues of the normalized Laplacian count graph components
    for sizes in [(5,), (3, 4), (2, 3, 5), (8, 7, 6, 9)]:
        n = sum(sizes)
        W = np.zeros((n, n))
        stop = 0
        for size in sizes:
            start_i = stop
            stop = start_i + size
            W[start_i:stop, start_i:stop] = 1.0
        np.fill_diagonal(W, 0.0)
        ev, _ = symmetric_eigendecomposition(normalized_laplacian(W))
        ok &= int((ev < 1e-8).sum()) == len(sizes)
    notes.append("laplacian-components")

    # eigendecomposition residual on a dense symmetric matrix
    S = rng.standard_normal((30, 30))
    S = (S + S.T) / 2.0
    ev, V = symmetric_eigendecomposition(S)
    resid = float(np.abs(S @ V - V * ev[None, :]).max())
    ortho = float(np.abs(V.T @ V - np.eye(30)).max())
    ok &= resid <= 1e-8 and ortho <= 1e-8
    notes.append(f"eigh-residual={resid:.1e}")

    # PGM round trip: 8-bit data written as a heatmap reloads exactly
    pixels = rng.integers(0, 256, size=(9, 7))
    pixels[0, 0] = 255  # pin the peak so quantization is the identity
    path = tmp_path / "roundtrip.pgm"
    export_heatmap(pixels / 255.0, str(path))
    width, height, values = load_frame(str(path))
    ok &= (width, height) == (7, 9)
    ok &= bool(np.array_equal(values.reshape(9, 7), pixels / 255.0))
    notes.append("pgm-roundtrip")

    # full-run determinism through the command-line pipeline
    args = ["--synth", "2,2,20,5,0.0,3", "--max-iter", "300", "--tol-change", "1e-3"]
    payloads = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        code = main(
            args
            + [
                "--out-labels", str(d / "labels.csv"),
                "--out-w", str(d / "w.pgm"),
                "--out-conv", str(d / "conv.csv"),
            ]
        )
        ok &= code == 0
        payloads.append(
            b"".join((d / name).read_bytes() for name in ("labels.csv", "w.pgm", "conv.csv"))
        )
    ok &= payloads[0] == payloads[1]
    notes.append("run-determinism")

    _verdict("invariant-suite", bool(ok), ", ".join(notes))


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_stage_memory_budgets(tmp_path):
    # the bench's N = 1000 input at 50 iterations, whose affinity has ten
    # components; peaks in units of one N x N float array.  The solve holds
    # J^T = (A + U)^T and takes its default mu's Gram matrix a tile at a
    # time; the C heatmap is written before the affinity is summed in C's
    # own memory; the Laplacian is built one component at a time; the
    # heatmaps are quantized a block of rows at a time.
    Y = synth_union_of_subspaces(10, 5, 200, 100, 0.0, 0).Y
    cfg = SolverConfig(max_iter=50, tol_primal=1e-300, tol_change=1e-300)
    unit = Y.shape[1] ** 2 * 8
    (C, _), solve = _traced_peak(solve_ssc, Y, cfg)
    export_c = _traced_peak(export_heatmap, C, str(tmp_path / "c.pgm"))[1]
    W, affinity = _traced_peak(build_affinity, C)
    assert np.shares_memory(W, C)
    result, spectral = _traced_peak(cluster, W)
    assert result.components == 10
    export_w = _traced_peak(export_heatmap, W, str(tmp_path / "w.pgm"))[1]
    peaks = [solve, affinity, spectral, max(export_c, export_w)]
    peaks = [peak / unit for peak in peaks]
    ok = all(peak <= bound for peak, bound in zip(peaks, (1.6, 0.2, 0.5, 0.25)))
    _verdict(
        "stage-memory-budgets",
        ok,
        "peaks / (N^2 * 8 B): solve {:.2f}, affinity {:.2f}, cluster {:.2f}, "
        "export {:.2f}".format(*peaks),
    )


def test_run_memory_budget(tmp_path):
    # the whole run on the same input, every output asked for: C is written
    # before W is built in its memory, so no stage past the solve holds a
    # second N x N array
    outputs = [
        "--out-labels", str(tmp_path / "labels.csv"),
        "--out-w", str(tmp_path / "w.pgm"),
        "--out-c", str(tmp_path / "c.pgm"),
        "--out-conv", str(tmp_path / "conv.csv"),
        "--out-meta", str(tmp_path / "run.txt"),
    ]
    argv = [
        "--synth", "10,5,200,100,0.0,0",
        "--max-iter", "50",
        "--tol-primal", "1e-300",
        "--tol-change", "1e-300",
    ]
    code, peak = _traced_peak(main, argv + outputs)
    peak /= 1000**2 * 8
    _verdict(
        "run-memory-budget",
        code == 0 and peak <= 1.8,
        f"exit code {code}, cli.main peak / (N^2 * 8 B) = {peak:.2f}",
    )
