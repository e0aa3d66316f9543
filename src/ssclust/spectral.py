"""Affinity construction and spectral clustering with eigengap model selection.

The coefficient matrix is turned into a symmetric nonnegative affinity
W = |C~| + |C~|^T (columns of C scaled to unit max magnitude first), the
symmetric normalized Laplacian of W is eigendecomposed, the cluster count
is chosen at the largest gap between consecutive ascending eigenvalues,
and the points are clustered by k-means on the row-normalized embedding.
The normalized rows cluster by direction, so the k-means seeds are picked
by a greedy pivoted QR of the rows, one row per direction (Zha, He, Ding,
Simon & Gu 2001; Damle, Minden & Ying 2019): the clustering is one
deterministic run, with no random draw.

The Laplacian is eigendecomposed one connected component of W at a time.
This is exact: L has no entry between two components, so after a
permutation it is block diagonal, and its spectrum is the union of the
blocks' spectra, with each block's eigenvectors extended by zeros
(von Luxburg 2007, "A tutorial on spectral clustering", Prop. 4).  A
subspace-preserving C gives one component per subspace, so the work falls
from one N x N eigh to one per subspace; a connected graph is the case of
one block.  Each component contributes one zero eigenvalue, so a k below
the component count cannot follow the spectrum: the embedding then takes
the null vectors of the blocks whose rounded zero eigenvalues sort first.
"""

from dataclasses import dataclass

import numpy as np

from .admm import as_float, tiles
from .errors import InputError

AFFINITY_FORMULA = "colmax-abs-symmetrize"
LLOYD_MAX_ITER = 300


@dataclass
class SpectralResult:
    """Spectrum, estimated cluster count, and labels."""

    eigenvalues: np.ndarray
    estimated_k: int
    labels: np.ndarray
    components: int  # connected components of the affinity graph


def build_affinity(C):
    """Symmetric nonnegative affinity from a zero-diagonal coefficient matrix.

    Each column is scaled by the reciprocal of its max-abs entry (zero
    columns pass through), then W = |C~| + |C~|^T.  W is built in C's own
    memory and dtype, so C is lost and the call holds no N x N array
    besides it; a caller that needs C afterwards passes a copy.  C must be
    a writable float32 or float64 array, C- or Fortran-contiguous, and is
    refused otherwise rather than copied.  A float32 C, as the command
    line's solve returns, gives a float32 W, scaled and summed in float32,
    at half the memory.  A Fortran-ordered C, as `solve_ssc` returns, is the
    transposed view of the C-ordered C^T: |C~|^T is formed there, its row
    peaks being C's column peaks.  The sum is taken one strip of
    `tiles(N, N)` rows and the matching columns at a time: W_ij = W_ji =
    |C~|_ij + |C~|_ji is the same IEEE sum as |C~| + |C~|^T, and the strip
    sum of |C~|^T is W itself, since W = W^T.  So W equals the whole-array
    sum bit for bit, and is C-ordered whatever C's layout: its row sums,
    the Laplacian's degrees, round the same for a C from `solve_ssc` as
    for a C-ordered copy of it.
    """
    given, C = C, as_float(C)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InputError(f"coefficient matrix must be square, got {C.shape}")
    if np.abs(np.diag(C)).max(initial=0.0) != 0.0:
        raise InputError("coefficient matrix must have zero diagonal")
    if C is not given or not C.flags.writeable:
        raise InputError("W is built in C's memory: C must be a writable float array")
    if C.flags.c_contiguous:
        scaled, axis = C, 0
    elif C.flags.f_contiguous:
        scaled, axis = C.T, 1
    else:
        raise InputError("W is built in C's memory: C must be contiguous")
    np.abs(scaled, out=scaled)
    peaks = scaled.max(axis=axis, keepdims=True)
    scaled /= np.where(peaks > 0, peaks, 1.0)
    n = C.shape[0]
    for b in tiles(n, n):
        strip = scaled[b, b.start :] + scaled[b.start :, b].T
        scaled[b, b.start :] = strip
        scaled[b.start :, b] = strip.T
    return scaled


def _check_symmetric(S, name):
    """S, refused unless square, exactly symmetric and finite.

    The Laplacian and `eigh` are defined for a symmetric matrix only, and
    `build_affinity` makes W symmetric bit for bit, so no tolerance is
    taken: a caller symmetrizes with (S + S^T) / 2, which is exact.  Each
    strip of `tiles(N, N)` rows is compared with the matching columns, so
    no N x N temporary is made, and a NaN, equal to nothing, is refused
    as not symmetric.  A symmetric strip is then checked for +-inf, which
    equals itself but leaves `eigh` with NaN eigenvalues.
    """
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InputError(f"{name} must be square, got {S.shape}")
    for b in tiles(*S.shape):
        if not np.array_equal(S[b], S[:, b].T):
            raise InputError(f"{name} is not symmetric")
        if not np.isfinite(S[b]).all():
            raise InputError(f"{name} has non-finite entries")
    return S


def _check_affinity(W):
    """W, refused unless square, finite, nonnegative and exactly symmetric.

    A float32 W is taken as it is, anything else as float64 (`as_float`),
    so a float32 W costs no float64 copy.  Finiteness is checked one strip
    of `tiles(N, N)` rows at a time, so no N x N temporary is made, and
    before the sign and the symmetry: an inf is refused as non-finite.
    """
    W = as_float(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise InputError(f"affinity must be square, got {W.shape}")
    if not all(np.isfinite(W[b]).all() for b in tiles(*W.shape)):
        raise InputError("affinity has non-finite entries")
    if W.min(initial=0.0) < 0:
        raise InputError("affinity has negative entries")
    return _check_symmetric(W, "affinity")


def normalized_laplacian(W, deg=None):
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2} of symmetric W.

    W must be finite, nonnegative and exactly symmetric (`_check_affinity`).
    Degree-zero vertices get an all-zero row and column (diagonal
    included), so each isolated vertex contributes one zero eigenvalue.
    Entry (i, j) is (-s_i s_j) W_ij with s = D^{-1/2}, so the exactly
    symmetric W gives an exactly symmetric L.  L is float64 whatever W's
    dtype: a float32 W is read by `L *= W` and summed into its degrees in
    float64, with no float64 copy of W.  It gives the L of W.astype(float)
    bit for bit while a row fits numpy's 8192-entry cast buffer; a longer
    row is summed a buffer at a time, and its degree may differ in the
    last bits.

    `deg`, when given, holds the degrees of W's vertices in a larger
    affinity of which W is the block of whole connected components: their
    rows there hold nothing outside W, so the degrees have the same value,
    but summed over the full rows they round as they do for the larger
    affinity's own Laplacian, and the result equals its block bit for bit.
    It must hold one finite, nonnegative degree per vertex of W.
    """
    W = _check_affinity(W)
    if deg is None:
        deg = W.sum(axis=1, dtype=float)
    else:
        deg = np.asarray(deg, dtype=float)
        if deg.shape != W.shape[:1]:
            raise InputError(f"deg must hold {W.shape[0]} degrees, got shape {deg.shape}")
        if not (np.isfinite(deg).all() and deg.min(initial=0.0) >= 0):
            raise InputError("degrees must be finite and nonnegative")
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    L = np.outer(-inv_sqrt, inv_sqrt)
    L *= W
    np.fill_diagonal(L, np.where(deg > 0, 1.0, 0.0))
    return L


def symmetric_eigendecomposition(S):
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric S.

    S must be square, exactly symmetric and finite (`_check_symmetric`);
    one that is not, by a single ulp, a NaN or an inf, is refused rather
    than handed to `eigh`, which reads one triangle only and returns NaN
    eigenvalues for an inf.
    """
    S = _check_symmetric(np.asarray(S, dtype=float), "matrix")
    eigenvalues, eigenvectors = np.linalg.eigh(S)
    return eigenvalues, eigenvectors


def estimate_num_clusters(eigenvalues, k_max):
    """Index of the largest gap between consecutive ascending eigenvalues.

    Returns the k in [1, k_max] maximizing eigenvalues[k] - eigenvalues[k-1]
    (0-based), ties broken toward smaller k.  k_max is checked, and
    defaulted when None, by `check_cluster_settings`.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    k_max = check_cluster_settings(eigenvalues.size, k_max=k_max)
    gaps = eigenvalues[1 : k_max + 1] - eigenvalues[:k_max]
    return int(np.argmax(gaps)) + 1


def check_cluster_settings(n, k=None, k_max=None):
    """Refuse a cluster count the clustering of n points cannot use; return k_max.

    A given k must lie in [1, n], and then k_max is neither used nor
    checked.  Without k, n = 0 leaves no spectrum to take an eigengap
    from, and k_max, which defaults to min(n - 1, 15), must lie in
    [1, n - 1].  Returns k_max, the default when none is given.
    """
    k_max = min(n - 1, 15) if k_max is None else k_max
    if k is not None:
        if not 1 <= k <= n:
            raise InputError(f"need 1 <= k <= {n}, got k={k}")
    elif n == 0:
        raise InputError("empty spectrum")
    elif not 1 <= k_max <= n - 1:
        raise InputError(f"need 1 <= k_max <= {n - 1}, got {k_max}")
    return k_max


def kmeans(points, k):
    """Lloyd's k-means from seeds picked by a greedy pivoted QR of the rows.

    The seeds are k rows picked with no randomness (Zha, He, Ding, Simon &
    Gu 2001, "Spectral relaxation for K-means clustering"; Damle, Minden &
    Ying 2019, "Simple, direct and efficient multi-way spectral
    clustering").  A residual copy of the points is kept; each of the k
    steps takes the row of largest residual norm (the first on ties) and,
    when that norm is above 0, projects its direction out of every row.
    The seeds are the original rows at the pivots: one per direction, so
    the seeding suits points that cluster by direction, as the
    row-normalized spectral embedding does.  Points with fewer than k
    independent directions leave only rounding (or zero, and then the
    first row) for the remaining pivots, so seeds can repeat a direction
    or a row; the reseat below handles the clusters they leave empty.

    Lloyd's method then runs from the seeds until the assignment reaches a
    fixpoint (at most 300 iterations).  An empty cluster's center is
    reseated at the point farthest from its own center, and the points are
    assigned again.  That fills the cluster unless the points have fewer
    than k distinct rows: then a reseated center can coincide with
    another, ties go to the lower cluster index, and clusters can stay
    empty (six equal points and k = 3 give six labels 0).  The clusters
    are numbered in the order of their smallest member, so the labels
    depend only on the partition.  The pivot arithmetic, like the
    distances, is elementwise numpy with no BLAS call, so the same points
    get the same labels at any BLAS thread count.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InputError(f"points must be 2-d, got shape {points.shape}")
    check_cluster_settings(points.shape[0], k)
    if not np.isfinite(points).all():
        raise InputError("points have non-finite entries")

    n = points.shape[0]
    residual = points.copy()
    pivots = []
    for _ in range(k):
        norms = np.sum(residual * residual, axis=1)
        pivot = int(norms.argmax())
        pivots.append(pivot)
        if norms[pivot] > 0:
            direction = residual[pivot] / np.sqrt(norms[pivot])
            residual -= np.sum(residual * direction, axis=1)[:, None] * direction
    centers = points[pivots]
    dist2 = _sq_distances(points, centers)  # of each point to each center
    labels = np.full(n, -1)
    for _ in range(LLOYD_MAX_ITER):
        new_labels = dist2.argmin(axis=1)
        # reseat empty clusters at the worst-served point
        for c in range(k):
            if not (new_labels == c).any():
                far = int(dist2[np.arange(n), new_labels].argmax())
                centers[c] = points[far]
                dist2[:, c] = _sq_distances(points, centers[c : c + 1])[:, 0]
                new_labels = dist2.argmin(axis=1)
        if (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        dist2 = _sq_distances(points, centers)
    # number the clusters in the order of their smallest member
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _sq_distances(points, centers):
    """The N x k squared distances of the points to each center.

    One center at a time, so the temporaries are N x d, each row summed
    along its d entries as the broadcast N x k x d difference is.
    """
    return np.column_stack([np.square(points - c).sum(axis=1) for c in centers])


def _connected_components(W):
    """Vertex indices of each connected component of W's nonzero pattern.

    Breadth-first search, one frontier of vertices at a time, following
    the nonzeros of the frontier's rows of W: W is exactly symmetric
    (`_check_affinity`), so the rows hold every edge.  The rows are read
    one strip of `tiles` at a time, so no N x N temporary is made.  The
    components come in the order of their smallest vertex, each ascending.
    """
    unseen = np.ones(W.shape[0], dtype=bool)
    components = []
    for start in range(unseen.size):
        if unseen[start]:
            unseen[start] = False
            reached = frontier = np.array([start])
            while frontier.size:
                touched = np.zeros_like(unseen)
                for b in tiles(frontier.size, unseen.size):
                    touched |= (W[frontier[b]] != 0).any(axis=0)
                frontier = np.flatnonzero(touched & unseen)
                unseen[frontier] = False
                reached = np.concatenate([reached, frontier])
            components.append(np.sort(reached))
    return components


def cluster(W, k_override=None, k_max=None):
    """Full spectral pipeline: Laplacian, eigengap, embedding, k-means.

    W is checked first, by `_check_affinity`: finite, nonnegative, and
    exactly symmetric, so that its rows hold every edge; then k and k_max,
    by `check_cluster_settings`.  An input either check refuses costs no
    component search and no eigendecomposition.  The connected components
    of W's nonzero pattern are found next, along W's rows, and L is
    eigendecomposed one component at a time.  A connected W builds L whole
    and passes it uncopied.  A split W builds each component's block of L
    alone, from the degrees of W's full rows, so each block equals the
    same rows and columns of the whole L bit for bit, and no N x N array
    besides W is held.  W may be float32, as the command line's is, or
    float64; L and the degrees are float64 either way, and a float32 W is
    read with no float64 copy of it (see `normalized_laplacian`).  The
    split is exact, because L has no entry between components: each
    block's eigenpairs are eigenpairs of L once the eigenvectors are
    extended by zeros.  The blocks' eigenvalues are stable-sorted into the
    ascending spectrum, and the embedding takes the eigenvectors of the k
    smallest, zero outside their blocks.  When k is below the number of
    components, more eigenvectors than k belong to the zero eigenvalue:
    the embedding takes those of the blocks whose rounded zero eigenvalues
    sort first (exact ties in component order), and the points of the
    other components sit at the origin.

    Parameters
    ----------
    W : array, shape (N, N)
        Finite, nonnegative, exactly symmetric affinity with zero
        diagonal, float32 or float64 (another dtype is read as float64);
        symmetrize a nearly symmetric S as (S + S.T) / 2.
    k_override : int, optional
        Fixed cluster count; skips eigengap estimation when given.
    k_max : int, optional
        Largest candidate cluster count; defaults to min(N - 1, 15).

    Returns
    -------
    SpectralResult with the ascending Laplacian spectrum, the cluster
    count actually used, one label per point, and the number of connected
    components of W.
    """
    W = _check_affinity(W)
    n = W.shape[0]
    k = None if k_override is None else int(k_override)
    # before the component search and any eigendecomposition
    k_max = check_cluster_settings(n, k, k_max)
    components = _connected_components(W)
    deg = W.sum(axis=1, dtype=float)
    spectra = [
        symmetric_eigendecomposition(
            normalized_laplacian(W if len(components) == 1 else W[np.ix_(c, c)], deg[c])
        )
        for c in components
    ]
    eigenvalues = np.concatenate([v for v, _ in spectra])  # n >= 1 was checked
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    if k is None:  # an eigengap k is in [1, k_max], within [1, n - 1]
        k = estimate_num_clusters(eigenvalues, k_max)
    chosen = order[:k]  # positions in the concatenated block spectra
    embedding = np.zeros((n, k))
    start = 0
    for members, (_, vectors) in zip(components, spectra):
        cols = np.flatnonzero((chosen >= start) & (chosen < start + members.size))
        embedding[np.ix_(members, cols)] = vectors[:, chosen[cols] - start]
        start += members.size
    rows = np.linalg.norm(embedding, axis=1)
    normalized = embedding / np.where(rows > 0, rows, 1.0)[:, None]
    labels = kmeans(normalized, k)
    return SpectralResult(
        eigenvalues=eigenvalues, estimated_k=k, labels=labels, components=len(components)
    )


def compare_partitions(labels_a, labels_b):
    """Fraction of point pairs on which two partitions agree (Rand index).

    A pair agrees when both partitions put it in one cluster or both
    split it.  Invariant under relabeling; 1.0 for identical partitions.
    Counted from the label contingency table, in O(N + K_a K_b) memory.
    """
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape or labels_a.ndim != 1:
        raise InputError(
            f"label vectors must match, got {labels_a.shape} and {labels_b.shape}"
        )
    n = labels_a.size
    if n < 2:
        return 1.0
    _, a = np.unique(labels_a, return_inverse=True)
    _, b = np.unique(labels_b, return_inverse=True)
    ka, kb = a.max() + 1, b.max() + 1
    table = np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb)

    def pairs(counts):
        return int((counts * (counts - 1)).sum()) // 2

    together_both = pairs(table)
    together_a = pairs(table.sum(axis=1))
    together_b = pairs(table.sum(axis=0))
    total = n * (n - 1) // 2
    # split in both = total - together_a - together_b + together_both
    agree = total - together_a - together_b + 2 * together_both
    return agree / total
