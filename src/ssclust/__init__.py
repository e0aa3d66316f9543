"""Sparse subspace clustering: l1 self-expression via ADMM, Gaussian
random projection, and eigengap spectral clustering."""

__version__ = "0.1.0"

from .admm import (
    SolveReport,
    SolverConfig,
    objective_value,
    solve_ssc,
)
from .data import (
    SyntheticDataset,
    export_convergence,
    export_heatmap,
    export_labels,
    frames_to_matrix,
    load_frame,
    load_frames,
    normalize_columns,
    synth_union_of_subspaces,
)
from .errors import (
    ConfigError,
    DivergenceError,
    FormatError,
    InputError,
    SsclustError,
)
from .projection import (
    DistortionReport,
    ProjectionMatrix,
    gaussian_matrix,
    jl_distortion,
    project,
)
from .spectral import (
    SpectralResult,
    build_affinity,
    cluster,
    compare_partitions,
    estimate_num_clusters,
    kmeans,
    normalized_laplacian,
    symmetric_eigendecomposition,
)
