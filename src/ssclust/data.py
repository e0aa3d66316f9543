"""Data ingestion, synthetic datasets, and file exports.

Frames are grayscale PGM images (P2 ascii or P5 binary); each frame
becomes one column of the data matrix.  Synthetic datasets sample a
union of random low-dimensional subspaces with ground-truth labels.
Heatmaps are written as P5 PGM magnitude maps, labels and convergence
histories as CSV.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError

MAX_BASIS_RETRIES = 100
SEPARATION_COSINE = 0.9


@dataclass
class Frame:
    path: str
    width: int
    height: int
    pixels: np.ndarray  # row-major, scaled to [0, 1]


@dataclass
class SyntheticDataset:
    """Union-of-subspaces sample with ground truth."""

    Y: np.ndarray
    labels: np.ndarray
    bases: list
    noise_sigma: float


class _PgmReader:
    """Tokenizer over PGM bytes that remembers the current offset."""

    def __init__(self, data, path):
        self.data = data
        self.pos = 0
        self.path = path

    def fail(self, message):
        raise FormatError(f"{self.path}: {message} (at byte offset {self.pos})")

    def token(self):
        # skip whitespace and '#' comments, then read one ascii token
        while self.pos < len(self.data):
            b = self.data[self.pos]
            if b in b" \t\r\n":
                self.pos += 1
            elif b == ord("#"):
                while self.pos < len(self.data) and self.data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                break
        if self.pos >= len(self.data):
            self.fail("unexpected end of header")
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] not in b" \t\r\n":
            self.pos += 1
        return self.data[start : self.pos]

    def int_token(self, name):
        tok = self.token()
        if not re.fullmatch(rb"\d+", tok):
            self.fail(f"expected integer {name}, got {tok!r}")
        return int(tok)


def load_frame(path):
    """Read one PGM file; returns (width, height, pixels in [0, 1])."""
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _PgmReader(data, str(path))
    magic = reader.token()
    if magic not in (b"P2", b"P5"):
        reader.fail(f"unsupported magic number {magic!r}, expected P2 or P5")
    width = reader.int_token("width")
    height = reader.int_token("height")
    maxval = reader.int_token("maxval")
    if maxval == 0:
        reader.fail("maxval is 0")
    if maxval > 65535:
        reader.fail(f"maxval {maxval} exceeds 65535")
    count = width * height

    if magic == b"P2":
        values = np.empty(count, dtype=np.uint32)
        for i in range(count):
            values[i] = reader.int_token(f"pixel {i}")
    else:
        # single whitespace byte separates the header from the payload
        if reader.pos >= len(data) or data[reader.pos] not in b" \t\r\n":
            reader.fail("missing whitespace before binary payload")
        reader.pos += 1
        per_sample = 1 if maxval < 256 else 2
        need = count * per_sample
        payload = data[reader.pos : reader.pos + need]
        if len(payload) < need:
            raise FormatError(
                f"{path}: truncated payload, expected {need} bytes, "
                f"got {len(payload)} (at byte offset {reader.pos})"
            )
        dtype = np.uint8 if per_sample == 1 else np.dtype(">u2")
        values = np.frombuffer(payload, dtype=dtype).astype(np.uint32)

    if values.max(initial=0) > maxval:
        reader.fail(f"pixel value exceeds maxval {maxval}")
    return width, height, values.astype(float) / float(maxval)


def load_frames(paths):
    """Load a list of PGM paths into a list of Frames of uniform dimensions."""
    if not paths:
        raise InputError("no frame files given")
    frames = []
    for p in paths:
        width, height, pixels = load_frame(p)
        frames.append(Frame(str(p), width, height, pixels))
    shapes = {(f.width, f.height) for f in frames}
    if len(shapes) > 1:
        offenders = ", ".join(
            f"{f.path} ({f.width}x{f.height})" for f in frames
        )
        raise InputError(f"frames differ in dimensions: {offenders}")
    return frames


def frames_to_matrix(frames, normalize=True):
    """Stack frames as columns; optionally scale columns to unit l2 norm."""
    if not frames:
        raise InputError("empty frame set")
    Y = np.column_stack([f.pixels for f in frames])
    if normalize:
        Y = normalize_columns(Y)
    return Y


def normalize_columns(Y):
    """Scale every column to unit l2 norm; zero columns pass through."""
    Y = np.array(Y, dtype=float)
    norms = np.linalg.norm(Y, axis=0)
    nz = norms > 0
    Y[:, nz] /= norms[nz]
    return Y


def synth_union_of_subspaces(K, d, D, n_per, noise_sigma=0.0, seed=0):
    """Sample K clusters of n_per unit points from random d-dim subspaces.

    Bases are orthonormalized Gaussian draws, redrawn (up to 100 times)
    until every cross-subspace principal-angle cosine is at most 0.9 so
    that clusters are genuinely distinct.  Points are unit coefficient
    vectors mapped through the bases, plus an optional unit-direction
    noise term of magnitude noise_sigma; columns are then renormalized.
    """
    if not (1 <= d < D):
        raise InputError(f"need 1 <= d < D, got d={d}, D={D}")
    if K < 1 or n_per < 1:
        raise InputError(f"need K >= 1 and n_per >= 1, got K={K}, n_per={n_per}")
    if noise_sigma < 0:
        raise InputError(f"noise_sigma must be nonnegative, got {noise_sigma}")

    rng = np.random.default_rng(seed)
    bases = None
    for _ in range(MAX_BASIS_RETRIES):
        candidate = []
        for _ in range(K):
            B, _ = np.linalg.qr(rng.standard_normal((D, d)))
            candidate.append(B)
        if _well_separated(candidate):
            bases = candidate
            break
    if bases is None:
        raise InputError(
            f"could not draw {K} subspaces of dim {d} in R^{D} with "
            f"pairwise principal cosines <= {SEPARATION_COSINE} "
            f"after {MAX_BASIS_RETRIES} attempts"
        )

    cols = []
    labels = []
    for k, B in enumerate(bases):
        coeffs = rng.standard_normal((d, n_per))
        coeffs /= np.linalg.norm(coeffs, axis=0)
        block = B @ coeffs
        if noise_sigma > 0:
            noise = rng.standard_normal((D, n_per))
            noise /= np.linalg.norm(noise, axis=0)
            block = block + noise_sigma * noise
        cols.append(block)
        labels.extend([k] * n_per)
    Y = normalize_columns(np.hstack(cols))
    return SyntheticDataset(
        Y=Y, labels=np.array(labels), bases=bases, noise_sigma=noise_sigma
    )


def _well_separated(bases):
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            cosines = np.linalg.svd(bases[i].T @ bases[j], compute_uv=False)
            if cosines.max() > SEPARATION_COSINE:
                return False
    return True


def export_heatmap(M, path):
    """Write |M| as a P5 PGM magnitude map, brightest = largest entry."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise InputError("heatmap input contains non-finite entries")
    mags = np.abs(M)
    peak = mags.max()
    if peak > 0:
        pixels = np.rint(255.0 * mags / peak).astype(np.uint8)
    else:
        pixels = np.zeros_like(mags, dtype=np.uint8)
    header = f"P5\n{M.shape[1]} {M.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())


def export_labels(labels, path):
    """Write cluster labels as CSV with header 'index,label'."""
    labels = list(labels)
    if not labels:
        raise InputError("no labels to export")
    with open(path, "w", newline="") as fh:
        fh.write("index,label\n")
        for i, lab in enumerate(labels):
            fh.write(f"{i},{int(lab)}\n")


def export_convergence(history, path):
    """Write per-iteration residuals as CSV with full-precision floats."""
    with open(path, "w", newline="") as fh:
        fh.write("iteration,r1,r2,r3\n")
        for k, (r1, r2, r3) in enumerate(history):
            fh.write(f"{k + 1},{r1!r},{r2!r},{r3!r}\n")
