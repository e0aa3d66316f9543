"""Data ingestion, synthetic datasets, and file exports.

Frames are grayscale PGM images (P2 ascii or P5 binary, maxval 1..65535,
two-byte big-endian P5 samples above 255).  `load_frames` reads each one
as a row-major pixel vector, and `frames_to_matrix` stacks the vectors as
the columns of the data matrix.  Whitespace is space, TAB, CR and LF,
and '#' starts a comment that runs to the end of the line, in the header
and in a P2 body.  A P2 body holds exactly width*height decimal values; a
P5 payload follows one whitespace byte after maxval.  A malformed frame
raises FormatError naming the file, the field and the byte offset where
reading stopped.
Synthetic datasets sample a union of random low-dimensional subspaces
with ground-truth labels.  Heatmaps are written as P5 PGM magnitude maps,
labels and convergence histories as CSV.
"""

import re
from dataclasses import dataclass

import numpy as np

from .admm import as_float, tiles
from .errors import FormatError, InputError

MAX_BASIS_RETRIES = 100
SEPARATION_COSINE = 0.9
PIXEL_DIGITS = 9  # every 9-digit decimal fits in uint32

# The alternatives start with different bytes and nothing follows the
# repeats, so a match runs in one pass and never backtracks.
_SKIP = re.compile(rb"(?:[ \t\r\n]+|#[^\r\n]*)*")
_TOKEN = re.compile(rb"[^ \t\r\n#]+")
_P2_BODY = re.compile(rb"(?:[0-9 \t\r\n]+|#[^\r\n]*)*")
_COMMENT = re.compile(rb"#[^\r\n]*")


@dataclass
class SyntheticDataset:
    """Union-of-subspaces sample with ground truth."""

    Y: np.ndarray
    labels: np.ndarray
    bases: list


def load_frame(path):
    """Read one PGM file; returns (width, height, pixels in [0, 1])."""
    with open(path, "rb") as fh:
        data = fh.read()

    def fail(message, offset):
        raise FormatError(f"{path}: {message} (at byte offset {offset})")

    header = []
    pos = 0
    for name in ("magic", "width", "height", "maxval"):
        pos = _SKIP.match(data, pos).end()
        token = _TOKEN.match(data, pos)
        if token is None:
            fail(f"unexpected end of header, expected {name}", pos)
        if name == "magic":
            if token[0] not in (b"P2", b"P5"):
                fail(f"unsupported magic number {token[0]!r}, expected P2 or P5", pos)
        elif not token[0].isdigit():
            fail(f"expected integer {name}, got {token[0]!r}", pos)
        header.append(token[0])
        pos = token.end()
    magic = header[0]
    width, height, maxval = map(int, header[1:])
    if not 1 <= maxval <= 65535:
        fail(f"maxval {maxval} outside 1..65535", pos)
    count = width * height

    if magic == b"P2":
        bad = _P2_BODY.match(data, pos).end()
        if bad < len(data):
            fail(f"expected a decimal pixel value, got {data[bad:bad + 1]!r}", bad)
        tokens = _COMMENT.sub(b"", data[pos:]).split()
        # the count check comes first, so a huge header allocates nothing
        if len(tokens) != count:
            fail(f"expected {count} pixel values, got {len(tokens)}", pos)
        if max(map(len, tokens), default=0) > PIXEL_DIGITS:
            fail(f"pixel value longer than {PIXEL_DIGITS} digits", pos)
        values = np.array(tokens, dtype=np.uint32)
    else:
        # a single whitespace byte separates the header from the payload
        if data[pos : pos + 1] not in (b" ", b"\t", b"\r", b"\n"):
            fail("missing whitespace before binary payload", pos)
        pos += 1
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        need = count * dtype.itemsize
        payload = data[pos : pos + need]
        if len(payload) < need:
            fail(f"truncated payload, expected {need} bytes, got {len(payload)}", pos)
        values = np.frombuffer(payload, dtype=dtype)

    if values.max(initial=0) > maxval:
        fail(f"pixel value exceeds maxval {maxval}", pos)
    return width, height, values.astype(float) / float(maxval)


def load_frames(paths):
    """Load PGM files of one size; returns one row-major pixel vector each.

    Each frame's size is compared with the first frame's as soon as it is
    read; a mismatch raises InputError naming those two files.
    """
    if not paths:
        raise InputError("no frame files given")
    frames = []
    for p in paths:
        width, height, pixels = load_frame(p)
        if not frames:
            first, first_width, first_height = p, width, height
        elif (width, height) != (first_width, first_height):
            raise InputError(
                f"frames differ in dimensions: {first} ({first_width}x"
                f"{first_height}), {p} ({width}x{height})"
            )
        frames.append(pixels)
    return frames


def frames_to_matrix(frames):
    """Stack pixel vectors as the columns of the data matrix."""
    if not frames:
        raise InputError("empty frame set")
    return np.column_stack(frames)


def normalize_columns(Y):
    """Scale every column to unit l2 norm; zero columns pass through.

    A column whose norm is not finite (an inf entry, or entries so large
    that the sum of their squares overflows) raises InputError.
    """
    Y = np.asarray(Y, dtype=float)
    # norms first, so their temporary is freed before the copy is made
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(Y, axis=0)
    if not np.isfinite(norms).all():
        column = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise InputError(f"column {column} has no finite l2 norm")
    out = np.array(Y)
    np.divide(out, norms, out=out, where=norms > 0)
    return out


def synth_union_of_subspaces(K, d, D, n_per, noise_sigma=0.0, seed=0):
    """Sample K clusters of n_per unit points from random d-dim subspaces.

    Bases are orthonormalized Gaussian draws, each kept only if all its
    principal-angle cosines with the kept bases are at most 0.9, so that
    clusters are genuinely distinct; a clash starts the draw of all K again
    (InputError after 100 attempts).  Points are unit coefficient vectors
    mapped through the bases, plus an optional unit-direction noise term of
    magnitude noise_sigma; columns are then renormalized.
    """
    if not (1 <= d < D):
        raise InputError(f"need 1 <= d < D, got d={d}, D={D}")
    if K < 1 or n_per < 1:
        raise InputError(f"need K >= 1 and n_per >= 1, got K={K}, n_per={n_per}")
    if not noise_sigma >= 0:  # also rejects nan
        raise InputError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    width = max(d, K * n_per)  # the bases are D x d, the data D x K*n_per
    if D * width * 8 > np.iinfo(np.intp).max:  # numpy cannot describe it
        raise InputError(f"a {D} x {width} array of floats is too large to describe")

    rng = np.random.default_rng(seed)
    bases, attempts = [], 0
    while len(bases) < K:
        B, _ = np.linalg.qr(rng.standard_normal((D, d)))
        if bases:  # against every kept basis in one stacked product
            products = np.stack(bases).swapaxes(1, 2) @ B
            if np.linalg.svd(products, compute_uv=False).max() > SEPARATION_COSINE:
                bases, attempts = [], attempts + 1  # a clash starts all K again
                if attempts == MAX_BASIS_RETRIES:
                    raise InputError(
                        f"could not draw {K} subspaces of dim {d} in R^{D} with "
                        f"pairwise principal cosines <= {SEPARATION_COSINE} "
                        f"after {MAX_BASIS_RETRIES} attempts"
                    )
                continue
        bases.append(B)

    Y = np.empty((D, K * n_per))
    for B, block in zip(bases, np.hsplit(Y, K)):  # each block is a view of Y
        coeffs = rng.standard_normal((d, n_per))
        coeffs /= np.linalg.norm(coeffs, axis=0)
        block[...] = B @ coeffs
        if noise_sigma > 0:
            noise = rng.standard_normal((D, n_per))
            noise /= np.linalg.norm(noise, axis=0)
            block += noise_sigma * noise
    return SyntheticDataset(
        Y=normalize_columns(Y), labels=np.repeat(np.arange(K), n_per), bases=bases
    )


def export_heatmap(M, path):
    """Write |M| as a P5 PGM magnitude map, brightest = largest entry.

    An M that is not 2-d or has no entries is refused before the file is
    opened, and so is one whose peak, taken first, is NaN or infinite.
    The pixels are then quantized and written one block of rows at a
    time, as `tiles(*M.shape)` cuts them, so no array of M's size is made.
    A float32 M, as the command line's C and W are, is read as it is and
    each block quantized in float64, so it gives the bytes of
    M.astype(float); any other dtype is read as float64.
    """
    M = as_float(M)
    if M.ndim != 2 or M.size == 0:
        raise InputError(f"heatmap needs a non-empty 2-d array, got shape {M.shape}")
    peak = max(M.max(), -M.min())  # NaN when M holds a NaN
    if not np.isfinite(peak):
        raise InputError("heatmap input contains non-finite entries")
    header = f"P5\n{M.shape[1]} {M.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        for b in tiles(*M.shape):
            mags = np.abs(M[b], dtype=float)
            if peak > 0:  # else every magnitude is 0 already
                mags = np.rint(255.0 * mags / peak)
            fh.write(mags.astype(np.uint8).tobytes())


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
