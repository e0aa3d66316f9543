"""
From image frames on disk to a segmentation
===========================================

Synthesizes 24 small grayscale frames in which three regions of the image
move independently (each region blends among four fixed patterns), saves
them as PGM files, then runs the full pipeline: load frames, stack columns,
solve for the sparse self-representation, cluster. Frames from the same
moving region end up in the same cluster.

Usage: python frame_pipeline.py [--out DIR]
"""

import argparse
import os

import numpy as np

from ssclust import (
    SolverConfig,
    build_affinity,
    cluster,
    export_heatmap,
    frames_to_matrix,
    load_frames,
    normalize_columns,
    solve_ssc,
)

parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[1])
parser.add_argument("--out", default="frame_demo_out", help="output directory")
args = parser.parse_args()
os.makedirs(args.out, exist_ok=True)

SIZE = 24      # frames are SIZE x SIZE pixels
PER_PART = 8   # frames per moving region

# each region owns an 8-row band of the image and blends among four fixed
# random patterns; bands do not overlap, so frames of different regions are
# orthogonal as vectors. a two-pattern blend would put every frame on one
# curve and starve the representation graph, hence four.
rng = np.random.default_rng(2)
paths = []
index = 0
for part in range(3):
    band = slice(part * 8, part * 8 + 8)
    patterns = np.zeros((4, SIZE, SIZE))
    patterns[:, band, :] = rng.uniform(0.2, 1.0, size=(4, 8, SIZE))
    for _ in range(PER_PART):
        weights = rng.uniform(0.1, 1.0, size=4)
        weights /= weights.sum()
        frame = np.tensordot(weights, patterns, axes=1)
        body = b"P5\n%d %d\n255\n" % (SIZE, SIZE)
        body += np.rint(frame * 255.0).astype(np.uint8).tobytes()
        path = os.path.join(args.out, f"frame_{index:02d}.pgm")
        with open(path, "wb") as fh:
            fh.write(body)
        paths.append(path)
        index += 1
print(f"wrote {len(paths)} frames to {args.out}/")

frames = load_frames(paths)
Y = normalize_columns(frames_to_matrix(frames))
print(f"stacked matrix: {Y.shape[0]} x {Y.shape[1]}")

C, report = solve_ssc(Y, SolverConfig(tol_primal=1e-4, tol_change=1e-4))
W = build_affinity(C)
result = cluster(W)
print(f"estimated number of moving regions: {result.estimated_k}")
counts = np.bincount(result.labels)
print(f"cluster sizes: {sorted(counts.tolist())}")

heatmap = os.path.join(args.out, "affinity.pgm")
export_heatmap(W, heatmap)
print(f"wrote {heatmap}")

# the command-line entry point runs the same pipeline in one call:
#   ssclust --frames 'frame_demo_out/frame_*.pgm' --out-labels labels.csv \
#           --out-w affinity.pgm --out-meta run.txt
