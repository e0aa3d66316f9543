"""Run one `ssclust` invocation with spans around the calls into each module.

Usage: python trace_child.py SPANS_JSON -- <ssclust arguments>

The wrappers replace the names that callers look up at call time:
`ssclust.cli` imported its stages by name, `solve_ssc` looks up the
`ssclust.admm` step functions and `FactorizationCache` in its module, and
`cluster` looks up the `ssclust.spectral` helpers the same way.  Spans are
kept in memory with a parent link and written to SPANS_JSON when the run
ends, together with values read from the objects the stages returned.
The process exits with the code `ssclust.cli.main` returned.
"""

import functools
import json
import os
import sys
import time

from ssclust import admm, cli, spectral
from ssclust.admm import objective_value

# (span name, module, attribute) in the module whose global the caller reads
WRAPPED = (
    ("data.load_frames", cli, "load_frames"),
    ("data.frames_to_matrix", cli, "frames_to_matrix"),
    ("data.synth", cli, "synth_union_of_subspaces"),
    ("data.export", cli, "export_labels"),
    ("data.export", cli, "export_heatmap"),
    ("data.export", cli, "export_convergence"),
    ("projection.gaussian_matrix", cli, "gaussian_matrix"),
    ("projection.project", cli, "project"),
    ("admm.solve", cli, "solve_ssc"),
    ("admm.factor", admm, "FactorizationCache"),
    ("admm.update_a", admm, "update_a"),
    ("admm.update_c", admm, "update_c"),
    ("admm.update_multipliers", admm, "update_multipliers"),
    ("admm.residual_report", admm, "residual_report"),
    ("spectral.build_affinity", cli, "build_affinity"),
    ("spectral.cluster", cli, "cluster"),
    ("spectral.laplacian", spectral, "normalized_laplacian"),
    ("spectral.eigh", spectral, "symmetric_eigendecomposition"),
    ("spectral.kmeans", spectral, "kmeans"),
)


# spans whose arguments and results _captures reads; the per-iteration steps
# are left out because keeping their N x N results would hold every iterate
KEEP_CALLS = {
    "data.load_frames",
    "data.export",
    "projection.gaussian_matrix",
    "admm.solve",
    "spectral.cluster",
}


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self.calls = {}  # span name in KEEP_CALLS -> list of (args, kwargs, result)
        self._open = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if name in KEEP_CALLS:
                self.calls.setdefault(name, []).append((args, kwargs, result))
            return result

        return wrapper


def _captures(calls):
    """Counts and solver/spectral state read from the recorded calls."""
    out = {}
    ingest = 0
    for args, _, _ in calls.get("data.load_frames", ()):
        ingest += sum(os.path.getsize(p) for p in args[0])
    out["data.ingest_bytes"] = ingest
    out["data.export_bytes"] = sum(
        os.path.getsize(args[1]) for args, _, _ in calls.get("data.export", ())
    )
    out["projection.sketch_bytes"] = sum(
        G.values.size * G.values.itemsize
        for _, _, G in calls.get("projection.gaussian_matrix", ())
    )
    solves = calls.get("admm.solve", ())
    if solves:
        args, _, (C, report) = solves[-1]
        out["admm.iterations"] = report.iterations
        out["admm.converged"] = 1 if report.converged else 0
        out["admm.objective"] = objective_value(args[0], C, report.mu)
        out["admm.r_affine"] = report.r_affine
        out["admm.r_split"] = report.r_split
    clusterings = calls.get("spectral.cluster", ())
    if clusterings:
        args, kwargs, result = clusterings[-1]
        k = int(result.estimated_k)
        out["spectral.estimated_k"] = k
        k_max = kwargs.get("k_max") or min(result.eigenvalues.size - 1, 15)
        gaps = [
            float(b - a)
            for a, b in zip(result.eigenvalues[:k_max], result.eigenvalues[1 : k_max + 1])
        ]
        others = gaps[: k - 1] + gaps[k:]
        runner_up = max(others) if others else 0.0
        # a zero runner-up gap means no competing k at all
        out["spectral.eigengap_margin"] = gaps[k - 1] / max(runner_up, 1e-300)
    return out


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: trace_child.py SPANS_JSON -- <ssclust arguments>", file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    for name, module, attr in WRAPPED:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    code = tracer.wrap("cli.main", cli.main)(argv)
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump({"spans": tracer.spans, "captures": _captures(tracer.calls)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
