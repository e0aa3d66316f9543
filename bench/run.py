"""Benchmark of the `ssclust` command line on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's inputs from --seed, then runs
`ssclust` from `src/` in a closed loop, one child process at a time, for
about S seconds.  Between runs it times the program's set-up (a fresh
interpreter importing `ssclust.cli`) SETUP_SAMPLES times, spread over the
window.  Every run is scored against the generator's ground-truth
labels.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the `end_to_end` ones of BENCHMARK.json,
taken from each child's own rusage with tracing off.  With --trace 1 untraced
runs fill the first half of S and give the reference labels and time, then
traced runs (bench/trace_child.py) give the `per_layer` metrics; every
run's labels must equal the first untraced run's.  Metric names, units and directions are
read from BENCHMARK.json, so the file and the output cannot drift apart.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_CHILD = os.path.join("bench", "trace_child.py")
WORK_ROOT = ".bench_work"
DEADLINE_S = 170.0  # a run must end within 180 s; a child still running then is killed
SETUP_SAMPLES = 9
NPROC = len(os.sched_getaffinity(0))
# set explicitly so that a change of the library default shows up as a change here
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

OUTPUT_FILES = {
    "--out-labels": "labels.csv",
    "--out-w": "w.pgm",
    "--out-c": "c.pgm",
    "--out-conv": "conv.csv",
    "--out-meta": "run.txt",
}

# frames_sketch: K subspaces of dimension d, n_per frames each, SIDE x SIDE pixels
FRAME_K, FRAME_DIM, FRAME_N_PER, FRAME_SIDE = 4, 3, 16, 144
SKETCH_M = 1000


def union_of_subspaces(rng, K, d, D, n_per):
    """K blocks of n_per unit-coefficient points from random d-dim subspaces of R^D."""
    blocks = []
    for _ in range(K):
        basis, _ = np.linalg.qr(rng.standard_normal((D, d)))
        coeffs = rng.standard_normal((d, n_per))
        blocks.append(basis @ (coeffs / np.linalg.norm(coeffs, axis=0)))
    return np.hstack(blocks), np.repeat(np.arange(K), n_per)


def write_frames(seed, directory):
    """Write the frames as 16-bit PGM, even indices P2, odd P5; returns truth."""
    rng = np.random.default_rng(seed)
    Y, truth = union_of_subspaces(
        rng, FRAME_K, FRAME_DIM, FRAME_SIDE * FRAME_SIDE, FRAME_N_PER
    )
    # pixels are nonnegative, so the data sits on a mid-range offset
    pixels = np.rint(32768.0 + Y * (32767.0 / np.abs(Y).max())).astype(np.uint16)
    os.makedirs(directory)
    for i in range(Y.shape[1]):
        frame = pixels[:, i].reshape(FRAME_SIDE, FRAME_SIDE)
        magic = "P2" if i % 2 == 0 else "P5"
        header = f"{magic}\n{FRAME_SIDE} {FRAME_SIDE}\n65535\n".encode("ascii")
        if magic == "P2":
            rows = (" ".join(map(str, row)) for row in frame.tolist())
            body = ("\n".join(rows) + "\n").encode("ascii")
        else:
            body = frame.astype(">u2").tobytes()
        with open(os.path.join(directory, f"frame_{i:03d}.pgm"), "wb") as fh:
            fh.write(header + body)
    return truth


def frames_sketch(seed, work):
    frames = os.path.join(work, "frames")
    truth = write_frames(seed, frames)
    args = [
        "--frames", os.path.join(frames, "frame_*.pgm"),
        "--normalize",
        "--project", f"{SKETCH_M},{seed}",
    ]
    return args, truth, dict(OUTPUT_FILES)


def synth(K, d, D, n_per, solver_args=()):
    """A --synth workload; `ssclust` builds the data itself from the spec."""

    def make(seed, work):
        args = ["--synth", f"{K},{d},{D},{n_per},0.0,{seed}", *solver_args]
        # the generator emits K consecutive blocks of n_per points
        truth = np.repeat(np.arange(K), n_per)
        return args, truth, {"--out-labels": OUTPUT_FILES["--out-labels"]}

    return make


# Why each workload exists, and which layers it loads or bypasses, is in
# BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "frames_sketch": frames_sketch,
    "synth_n200_default": synth(5, 3, 100, 40),
    # tolerances no residual reaches, so exactly 50 iterations run
    "synth_n1000_iter50": synth(
        10, 5, 200, 100,
        ("--max-iter", "50", "--tol-primal", "1e-300", "--tol-change", "1e-300"),
    ),
}


@dataclass
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    minor_faults: int
    code: int
    stderr: str


def invoke(cmd, env, stderr_path, deadline):
    """Run cmd to completion and read its own rusage with os.wait4."""
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err,
        )
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        minor_faults=usage.ru_minflt,
        code=proc.returncode,
        stderr=stderr,
    )


def read_labels(path, n):
    """Labels from an 'index,label' CSV of n rows, or None if malformed."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().split()
    except (OSError, UnicodeDecodeError):
        return None
    if len(lines) != n + 1 or lines[0] != "index,label":
        return None
    labels = []
    for i, line in enumerate(lines[1:]):
        index, _, label = line.partition(",")
        if index != str(i) or not label.isdigit():
            return None
        labels.append(int(label))
    return np.array(labels)


def rand_index(a, b):
    """Share of point pairs two partitions agree on; 1.0 iff equal up to relabeling."""
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def pairs(counts):
        return int((counts * (counts - 1) // 2).sum())

    total = n * (n - 1) // 2
    agree = total - pairs(table.sum(axis=1)) - pairs(table.sum(axis=0)) + 2 * pairs(table)
    return agree / total


@dataclass
class Outcome:
    """A scored run: its sample, labels, label accuracy, what went wrong, and
    for a traced run the per-layer values."""

    sample: Sample
    labels: object
    accuracy: float
    problems: list
    layers: dict = None


def score(sample, outputs, truth):
    problems = []
    if sample.code != 0:
        problems.append(f"exit code {sample.code}")
    if "Traceback" in sample.stderr:
        problems.append("traceback on stderr")
    missing = [p for p in outputs.values() if not os.path.isfile(p) or not os.path.getsize(p)]
    if missing:
        problems.append(f"missing outputs {missing}")
    labels = read_labels(outputs["--out-labels"], len(truth))
    accuracy = rand_index(labels, truth) if labels is not None else 0.0
    if accuracy < 1.0:
        problems.append(f"label accuracy {accuracy:.4f} < 1")
    return Outcome(sample, labels, accuracy, problems)


SPAN_METRICS = (
    "cli.main", "data.load_frames", "data.frames_to_matrix", "data.synth",
    "data.export", "projection.gaussian_matrix", "projection.project",
    "admm.solve", "admm.factor", "admm.update_a", "admm.update_c",
    "admm.update_multipliers", "admm.residual_report",
    "spectral.build_affinity", "spectral.cluster", "spectral.laplacian",
    "spectral.eigh", "spectral.kmeans",
)


def layer_metrics(trace):
    """Per-layer values of one traced run; `self` subtracts direct child spans."""
    spans = trace["spans"]
    inclusive = defaultdict(float)
    in_children = defaultdict(float)
    for name, start, end, parent in spans:
        inclusive[name] += end - start
        if parent >= 0:
            in_children[spans[parent][0]] += end - start
    values = {f"{name}_s": inclusive[name] for name in SPAN_METRICS}
    values["cli.self_s"] = inclusive["cli.main"] - in_children["cli.main"]
    values["admm.self_s"] = inclusive["admm.solve"] - in_children["admm.solve"]
    values.update(trace["captures"])
    iterations = values.get("admm.iterations", 0)
    loop_s = inclusive["admm.solve"] - inclusive["admm.factor"]
    values["admm.iter_ms"] = 1000.0 * loop_s / iterations if iterations else 0.0
    return values


class Runner:
    """Runs `ssclust` on one workload's inputs and scores every run."""

    def __init__(self, work, args, truth, outputs, deadline):
        self.truth = truth
        self.outputs = {flag: os.path.join(work, name) for flag, name in outputs.items()}
        self.argv = list(args)
        for flag, path in self.outputs.items():
            self.argv += [flag, path]
        self.deadline = deadline
        self.stderr_path = os.path.join(work, "stderr.txt")
        self.spans_path = os.path.join(work, "spans.json")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        for var in BLAS_THREAD_VARS:
            self.env[var] = str(NPROC)

    def setup_time(self):
        """Wall time of a fresh interpreter importing ssclust.cli."""
        cmd = [sys.executable, "-c", "import ssclust.cli"]
        sample = invoke(cmd, self.env, self.stderr_path, self.deadline)
        if sample.code != 0:
            raise SystemExit(f"bench: `import ssclust.cli` failed:\n{sample.stderr}")
        return sample.wall_s

    def run(self, traced=False):
        for path in [*self.outputs.values(), self.spans_path]:
            if os.path.exists(path):
                os.unlink(path)
        prefix = [sys.executable]
        prefix += [TRACE_CHILD, self.spans_path, "--"] if traced else ["-m", "ssclust"]
        sample = invoke(prefix + self.argv, self.env, self.stderr_path, self.deadline)
        outcome = score(sample, self.outputs, self.truth)
        if traced:
            if os.path.isfile(self.spans_path):
                with open(self.spans_path, "r", encoding="ascii") as fh:
                    outcome.layers = layer_metrics(json.load(fh))
                outcome.layers["process.minor_faults"] = sample.minor_faults
            else:
                outcome.problems.append("no spans written")
        for problem in outcome.problems:
            print(f"run failed: {problem}\n{sample.stderr.strip()}")
        return outcome

    def closed_loop(self, start, seconds, traced=False, setup=None):
        """Run until the next run would end `seconds` after `start`; at least once.

        If `setup` is a list, set-up times are appended to it between runs,
        spread evenly over the window, up to SETUP_SAMPLES of them, so that
        they see the same host as the runs do.
        """
        outcomes = []
        while True:
            outcomes.append(self.run(traced))
            typical = statistics.median(o.sample.wall_s for o in outcomes)
            now = time.perf_counter()
            done = now - start + typical > seconds or now + typical > self.deadline
            if setup is not None:
                due = SETUP_SAMPLES if done else SETUP_SAMPLES * (now - start) / seconds
                while len(setup) < due:
                    setup.append(self.setup_time())
            if done:
                return outcomes


def highest_percentile(values, beyond=10):
    """(p, value) of the highest percentile with `beyond` samples above it, or
    None when that percentile would not lie above the median."""
    values = sorted(values)
    n = len(values)
    if n <= 2 * beyond:
        return None
    return 100.0 * (n - beyond) / n, values[n - beyond - 1]


def describe(name, values, unit):
    line = (
        f"{name}: median {statistics.median(values):.6g} {unit} over {len(values)} "
        f"samples (min {min(values):.6g}, max {max(values):.6g})"
    )
    tail = highest_percentile(values)
    if tail is None:
        return line + "; too few samples for a tail percentile"
    return line + f"; p{tail[0]:.0f} {tail[1]:.6g} {unit}"


def end_to_end(runner, seconds):
    setup = []
    outcomes = runner.closed_loop(time.perf_counter(), seconds, setup=setup)
    failed = sum(1 for o in outcomes if o.problems)
    series = {
        "run_s": [o.sample.wall_s for o in outcomes],
        "cpu_s": [o.sample.cpu_s for o in outcomes],
        "peak_rss_mb": [o.sample.rss_mb for o in outcomes],
        "setup_s": setup,
    }
    for name, values in series.items():
        print(describe(name, values, "MB" if name == "peak_rss_mb" else "s"))
    metrics = {name: statistics.median(values) for name, values in series.items()}
    metrics["label_accuracy"] = statistics.fmean(o.accuracy for o in outcomes)
    metrics["success_rate"] = (len(outcomes) - failed) / len(outcomes)
    print(f"label_accuracy: {metrics['label_accuracy']!r} (Rand index, mean over runs)")
    print(f"fail_rate: {failed}/{len(outcomes)} = {failed / len(outcomes)!r}")
    return outcomes, metrics


def per_layer(runner, seconds):
    """Untraced runs for the first half of `seconds`, traced runs for the rest."""
    start = time.perf_counter()
    setup = []
    untraced = runner.closed_loop(start, seconds / 2, setup=setup)
    traced = runner.closed_loop(start, seconds, traced=True)
    reference = untraced[0].labels
    for outcome in untraced[1:] + traced:
        if outcome.labels is None or not np.array_equal(outcome.labels, reference):
            print("run failed: labels differ from the first untraced run's")
            outcome.problems.append("labels differ")
    runs = [o.layers for o in traced if not o.problems]
    if not runs:
        raise SystemExit("bench: no traced run succeeded")
    metrics = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    untraced_s = statistics.median(o.sample.wall_s for o in untraced)
    metrics["trace.overhead_s"] = metrics["cli.main_s"] - (untraced_s - statistics.median(setup))
    print(
        f"untraced runs: {len(untraced)}, median {untraced_s:.6g} s; traced runs: "
        f"{len(traced)}, succeeded: {len(runs)}; setup {statistics.median(setup):.6g} s"
    )
    return untraced + traced, metrics


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas_threads": {var: str(NPROC) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
    }


def declared_metrics(kind):
    """(name, unit) of the metrics BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="ssclust benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ssclust", "cli.py")):
        print(f"bench: no ssclust sources under {ROOT}/src", file=sys.stderr)
        return 2
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    os.chdir(ROOT)  # children get relative paths, so no glob meets the checkout's name
    deadline = time.perf_counter() + DEADLINE_S
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        ssclust_args, truth, outputs = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(work, ssclust_args, truth, outputs, deadline)
        print("environment:", json.dumps(environment(args.seed)))
        print("workload:", args.workload, "ssclust", " ".join(runner.argv))
        # the first import byte-compiles the package, which users pay once
        runner.setup_time()
        measure = per_layer if args.trace else end_to_end
        outcomes, values = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    if set(values) != {name for name, _ in declared}:
        raise SystemExit(
            f"bench: metrics {sorted(values)} differ from BENCHMARK.json's "
            f"{sorted(name for name, _ in declared)}"
        )
    failed = sum(1 for o in outcomes if o.problems)
    if args.trace:
        for name, unit in declared:
            print(f"{name}: {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
