"""Command-line pipeline: ingest, optional sketching, solve, cluster, export.

Stages run in a fixed order (ingest -> project -> solve -> spectral ->
export), except that the --out-c heatmap is written before the affinity,
since W is built in the solve's own N x N buffer.  N points whose N x N
float array exceeds the machine's physical memory are refused at ingest,
before any read.  A --k above N or (without --k) a --k-max of N or more
is refused at ingest, before the solve, by the spectral stage's own
`check_cluster_settings`.  The argument parser is the only schema:
config-file keys, their types, bounds and defaults, and the lines of the
run record all come from its flag declarations.  The solver flags are
generated from `SolverConfig`'s fields, so their names, types and
defaults are written there, and `SolverConfig` checks each value as it
is read, from a flag or a config line alike.  Every error in a config
line names its file and line.
Every run can drop a metadata file of reloadable key=value lines, so a
finished run can be reproduced from its metadata alone (rho only when
given: a balanced run records its final rho as a comment, so its replay
balances again).  A value the config reader would not return
unchanged (a non-ASCII character, a line break, or whitespace at either
end) cannot be recorded, so with --out-meta it is refused with exit code 2.

Every failure prints one `ssclust: <stage>: <message>` line.  Exit codes:
0 success, 2 configuration error, 3 input or format error (or an input too
large for this machine's memory), 4 solver divergence, 5 I/O error.
"""

import argparse
import glob as globlib
import io
import os
import sys
from dataclasses import fields

from . import __version__
from .admm import SolverConfig, check_data_matrix, solve_ssc
from .data import (
    export_convergence,
    export_heatmap,
    export_labels,
    frames_to_matrix,
    load_frames,
    normalize_columns,
    synth_union_of_subspaces,
)
from .errors import ConfigError, DivergenceError, InputError, SsclustError
from .projection import gaussian_matrix, project
from .spectral import AFFINITY_FORMULA, build_affinity, check_cluster_settings, cluster

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_INPUT = InputError.exit_code
EXIT_DIVERGED = DivergenceError.exit_code
EXIT_IO = 5


def _field_parser(flag, names, *types):
    def parse(text):
        """Parse comma-separated fields into a tuple, one type per field."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != len(types):
            raise ConfigError(f"{flag} needs {names}, got {text!r}")
        try:
            return tuple(kind(part) for kind, part in zip(types, parts))
        except ValueError:
            raise ConfigError(f"malformed {flag} value {text!r}")

    return parse


def _at_least(low, name):
    def parse(text):
        """An int of at least `low`; a bound error names `name`."""
        value = int(text)
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its usage error
    return parse


def _solver_value(name, kind):
    def parse(text):
        """A `kind` that SolverConfig accepts as `name`; its message if not."""
        value = kind(text)  # a ValueError stays argparse's usage error
        try:
            return getattr(SolverConfig(**{name: value}), name)
        except InputError as exc:
            raise ConfigError(str(exc))

    parse.__name__ = kind.__name__
    return parse


parse_synth_spec = _field_parser(
    "--synth", "K,d,D,n_per,sigma,seed", *[int] * 4, float, _at_least(0, "synth seed")
)
parse_project_spec = _field_parser(
    "--project", "m,seed", _at_least(1, "projection m"), _at_least(0, "projection seed")
)


def build_parser():
    """The flags, each declaring its type and default once.

    The spec types, the bounded ints (`_at_least`) and the solver values
    (`_solver_value`, one flag per `SolverConfig` field) raise
    ConfigError, which argparse lets through, so a malformed spec or a
    value out of its flag's range exits with the configuration code and
    not a usage error.  A value `int` or `float` cannot read is still
    argparse's usage error.
    """
    parser = argparse.ArgumentParser(
        prog="ssclust",
        description="Sparse self-expressive clustering of column-stacked data.",
    )
    inp = parser.add_argument_group("input")
    inp.add_argument("--frames", metavar="GLOB", help="PGM frame files")
    inp.add_argument(
        "--synth",
        type=parse_synth_spec,
        metavar="K,d,D,n_per,sigma,seed",
        help="synthetic dataset",
    )
    inp.add_argument(
        "--normalize",
        action="store_true",
        help="scale each data column to unit length",
    )
    inp.add_argument(
        "--project",
        type=parse_project_spec,
        metavar="m,seed",
        help="random sketch to m dimensions",
    )
    sol = parser.add_argument_group(
        "solver", "mu: quadratic penalty weight; rho: augmented Lagrangian weight"
    )
    for f in fields(SolverConfig):
        parse = _solver_value(f.name, int if f.type is int else float)
        sol.add_argument("--" + f.name.replace("_", "-"), type=parse, default=f.default)
    spc = parser.add_argument_group("spectral")
    spc.add_argument("--k", type=_at_least(1, "k"), help="fixed cluster count")
    spc.add_argument("--k-max", type=_at_least(1, "k_max"))
    out = parser.add_argument_group("outputs")
    out.add_argument("--out-labels", metavar="CSV")
    out.add_argument("--out-w", metavar="PGM")
    out.add_argument("--out-c", metavar="PGM")
    out.add_argument("--out-conv", metavar="CSV")
    out.add_argument("--out-meta", metavar="FILE")
    parser.add_argument("--config", metavar="FILE", help="key=value defaults")
    return parser


def _read_config(text, source):
    """Typed values keyed by flag destination, read from key=value text.

    Lines must be ASCII without NUL, which no path or number holds, and
    split as text-mode `readlines` splits them.
    Keys are the long flag names except --config, with '-' and '_'
    interchangeable; '#' comments and blank lines are skipped, and so are
    the retired k-means keys spectral_seed and restarts, so older run
    records still replay.
    """
    actions = {
        action.dest: action
        for action in build_parser()._actions
        if action.dest not in ("help", "config")
    }
    values = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        if not raw.isascii():
            raise ConfigError(f"{source}:{lineno}: not ASCII: {ascii(raw)}")
        if "\0" in raw:
            raise ConfigError(f"{source}:{lineno}: NUL byte: {ascii(raw)}")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in ("spectral_seed", "restarts"):
            continue
        if key not in actions:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        action, value = actions[key], value.strip()
        try:
            if action.nargs == 0:  # a switch: --normalize
                values[key] = {"true": True, "false": False}[value.lower()]
            else:
                values[key] = value if action.type is None else action.type(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {value!r}")
        except ConfigError as exc:  # a bound the flag's type checks
            raise ConfigError(f"{source}:{lineno}: {exc}")
    return values


def load_config_file(path):
    """Read a config file of key=value lines; `_read_config` gives the rules."""
    try:
        # a byte that is not ASCII decodes to a surrogate, which the reader refuses
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            return _read_config(fh.read(), path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")


def _check(args):
    """Reject what no single flag's type can see: the rules that span flags.

    Exactly one input source; no two outputs on one file and none on a
    directory; with --out-meta, no value the record could not replay.
    Each flag's own bound is checked by its type as it is read.
    """
    if (args.frames is None) == (args.synth is None):
        raise ConfigError("exactly one input source required: --frames or --synth")
    seen = {}  # two outputs on one file: the later move would lose the first
    for key, path in vars(args).items():
        if key.startswith("out_") and path is not None:
            real = os.path.realpath(path)
            if os.path.isdir(real):  # its move would fail after earlier commits
                raise ConfigError(f"--out-{key[4:]} names a directory: {path!r}")
            first = seen.setdefault(real, key[4:])
            if first != key[4:]:
                raise ConfigError(f"--out-{first} and --out-{key[4:]} name one file")
    if args.out_meta is not None:  # each recorded value must replay unchanged
        for key, value in vars(args).items():
            if key == "config" or not isinstance(value, str):
                continue
            try:
                replayed = _read_config(f"{key}={_format(value)}", "--out-meta")
            except ConfigError:
                replayed = None
            if replayed != {key: value}:
                raise ConfigError(f"{key} would not replay from --out-meta: {value!a}")


def _check_fits(n):
    """Refuse N points whose N x N float array exceeds physical memory.

    Every run holds at least one such array, so a larger N cannot
    finish.  Skipped where `os.sysconf` cannot tell.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if n > 0 and n * n * 8 > memory:  # a negative count is the generator's to refuse
        raise MemoryError  # `main` reports it as an input error


def _load_input(args):
    if args.frames is not None:
        paths = sorted(globlib.glob(args.frames))
        if not paths:
            raise InputError(f"no files match {args.frames!r}")
        _check_fits(len(paths))
        # `frames` lives until the return: freed before the normalized copy
        # is made, it left that copy in the heap and the run's peak RSS 10 MB up
        frames = load_frames(paths)
        Y = frames_to_matrix(frames)
    else:
        K, d, D, n_per, sigma, seed = args.synth
        _check_fits(K * n_per)
        Y = synth_union_of_subspaces(K, d, D, n_per, noise_sigma=sigma, seed=seed).Y
    # a bad shape is the input's fault, so it is reported here, not by the solve
    return check_data_matrix(normalize_columns(Y) if args.normalize else Y)


def _format(value):
    """Write a typed value back in the form its flag's type reads."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    return str(value)


class _PendingOutput(os.PathLike):
    """An output file written under a temporary name beside its target.

    `commit` moves it onto the target with `os.replace`; until then the
    file at the target, if any, is untouched.  The target is the path's
    `os.path.realpath`, as `_check` compares them, so an output named
    through a symlink rewrites the file the link names and leaves the link
    in place.  The object names the file where it is now, before the move
    and after it, so a caller that keeps it (`bench/trace_child.py` reads
    each export's size after the run) still finds the file.
    """

    def __init__(self, target, index):
        self.target = os.path.realpath(target)
        head, tail = os.path.split(self.target)
        self.path = os.path.join(head, f".{tail}.{os.getpid()}-{index}.tmp")

    def __fspath__(self):
        return self.path

    def commit(self):
        os.replace(self.path, self.target)
        self.path = self.target


def _write_metadata(effective, report, result, path):
    lines = [
        "# run record; reloadable with --config",
        f"# version={__version__}",
        f"# affinity={AFFINITY_FORMULA}",
        f"# converged={str(report.converged).lower()}",
        f"# iterations={report.iterations}",
        f"# r1={float(report.r_affine)!r}",
        f"# r2={float(report.r_split)!r}",
        f"# r3={float(report.r_change)!r}",
        f"# rho_final={float(report.rho)!r}",
        f"# rho_changes={report.rho_changes}",
        f"# estimated_k={result.estimated_k}",
        f"# components={result.components}",
    ]
    # argparse fills the namespace in flag declaration order
    for key, value in effective.items():
        if value is not None and key != "config":
            lines.append(f"{key}={_format(value)}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None):
    """Parse flags over config-file values over defaults, run, return the code.

    A failure prints one `ssclust: <stage>: <message>` line and returns the
    exit code its error class carries.  Outputs are written beside their
    targets and moved onto them only once every one of them is written, so
    a failed run leaves existing files as they were.
    """
    parser = build_parser()
    pending = []

    def write(path, export, *values):
        """Stage export(*values, <temporary file>) when `path` is given."""
        if path is not None:
            pending.append(_PendingOutput(path, len(pending)))
            export(*values, pending[-1])

    stage = "config"
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            parser.set_defaults(**load_config_file(args.config))
            args = parser.parse_args(argv)
        solver = SolverConfig(*(getattr(args, f.name) for f in fields(SolverConfig)))
        _check(args)
        stage = "ingest"
        Y = _load_input(args)
        # checked here, so a k or k_max beyond N costs no solve
        k_max = check_cluster_settings(Y.shape[1], args.k, args.k_max)
        stage = "project"
        if args.project is not None:
            m, seed = args.project
            G = gaussian_matrix(m, Y.shape[0], seed)
            Y = project(G, Y)
        stage = "solve"
        C, report = solve_ssc(Y, solver)
        if not report.converged:
            print(
                f"ssclust: solve: not converged after {report.iterations} "
                f"iterations (r1={report.r_affine:.3g} r2={report.r_split:.3g} "
                f"r3={report.r_change:.3g})",
                file=sys.stderr,
            )
        # W is built in the solve's buffer, so the C heatmap is written first
        stage = "export"
        write(args.out_c, export_heatmap, C)
        stage = "spectral"
        W = build_affinity(C)
        del C  # its memory now holds W
        result = cluster(W, k_override=args.k, k_max=k_max)
        stage = "export"
        write(args.out_labels, export_labels, result.labels)
        write(args.out_w, export_heatmap, W)
        write(args.out_conv, export_convergence, report.history)
        # rho is recorded only when given, so a replay balances it again
        effective = dict(vars(args), mu=report.mu, k_max=k_max)
        write(args.out_meta, _write_metadata, effective, report, result)
        while pending:  # a committed output leaves the list: never removed below
            pending[0].commit()
            del pending[0]
    except (SsclustError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = InputError("the input is too large for this machine")
        print(f"ssclust: {stage}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_IO)
    finally:
        for output in pending:
            try:
                os.unlink(output)
            except OSError:
                pass
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
