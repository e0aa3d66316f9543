"""Command-line pipeline tests: flag parsing, config files, exit codes,
artifact cleanup, determinism, metadata reproduction, a run with scipy
blocked, and the demo and bench-trace scripts run as child processes."""

import ast
import glob
import importlib.util
import json
import os
import re
import string
import contextlib
import io
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import ssclust
from test_data import pgm_files
from ssclust import InputError, compare_partitions, load_frame
from ssclust.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    load_config_file,
    main,
    parse_project_spec,
    parse_synth_spec,
)


def read_labels(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "index,label"
    return np.array([int(line.split(",")[1]) for line in lines[1:]])


def test_parse_synth_spec():
    assert parse_synth_spec("3,2,50,8,0.0,7") == (3, 2, 50, 8, 0.0, 7)
    assert parse_synth_spec(" 1, 4, 50, 30, 0.5, 0 ") == (1, 4, 50, 30, 0.5, 0)
    bad_specs = (
        "3,2,50,8,0.0", "3,2,50,8,0.0,7,9", "a,2,50,8,0.0,7", "3,2,50,8,x,7",
        "3,2,50,8,0.0,-1",
    )
    for bad in bad_specs:
        with pytest.raises(ConfigError):
            parse_synth_spec(bad)


def test_parse_project_spec():
    assert parse_project_spec("25,0") == (25, 0)
    for bad in ("25", "25,0,1", "m,0", "25,s", "0,0"):
        with pytest.raises(ConfigError):
            parse_project_spec(bad)


def test_load_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "\n"
        "synth=3,2,50,8,0.0,7\n"
        "max-iter=300\n"
        "normalize=true\n"
    )
    values = load_config_file(str(cfg))
    assert values["synth"] == (3, 2, 50, 8, 0.0, 7)
    assert values["max_iter"] == 300  # hyphens normalize to underscores
    assert values["normalize"] is True


def test_load_config_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError):
        load_config_file(str(missing))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("wibble=3\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(str(unknown))
    assert "wibble" in str(err.value)
    non_ascii = tmp_path / "non_ascii.cfg"
    non_ascii.write_bytes(b"mu=1.0 # caf\xc3\xa9\n")
    with pytest.raises(ConfigError):
        load_config_file(str(non_ascii))
    proc = run_module("--config", str(non_ascii), "--synth", "3,2,50,8,0.0,7")
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("ssclust: config: ")
    assert "Traceback" not in proc.stderr


def test_config_file_nul_byte_exits_config(tmp_path):
    # os.path and open refuse a NUL in a path; the reader refuses it first
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"out_labels=a\0b\n")
    proc = run_python(
        "-m", "ssclust", "--synth", "3,2,50,8,0.0,7", "--config", "run.cfg",
        "--max-iter", "5", cwd=tmp_path,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("ssclust: config: ")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_bad_value_exits_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for bad in ("max_iter=soon", "normalize=yes"):
        cfg.write_text(f"synth=2,2,20,4,0.0,0\n{bad}\n")
        assert main(["--config", str(cfg)]) == EXIT_CONFIG
        key, _, value = bad.partition("=")
        err = capsys.readouterr().err
        assert err == f"ssclust: config: {cfg}:2: bad value for {key}: '{value}'\n"


def test_command_line_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synth=2,2,20,4,0.0,0\nmu=2.0\nmax_iter=50\ntol-change=1e-4\n")
    meta = tmp_path / "meta.txt"
    code = main(["--config", str(cfg), "--mu", "5.0", "--out-meta", str(meta)])
    assert code == EXIT_OK
    text = meta.read_text()
    assert "mu=5.0\n" in text  # flag wins over the file
    assert "max_iter=50\n" in text  # file fills what flags left unset


def test_compare_partitions_examples():
    assert compare_partitions([0, 1, 2], [0, 1, 2]) == 1.0
    assert compare_partitions([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert compare_partitions([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(2 / 6)
    # fewer than two points have no pair to disagree on
    assert compare_partitions([3], [0]) == 1.0
    assert compare_partitions([], []) == 1.0
    with pytest.raises(InputError):
        compare_partitions([0, 1], [0, 1, 2])


def test_compare_partitions_matches_oracle():
    rng = np.random.default_rng(20)
    sizes = [(int(rng.integers(3, 12)), 3) for _ in range(10)]
    sizes += [(int(rng.integers(100, 400)), int(rng.integers(2, 11))) for _ in range(3)]
    for n, k in sizes:
        a = rng.integers(0, k, size=n)
        b = rng.integers(0, k, size=n)
        assert compare_partitions(a, b) == pytest.approx(
            oracles.pair_counting_agreement(list(a), list(b))
        )


def test_exit_config_on_bad_input_spec(tmp_path):
    out = tmp_path / "l.csv"
    # both sources
    code = main(
        ["--frames", "*.pgm", "--synth", "2,2,20,4,0.0,0", "--out-labels", str(out)]
    )
    assert code == EXIT_CONFIG
    assert not out.exists()
    # no source at all
    assert main(["--out-labels", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_exit_input_on_missing_frames(tmp_path):
    code = main(["--frames", str(tmp_path / "none-*.pgm")])
    assert code == EXIT_INPUT


def test_exit_input_on_bad_pgm(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P9\n1 1\n255\n\x00")
    code = main(["--frames", str(tmp_path / "*.pgm")])
    assert code == EXIT_INPUT


def test_exit_diverged_on_overflowing_mu(tmp_path):
    out = tmp_path / "l.csv"
    code = main(
        [
            "--synth", "2,2,20,4,0.0,0",
            "--normalize",
            "--mu", "1e308",
            "--out-labels", str(out),
        ]
    )
    assert code == EXIT_DIVERGED
    assert not out.exists()


def test_exit_io_removes_partial_outputs(tmp_path):
    labels = tmp_path / "labels.csv"
    code = main(
        [
            "--synth", "2,2,20,4,0.0,0",
            "--max-iter", "200",
            "--tol-change", "1e-3",
            "--out-labels", str(labels),
            "--out-w", str(tmp_path / "missing-dir" / "w.pgm"),
        ]
    )
    assert code == EXIT_IO
    assert not labels.exists()  # written first, removed on the later failure


def test_failed_export_keeps_existing_outputs(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"index,label\n0,7\n")
    before = labels.read_bytes()
    args = [
        "--synth", "2,2,20,4,0.0,0",
        "--max-iter", "200",
        "--tol-change", "1e-3",
        "--out-labels", str(labels),
    ]
    code = main(args + ["--out-w", str(tmp_path / "missing-dir" / "w.pgm")])
    assert code == EXIT_IO
    assert labels.read_bytes() == before  # a later output failed: nothing replaced
    assert [p.name for p in tmp_path.iterdir()] == ["labels.csv"]  # no temporaries
    assert main(args) == EXIT_OK
    assert labels.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["labels.csv"]


def test_unexpected_error_leaves_no_temporaries(tmp_path, monkeypatch):
    def broken_export(value, path):
        raise RuntimeError("export failed")

    monkeypatch.setattr(ssclust.cli, "export_heatmap", broken_export)
    labels = tmp_path / "labels.csv"
    args = ["--synth", "2,2,20,4,0.0,0", "--max-iter", "50", "--out-labels", str(labels)]
    with pytest.raises(RuntimeError):
        main(args + ["--out-w", str(tmp_path / "w.pgm")])
    assert list(tmp_path.iterdir()) == []


def test_full_run_determinism(tmp_path):
    args = ["--synth", "2,2,20,5,0.0,3", "--max-iter", "400", "--tol-change", "1e-4"]
    outs = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        code = main(
            args
            + [
                "--out-labels", str(d / "labels.csv"),
                "--out-w", str(d / "w.pgm"),
                "--out-c", str(d / "c.pgm"),
                "--out-conv", str(d / "conv.csv"),
            ]
        )
        assert code == EXIT_OK
        outs[tag] = d
    for name in ("labels.csv", "w.pgm", "c.pgm", "conv.csv"):
        assert (outs["one"] / name).read_bytes() == (outs["two"] / name).read_bytes()


def test_labels_do_not_depend_on_the_outputs_asked_for(tmp_path):
    # the C heatmap is written before W is built in the solve's buffer, on
    # a split and on the connected paper-scale input; the labels are the
    # same whichever outputs are asked for
    outputs = ("labels.csv", "w.pgm", "c.pgm", "conv.csv", "meta.txt")
    flags = ("--out-labels", "--out-w", "--out-c", "--out-conv", "--out-meta")
    for spec, components in (("3,2,50,8,0.0,7", 3), ("3,2,20736,8,0.0,7", 1)):
        args = ["--synth", spec]
        alone, every = tmp_path / spec / "alone", tmp_path / spec / "every"
        alone.mkdir(parents=True)
        every.mkdir()
        assert main(args + ["--out-labels", str(alone / "labels.csv")]) == EXIT_OK
        pairs = [x for f, name in zip(flags, outputs) for x in (f, str(every / name))]
        assert main(args + pairs) == EXIT_OK
        labels = (alone / "labels.csv").read_bytes()
        assert labels == (every / "labels.csv").read_bytes()
        record = (every / "meta.txt").read_text().splitlines()
        assert f"# components={components}" in record


def test_failed_coefficient_heatmap_exits_io_before_clustering(tmp_path, capsys):
    # the C heatmap is written before clustering, as an export
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"OLD\n")
    code = main(
        [
            "--synth", "3,2,50,8,0.0,7",
            "--out-labels", str(labels),
            "--out-c", str(tmp_path / "missing-dir" / "c.pgm"),
        ]
    )
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("ssclust: export: ")
    assert labels.read_bytes() == b"OLD\n"
    assert [p.name for p in tmp_path.iterdir()] == ["labels.csv"]


def test_metadata_reproduces_run(tmp_path):
    first = tmp_path / "first"
    first.mkdir()
    code = main(
        [
            "--synth", "3,2,50,8,0.0,7",
            "--tol-change", "1e-4",
            "--project", "25,1",
            "--out-labels", str(first / "labels.csv"),
            "--out-conv", str(first / "conv.csv"),
            "--out-meta", str(first / "meta.txt"),
        ]
    )
    assert code == EXIT_OK
    second = tmp_path / "second"
    second.mkdir()
    code = main(
        [
            "--config", str(first / "meta.txt"),
            "--out-labels", str(second / "labels.csv"),
            "--out-conv", str(second / "conv.csv"),
            "--out-meta", str(second / "meta.txt"),
        ]
    )
    assert code == EXIT_OK
    assert (first / "labels.csv").read_bytes() == (second / "labels.csv").read_bytes()
    assert (first / "conv.csv").read_bytes() == (second / "conv.csv").read_bytes()


def test_metadata_replays_every_flag(tmp_path):
    outputs = ("labels.csv", "w.pgm", "c.pgm", "conv.csv", "meta.txt")
    flags = ("--out-labels", "--out-w", "--out-c", "--out-conv", "--out-meta")

    def out_args(d):
        d.mkdir()
        return [x for pair in zip(flags, (str(d / o) for o in outputs)) for x in pair]

    first = tmp_path / "first"
    code = main(
        [
            "--synth", "3,2,50,8,0.0,7",
            "--normalize",
            "--project", "30,2",
            "--mu", "40.0",
            "--rho", "30.0",
            "--max-iter", "150",
            "--tol-primal", "1e-3",
            "--tol-change", "1e-3",
            "--k", "3",
            "--k-max", "5",
        ]
        + out_args(first)
    )
    assert code == EXIT_OK
    record = (first / "meta.txt").read_text()
    for line in ("normalize=true", "project=30,2", "rho=30.0", "k=3", "k_max=5"):
        assert line + "\n" in record
    second = tmp_path / "second"
    code = main(["--config", str(first / "meta.txt")] + out_args(second))
    assert code == EXIT_OK
    for name in outputs[:-1]:
        assert (first / name).read_bytes() == (second / name).read_bytes()

    def settings(d):
        lines = (d / "meta.txt").read_text().splitlines()
        return [line for line in lines if not line.startswith("out_")]

    assert settings(first) == settings(second)


def test_pipeline_blocks_example(tmp_path):
    labels_path = tmp_path / "labels.csv"
    w_path = tmp_path / "w.pgm"
    code = main(
        [
            "--synth", "3,2,50,8,0.0,7",
            "--out-labels", str(labels_path),
            "--out-w", str(w_path),
        ]
    )
    assert code == EXIT_OK
    labels = read_labels(labels_path)
    counts = sorted(np.bincount(labels))
    assert counts == [8, 8, 8]
    truth = np.repeat([0, 1, 2], 8)
    assert compare_partitions(labels, truth) == 1.0
    width, height, pixels = load_frame(str(w_path))
    assert (width, height) == (24, 24)
    assert oracles.block_mass_fraction(pixels.reshape(24, 24), [8, 8, 8]) >= 0.9


def test_pipeline_projection_keeps_partition(tmp_path):
    base = tmp_path / "base.csv"
    proj = tmp_path / "proj.csv"
    common = ["--synth", "3,2,50,8,0.0,7", "--tol-change", "1e-4"]
    assert main(common + ["--out-labels", str(base)]) == EXIT_OK
    assert main(common + ["--project", "25,0", "--out-labels", str(proj)]) == EXIT_OK
    assert compare_partitions(read_labels(base), read_labels(proj)) == 1.0


def test_k_override_flag(tmp_path):
    labels_path = tmp_path / "l.csv"
    meta_path = tmp_path / "m.txt"
    code = main(
        [
            "--synth", "3,2,50,8,0.0,7",
            "--tol-change", "1e-4",
            "--k", "2",
            "--k-max", "500",
            "--out-labels", str(labels_path),
            "--out-meta", str(meta_path),
        ]
    )
    assert code == EXIT_OK
    assert len(set(read_labels(labels_path))) == 2
    # the record gives the affinity's component count beside the k used;
    # only the eigengap reads k_max, so with --k one above N is kept as given
    record = meta_path.read_text().splitlines()
    assert "k=2" in record and "# components=3" in record
    assert "k_max=500" in record


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args, cwd=None, timeout=None):
    """Run the interpreter in a child that imports this process's package."""
    src = os.path.dirname(os.path.dirname(ssclust.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def run_module(*args, timeout=None):
    """Run `python -m ssclust` in a child that imports this process's package."""
    return run_python("-m", "ssclust", *args, timeout=timeout)


def test_console_entry_point():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "--synth" in proc.stdout


@pytest.mark.parametrize(
    "content",
    [
        b"P2\n100000 100000\n255\n0\n",  # a header far larger than the file
        b"P2\n1 1\n255\n99999999999999999999\n",  # a pixel past uint64
    ],
    ids=["huge-header", "huge-pixel"],
)
def test_hostile_pgm_exits_input_without_traceback(tmp_path, content):
    (tmp_path / "hostile.pgm").write_bytes(content)
    proc = run_module("--frames", str(tmp_path / "*.pgm"))
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("ssclust: ingest: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "frame, count, extra",
    [
        (b"P2\n0 0\n255\n", 2, ()),  # no pixels: D = 0
        (b"P2\n0 0\n255\n", 2, ("--project", "1,0")),
        (b"P2\n2 2\n255\n1 2 3 4\n", 1, ()),  # one frame: N = 1
        (b"P2\n2 2\n255\n1 2 3 4\n", 1, ("--project", "1,0")),
    ],
    ids=["empty-frames", "empty-frames-projected", "one-frame", "one-frame-projected"],
)
def test_bad_data_shape_exits_input_at_ingest(tmp_path, frame, count, extra):
    for i in range(count):
        (tmp_path / f"f{i}.pgm").write_bytes(frame)
    proc = run_module("--frames", str(tmp_path / "*.pgm"), *extra)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("ssclust: ingest: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("sigma", ["1e200", "1e308", "inf"])
def test_overflowing_column_norm_exits_input(tmp_path, sigma):
    # finite or not, noise this large leaves columns whose norm is not finite
    out = tmp_path / "l.csv"
    proc = run_module("--synth", f"3,2,50,8,{sigma},7", "--out-labels", str(out))
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("ssclust: ingest: ")
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("--synth", "3,2,50,8,0.0,-1"),
        ("--synth", "3,2,50,8,0.0,7", "--project", "5,-1"),
        ("--synth", "3,2,50,8,0.0,7", "--config", "{cfg}"),
    ],
    ids=["synth", "project", "config-file"],
)
def test_negative_seed_exits_config(tmp_path, args):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("project=5,-1\n")
    proc = run_module(*(arg.format(cfg=cfg) for arg in args))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("ssclust: config: ")
    assert "Traceback" not in proc.stderr


BOUNDS = [
    ("--max-iter", "0", "max_iter must be >= 1, got 0"),
    ("--k-max", "0", "k_max must be >= 1, got 0"),
    ("--k", "0", "k must be >= 1, got 0"),
    ("--rho", "-1", "rho must be positive and finite, got -1.0"),
    ("--project", "0,0", "projection m must be >= 1, got 0"),
    ("--project", "5,-1", "projection seed must be >= 0, got -1"),
    ("--synth", "3,2,50,8,0.0,-1", "synth seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize(
    "flag, value, message", BOUNDS, ids=[f"{f[2:]}={v}" for f, v, _ in BOUNDS]
)
def test_value_below_its_bound_exits_config_before_ingest(
    tmp_path, monkeypatch, capsys, given, flag, value, message
):
    # each bound is checked by its flag's type, so a config line is
    # checked as it is read, with the message the flag gives
    def no_ingest(args):
        raise AssertionError("_load_input called")

    monkeypatch.setattr(ssclust.cli, "_load_input", no_ingest)
    argv = [] if flag == "--synth" else ["--synth", "3,2,50,8,0.0,7"]
    if given == "flag":
        argv += [flag, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n")
        argv += ["--config", str(cfg)]
        message = f"{cfg}:1: {message}"  # a config line's error names it
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"ssclust: config: {message}\n"


def test_config_line_below_its_bound_exits_config_under_a_flag(tmp_path, capsys):
    # the config file is read whole, each line as its flag would read it,
    # so a line out of range is refused even where a flag overrides it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k_max=0\n")
    argv = ["--synth", "3,2,50,8,0.0,7", "--k-max", "3", "--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"ssclust: config: {cfg}:1: k_max must be >= 1, got 0\n"


def test_record_with_the_retired_k_means_keys_replays(tmp_path, capsys):
    # records written while k-means took a seed and a restart count carry
    # spectral_seed= and restarts= lines; the reader skips both keys
    record = tmp_path / "run.txt"
    record.write_text(
        "# run record; reloadable with --config\n"
        "# converged=true\n"
        "# rho_final=3.131953540366563\n"
        "# estimated_k=3\n"
        "# components=3\n"
        "synth=3,2,50,8,0.0,7\n"
        "normalize=false\n"
        "mu=801.7801063338401\n"
        "max_iter=5000\n"
        "tol_primal=0.0001\n"
        "tol_change=1e-05\n"
        "k_max=15\n"
        "spectral_seed=0\n"
        "restarts=10\n"
        f"out_labels={tmp_path / 'replay.csv'}\n"
    )
    values = load_config_file(record)
    assert "spectral_seed" not in values and "restarts" not in values
    assert main(["--config", str(record)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    fresh = tmp_path / "fresh.csv"
    assert main(["--synth", "3,2,50,8,0.0,7", "--out-labels", str(fresh)]) == EXIT_OK
    assert (tmp_path / "replay.csv").read_bytes() == fresh.read_bytes()


def test_bounded_flag_that_is_not_an_int_is_a_usage_error(capsys):
    # argparse names the flag's type, as it does for a plain int flag, and
    # exits with its own usage code
    with pytest.raises(SystemExit) as exit_info:
        main(["--synth", "3,2,50,8,0.0,7", "--k", "abc"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("ssclust: error: argument --k: invalid int value: 'abc'\n")


SOLVER_BOUNDS = [
    ("max_iter", "0", "5", "max_iter must be >= 1, got 0"),
    ("mu", "-1", "5", "mu must be positive and finite, got -1.0"),
    ("rho", "0", "5", "rho must be positive and finite, got 0.0"),
    ("tol_primal", "0", "1e-4", "tolerances must be positive"),
    ("tol_change", "-1e-05", "1e-4", "tolerances must be positive"),
]


@pytest.mark.parametrize(
    "key, bad, good, message", SOLVER_BOUNDS, ids=[f"{k}={b}" for k, b, _, _ in SOLVER_BOUNDS]
)
def test_solver_config_line_out_of_range_exits_config_under_a_flag(
    tmp_path, monkeypatch, capsys, key, bad, good, message
):
    # each solver flag's type asks SolverConfig, so a config line is
    # refused with its message even where a valid flag overrides it
    def no_ingest(args):
        raise AssertionError("_load_input called")

    monkeypatch.setattr(ssclust.cli, "_load_input", no_ingest)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={bad}\n")
    flag = "--" + key.replace("_", "-")
    argv = ["--synth", "3,2,50,8,0.0,7", flag, good, "--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"ssclust: config: {cfg}:1: {message}\n"


@pytest.mark.parametrize(
    "flag, value, kind",
    [("--max-iter", "1.5", "int"), ("--mu", "abc", "float")],
)
def test_solver_flag_of_the_wrong_kind_is_a_usage_error(capsys, flag, value, kind):
    with pytest.raises(SystemExit) as exit_info:
        main(["--synth", "3,2,50,8,0.0,7", flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"ssclust: error: argument {flag}: invalid {kind} value: '{value}'\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--k", "500"], "need 1 <= k <= 200, got k=500"),
        (["--k-max", "200"], "need 1 <= k_max <= 199, got 200"),
    ],
    ids=["k", "k_max"],
)
def test_cluster_count_beyond_the_points_exits_input_before_the_solve(
    monkeypatch, capsys, args, message
):
    def no_solve(*_):
        raise AssertionError("solve_ssc called")

    monkeypatch.setattr(ssclust.cli, "solve_ssc", no_solve)
    assert main(["--synth", "5,3,100,40,0.0,0", *args]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"ssclust: ingest: {message}"


def test_the_command_line_solves_in_float32(monkeypatch):
    dtypes = []

    def recorded_solve(Y, cfg=None, dtype=np.float64):
        dtypes.append(dtype)
        return ssclust.admm.solve_ssc(Y, cfg, dtype=dtype)

    monkeypatch.setattr(ssclust.cli, "solve_ssc", recorded_solve)
    assert main(["--synth", "3,2,50,8,0.0,7"]) == EXIT_OK
    assert dtypes == [np.float32]


def test_the_affinity_is_built_in_the_float32_solve_buffer(monkeypatch):
    # C stays float32 from the solve to the affinity, which is built in its
    # memory: no float64 copy of C or W
    solved, given = [], []

    def recorded_solve(Y, cfg=None, dtype=np.float64):
        C, report = ssclust.admm.solve_ssc(Y, cfg, dtype=dtype)
        solved.append(C)
        return C, report

    def recorded_affinity(C):
        given.append(C)
        return ssclust.spectral.build_affinity(C)

    monkeypatch.setattr(ssclust.cli, "solve_ssc", recorded_solve)
    monkeypatch.setattr(ssclust.cli, "build_affinity", recorded_affinity)
    assert main(["--synth", "3,2,50,8,0.0,7"]) == EXIT_OK
    assert [C.dtype for C in given] == [np.float32]
    assert np.shares_memory(given[0], solved[0])


def test_non_ascii_record_value_exits_config(tmp_path):
    frames = tmp_path / "donnée"
    frames.mkdir()
    rng = np.random.default_rng(9)
    for i in range(6):
        pixels = " ".join(str(p) for p in rng.integers(0, 256, size=9))
        (frames / f"f{i}.pgm").write_text(f"P2\n3 3\n255\n{pixels}\n")
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"index,label\n0,7\n")
    before = labels.read_bytes()
    proc = run_module(
        "--frames", str(frames / "*.pgm"),
        "--max-iter", "50",
        "--out-labels", str(labels),
        "--out-meta", str(tmp_path / "run.txt"),
    )
    # the record is ASCII, so the path cannot be recorded: refused before ingest
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("ssclust: config: frames ")
    assert "Traceback" not in proc.stderr
    assert labels.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["donnée", "labels.csv"]


@pytest.mark.parametrize(
    "first, second",
    [
        ("--out-labels", "--out-conv"),
        ("--out-w", "--out-meta"),
        ("--out-labels", "--out-c"),
    ],
)
def test_outputs_naming_one_file_exit_config(tmp_path, capsys, first, second):
    # the later move onto the file would silently replace the earlier output;
    # the message names the flags in their declaration order
    target = tmp_path / "x.csv"
    target.write_bytes(b"index,label\n0,7\n")
    same = os.path.join(str(tmp_path), ".", "x.csv")  # another spelling
    argv = ["--synth", "3,2,50,8,0.0,7", first, str(target), second, same]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"ssclust: config: {first} and {second} name one file\n"
    )
    assert target.read_bytes() == b"index,label\n0,7\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("target", ["wdir", "", "."], ids=["dir", "empty", "dot"])
def test_output_naming_a_directory_exits_config(tmp_path, monkeypatch, capsys, target):
    # its move would fail only after the labels before it were committed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l.csv").write_bytes(b"OLD\n")
    (tmp_path / "wdir").mkdir()
    argv = ["--synth", "3,2,50,8,0.0,7", "--out-labels", "l.csv", "--out-w", target]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"ssclust: config: --out-w names a directory: {target!r}\n"
    )
    assert (tmp_path / "l.csv").read_bytes() == b"OLD\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "wdir"]
    assert list((tmp_path / "wdir").iterdir()) == []


def test_output_through_a_symlink_rewrites_its_target(tmp_path, monkeypatch):
    # the link stays a link, and the file it names takes the new heatmap
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real.pgm").write_bytes(b"REAL")
    os.symlink("real.pgm", tmp_path / "link.pgm")
    assert main(["--synth", "3,2,50,8,0.0,7", "--out-w", "link.pgm"]) == EXIT_OK
    assert os.readlink(tmp_path / "link.pgm") == "real.pgm"
    assert (tmp_path / "real.pgm").read_bytes().startswith(b"P5\n24 24\n255\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.pgm", "real.pgm"]


@pytest.mark.parametrize("flag", ["--mu", "--rho"])
def test_infinite_weight_exits_config(capsys, flag):
    # refused as configuration, not reported as a divergence of the solve
    assert main(["--synth", "3,2,50,8,0.0,7", flag, "inf"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"ssclust: config: {flag[2:]} must be ")


@pytest.mark.parametrize("name", ["x\ny.csv", "x\ry.csv"], ids=["LF", "CR"])
def test_line_break_in_record_value_exits_config(tmp_path, name):
    # a recorded value is one line of the record; a line break in it would
    # make the record fail to replay, so the run is refused before ingest
    proc = run_module(
        "--synth", "3,2,50,8,0.0,7",
        "--out-labels", str(tmp_path / name),
        "--out-meta", str(tmp_path / "run.txt"),
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("ssclust: config: out_labels ")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


# file-name characters: whitespace that str.strip drops, line breaks, the
# config syntax, and a letter that is not ASCII (no '/' and no NUL)
RECORD_NAME_CHARS = (
    string.ascii_letters + string.digits + ".#= \t\x0b\x0c\x1c\x1d\x1e\x1f\r\né"
)


@settings(max_examples=25, deadline=None)
@given(
    st.text(RECORD_NAME_CHARS, min_size=1, max_size=8).filter(
        lambda name: name not in (".", "..")
    )
)
@example("lab.csv ")
@example("lab.csv\x0b")
@example("lab.csv\x1f")
@example("\tlab.csv")
def test_every_record_replays(name):
    # the labels name is given relative to the working directory, so a
    # leading space is part of it; the record goes to another directory
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as top:
        out, rec = os.path.join(top, "out"), os.path.join(top, "rec")
        os.mkdir(out)
        os.mkdir(rec)
        record = os.path.join(rec, "run.txt")
        argv = ["--synth", "3,2,50,8,0.0,7", "--max-iter", "20"]
        os.chdir(out)
        try:
            code = main([*argv, "--out-labels", name, "--out-meta", record])
            assert code in (EXIT_OK, EXIT_CONFIG)
            if code == EXIT_CONFIG:
                assert os.listdir(out) == [] and os.listdir(rec) == []
                return
            assert os.listdir(out) == [name]
            with open(name, "rb") as fh:
                labels = fh.read()
            os.unlink(name)
            assert main(["--config", record]) == EXIT_OK
            assert os.listdir(out) == [name]
            with open(name, "rb") as fh:
                assert fh.read() == labels
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize(
    "spec",
    [
        "3,2,1000000000000000,8,0.0,7",  # numpy describes it, cannot allocate it
        "3,2,1000000000000000000,8,0.0,7",  # too many bytes to describe
        "3,2,1000000000000000000000000000000,8,0.0,7",  # D past any dimension
        "3,2,50,1000000000000000000000000000000,0.0,7",
        "1000000000000,1,2,1,0.0,0",  # N x N floats past physical memory
        "100,1,2,1,0.0,0",  # more distinct lines than the plane holds
    ],
    ids=["memory", "bytes", "rows", "columns", "points", "unattainable"],
)
def test_oversized_synth_exits_input(tmp_path, spec):
    out = tmp_path / "l.csv"
    # a generator that tries every one of K draws would never return
    proc = run_module("--synth", spec, "--out-labels", str(out), timeout=60)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("ssclust: ingest: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_hopeless_point_count_exits_input_before_the_draw(monkeypatch, capsys):
    # 10^6 points need an 8 TB N x N array: refused before the quadratic
    # basis-pair check of the generator could start
    def no_draw(*args, **kwargs):
        raise AssertionError("synth_union_of_subspaces called")

    monkeypatch.setattr(ssclust.cli, "synth_union_of_subspaces", no_draw)
    assert main(["--synth", "1000000,1,1000,1,0.0,0"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "ssclust: ingest: the input is too large for this machine\n"


def test_memory_error_at_export_exits_input(tmp_path, monkeypatch, capsys):
    def exhausted_export(value, path):
        raise MemoryError

    monkeypatch.setattr(ssclust.cli, "export_heatmap", exhausted_export)
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"index,label\n0,7\n")
    argv = ["--synth", "2,2,20,4,0.0,0", "--max-iter", "50", "--out-labels", str(labels)]
    assert main(argv + ["--out-w", str(tmp_path / "w.pgm")]) == EXIT_INPUT
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "ssclust: export: the input is too large for this machine"
    assert labels.read_bytes() == b"index,label\n0,7\n"
    assert [p.name for p in tmp_path.iterdir()] == ["labels.csv"]


# pools for the contract test: small working values, and the values a
# careless or hostile caller passes; each is given as --flag=value, so a
# leading '-' stays a value
HOSTILE = ("-1", "0", "nan", "inf", "-inf", "1e308", "5e-324")
OPTIONAL_FLAGS = (
    ("--mu", ("10", "40.0", "1e3")),
    ("--rho", ("10", "30.0", "1e3")),
    ("--tol-primal", ("1e-4", "1e-3")),
    ("--tol-change", ("1e-4", "1e-3")),
    ("--k", ("1", "2", "3")),
    ("--k-max", ("1", "2", "3")),
)
OUTPUTS = (("w", "w.pgm"), ("c", "c.pgm"), ("conv", "conv.csv"), ("meta", "run.txt"))
CONFIG_LINES = (
    "normalize=true", "k=2", "tol_change=1e-3", "# comment", "",
    "normalize=yes", "colour=red", "no equals sign", "mu=\xe9", "rho=nan",
    "out_labels=a\0b",
)


@st.composite
def cli_cases(draw):
    """An argv, optional config-file lines, and the PGM frames it reads."""

    def value(*good, hostile=HOSTILE):  # a working value 19 times in 20
        pool = hostile if draw(st.integers(0, 19)) == 19 else good
        return draw(st.sampled_from(pool))

    source = draw(st.sampled_from(["synth"] * 4 + ["frames"] * 3 + ["both", "none"]))
    argv, frames = [], []
    if source in ("synth", "both"):
        fields = (
            value("1", "2", "3"), value("1", "2"), value("3", "5", "20"),
            value("2", "3", "4"), value("0.0", "0.01", "0.1"), value("0", "1", "7"),
        )
        argv.append("--synth=" + ",".join(fields))
    if source in ("frames", "both"):
        frames = [c[0] for c in draw(st.lists(pgm_files(), min_size=1, max_size=4))]
        argv.append("--frames=frames/*.pgm")
    for flag, good in OPTIONAL_FLAGS:
        if draw(st.booleans()):
            argv.append(f"{flag}={value(*good)}")
    if draw(st.booleans()):
        argv.append(f"--project={value('2', '5', '30')},{value('0', '1')}")
    if draw(st.booleans()):
        argv.append("--normalize")
    argv.append(f"--max-iter={value('1', '5', '30', hostile=('-1', '0'))}")
    for kind, name in OUTPUTS:
        if draw(st.booleans()):  # hostile: the case's own directory
            argv.append(f"--out-{kind}={value(name, hostile=('frames',))}")
    config = None
    if draw(st.integers(0, 3)) == 3:
        config = draw(st.lists(st.sampled_from(CONFIG_LINES), max_size=3))
    return argv, config, frames


@settings(max_examples=50, deadline=None)
@given(cli_cases())
# sizes past any address space: MemoryError, and arrays numpy cannot describe
@example((["--synth=3,2,1000000000000000,8,0.0,7", "--max-iter=5"], None, []))
@example((["--synth=3,2,1000000000000000000,8,0.0,7", "--max-iter=5"], None, []))
@example(
    (["--synth=3,2,1000000000000000000000000000000,8,0.0,7", "--max-iter=5"], None, [])
)
@example(
    (["--synth=3,2,50,1000000000000000000000000000000,0.0,7", "--max-iter=5"], None, [])
)
# N x N floats past physical memory: refused before the draw
@example((["--synth=1000000000000,1,2,1,0.0,0", "--max-iter=5"], None, []))
# more distinct subspaces than fit: refused within 100 short attempts
@example((["--synth=100,1,2,1,0.0,0", "--max-iter=5"], None, []))
# an output onto a directory: its move would fail after the labels' move
@example((["--synth=3,2,20,2,0.0,7", "--max-iter=5", "--out-w=frames"], None, []))
def test_cli_contract(case):
    # any input: a contract exit code, no exception out of main, and on
    # failure the existing labels kept and no file added
    argv, config, frames = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as top:
        os.chdir(top)
        try:
            os.mkdir("frames")
            for i, content in enumerate(frames):
                with open(os.path.join("frames", f"f{i}.pgm"), "wb") as fh:
                    fh.write(content)
            if config is not None:
                with open("run.cfg", "wb") as fh:
                    fh.write("\n".join(config).encode("latin-1"))
                argv = [*argv, "--config=run.cfg"]
            with open("labels.csv", "wb") as fh:
                fh.write(b"index,label\n0,7\n")
            before = sorted(os.listdir("."))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main([*argv, "--out-labels=labels.csv"])
                except SystemExit as exc:  # argparse refusing a flag value
                    code = exc.code
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INPUT, EXIT_DIVERGED, EXIT_IO)
            if code != EXIT_OK:
                assert err.getvalue().splitlines()[-1].startswith("ssclust: ")
                assert sorted(os.listdir(".")) == before
                with open("labels.csv", "rb") as fh:
                    assert fh.read() == b"index,label\n0,7\n"
        finally:
            os.chdir(cwd)


def test_record_keeps_rho_only_when_given(tmp_path):
    # a default run balances rho: its record gives the final value as a
    # comment, so a replay balances again; a given rho is recorded as set
    meta = tmp_path / "run.txt"
    assert main(["--synth", "3,2,50,8,0.0,7", "--out-meta", str(meta)]) == EXIT_OK
    lines = meta.read_text().splitlines()
    assert "# converged=true" in lines
    assert not any(line.startswith("rho=") for line in lines)
    changes = [line for line in lines if line.startswith("# rho_changes=")]
    assert len(changes) == 1 and int(changes[0].split("=")[1]) >= 1
    assert sum(line.startswith("# rho_final=") for line in lines) == 1
    argv = ["--synth", "3,2,50,8,0.0,7", "--rho", "30.0", "--out-meta", str(meta)]
    assert main(argv) == EXIT_OK
    lines = meta.read_text().splitlines()
    assert "rho=30.0" in lines
    assert "# rho_final=30.0" in lines and "# rho_changes=0" in lines


def test_import_loads_no_scipy():
    proc = run_python(
        "-c",
        "import sys; import ssclust.cli; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded",
    )
    assert proc.returncode == 0, proc.stderr


def test_full_run_without_scipy(tmp_path):
    outputs = {
        "labels": "l.csv", "w": "w.pgm", "c": "c.pgm", "conv": "conv.csv", "meta": "m.txt",
    }
    argv = ["--synth", "3,2,50,8,0.0,7", "--project", "25,0", "--tol-change", "1e-4"]
    argv += [f"--out-{kind}={tmp_path / name}" for kind, name in outputs.items()]
    # with its module entry set to None, any `import scipy...` raises
    code = textwrap.dedent(
        f"""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from ssclust.cli import main
        from ssclust.projection import jl_distortion
        Y = np.random.default_rng(0).normal(size=(10, 6))
        jl_distortion(Y, Y[:4])
        sys.exit(main({argv!r}))
        """
    )
    proc = run_python("-c", code)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert all((tmp_path / name).exists() for name in outputs.values())


def test_trace_child_records_every_wrapped_span(tmp_path):
    script = os.path.join(REPO, "bench", "trace_child.py")
    spec = importlib.util.spec_from_file_location("trace_child", script)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(3)
    for i in range(12):
        pixels = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
        (frames / f"f{i:02d}.pgm").write_bytes(b"P5\n8 8\n255\n" + pixels)
    outputs = [
        f"--out-{kind}={tmp_path / name}"
        for kind, name in (
            ("labels", "l.csv"), ("w", "w.pgm"), ("c", "c.pgm"),
            ("conv", "conv.csv"), ("meta", "meta.txt"),
        )
    ]
    runs = {
        "frames": ["--frames", str(frames / "*.pgm"), "--project", "20,0", *outputs],
        "synth": ["--synth", "3,2,50,8,0.0,7"],
    }
    seen = set()
    for tag, args in runs.items():
        spans = tmp_path / f"{tag}.json"
        proc = run_python(script, str(spans), "--", "--max-iter", "50", *args)
        assert proc.returncode == 0, proc.stderr
        seen |= {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {name for name, _, _ in trace_child.WRAPPED} <= seen


def test_every_public_name_has_a_reader_outside_tests():
    # a public module-level def or class of the package must be named in some
    # program file under src/, demos/ or bench/ other than its own definition
    # line; the re-exports in __init__.py do not count
    init = os.path.join(REPO, "src", "ssclust", "__init__.py")
    lines = {}
    for top in ("src", "demos", "bench"):
        for path in glob.glob(os.path.join(REPO, top, "**", "*.py"), recursive=True):
            if path != init:
                with open(path, encoding="utf-8") as fh:
                    lines[path] = fh.read().splitlines()
    unread = []
    for path in sorted(glob.glob(os.path.join(REPO, "src", "ssclust", "*.py"))):
        if path == init:
            continue
        for node in ast.parse("\n".join(lines[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(
                word.search(line) and (other, number) != (path, node.lineno)
                for other, text in lines.items()
                for number, line in enumerate(text, start=1)
            ):
                unread.append(f"{os.path.basename(path)}:{node.name}")
    assert unread == []


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("block_structure.py", (), "agreement with ground truth: 1.000"),
        ("random_projection.py", (), "partition agreement full vs. sketched: 1.000"),
        ("frame_pipeline.py", ("--out", "frames"), "cluster sizes: [8, 8, 8]"),
    ],
)
def test_demo_runs(tmp_path, script, args, expected):
    proc = run_python(os.path.join(REPO, "demos", script), *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
