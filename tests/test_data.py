"""I/O and generator tests: PGM parsing (round trips of generated files,
fuzzed bytes, and the byte offset each format error names), matrix
assembly, the synthetic union-of-subspaces sampler, and CSV exports."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ssclust import (
    FormatError,
    InputError,
    admm,
    export_convergence,
    export_heatmap,
    export_labels,
    frames_to_matrix,
    load_frame,
    load_frames,
    normalize_columns,
    synth_union_of_subspaces,
)


def write_p2(path, text):
    path.write_bytes(text.encode("ascii"))
    return str(path)


def test_load_frame_p2(tmp_path):
    p = write_p2(tmp_path / "a.pgm", "P2\n2 2\n255\n0 255 128 64\n")
    width, height, pixels = load_frame(p)
    assert (width, height) == (2, 2)
    assert np.allclose(pixels, [0.0, 1.0, 128 / 255, 64 / 255], atol=0)


def test_load_frame_p2_with_comments(tmp_path):
    text = "P2 # magic\n# a comment line\n2 1\n# another\n10\n5 10\n"
    p = write_p2(tmp_path / "c.pgm", text)
    width, height, pixels = load_frame(p)
    assert (width, height) == (2, 1)
    assert np.allclose(pixels, [0.5, 1.0])


def test_load_frame_p5(tmp_path):
    p = tmp_path / "b.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    width, height, pixels = load_frame(str(p))
    assert (width, height) == (2, 2)
    assert np.allclose(pixels, [0.0, 1.0, 128 / 255, 64 / 255], atol=0)


def test_load_frame_p5_two_byte_samples(tmp_path):
    p = tmp_path / "wide.pgm"
    # maxval 1000 forces big-endian two-byte samples
    payload = (0).to_bytes(2, "big") + (1000).to_bytes(2, "big") + (500).to_bytes(2, "big")
    p.write_bytes(b"P5\n3 1\n1000\n" + payload)
    width, height, pixels = load_frame(str(p))
    assert (width, height) == (3, 1)
    assert np.allclose(pixels, [0.0, 1.0, 0.5])


def test_load_frame_rejects_bad_magic(tmp_path):
    p = write_p2(tmp_path / "bad.pgm", "P3\n1 1\n255\n0\n")
    with pytest.raises(FormatError) as err:
        load_frame(p)
    assert "magic" in str(err.value)
    assert "byte offset" in str(err.value)


def test_load_frame_truncated_payload(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
    with pytest.raises(FormatError) as err:
        load_frame(str(p))
    msg = str(err.value)
    assert "expected 4 bytes" in msg and "got 2" in msg


def test_load_frame_maxval_errors(tmp_path):
    p = write_p2(tmp_path / "z.pgm", "P2\n1 1\n0\n0\n")
    with pytest.raises(FormatError):
        load_frame(p)
    p2 = write_p2(tmp_path / "huge.pgm", "P2\n1 1\n70000\n0\n")
    with pytest.raises(FormatError):
        load_frame(p2)


def test_load_frame_pixel_above_maxval(tmp_path):
    p = write_p2(tmp_path / "over.pgm", "P2\n2 1\n100\n50 101\n")
    with pytest.raises(FormatError):
        load_frame(p)


def test_load_frame_non_numeric_token(tmp_path):
    p = write_p2(tmp_path / "junk.pgm", "P2\ntwo 1\n255\n0\n")
    with pytest.raises(FormatError) as err:
        load_frame(p)
    assert "width" in str(err.value)


@pytest.mark.parametrize(
    "content, message, offset",
    [
        (b"P3\n1 1\n255\n0\n", "magic", 0),
        (b"P2\ntwo 1\n255\n0\n", "width", 3),
        (b"P2 # c\n2", "height", 8),
        (b"P2\n# c\n2 1\n255\n0 x\n", "pixel value", 17),
        (b"P2\n1 1\n255\n\x0b0\n", "pixel value", 11),
        (b"P2\n2 1\n255\n0\n", "expected 2 pixel values, got 1", 10),
        (b"P2\n100000 100000\n255\n0\n", "expected 10000000000 pixel values", 20),
        (b"P2\n1 1\n255\n99999999999999999999\n", "digits", 10),
        (b"P5\n1 1\n255#\n\x00", "whitespace", 10),
        (b"P5\n2 2\n255\n\x01\x02", "expected 4 bytes, got 2", 11),
    ],
)
def test_load_frame_error_offsets(tmp_path, content, message, offset):
    p = tmp_path / "bad.pgm"
    p.write_bytes(content)
    with pytest.raises(FormatError) as err:
        load_frame(str(p))
    msg = str(err.value)
    assert str(p) in msg and message in msg
    assert msg.endswith(f"(at byte offset {offset})")


SPACE = st.text(" \t\r\n", max_size=3)
COMMENT = st.builds(
    lambda body, end: "#" + body + end,
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
    st.sampled_from(["\n", "\r"]),
)
# whitespace, or a comment with optional whitespace around it
SEPARATOR = st.one_of(
    st.text(" \t\r\n", min_size=1, max_size=3),
    st.builds(lambda a, c, b: a + c + b, SPACE, COMMENT, SPACE),
)


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    """One file that every generated example overwrites."""
    return tmp_path_factory.mktemp("pgm") / "f.pgm"


@st.composite
def pgm_files(draw):
    """A P2 or P5 file with comments and mixed whitespace, and its pixels."""
    magic = draw(st.sampled_from(["P2", "P5"]))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.one_of(st.integers(1, 255), st.integers(256, 65535)))
    pixels = draw(
        st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height)
    )
    header = magic
    for value in (width, height, maxval):
        header += draw(SEPARATOR) + str(value)
    if magic == "P5":
        dtype = np.uint8 if maxval < 256 else ">u2"
        payload = np.array(pixels, dtype=dtype).tobytes()
        content = (header + draw(st.sampled_from(" \t\r\n"))).encode() + payload
    else:
        body = "".join(draw(SEPARATOR) + str(v) for v in pixels)
        content = (header + body + draw(SPACE)).encode()
    return content, width, height, maxval, pixels


@settings(max_examples=200, deadline=None)
@given(pgm_files())
def test_load_frame_roundtrips_generated_files(pgm_path, case):
    content, width, height, maxval, pixels = case
    pgm_path.write_bytes(content)
    got = load_frame(str(pgm_path))
    assert got[:2] == (width, height)
    assert np.array_equal(got[2], np.array(pixels, dtype=float) / float(maxval))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([b"P2", b"P5", b"P2 3 2 255\n", b"P5 3 2 255\n", b"P5\n2 1\n65535\n"]),
    st.one_of(
        st.binary(max_size=64),
        st.text(" \t\r\n#0123456789P", max_size=64).map(str.encode),
    ),
)
def test_load_frame_any_bytes_give_frame_or_format_error(pgm_path, prefix, rest):
    pgm_path.write_bytes(prefix + rest)
    try:
        width, height, pixels = load_frame(str(pgm_path))
    except FormatError:
        return
    assert pixels.shape == (width * height,)
    assert np.all((pixels >= 0.0) & (pixels <= 1.0))


def test_load_frames_dimension_mismatch(tmp_path):
    a = write_p2(tmp_path / "a.pgm", "P2\n1 1\n255\n0\n")
    b = write_p2(tmp_path / "b.pgm", "P2\n2 1\n255\n0 0\n")
    c = write_p2(tmp_path / "c.pgm", "P2\n1 1\n")  # malformed, never read
    with pytest.raises(InputError) as err:
        load_frames([a, b, c])
    msg = str(err.value)
    assert "a.pgm" in msg and "b.pgm" in msg
    with pytest.raises(InputError):
        load_frames([])


def test_frames_to_matrix_full_resolution_shape():
    # 24 frames of 144x144 pixels stack into a 20736x24 matrix
    rng = np.random.default_rng(0)
    frames = [rng.uniform(size=144 * 144) for _ in range(24)]
    Y = frames_to_matrix(frames)
    assert Y.shape == (20736, 24)
    assert np.array_equal(Y[:, 3], frames[3])


def test_frames_to_matrix_rejects_empty_set():
    with pytest.raises(InputError, match="empty frame set"):
        frames_to_matrix([])


def test_frames_to_matrix_from_files(tmp_path):
    a = write_p2(tmp_path / "a.pgm", "P2\n2 2\n255\n0 255 128 64\n")
    b = tmp_path / "b.pgm"
    b.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    Y = frames_to_matrix(load_frames([a, str(b)]))
    assert Y.shape == (4, 2)
    # identical content through both formats gives identical columns
    assert np.array_equal(Y[:, 0], Y[:, 1])


def test_frames_to_matrix_zero_column_normalize():
    # stacked frames, normalized as the command line does; a zero frame passes
    frames = [np.zeros(2), np.array([3.0, 4.0])]
    Y = normalize_columns(frames_to_matrix(frames))
    assert np.array_equal(Y[:, 0], [0.0, 0.0])
    assert np.linalg.norm(Y[:, 1]) == pytest.approx(1.0)


def test_normalize_columns():
    Y = np.array([[3.0, 0.0], [4.0, 0.0]])
    out = normalize_columns(Y)
    assert np.allclose(np.linalg.norm(out[:, 0]), 1.0)
    assert np.array_equal(out[:, 1], [0.0, 0.0])
    # input is not modified in place
    assert Y[0, 0] == 3.0
    # a norm that overflows, or an inf entry, is refused, and no warning escapes
    for bad in (np.full((2, 3), 1e200), np.array([[1.0, np.inf], [2.0, 0.0]])):
        with pytest.raises(InputError):
            normalize_columns(bad)


def test_normalize_columns_holds_one_copy():
    Y = np.random.default_rng(5).normal(size=(20736, 64))
    tracemalloc.start()
    try:
        out = normalize_columns(Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * Y.nbytes
    assert np.array_equal(out, Y / np.linalg.norm(Y, axis=0))


def test_synth_shapes_and_membership():
    ds = synth_union_of_subspaces(3, 2, 50, 8, 0.0, 0)
    assert ds.Y.shape == (50, 24)
    assert list(ds.labels) == [0] * 8 + [1] * 8 + [2] * 8
    for k, B in enumerate(ds.bases):
        assert np.max(np.abs(B.T @ B - np.eye(2))) <= 1e-10
        block = ds.Y[:, ds.labels == k]
        resid = block - B @ (B.T @ block)
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-10
    assert np.allclose(np.linalg.norm(ds.Y, axis=0), 1.0)


def test_synth_deterministic():
    a = synth_union_of_subspaces(2, 2, 10, 5, 0.1, 42)
    b = synth_union_of_subspaces(2, 2, 10, 5, 0.1, 42)
    assert np.array_equal(a.Y, b.Y)
    c = synth_union_of_subspaces(2, 2, 10, 5, 0.1, 43)
    assert not np.array_equal(a.Y, c.Y)


def test_synth_rank_one_blocks():
    ds = synth_union_of_subspaces(2, 1, 3, 4, 0.0, 1)
    for k in range(2):
        block = ds.Y[:, ds.labels == k]
        s = np.linalg.svd(block, compute_uv=False)
        assert s[0] > 1e-8
        assert np.all(s[1:] <= 1e-10)


def test_synth_noise_and_separation():
    ds = synth_union_of_subspaces(3, 2, 30, 6, 0.05, 3)
    assert np.allclose(np.linalg.norm(ds.Y, axis=0), 1.0)
    B = ds.bases[0]
    block = ds.Y[:, ds.labels == 0]
    resid = np.linalg.norm(block - B @ (B.T @ block), axis=0)
    assert resid.max() > 1e-6  # noise actually left the subspace
    for seed in range(5):
        d2 = synth_union_of_subspaces(4, 2, 20, 3, 0.0, seed)
        for i in range(4):
            for j in range(i + 1, 4):
                cos = np.linalg.svd(d2.bases[i].T @ d2.bases[j], compute_uv=False)
                assert cos.max() <= 0.9


def test_synth_bases_match_per_pair_reference():
    # K = 40 keeps its first attempt; (5, 3, 9) clashes 27 times before
    # it keeps one; (10, 1, 3) clashes in all 100 attempts
    for K, d, D, seed in ((40, 2, 30, 0), (5, 3, 9, 1), (10, 1, 3, 0)):
        reference = oracles.reference_synth_bases(K, d, D, seed)
        if reference is None:
            with pytest.raises(InputError, match="could not draw"):
                synth_union_of_subspaces(K, d, D, 1, 0.0, seed)
            continue
        bases = synth_union_of_subspaces(K, d, D, 1, 0.0, seed).bases
        assert len(bases) == K
        assert all(np.array_equal(a, b) for a, b in zip(bases, reference))


def test_synth_parameter_validation():
    with pytest.raises(InputError):
        synth_union_of_subspaces(0, 2, 10, 4)
    with pytest.raises(InputError):
        synth_union_of_subspaces(2, 0, 10, 4)
    with pytest.raises(InputError):
        synth_union_of_subspaces(2, 10, 10, 4)
    with pytest.raises(InputError):
        synth_union_of_subspaces(2, 2, 10, 0)
    with pytest.raises(InputError):
        synth_union_of_subspaces(2, 2, 10, 4, noise_sigma=-0.1)
    with pytest.raises(InputError):
        synth_union_of_subspaces(2, 2, 10, 4, noise_sigma=float("nan"))
    with pytest.raises(InputError):
        synth_union_of_subspaces(2, 2, 10, 4, seed=-1)
    # arrays numpy cannot describe: refused before any draw
    for K, d, D, n_per in ((3, 2, 10**18, 8), (3, 2, 10**30, 8), (3, 2, 50, 10**30)):
        with pytest.raises(InputError):
            synth_union_of_subspaces(K, d, D, n_per)
    # more distinct lines than the plane holds: each attempt stops at its clash
    with pytest.raises(InputError, match="could not draw"):
        synth_union_of_subspaces(10**12, 1, 2, 1)


def test_export_heatmap_exact_bytes(tmp_path):
    p = tmp_path / "w.pgm"
    export_heatmap(np.array([[0.0, 1.0], [1.0, 0.0]]), str(p))
    assert p.read_bytes() == b"P5\n2 2\n255\n\x00\xff\xff\x00"


def test_export_heatmap_zero_matrix(tmp_path):
    p = tmp_path / "z.pgm"
    export_heatmap(np.zeros((3, 3)), str(p))
    assert p.read_bytes() == b"P5\n3 3\n255\n" + bytes(9)


def test_export_heatmap_roundtrip(tmp_path):
    rng = np.random.default_rng(19)
    M = rng.normal(size=(5, 7))
    p = tmp_path / "m.pgm"
    export_heatmap(M, str(p))
    width, height, pixels = load_frame(str(p))
    assert (width, height) == (7, 5)
    quantized = np.rint(255.0 * np.abs(M) / np.abs(M).max()) / 255.0
    assert np.allclose(pixels.reshape(5, 7), quantized, atol=0)


def test_export_heatmap_block_mass(tmp_path):
    W = np.zeros((12, 12))
    for s in range(0, 12, 4):
        W[s : s + 4, s : s + 4] = 1.0
    np.fill_diagonal(W, 0.0)
    p = tmp_path / "blocks.pgm"
    export_heatmap(W, str(p))
    _, _, pixels = load_frame(str(p))
    assert oracles.block_mass_fraction(pixels.reshape(12, 12), [4, 4, 4]) >= 0.9


def test_export_heatmap_streams_the_same_bytes(tmp_path, monkeypatch):
    # two-row blocks with a one-row tail, of a C- and a Fortran-ordered M,
    # give the bytes of one quantization of the whole array
    monkeypatch.setattr(admm, "TILE_ELEMENTS", 2 * 5)
    M = np.random.default_rng(23).normal(size=(7, 5))
    pixels = np.rint(255.0 * np.abs(M) / np.abs(M).max()).astype(np.uint8)
    p = tmp_path / "m.pgm"
    for layout in (M, np.asfortranarray(M)):
        export_heatmap(layout, str(p))
        assert p.read_bytes() == b"P5\n5 7\n255\n" + pixels.tobytes()


def test_export_heatmap_float32_gives_the_float64_bytes(tmp_path):
    # a float32 M, as the command line's C and W, is quantized a block of
    # rows at a time in float64: the bytes of M.astype(float), for a C- and
    # a Fortran-ordered M, with no copy the size of M
    M = np.random.default_rng(29).normal(size=(1000, 1000)).astype(np.float32)
    want, got = tmp_path / "want.pgm", tmp_path / "got.pgm"
    export_heatmap(M.astype(float), str(want))
    for layout in (M, np.asfortranarray(M)):
        tracemalloc.start()
        try:
            export_heatmap(layout, str(got))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.read_bytes() == want.read_bytes()
        assert peak <= 0.5 * M.nbytes


def test_export_heatmap_rejects_nonfinite(tmp_path):
    # refused before the file is opened
    for bad in (np.inf, -np.inf, np.nan):
        M = np.array([[0.0, 1.0], [bad, -2.0]])
        with pytest.raises(InputError):
            export_heatmap(M, str(tmp_path / "bad.pgm"))
        assert not (tmp_path / "bad.pgm").exists()


@pytest.mark.parametrize("shape", [(), (4,), (0, 0), (0, 3), (3, 0), (2, 2, 2)])
def test_export_heatmap_refuses_a_shape_without_pixel_rows(tmp_path, shape):
    # not 2-d, or empty: refused as input before the file is opened
    p = tmp_path / "m.pgm"
    with pytest.raises(InputError):
        export_heatmap(np.ones(shape), str(p))
    assert not p.exists()


def test_export_labels_exact(tmp_path):
    p = tmp_path / "labels.csv"
    export_labels([0, 0, 1], str(p))
    assert p.read_bytes() == b"index,label\n0,0\n1,0\n2,1\n"
    with pytest.raises(InputError):
        export_labels([], str(tmp_path / "empty.csv"))


def test_export_convergence_roundtrip(tmp_path):
    p = tmp_path / "conv.csv"
    history = [(1 / 3, 2e-5, np.inf), (0.125, 7e-9, 1e-300)]
    export_convergence(history, str(p))
    text = p.read_text()
    lines = text.split("\n")
    assert lines[0] == "iteration,r1,r2,r3"
    assert "\r" not in text
    assert not any(line.endswith(",") for line in lines if line)
    for lineno, (r1, r2, r3) in enumerate(history, start=1):
        parts = lines[lineno].split(",")
        assert int(parts[0]) == lineno
        assert float(parts[1]) == r1
        assert float(parts[2]) == r2
        assert float(parts[3]) == r3


def test_export_convergence_empty(tmp_path):
    p = tmp_path / "empty.csv"
    export_convergence([], str(p))
    assert p.read_bytes() == b"iteration,r1,r2,r3\n"
