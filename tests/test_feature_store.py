"""Tests for the tensor container, manifests, and episode loading."""

import io
import json
import math
import os
import re
import struct
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewshift import feature_store
from fewshift.errors import (
    BadMagicError,
    ManifestError,
    NonFiniteError,
    ShapeMismatchError,
    TensorFormatError,
    TruncatedError,
    UnsupportedVersionError,
)
from fewshift.feature_store import (
    Episode,
    EpisodeManifest,
    ManifestEntry,
    load_episode,
    read_tensor,
    read_tensor_file,
    save_episode,
    write_tensor,
    write_tensor_file,
)
from fewshift.synthgen import SynthConfig, generate_episode


class TestTensorFormat:
    def test_rank1_layout(self):
        sink = io.BytesIO()
        n = write_tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), sink)
        blob = sink.getvalue()
        assert n == 22
        assert len(blob) == 22
        assert blob[:6] == bytes.fromhex("46544E530101")

    def test_rank4_byte_count(self):
        arr = np.zeros((5, 10, 10, 64), dtype=np.float32)
        n = write_tensor(arr, io.BytesIO())
        assert n == 6 + 16 + 128000

    def test_rank0_rejected(self):
        with pytest.raises(ValueError):
            write_tensor(np.float32(1.0), io.BytesIO())

    def test_rank5_rejected(self):
        with pytest.raises(ValueError):
            write_tensor(np.zeros((1, 1, 1, 1, 1), dtype=np.float32), io.BytesIO())

    def test_round_trip_random_shapes(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rank = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(1, 5, size=rank))
            arr = rng.normal(size=dims).astype(np.float32)
            sink = io.BytesIO()
            write_tensor(arr, sink)
            back = read_tensor(io.BytesIO(sink.getvalue()))
            assert back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            read_tensor(io.BytesIO(b"XXXX" + bytes(20)))

    def test_unsupported_version(self):
        with pytest.raises(UnsupportedVersionError):
            read_tensor(io.BytesIO(b"FTNS\x02\x01" + bytes(8)))

    def test_truncated_payload(self):
        sink = io.BytesIO()
        write_tensor(np.ones((2, 2), dtype=np.float32), sink)
        clipped = sink.getvalue()[:-4]  # drop one float: 3 of 4 remain
        with pytest.raises(TruncatedError):
            read_tensor(io.BytesIO(clipped))

    def test_truncated_header(self):
        with pytest.raises(TruncatedError):
            read_tensor(io.BytesIO(b"FT"))

    @pytest.mark.parametrize("rank", [0, 5])
    def test_header_rank_outside_range(self, rank):
        blob = b"FTNS" + struct.pack("<BB", 1, rank) + bytes(4 * rank + 4)
        with pytest.raises(TensorFormatError, match=rf"rank {rank} outside \[1, 4\]") as err:
            read_tensor(io.BytesIO(blob))
        assert err.type is TensorFormatError

    def test_header_zero_dim(self):
        blob = b"FTNS" + struct.pack("<BB2I", 1, 2, 3, 0)
        with pytest.raises(TensorFormatError, match=r"zero dimension in \(3, 0\)") as err:
            read_tensor(io.BytesIO(blob))
        assert err.type is TensorFormatError

    def test_zero_length_axis_not_written(self):
        sink = io.BytesIO()
        with pytest.raises(ValueError, match=r"dims must be positive, got \(2, 0\)"):
            write_tensor(np.zeros((2, 0), dtype=np.float32), sink)
        assert sink.getvalue() == b""

    def test_file_round_trip(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32)
        path = tmp_path / "t.ftns"
        write_tensor_file(arr, path)
        back = read_tensor_file(path)
        assert back.tobytes() == arr.tobytes()
        assert back.flags.writeable  # the array owns its buffer

    def test_sink_failure_reports_offset(self):
        class FailingSink:
            def __init__(self, allow):
                self.allow = allow

            def write(self, data):
                if self.allow <= 0:
                    raise OSError("disk full")
                self.allow -= 1

        from fewshift.errors import TensorIOError

        with pytest.raises(TensorIOError) as err:
            write_tensor(np.ones(3, dtype=np.float32), FailingSink(allow=2))
        assert err.value.offset == 6  # magic + version/rank written

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 5, 11])
    def test_non_finite_payload_rejected_with_offset(self, bad, index):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        arr.flat[index] = bad
        arr.flat[11 if index < 11 else 0] = np.nan  # a later bad value is not the first
        sink = io.BytesIO()
        write_tensor(arr, sink)
        with pytest.raises(NonFiniteError) as err:
            read_tensor(io.BytesIO(sink.getvalue()))
        first = min(index, 11 if index < 11 else 0)
        assert err.value.offset == 6 + 4 * 2 + 4 * first
        assert f"byte offset {err.value.offset}" in str(err.value)

    def test_file_errors_name_the_path(self, tmp_path):
        path = tmp_path / "cut.ftns"
        write_tensor_file(np.ones((2, 3), dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TruncatedError, match="cut.ftns"):
            read_tensor_file(path)
        arr = np.ones(4, dtype=np.float32)
        arr[2] = np.nan
        write_tensor_file(arr, path)
        with pytest.raises(NonFiniteError, match=r"cut\.ftns.*byte offset 18"):
            read_tensor_file(path)

    @pytest.mark.parametrize("from_file", [False, True])
    def test_huge_declared_payload_is_truncation(self, tmp_path, from_file):
        # the headers declare 14.4 GB, and element counts of 2**64 and
        # 2**64 * 4, which wrap to 0 in int64; the stream holds 16 bytes
        for dims in ((60000, 60000), (65536,) * 4, (2**31, 2**31, 4, 1)):
            blob = b"FTNS" + struct.pack(f"<BB{len(dims)}I", 1, len(dims), *dims) + bytes(16)
            path = tmp_path / "huge.ftns"
            path.write_bytes(blob)
            with pytest.raises(TruncatedError, match="stream held 4"):
                if from_file:
                    read_tensor_file(path)
                else:
                    read_tensor(io.BytesIO(blob))


def read_through_pipe(blob):
    """read_tensor on the read end of an os.pipe that carries blob."""
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as sink:
            sink.write(blob)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with os.fdopen(r, "rb") as source:
            assert not source.seekable()
            return read_tensor(source)
    finally:
        writer.join()


class TestPipeRead:
    @pytest.mark.parametrize("dims", [(4096, 4096), (2**31, 2**31, 4, 1)])
    def test_oversized_header_is_truncated_not_allocated(self, dims):
        blob = b"FTNS" + struct.pack(f"<BB{len(dims)}I", 1, len(dims), *dims)
        blob += bytes(22 - len(blob))  # 22 bytes in all
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedError):
                read_through_pipe(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_tensor_larger_than_a_chunk_round_trips(self):
        arr = np.random.default_rng(5).standard_normal((700, 600)).astype(np.float32)
        assert arr.nbytes > feature_store._CHUNK
        sink = io.BytesIO()
        write_tensor(arr, sink)
        back = read_through_pipe(sink.getvalue())
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


finite_tensors = hnp.arrays(
    np.float32,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4),
    elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(arr=finite_tensors)
def test_tensor_round_trip_property(arr):
    sink = io.BytesIO()
    assert write_tensor(arr, sink) == 6 + 4 * arr.ndim + 4 * arr.size
    back = read_tensor(io.BytesIO(sink.getvalue()))
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert back.flags.writeable
    assert back.tobytes() == arr.astype("<f4").tobytes()  # -0.0 and subnormals too


@settings(max_examples=25, deadline=None)
@given(arr=finite_tensors)
def test_every_proper_prefix_rejected(arr):
    sink = io.BytesIO()
    write_tensor(arr, sink)
    blob = sink.getvalue()
    header = 6 + 4 * arr.ndim
    for n in range(len(blob)):
        expected = TruncatedError if n >= header else TensorFormatError
        with pytest.raises(expected):
            read_tensor(io.BytesIO(blob[:n]))


def build_manifest(tmp_path, n_way=5, k_shot=1, n_query=3, dims=(4, 4, 8),
                   break_support=False, wrong_d_for=None):
    h, w, d = dims
    rng = np.random.default_rng(0)
    support, qs, qt = [], [], []
    for c in range(n_way):
        for s in range(k_shot):
            if break_support and c == n_way - 1:
                continue
            name = f"s{c}_{s}.ftns"
            write_tensor_file(rng.normal(size=(h, w, d)).astype(np.float32), tmp_path / name)
            support.append(ManifestEntry(name, c, "source"))
    for c in range(n_way):
        for q in range(n_query):
            for prefix, domain, bucket in (("qs", "source", qs), ("qt", "target", qt)):
                name = f"{prefix}{c}_{q}.ftns"
                dd = wrong_d_for if (wrong_d_for and name == "qt0_0.ftns") else d
                write_tensor_file(
                    rng.normal(size=(h, w, dd)).astype(np.float32), tmp_path / name
                )
                bucket.append(ManifestEntry(name, c, domain))
    return EpisodeManifest(
        n_way=n_way, k_shot=k_shot, n_query=n_query,
        height=h, width=w, channels=d,
        support=tuple(support), query_source=tuple(qs), query_target=tuple(qt),
    )


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(tmp_path)
        manifest.save(tmp_path / "manifest.json")
        loaded = EpisodeManifest.load(tmp_path / "manifest.json")
        assert loaded == manifest

    def test_one_class_rejected(self, tmp_path):
        # a query needs two classes to be ranked; load names the file
        raw = build_manifest(tmp_path).to_dict()
        raw["n_way"] = 1
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ManifestError, match=re.escape(f"{path}: n_way must be >= 2, got 1")):
            EpisodeManifest.load(path)

    def test_unbalanced_support_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            build_manifest(tmp_path, break_support=True)

    @pytest.mark.parametrize("relabel, message", [
        (7, "support class 7 out of range"),
        (0, r"support classes unbalanced: \[2, 0, 1, 1, 1\]"),
    ], ids=["out-of-range", "unbalanced"])
    def test_support_classes_checked(self, tmp_path, relabel, message):
        # the support count still matches n_way * k_shot
        manifest = build_manifest(tmp_path)
        support = list(manifest.support)
        support[1] = replace(support[1], class_index=relabel)
        with pytest.raises(ManifestError, match=message):
            replace(manifest, support=tuple(support))

    def test_query_class_coverage_enforced(self, tmp_path):
        manifest = build_manifest(tmp_path)
        # class 2's queries relabelled as class 0: the count still matches
        with pytest.raises(ManifestError, match="references classes"):
            replace(manifest, query_target=tuple(
                replace(e, class_index=0) if e.class_index == 2 else e
                for e in manifest.query_target
            ))

    @pytest.mark.parametrize("field", ["query_source", "query_target"])
    def test_query_count_must_match_n_query(self, tmp_path, field):
        manifest = build_manifest(tmp_path, n_way=5, n_query=3)
        with pytest.raises(ManifestError, match=f"{field} holds 14 entries, expected 15"):
            replace(manifest, **{field: getattr(manifest, field)[:-1]})
        with pytest.raises(ManifestError, match="expected 20"):
            replace(manifest, n_query=4)

    @pytest.mark.parametrize("field, wrong", [
        ("support", "target"), ("query_source", "target"), ("query_target", "source"),
    ])
    def test_entry_domain_must_match_its_list(self, tmp_path, field, wrong):
        manifest = build_manifest(tmp_path)
        entries = getattr(manifest, field)
        with pytest.raises(ManifestError, match=f"{entries[0].path}.*domain '{wrong}'"):
            replace(manifest, **{field: (replace(entries[0], domain=wrong),) + entries[1:]})
        raw = manifest.to_dict()
        raw[field][0]["domain"] = wrong
        with pytest.raises(ManifestError, match="domain"):
            EpisodeManifest.from_dict(raw)

    def test_malformed_record(self):
        with pytest.raises(ManifestError):
            EpisodeManifest.from_dict({"n_way": 5})

    def test_non_string_path_rejected(self, tmp_path):
        raw = build_manifest(tmp_path).to_dict()
        raw["query_source"][1]["path"] = 5
        with pytest.raises(ManifestError, match="query_source entry path 5 is not a string"):
            EpisodeManifest.from_dict(raw)

    @pytest.mark.parametrize("field", ["h", "w", "d"])
    @pytest.mark.parametrize("value", [0, -2, 2.9, True, "1"])
    def test_non_positive_dims_rejected(self, tmp_path, field, value):
        manifest = build_manifest(tmp_path)
        raw = manifest.to_dict()
        raw["dims"][field] = value
        if type(value) is int:
            message = f"dims {field} must be >= 1, got {value}"
        else:  # a float, bool or string is not read as a whole number
            message = re.escape(f"dims {field} must be an integer, got {value!r}")
        with pytest.raises(ManifestError, match=message):
            EpisodeManifest.from_dict(raw)
        attr = {"h": "height", "w": "width", "d": "channels"}[field]
        with pytest.raises(ManifestError, match=f"dims {field}"):
            load_episode(replace(manifest, **{attr: value}), tmp_path)


class TestLoadEpisode:
    def test_five_way_one_shot(self, tmp_path):
        manifest = build_manifest(tmp_path, n_way=5, k_shot=1, n_query=3)
        episode = load_episode(manifest, tmp_path)
        assert episode.n_way == 5
        assert episode.k_shot == 1
        assert len(episode.query_target) == 15
        assert episode.grid == (4, 4, 8)

    def test_shape_mismatch(self, tmp_path):
        manifest = build_manifest(tmp_path, wrong_d_for=4)
        with pytest.raises(ShapeMismatchError):
            load_episode(manifest, tmp_path)

    def test_missing_file(self, tmp_path):
        manifest = build_manifest(tmp_path)
        (tmp_path / "qs0_0.ftns").unlink()
        with pytest.raises(FileNotFoundError):
            load_episode(manifest, tmp_path)

    def test_double_load_equal(self, tmp_path):
        manifest = build_manifest(tmp_path)
        a = load_episode(manifest, tmp_path)
        b = load_episode(manifest, tmp_path)
        assert a.content_hash() == b.content_hash()

    @pytest.mark.parametrize("bad_path", ["../x.ftns", "a/../../x.ftns", "ABSOLUTE"])
    def test_escaping_entry_rejected_before_any_read(self, tmp_path, monkeypatch, bad_path):
        from fewshift import feature_store

        episode_dir = tmp_path / "ep"
        episode_dir.mkdir()
        manifest = build_manifest(episode_dir)
        outside = tmp_path / "x.ftns"
        write_tensor_file(np.zeros((4, 4, 8), dtype=np.float32), outside)
        if bad_path == "ABSOLUTE":
            bad_path = str(outside)
        last = manifest.query_target[-1]
        opened = []
        monkeypatch.setattr(feature_store, "read_tensor_file", opened.append)
        # the manifest is rejected as it is built, so no load can start
        with pytest.raises(ManifestError, match="leaves the episode directory"):
            load_episode(replace(
                manifest,
                query_target=manifest.query_target[:-1] + (replace(last, path=bad_path),),
            ), episode_dir)
        raw = manifest.to_dict()
        raw["query_target"][-1]["path"] = bad_path
        (episode_dir / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ManifestError, match="leaves the episode directory"):
            load_episode(EpisodeManifest.load(episode_dir / "manifest.json"), episode_dir)
        assert opened == []

    def test_dotdot_inside_directory_loads(self, tmp_path):
        manifest = build_manifest(tmp_path)
        first = manifest.support[0]
        inside = replace(
            manifest,
            support=(replace(first, path=f"sub/../{first.path}"),) + manifest.support[1:],
        )
        assert load_episode(inside, tmp_path).content_hash() == (
            load_episode(manifest, tmp_path).content_hash()
        )

    def test_support_rows_are_class_major_in_any_manifest_order(self, tmp_path):
        manifest = build_manifest(tmp_path, n_way=3, k_shot=2)
        # c2 s0, c0 s0, c1 s0, c2 s1, c0 s1, c1 s1: each class keeps its shot order
        interleaved = replace(manifest, support=tuple(
            manifest.support[2 * c + s] for s in range(2) for c in (2, 0, 1)
        ))
        a = load_episode(manifest, tmp_path)
        b = load_episode(interleaved, tmp_path)
        assert b.content_hash() == a.content_hash()
        for c in range(3):
            assert np.array_equal(b.support[c], a.support[c])
            assert np.array_equal(
                a.support[c][1], read_tensor_file(tmp_path / f"s{c}_1.ftns")
            )

    def test_labels_quarantined(self, tmp_path):
        episode = load_episode(build_manifest(tmp_path), tmp_path)
        public = [name for name in vars(episode) if not name.startswith("_")]
        assert "query_source_labels" in public
        assert all("target" not in name or "label" not in name for name in public)
        assert len(episode.scoring_labels()) == len(episode.query_target)


HEADER = 6 + 4 * 3  # header bytes of a (4, 4, 8) tensor, build_manifest's grid


def patched(at, value):
    return lambda blob: blob[:at] + value + blob[at + len(value):]


CORRUPT = {
    "bad-magic": patched(0, b"XXXX"),
    "version-2": patched(4, b"\x02"),
    "rank-0": patched(5, b"\x00"),
    "rank-5": patched(5, b"\x05"),
    "zero-dim": patched(10, struct.pack("<I", 0)),
    **{f"header-cut-{n}": (lambda blob, n=n: blob[:n]) for n in range(HEADER)},
    "one-float-short": lambda blob: blob[:-4],
    "nan": patched(HEADER + 4 * 3, struct.pack("<f", math.nan)),
    "inf": patched(HEADER + 4 * 100, struct.pack("<f", math.inf)),
    "minus-inf": patched(HEADER + 4 * 127, struct.pack("<f", -math.inf)),
}


class TestLoadIntoRows:
    """load_episode reads each file straight into its row; every fault
    must read as it does from read_tensor_file alone."""

    @pytest.mark.parametrize("corrupt", CORRUPT.values(), ids=CORRUPT.keys())
    def test_errors_match_the_file_reader(self, tmp_path, corrupt):
        manifest = build_manifest(tmp_path)
        path = tmp_path / "qs1_2.ftns"
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(TensorFormatError) as alone:
            read_tensor_file(path)
        with pytest.raises(TensorFormatError) as loaded:
            load_episode(manifest, tmp_path)
        assert loaded.type is alone.type
        assert str(loaded.value) == str(alone.value)
        assert str(path) in str(loaded.value)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (1, 4, 4, 8)], ids=["wrong-hwd", "rank-4"])
    def test_other_shape_is_a_mismatch(self, tmp_path, shape):
        manifest = build_manifest(tmp_path)
        path = tmp_path / "qt2_1.ftns"
        write_tensor_file(np.ones(shape, dtype=np.float32), path)
        with pytest.raises(ShapeMismatchError) as alone:
            read_tensor_file(path, out=np.empty((4, 4, 8), dtype="<f4"))
        with pytest.raises(ShapeMismatchError) as loaded:
            load_episode(manifest, tmp_path)
        assert str(loaded.value) == str(alone.value)
        assert str(alone.value) == f"{path}: shape {shape}, expected (4, 4, 8)"

    def test_trailing_bytes_still_load(self, tmp_path):
        manifest = build_manifest(tmp_path)
        before = load_episode(manifest, tmp_path)
        path = tmp_path / "s3_0.ftns"
        path.write_bytes(path.read_bytes() + bytes(12))
        assert load_episode(manifest, tmp_path).content_hash() == before.content_hash()

    @pytest.mark.parametrize("out", [
        np.empty((4, 4, 16), dtype="<f4")[..., ::2],
        np.empty((4, 8, 4), dtype="<f4").transpose(0, 2, 1),
        np.empty((4, 4, 8), dtype=">f4"),
        np.empty((4, 4, 8)),
        np.frombuffer(bytes(4 * 128), dtype="<f4").reshape(4, 4, 8),
    ], ids=["strided", "transposed", "big-endian", "float64", "read-only"])
    def test_out_must_be_writable_contiguous_f4(self, tmp_path, out):
        path = tmp_path / "t.ftns"
        write_tensor_file(np.ones((4, 4, 8), dtype=np.float32), path)
        with pytest.raises(ValueError, match="writable C-contiguous <f4"):
            read_tensor_file(path, out=out)

    def test_short_vectored_read_falls_back_to_the_parser(self, tmp_path, monkeypatch):
        arr = np.random.default_rng(3).normal(size=(4, 4, 8)).astype(np.float32)
        path = tmp_path / "t.ftns"
        write_tensor_file(arr, path)
        readv = os.readv
        # the header arrives, the payload does not
        monkeypatch.setattr(feature_store.os, "readv", lambda fd, bufs: readv(fd, bufs[:1]))
        out = np.full((4, 4, 8), np.nan, dtype="<f4")
        assert read_tensor_file(path, out=out) is out
        assert out.tobytes() == arr.tobytes()

    def test_benchmark_read_span_counts_every_file_byte(self, tmp_path, monkeypatch):
        # perfbench/run.py wraps read_tensor_file in the feature_store
        # namespace and counts 6 + 4 * r.ndim + 4 * r.size bytes per
        # returned array as feature_store.bytes_read
        episode, _ = generate_episode(SynthConfig(
            seed=20230, shift_strength=0.6, pixel_noise=0.15, distractor_rate=0.2))
        path = save_episode(episode, tmp_path / "ep")
        counted = []
        real = feature_store.read_tensor_file

        def traced(*args, **kwargs):
            r = real(*args, **kwargs)
            counted.append(6 + 4 * r.ndim + 4 * r.size)
            return r

        monkeypatch.setattr(feature_store, "read_tensor_file", traced)
        load_episode(EpisodeManifest.load(path), path.parent)
        files = list(path.parent.glob("*.ftns"))
        assert len(counted) == len(files) == 155
        assert sum(counted) == sum(f.stat().st_size for f in files)


@settings(max_examples=30, deadline=None)
@given(arr=finite_tensors)
def test_read_into_out_property(arr):
    out = np.empty(arr.shape, dtype="<f4")
    with tempfile.TemporaryDirectory() as tmp:
        write_tensor_file(arr, Path(tmp) / "t.ftns")
        assert read_tensor_file(Path(tmp) / "t.ftns", out=out) is out
    assert out.tobytes() == arr.astype("<f4").tobytes()  # -0.0 and subnormals too


class TestEpisode:
    @pytest.mark.parametrize("n_images", [2 + 3 + 4 - 1, 2 + 3 + 4 + 1])
    def test_image_count_must_match_the_layout(self, n_images):
        images = np.zeros((n_images, 2, 2, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="does not hold"):
            Episode(images, 2, 1, [0, 1, 1], [0, 1, 0, 1])

    def test_sets_are_views_of_the_stack(self):
        images = np.arange(9 * 2 * 2 * 3, dtype=np.float32).reshape(9, 2, 2, 3)
        ep = Episode(images, 2, 1, [0, 1, 1], [0, 1, 0, 1])
        assert [s.shape for s in ep.support] == [(1, 2, 2, 3)] * 2
        assert np.array_equal(ep.support[1][0], images[1])
        assert np.array_equal(ep.query_source, images[2:5])
        assert np.array_equal(ep.query_target, images[5:])
        assert all(np.shares_memory(s, ep.images) for s in ep.support)
        assert ep.grid == (2, 2, 3)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_way=st.integers(2, 3),
    k_shot=st.integers(1, 3),
    n_query=st.integers(1, 3),
)
def test_save_load_round_trip(seed, n_way, k_shot, n_query):
    rng = np.random.default_rng(seed)
    qs_labels, qt_labels = (
        rng.permutation(np.repeat(np.arange(n_way), n_query)).tolist() for _ in range(2)
    )
    n = n_way * (k_shot + 2 * n_query)
    episode = Episode(rng.normal(size=(n, 2, 4, 3)), n_way, k_shot, qs_labels, qt_labels)
    with tempfile.TemporaryDirectory() as out:
        path = save_episode(episode, Path(out) / "ep")
        assert path == Path(out) / "ep" / "manifest.json"
        loaded = load_episode(EpisodeManifest.load(path), path.parent)
    assert loaded.content_hash() == episode.content_hash()
    assert loaded.scoring_labels() == episode.scoring_labels()
    assert (loaded.n_way, loaded.k_shot) == (n_way, k_shot)
    for got, want in zip(loaded.support_rows, episode.support_rows, strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(loaded.qs_rows, episode.qs_rows)
    assert np.array_equal(loaded.qt_rows, episode.qt_rows)
