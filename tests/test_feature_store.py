"""Tests for the tensor container, manifests, and episode loading."""

import io
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    write_tensor,
    write_tensor_file,
)


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
        # the header declares 14.4 GB; the stream holds 16 bytes
        blob = b"FTNS" + struct.pack("<BB2I", 1, 2, 60000, 60000) + bytes(16)
        path = tmp_path / "huge.ftns"
        path.write_bytes(blob)
        with pytest.raises(TruncatedError, match="stream held 4"):
            if from_file:
                read_tensor_file(path)
            else:
                read_tensor(io.BytesIO(blob))


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

    def test_unbalanced_support_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            build_manifest(tmp_path, break_support=True).validate()

    def test_query_class_coverage_enforced(self, tmp_path):
        manifest = build_manifest(tmp_path)
        # class 2's queries relabelled as class 0: the count still matches
        uncovered = replace(manifest, query_target=tuple(
            replace(e, class_index=0) if e.class_index == 2 else e
            for e in manifest.query_target
        ))
        with pytest.raises(ManifestError, match="references classes"):
            uncovered.validate()

    @pytest.mark.parametrize("field", ["query_source", "query_target"])
    def test_query_count_must_match_n_query(self, tmp_path, field):
        manifest = build_manifest(tmp_path, n_way=5, n_query=3)
        short = replace(manifest, **{field: getattr(manifest, field)[:-1]})
        with pytest.raises(ManifestError, match=f"{field} holds 14 entries, expected 15"):
            short.validate()
        with pytest.raises(ManifestError, match="expected 20"):
            replace(manifest, n_query=4).validate()

    @pytest.mark.parametrize("field, wrong", [
        ("support", "target"), ("query_source", "target"), ("query_target", "source"),
    ])
    def test_entry_domain_must_match_its_list(self, tmp_path, field, wrong):
        manifest = build_manifest(tmp_path)
        entries = getattr(manifest, field)
        mislabelled = replace(
            manifest, **{field: (replace(entries[0], domain=wrong),) + entries[1:]}
        )
        with pytest.raises(ManifestError, match=f"{entries[0].path}.*domain '{wrong}'"):
            mislabelled.validate()
        with pytest.raises(ManifestError, match="domain"):
            load_episode(mislabelled, tmp_path)

    def test_malformed_record(self):
        with pytest.raises(ManifestError):
            EpisodeManifest.from_dict({"n_way": 5})


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
        escaping = replace(
            manifest,
            query_target=manifest.query_target[:-1] + (replace(last, path=bad_path),),
        )
        opened = []
        monkeypatch.setattr(feature_store, "read_tensor_file", opened.append)
        with pytest.raises(ManifestError, match="leaves the episode directory"):
            load_episode(escaping, episode_dir)
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
