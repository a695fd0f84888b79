"""On-disk tensor container, episode manifests, and episode loading and saving.

Tensor container layout (all little-endian):

    offset  size      field
    0       4         magic "FTNS"
    4       1         version, currently 0x01
    5       1         rank r, 1..4
    6       4*r       dims, uint32 each
    6+4r    4*prod    payload, float32 row-major

Manifests are JSON text records; see EpisodeManifest for the fields.
Entry paths are relative to the manifest's directory and may not leave it.
Target-query labels are parsed but quarantined at load time: they are
reachable only through Episode.scoring_labels(), never through the
accessors the pipeline consumes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (
    BadMagicError,
    ManifestError,
    NonFiniteError,
    ShapeMismatchError,
    TensorFormatError,
    TensorIOError,
    TruncatedError,
    UnsupportedVersionError,
)

MAGIC = b"FTNS"
VERSION = 1
MAX_RANK = 4
_CHUNK = 1 << 20  # bytes per payload read


def _checked_write(sink: BinaryIO, data: bytes | memoryview, offset: int) -> int:
    try:
        sink.write(data)
    except OSError as exc:
        raise TensorIOError(offset, str(exc)) from exc
    return offset + len(data)


def write_tensor(tensor: np.ndarray, sink: BinaryIO) -> int:
    """Serialize a float tensor; returns the total bytes written."""
    rank = np.asarray(tensor).ndim
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in [1, {MAX_RANK}], got {rank}")
    arr = np.ascontiguousarray(tensor, dtype="<f4")
    if any(d <= 0 for d in arr.shape):
        raise ValueError(f"dims must be positive, got {arr.shape}")
    offset = _checked_write(sink, MAGIC, 0)
    offset = _checked_write(sink, struct.pack("<BB", VERSION, arr.ndim), offset)
    offset = _checked_write(sink, struct.pack(f"<{arr.ndim}I", *arr.shape), offset)
    offset = _checked_write(sink, memoryview(arr).cast("B"), offset)
    return offset


def read_tensor(source: BinaryIO) -> np.ndarray:
    """Inverse of write_tensor; round trips are bit-exact.

    A NaN or infinite payload float is rejected.  Every format error
    names the stream's file, when the stream has one.
    """
    name = getattr(source, "name", None)
    where = f"{os.fspath(name)}: " if isinstance(name, (str, os.PathLike)) else ""
    head = source.read(4)
    if len(head) < 4:
        raise TruncatedError(f"{where}stream ended inside the magic ({len(head)} bytes)")
    if head != MAGIC:
        raise BadMagicError(f"{where}expected {MAGIC!r}, got {head!r}")
    vr = source.read(2)
    if len(vr) < 2:
        raise TruncatedError(f"{where}stream ended inside the version/rank bytes")
    version, rank = struct.unpack("<BB", vr)
    if version != VERSION:
        raise UnsupportedVersionError(f"{where}version {version} not supported")
    if not 1 <= rank <= MAX_RANK:
        raise TensorFormatError(f"{where}rank {rank} outside [1, {MAX_RANK}]")
    dim_bytes = source.read(4 * rank)
    if len(dim_bytes) < 4 * rank:
        raise TruncatedError(f"{where}stream ended inside the dims")
    dims = struct.unpack(f"<{rank}I", dim_bytes)
    if any(d == 0 for d in dims):
        raise TensorFormatError(f"{where}zero dimension in {dims}")
    count = math.prod(dims)  # a Python int: np.prod wraps around in int64
    # read a chunk at a time up to the declared size, so a corrupt header
    # grows the buffer only as far as the stream holds
    payload = bytearray()
    while chunk := source.read(min(_CHUNK, 4 * count - len(payload))):
        payload += chunk
    if len(payload) < 4 * count:
        raise TruncatedError(
            f"{where}payload declares {count} floats, stream held {len(payload) // 4}"
        )
    data = np.frombuffer(payload, dtype="<f4")
    finite = np.isfinite(data)
    if not finite.all():
        first = int(finite.argmin())
        offset = 6 + 4 * rank + 4 * first
        raise NonFiniteError(
            f"{where}non-finite payload float {data[first]} at byte offset {offset}",
            offset,
        )
    return data.reshape(dims)


def write_tensor_file(tensor: np.ndarray, path: str | Path) -> int:
    with open(path, "wb") as sink:
        return write_tensor(tensor, sink)


def read_tensor_file(path: str | Path, out: np.ndarray | None = None) -> np.ndarray:
    """The tensor in the file at path; with out, read into out and return it.

    out must be a writable C-contiguous '<f4' array.  The header and
    payload arrive in one os.readv (POSIX only), the payload straight
    into out, which is returned when the header is the one out's shape
    implies, the file held all of out and every float is finite.  Else
    the file is parsed again by read_tensor, so every format error reads
    as without out, and a well-formed tensor of another shape raises
    ShapeMismatchError.  A failed read leaves out partly overwritten.
    """
    if out is not None:
        flags = out.flags
        if out.dtype != np.dtype("<f4") or not (flags.c_contiguous and flags.writeable):
            raise ValueError(f"out must be a writable C-contiguous <f4 array, got {out.dtype}")
        header = MAGIC + struct.pack(f"<BB{out.ndim}I", VERSION, out.ndim, *out.shape)
        held = bytearray(len(header))
        fd = os.open(path, os.O_RDONLY)
        try:
            count = os.readv(fd, [held, out])
        finally:
            os.close(fd)
        if count == len(header) + out.nbytes and held == header and np.isfinite(out).all():
            return out
    with open(path, "rb") as source:
        arr = read_tensor(source)
    if out is None:
        return arr
    if arr.shape != out.shape:
        raise ShapeMismatchError(f"{os.fspath(path)}: shape {arr.shape}, expected {out.shape}")
    out[...] = arr  # readv came up short on a file that holds out's tensor
    return out


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    class_index: int
    domain: str


def _confined(path: str) -> bool:
    """True when path is relative and, with '..' resolved, stays inside
    the directory it is relative to."""
    norm = os.path.normpath(path)
    return not os.path.isabs(path) and norm != os.pardir and not norm.startswith(
        os.pardir + os.sep
    )


@dataclass(frozen=True)
class EpisodeManifest:
    """Declares one episode: support shots plus both query sets.

    Construction runs validate(), which checks: every entry path is a
    string that stays inside the episode directory, every entry's domain
    is "source" in support and query_source and "target" in
    query_target, support holds exactly n_way*k_shot entries with k_shot
    per class, both query sets hold n_way*n_query entries that reference
    exactly the classes 0..n_way-1, and every count and dim is >= 1.
    load_episode checks that all tensors share the declared (h, w, d).
    """

    n_way: int
    k_shot: int
    n_query: int
    height: int
    width: int
    channels: int
    support: tuple[ManifestEntry, ...]
    query_source: tuple[ManifestEntry, ...]
    query_target: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        sets = (("support", self.support, "source"),
                ("query_source", self.query_source, "source"),
                ("query_target", self.query_target, "target"))
        for name, entries, domain in sets:
            for entry in entries:
                if not isinstance(entry.path, str):
                    raise ManifestError(f"{name} entry path {entry.path!r} is not a string")
                if not _confined(entry.path):
                    raise ManifestError(
                        f"entry path {entry.path!r} leaves the episode directory"
                    )
                if entry.domain != domain:
                    raise ManifestError(
                        f"{name} entry {entry.path!r} has domain {entry.domain!r}, "
                        f"expected {domain!r}"
                    )
        sizes = (("n_way", self.n_way), ("k_shot", self.k_shot), ("n_query", self.n_query),
                 ("dims h", self.height), ("dims w", self.width), ("dims d", self.channels))
        for field, value in sizes:
            if value < 1:
                raise ManifestError(f"{field} must be >= 1, got {value}")
        if len(self.support) != self.n_way * self.k_shot:
            raise ManifestError(
                f"support holds {len(self.support)} entries, "
                f"expected {self.n_way * self.k_shot}"
            )
        per_class = [0] * self.n_way
        for e in self.support:
            if not 0 <= e.class_index < self.n_way:
                raise ManifestError(f"support class {e.class_index} out of range")
            per_class[e.class_index] += 1
        if any(c != self.k_shot for c in per_class):
            raise ManifestError(f"support classes unbalanced: {per_class}")
        for name, entries, _ in sets[1:]:
            if len(entries) != self.n_way * self.n_query:
                raise ManifestError(
                    f"{name} holds {len(entries)} entries, "
                    f"expected {self.n_way * self.n_query}"
                )
            classes = {e.class_index for e in entries}
            if classes != set(range(self.n_way)):
                raise ManifestError(
                    f"{name} references classes {sorted(classes)}, "
                    f"expected 0..{self.n_way - 1}"
                )

    def to_dict(self) -> dict:
        def enc(entries):
            return [
                {"path": e.path, "class": e.class_index, "domain": e.domain}
                for e in entries
            ]

        return {
            "n_way": self.n_way,
            "k_shot": self.k_shot,
            "n_query": self.n_query,
            "dims": {"h": self.height, "w": self.width, "d": self.channels},
            "support": enc(self.support),
            "query_source": enc(self.query_source),
            "query_target": enc(self.query_target),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EpisodeManifest":
        try:
            dims = raw["dims"]

            def dec(items):
                return tuple(
                    ManifestEntry(e["path"], int(e["class"]), e["domain"])
                    for e in items
                )

            return cls(  # validates; its ManifestError passes the handler below
                n_way=int(raw["n_way"]),
                k_shot=int(raw["k_shot"]),
                n_query=int(raw["n_query"]),
                height=int(dims["h"]),
                width=int(dims["w"]),
                channels=int(dims["d"]),
                support=dec(raw["support"]),
                query_source=dec(raw["query_source"]),
                query_target=dec(raw["query_target"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest record: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EpisodeManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


class Episode:
    """One task as one (n, h, w, d) float32 image stack.

    The rows hold the support shots class by class, k_shot per class,
    then the source queries, then the target queries.  support_rows (one
    index array per class), qs_rows and qt_rows index those runs, which
    support (per class), query_source and query_target view.  Target labels
    are deliberately not a public attribute; the pipeline must classify
    blind and only scoring code may call scoring_labels().
    """

    def __init__(
        self,
        images: np.ndarray,
        n_way: int,
        k_shot: int,
        query_source_labels: list[int],
        target_labels: list[int],
    ):
        # little-endian as in the FTNS payload, so content_hash reads its bytes
        self.images = np.ascontiguousarray(images, dtype="<f4")
        n_support = n_way * k_shot
        n_source = n_support + len(query_source_labels)
        if self.images.ndim != 4 or len(self.images) != n_source + len(target_labels):
            raise ValueError(
                f"image stack of shape {self.images.shape} does not hold "
                f"{n_way}x{k_shot} support plus {len(query_source_labels)} "
                f"source and {len(target_labels)} target queries"
            )
        self.n_way = n_way
        self.k_shot = k_shot
        self.support_rows = list(np.arange(n_support).reshape(n_way, k_shot))
        self.qs_rows = np.arange(n_support, n_source)
        self.qt_rows = np.arange(n_source, len(self.images))
        self.support = list(
            self.images[:n_support].reshape(n_way, k_shot, *self.images.shape[1:])
        )
        self.query_source = self.images[n_support:n_source]
        self.query_source_labels = list(query_source_labels)
        self.query_target = self.images[n_source:]
        self._quarantined_labels = tuple(int(c) for c in target_labels)

    @property
    def grid(self) -> tuple[int, int, int]:
        return self.images.shape[1:]

    def scoring_labels(self) -> tuple[int, ...]:
        """Held-out target labels. Only accuracy scoring may call this."""
        return self._quarantined_labels

    def content_hash(self) -> str:
        """Digest of every tensor payload and label, for pairing checks."""
        h = hashlib.sha256(self.images[: len(self.images) - len(self.qt_rows)])
        h.update(np.asarray(self.query_source_labels, dtype="<i4"))
        h.update(self.query_target)
        h.update(np.asarray(self._quarantined_labels, dtype="<i4"))
        return h.hexdigest()


def load_episode(manifest: EpisodeManifest, base_dir: str | Path) -> Episode:
    """Materialize an Episode from a manifest and its tensor files.

    Files are read in manifest order, each by read_tensor_file straight
    into its row of the stack; a tensor whose shape is not the manifest's
    (h, w, d) raises ShapeMismatchError naming the file.
    """
    base = os.fspath(base_dir)
    expected = (manifest.height, manifest.width, manifest.channels)
    entries = manifest.support + manifest.query_source + manifest.query_target
    # validate() guarantees k_shot support entries per class
    free = [iter(range(c * manifest.k_shot, (c + 1) * manifest.k_shot))
            for c in range(manifest.n_way)]
    rows = [next(free[e.class_index]) for e in manifest.support]
    rows += range(len(rows), len(entries))
    images = np.empty((len(entries), *expected), dtype="<f4")
    for row, entry in zip(rows, entries):
        # the normalised path is the one validate() confined; joined as a
        # str: a Path join costs about as much as the read itself
        read_tensor_file(os.path.join(base, os.path.normpath(entry.path)), out=images[row])
    return Episode(
        images, manifest.n_way, manifest.k_shot,
        [e.class_index for e in manifest.query_source],
        [e.class_index for e in manifest.query_target],
    )


def save_episode(episode: Episode, out_dir: str | Path) -> Path:
    """Inverse of load_episode: one tensor file per image plus manifest.json
    in out_dir, which is created if missing.  Returns the manifest's path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shots = [(c, j) for c in range(episode.n_way) for j in range(episode.k_shot)]
    names = [f"support_c{c}_s{j}.ftns" for c, j in shots]
    names += [f"query_source_{i:03d}.ftns" for i in range(len(episode.qs_rows))]
    names += [f"query_target_{i:03d}.ftns" for i in range(len(episode.qt_rows))]
    labels = [c for c, _ in shots]
    labels += [*episode.query_source_labels, *episode.scoring_labels()]
    for name, image in zip(names, episode.images, strict=True):
        write_tensor_file(image, out / name)

    def entries(rows, domain):
        return tuple(ManifestEntry(names[r], int(labels[r]), domain) for r in rows)

    h, w, d = episode.grid
    manifest = EpisodeManifest(
        n_way=episode.n_way, k_shot=episode.k_shot,
        n_query=len(episode.qs_rows) // episode.n_way, height=h, width=w, channels=d,
        support=entries(np.concatenate(episode.support_rows), "source"),
        query_source=entries(episode.qs_rows, "source"),
        query_target=entries(episode.qt_rows, "target"),
    )
    manifest.save(out / "manifest.json")
    return out / "manifest.json"
