"""Data model, feature/label file formats, splits, and balanced sampling.

Feature files come in two interchangeable formats, both carrying a sample
id per row so matrices produced by different extractors can be aligned
robustly.  Both round-trip bit-exactly:

* text: first line ``#locallearn-features v1 dim=<D>``, then one
  ``sample_id,v1,...,vD`` line per sample.  UTF-8, LF line endings.
* binary: magic ``LLFB``, u32 version=1, u32 dim, u64 n_samples, then per
  sample a u16 id length, the UTF-8 id bytes, and D f64 values.  All
  integers and floats little-endian.

Labels live in separate files of ``sample_id,class_name`` lines keyed by
sample id, never by position.  A label map file lists one class name per
line; line order defines the integer class ids.

A dataset manifest is a plain key-value text file; ``parse_manifest``
documents the grammar.  ``fan_out`` is the one worker-thread policy.
"""

from __future__ import annotations

import re
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    IdMismatch,
    MalformedFile,
    MissingLabels,
    NonFiniteValue,
    UnknownClassName,
    ValidationError,
)

TEXT_HEADER = "#locallearn-features v1"
BINARY_MAGIC = b"LLFB"

_HEADER_RE = re.compile(r"^#locallearn-features v1 dim=(\d+)\s*$")
_ID_FORBIDDEN = (",", "\n", "\r")

SPLIT_NAMES = ("train", "val", "test")


def check_workers(workers: int) -> None:
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")


@contextmanager
def fan_out(workers: int):
    """A ``map`` over ``workers`` threads, results in input order.

    One worker maps in the calling thread: memory freed in a pool thread's
    own malloc arena stayed resident and raised the bench's peak RSS.
    """
    check_workers(workers)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        yield pool.map if pool else map


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that are not UTF-8 raise
    MalformedFile."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8: {exc}")


def _check_id(sample_id: str) -> str:
    if not sample_id:
        raise ValidationError("empty sample id")
    for ch in _ID_FORBIDDEN:
        if ch in sample_id:
            raise ValidationError(f"sample id {sample_id!r} contains {ch!r}")
    return sample_id


class FeatureMatrix:
    """Immutable dense matrix of per-sample feature vectors.

    Rows are float64 vectors keyed by unique sample ids; ``labels`` is an
    optional vector of integer class ids.  Values are checked to be finite
    once, at construction, and the backing array is frozen, so instances
    are safe to share read-only across workers.
    """

    __slots__ = ("values", "sample_ids", "labels", "_row_of")

    def __init__(self, values, sample_ids, labels=None):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError(f"feature values must be 2-D, got {values.ndim}-D")
        if values.shape[1] < 1:
            raise ValidationError("feature dim must be >= 1")
        if not np.isfinite(values).all():
            row, col = np.argwhere(~np.isfinite(values))[0]
            raise NonFiniteValue(
                f"non-finite value at row {row}, col {col}", row=int(row), col=int(col)
            )
        sample_ids = tuple(_check_id(str(s)) for s in sample_ids)
        if len(sample_ids) != values.shape[0]:
            raise ValidationError(
                f"{len(sample_ids)} sample ids for {values.shape[0]} rows"
            )
        if len(set(sample_ids)) != len(sample_ids):
            seen, dup = set(), None
            for s in sample_ids:
                if s in seen:
                    dup = s
                    break
                seen.add(s)
            raise ValidationError(f"duplicate sample id {dup!r}")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (values.shape[0],):
                raise ValidationError("labels length does not match sample count")
            if labels.size and labels.min() < 0:
                raise ValidationError("labels must be non-negative class ids")
            labels.setflags(write=False)
        values.setflags(write=False)
        self.values = values
        self.sample_ids = sample_ids
        self.labels = labels
        self._row_of = None

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def row_of(self, sample_id: str) -> int:
        if self._row_of is None:
            self._row_of = {s: i for i, s in enumerate(self.sample_ids)}
        try:
            return self._row_of[sample_id]
        except KeyError:
            raise IdMismatch(f"unknown sample id {sample_id!r}", missing={sample_id})

    def take(self, rows: Sequence[int]) -> "FeatureMatrix":
        """The given rows, each in [0, n_samples) and at most once; the
        constructor's checks held for them already and are not repeated."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or ((rows < 0) | (rows >= self.n_samples)).any():
            raise ValidationError(f"row indices must be a list in [0, {self.n_samples})")
        if np.unique(rows).size != rows.size:
            raise ValidationError("repeated row index")
        out = object.__new__(FeatureMatrix)
        out.values, out.labels = self.values[rows], None if self.labels is None else self.labels[rows]
        out.sample_ids, out._row_of = tuple(self.sample_ids[i] for i in rows.tolist()), None
        for array in (out.values, out.labels):
            if array is not None:
                array.setflags(write=False)
        return out

    def with_labels(self, labels) -> "FeatureMatrix":
        return FeatureMatrix(self.values, self.sample_ids, labels)

    def __len__(self) -> int:
        return self.n_samples

    def __repr__(self) -> str:
        has_labels = "with labels" if self.labels is not None else "unlabeled"
        return f"FeatureMatrix(n={self.n_samples}, dim={self.dim}, {has_labels})"


def save_features(matrix: FeatureMatrix, path, fmt: str = "text") -> None:
    """Write a feature file in the text or binary format."""
    path = Path(path)
    if fmt == "text":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{TEXT_HEADER} dim={matrix.dim}\n")
            for sid, row in zip(matrix.sample_ids, matrix.values):
                fh.write(sid + "," + ",".join(repr(v) for v in row.tolist()) + "\n")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<IIQ", 1, matrix.dim, matrix.n_samples))
            for sid, row in zip(matrix.sample_ids, matrix.values):
                raw = sid.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise ValidationError(f"sample id too long: {sid[:32]!r}...")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(row.astype("<f8").tobytes())
    else:
        raise ValidationError(f"unknown feature format {fmt!r}")


def load_features(path, expected_dim: int | None = None) -> FeatureMatrix:
    """Load a feature file, sniffing text vs binary from the magic bytes.

    ``expected_dim`` cross-checks the header and raises DimMismatch when
    it disagrees.
    """
    path = Path(path)
    blob = path.read_bytes()
    load = _load_binary if blob[:4] == BINARY_MAGIC else _load_text
    values, ids = load(blob, path, expected_dim)
    try:
        return FeatureMatrix(values, ids)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: {exc}", row=exc.row, col=exc.col)


def _load_text(blob: bytes, path: Path, expected_dim) -> tuple[np.ndarray, list[str]]:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 and not binary: {exc}")
    lines = text.splitlines()
    if not lines:
        raise MalformedFile(f"{path}: empty file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise MalformedFile(f"{path}: bad header {lines[0][:64]!r}")
    dim = _parse_int(m.group(1), path, 1)
    if dim > 0xFFFFFFFF:  # the binary format's u32 dim field
        raise MalformedFile(f"{path}: header dim={dim} is out of range")
    if expected_dim is not None and dim != expected_dim:
        raise DimMismatch(f"{path}: header dim={dim}, expected {expected_dim}")
    ids: list[str] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) - 1 != dim:
            raise MalformedFile(
                f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}"
            )
        ids.append(parts[0])
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}")
    return np.array(rows, dtype=np.float64).reshape(len(ids), dim), ids


def _load_binary(blob: bytes, path: Path, expected_dim) -> tuple[np.ndarray, list[str]]:
    try:
        version, dim, n = struct.unpack_from("<IIQ", blob, 4)
    except struct.error:
        raise MalformedFile(f"{path}: truncated binary header")
    if version != 1:
        raise MalformedFile(f"{path}: unsupported binary version {version}")
    if expected_dim is not None and dim != expected_dim:
        raise DimMismatch(f"{path}: header dim={dim}, expected {expected_dim}")
    offset = 4 + struct.calcsize("<IIQ")
    row_bytes = dim * 8
    if n * (2 + row_bytes) > len(blob) - offset:
        raise MalformedFile(f"{path}: header names {n} samples, more than the file holds")
    ids = []
    values = np.empty((n, dim), dtype=np.float64)
    for i in range(n):
        try:
            (id_len,) = struct.unpack_from("<H", blob, offset)
        except struct.error:
            raise MalformedFile(f"{path}: truncated at sample {i}")
        offset += 2
        end = offset + id_len + row_bytes
        if end > len(blob):
            raise MalformedFile(f"{path}: truncated at sample {i}")
        try:
            ids.append(blob[offset : offset + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{path}: sample {i} id is not UTF-8: {exc}")
        offset += id_len
        values[i] = np.frombuffer(blob, dtype="<f8", count=dim, offset=offset)
        offset += row_bytes
    if offset != len(blob):
        raise MalformedFile(f"{path}: {len(blob) - offset} trailing bytes")
    return values, ids


@dataclass(frozen=True)
class LabelMap:
    """Ordered class names; the index of a name is its integer id."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValidationError("label map must name at least one class")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("label map names must be unique")
        for name in self.names:
            if not name or any(ch in name for ch in _ID_FORBIDDEN):
                raise ValidationError(f"bad class name {name!r}")

    @property
    def n_classes(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownClassName(f"unknown class name {name!r}")

    def name_of(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.names):
            raise UnknownClassName(f"class id {class_id} out of range")
        return self.names[class_id]

    @classmethod
    def from_file(cls, path) -> "LabelMap":
        lines = read_lines(path)
        return cls(tuple(ln.strip() for ln in lines if ln.strip()))

    def save(self, path) -> None:
        Path(path).write_text(
            "".join(n + "\n" for n in self.names), encoding="utf-8", newline="\n"
        )


def read_labels(path) -> dict[str, str]:
    """Read a ``sample_id,class_name`` label file into an id -> name dict."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        if "," not in line:
            raise MalformedFile(f"{path}:{lineno}: expected 'sample_id,class_name'")
        sid, name = line.split(",", 1)
        if sid in out:
            raise MalformedFile(f"{path}:{lineno}: duplicate sample id {sid!r}")
        out[sid] = name
    return out


def write_labels(labels: Mapping[str, str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sid in sorted(labels):
            fh.write(f"{sid},{labels[sid]}\n")


def attach_labels(
    matrix: FeatureMatrix, labels: Mapping[str, str], label_map: LabelMap
) -> FeatureMatrix:
    """Attach integer labels to a matrix by sample id.

    Every sample id must have a label; the label file may cover a superset.
    """
    missing = [s for s in matrix.sample_ids if s not in labels]
    if missing:
        raise MissingLabels(
            f"{len(missing)} sample(s) without labels, e.g. {missing[:5]}"
        )
    ids = np.array([label_map.id_of(labels[s]) for s in matrix.sample_ids])
    return matrix.with_labels(ids)


def balanced_downsample(matrix: FeatureMatrix, cap: int, seed: int) -> FeatureMatrix:
    """Retain at most ``cap`` samples per class, seeded, preserving row order.

    Per class, min(cap, class_count) rows are kept, chosen by uniform
    sampling without replacement; surviving rows keep their original
    relative order.
    """
    if matrix.labels is None:
        raise MissingLabels("balanced_downsample requires labels")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    for cls in np.unique(matrix.labels):
        rows = np.flatnonzero(matrix.labels == cls)
        if rows.size > cap:
            rows = rng.choice(rows, size=cap, replace=False)
        keep.append(rows)
    order = np.sort(np.concatenate(keep))
    return matrix.take(order)


@dataclass(frozen=True)
class SourceSpec:
    name: str
    path: Path
    expected_dim: int | None = None
    normalize: bool = True


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed dataset manifest naming feature sources, labels, and splits."""

    sources: tuple[SourceSpec, ...]
    labels_path: Path
    labelmap_path: Path
    splits_path: Path
    seed: int = 0
    cap: int | None = None
    renormalize: bool = False

    def __post_init__(self):
        if not self.sources:
            raise ValidationError("manifest names no feature sources")
        names = [s.name for s in self.sources]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate source name in manifest")


def parse_manifest(path) -> DatasetManifest:
    """Parse a manifest file.

    Grammar (one directive per line, ``#`` starts a comment)::

        source <name> <path> [dim=<D>] [normalize=on|off]
        labels <path>
        labelmap <path>
        splits <path>
        seed <int>
        cap <int>
        renormalize on|off

    Paths are resolved relative to the manifest's directory.  ``source``
    may repeat; declaration order is the fusion order.
    """
    path = Path(path)
    base = path.parent
    sources: list[SourceSpec] = []
    scalars: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "source":
            if len(tokens) < 3:
                raise MalformedFile(f"{path}:{lineno}: source needs a name and a path")
            name, src_path = tokens[1], base / tokens[2]
            dim: int | None = None
            normalize = True
            for opt in tokens[3:]:
                if opt.startswith("dim="):
                    dim = _parse_int(opt[4:], path, lineno)
                elif opt.startswith("normalize="):
                    normalize = _parse_on_off(opt[10:], path, lineno)
                else:
                    raise MalformedFile(f"{path}:{lineno}: unknown option {opt!r}")
            sources.append(SourceSpec(name, src_path, dim, normalize))
        elif key in ("labels", "labelmap", "splits", "seed", "cap", "renormalize"):
            if len(tokens) != 2:
                raise MalformedFile(f"{path}:{lineno}: {key} takes one value")
            if key in scalars:
                raise MalformedFile(f"{path}:{lineno}: duplicate {key}")
            scalars[key] = tokens[1]
        else:
            raise MalformedFile(f"{path}:{lineno}: unknown directive {key!r}")
    for required in ("labels", "labelmap", "splits"):
        if required not in scalars:
            raise MalformedFile(f"{path}: missing required directive {required!r}")
    return DatasetManifest(
        sources=tuple(sources),
        labels_path=base / scalars["labels"],
        labelmap_path=base / scalars["labelmap"],
        splits_path=base / scalars["splits"],
        seed=_parse_int(scalars.get("seed", "0"), path, 0),
        cap=_parse_int(scalars["cap"], path, 0) if "cap" in scalars else None,
        renormalize=_parse_on_off(scalars.get("renormalize", "off"), path, 0),
    )


def _parse_int(value: str, path, lineno) -> int:
    try:
        return int(value)
    except ValueError:
        raise MalformedFile(f"{path}:{lineno}: expected an integer, got {value!r}")


def _parse_on_off(value: str, path, lineno) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise MalformedFile(f"{path}:{lineno}: expected on|off, got {value!r}")


def read_splits(path) -> dict[str, str]:
    """Read a ``sample_id,split`` file; split is train, val(idation), or test."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        if "," not in line:
            raise MalformedFile(f"{path}:{lineno}: expected 'sample_id,split'")
        sid, split = line.split(",", 1)
        split = split.strip()
        if split == "validation":
            split = "val"
        if split not in SPLIT_NAMES:
            raise MalformedFile(f"{path}:{lineno}: unknown split {split!r}")
        if sid in out:
            raise MalformedFile(
                f"{path}:{lineno}: sample id {sid!r} assigned to two splits"
            )
        out[sid] = split
    return out


def check_split_ids(matrix: FeatureMatrix, splits: Mapping[str, str]) -> None:
    """Check that the split assignment covers the matrix's sample ids exactly."""
    diff = set(splits) ^ set(matrix.sample_ids)
    if diff:
        raise IdMismatch(
            f"split assignment and feature sources disagree on {len(diff)} id(s)",
            missing=diff,
        )
