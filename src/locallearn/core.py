"""Data model, feature/label file formats, splits, and balanced sampling.

Feature files come in two interchangeable formats, both carrying a sample
id per row so matrices produced by different extractors can be aligned
robustly.  Both round-trip bit-exactly:

* text: first line ``#locallearn-features v1 dim=<D>``, then one
  ``sample_id,v1,...,vD`` line per sample.  UTF-8, LF line endings.
* binary: magic ``LLFB``, u32 version=1, u32 dim, u64 n_samples, then per
  sample a u16 id length, the UTF-8 id bytes, and D f64 values.  All
  integers and floats little-endian.

``FeatureRows`` reads either format one row at a time; ``load_features``
and fusion both read through it.  A file's rows and a ``FeatureMatrix``'s
pass one check, ``_checked_rows``: finite values, id syntax, unique ids.

Labels live in separate files of ``sample_id,class_name`` lines keyed by
sample id, never by position.  A label map file lists one class name per
line; line order defines the integer class ids.

A dataset manifest is a plain key-value text file; ``parse_manifest``
documents the grammar.  ``fan_out`` is the one worker-thread policy.
"""

from __future__ import annotations

import os
import re
import struct
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimMismatch,
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

    One worker maps in the calling thread, as memory freed in a pool
    thread's own malloc arena can stay resident.
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


def _check_id(sample_id: str, prefix: str = "") -> None:
    if not sample_id:
        raise ValidationError(f"{prefix}empty sample id")
    for ch in _ID_FORBIDDEN:
        if ch in sample_id:
            raise ValidationError(f"{prefix}sample id {sample_id!r} contains {ch!r}")


def check_finite(values: np.ndarray, prefix: str = "", first_row: int = 0) -> None:
    """``NonFiniteValue`` at the first NaN or infinity of a 2-D array, with
    its row (counted from ``first_row``) and column."""
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0].tolist()
        row += first_row
        raise NonFiniteValue(f"{prefix}non-finite value at row {row}, col {col}", row=row, col=col)


def _checked_rows(rows, where=""):
    """Yield each ``(sample_id, values)`` of ``rows`` once it is checked:
    finite values (``check_finite``), id syntax and an id not seen before.
    The first faulty row raises; ``where`` (a file path) prefixes every
    message."""
    prefix, seen = f"{where}: " if where else "", set()
    for row, (sid, values) in enumerate(rows):
        check_finite(values[None], prefix, row)
        _check_id(sid, prefix)
        if sid in seen:
            raise ValidationError(f"{prefix}duplicate sample id {sid!r}")
        seen.add(sid)
        yield sid, values


def _checked_labels(labels, n: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValidationError("labels length does not match sample count")
    if labels.size and labels.min() < 0:
        raise ValidationError("labels must be non-negative class ids")
    return labels


class FeatureMatrix:
    """Immutable dense matrix of per-sample feature vectors.

    Rows are float64 vectors keyed by unique sample ids; ``labels`` is an
    optional vector of integer class ids.  The rows are checked once, at
    construction, as a file's rows are read (``_checked_rows``; the first
    faulty row raises), and the backing array is frozen, so instances are
    safe to share read-only across workers.
    """

    __slots__ = ("values", "sample_ids", "labels")

    def __init__(self, values, sample_ids, labels=None):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError(f"feature values must be 2-D, got {values.ndim}-D")
        if values.shape[1] < 1:
            raise ValidationError("feature dim must be >= 1")
        sample_ids = tuple(str(s) for s in sample_ids)
        if len(sample_ids) != values.shape[0]:
            raise ValidationError(f"{len(sample_ids)} sample ids for {values.shape[0]} rows")
        for _ in _checked_rows(zip(sample_ids, values)):
            pass
        labels = None if labels is None else _checked_labels(labels, values.shape[0])
        self._freeze(values, sample_ids, labels)

    @classmethod
    def _trusted(cls, values, sample_ids, labels=None) -> "FeatureMatrix":
        """A matrix over arrays whose checks already held (a reader's, or a
        parent matrix's): frozen, not checked again."""
        out = object.__new__(cls)
        out._freeze(values, sample_ids, labels)
        return out

    def _freeze(self, values, sample_ids, labels) -> None:
        self.values, self.sample_ids, self.labels = values, tuple(sample_ids), labels
        for array in (values, labels):
            if array is not None:
                array.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def take(self, rows: Sequence[int]) -> "FeatureMatrix":
        """A copy of the given rows, each in [0, n_samples) and at most once;
        the constructor's checks held for them already and are not repeated."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or ((rows < 0) | (rows >= self.n_samples)).any():
            raise ValidationError(f"row indices must be a list in [0, {self.n_samples})")
        if np.unique(rows).size != rows.size:
            raise ValidationError("repeated row index")
        return FeatureMatrix._trusted(
            self.values[rows], [self.sample_ids[i] for i in rows.tolist()],
            None if self.labels is None else self.labels[rows])

    def view(self, start: int, stop: int) -> "FeatureMatrix":
        """Rows ``start:stop`` (a slice), sharing this matrix's memory."""
        return FeatureMatrix._trusted(
            self.values[start:stop], self.sample_ids[start:stop],
            None if self.labels is None else self.labels[start:stop])

    def with_labels(self, labels) -> "FeatureMatrix":
        return FeatureMatrix._trusted(
            self.values, self.sample_ids, _checked_labels(labels, self.n_samples))

    def items(self):
        """``(sample_id, values)`` per row, in row order."""
        return zip(self.sample_ids, self.values)

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
    """Load a feature file of either format through ``FeatureRows``, which
    checks it; ``expected_dim`` cross-checks the header (DimMismatch).

    Each row is copied into the output as it is read, so the file's values
    are held once.
    """
    with FeatureRows(path, expected_dim) as reader:
        values = np.empty((reader.n_samples, reader.dim))
        ids = []
        for sid, row in reader.items():
            values[len(ids)] = row
            ids.append(sid)
    return FeatureMatrix._trusted(values, ids)


class FeatureRows:
    """An open feature file of either format (told apart by the magic
    bytes), read one row at a time.

    Opening reads the header, and scans a text file once to count its rows
    and check their value counts, so ``dim`` and ``n_samples`` are known
    first.  ``items()`` yields ``(sample_id, values)`` in file order, in one
    pass (a binary row's buffer is reused), and checks each row: its bytes,
    then ``_checked_rows``, the checks of ``FeatureMatrix``.  A file with
    faults in several rows reports the first; every error names the file.
    """

    def __init__(self, path, expected_dim: int | None = None):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            binary = self._fh.read(4) == BINARY_MAGIC
            self.dim, self.n_samples = (self._binary_header if binary else self._text_header)()
            if expected_dim is not None and self.dim != expected_dim:
                raise DimMismatch(f"{self.path}: header dim={self.dim}, expected {expected_dim}")
            if self.dim < 1:
                raise ValidationError(f"{self.path}: feature dim must be >= 1")
        except BaseException:
            self._fh.close()
            raise
        self._rows = self._binary_rows if binary else self._text_rows

    def __enter__(self) -> "FeatureRows":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def items(self):
        return _checked_rows(self._rows(), self.path)

    def _binary_header(self) -> tuple[int, int]:
        head = self._fh.read(struct.calcsize("<IIQ"))
        if len(head) < struct.calcsize("<IIQ"):
            raise MalformedFile(f"{self.path}: truncated binary header")
        version, dim, n = struct.unpack("<IIQ", head)
        if version != 1:
            raise MalformedFile(f"{self.path}: unsupported binary version {version}")
        if n * (2 + 8 * dim) > os.fstat(self._fh.fileno()).st_size - self._fh.tell():
            raise MalformedFile(f"{self.path}: header names {n} samples, more than the file holds")
        return dim, n

    def _binary_rows(self):
        fh, path = self._fh, self.path
        buf = bytearray(8 * self.dim if self.n_samples else 0)  # a row bounds dim by the file size
        values = np.frombuffer(buf, dtype="<f8")
        for i in range(self.n_samples):
            head = fh.read(2)
            id_len = struct.unpack("<H", head)[0] if len(head) == 2 else 0
            raw = fh.read(id_len)
            if len(head) < 2 or len(raw) < id_len or fh.readinto(buf) < len(buf):
                raise MalformedFile(f"{path}: truncated at sample {i}")
            try:
                sid = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedFile(f"{path}: sample {i} id is not UTF-8: {exc}")
            yield sid, values
        trailing = os.fstat(fh.fileno()).st_size - fh.tell()
        if trailing:
            raise MalformedFile(f"{path}: {trailing} trailing bytes")

    def _text_lines(self):
        """(line number, line) from the start of the file, split as
        ``str.splitlines`` splits the decoded whole."""
        self._fh.seek(0)
        lineno = 0
        for raw in self._fh:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedFile(f"{self.path}:{lineno + 1}: not UTF-8: {exc}")
            for line in text.splitlines():
                lineno += 1
                yield lineno, line

    def _check_count(self, lineno: int, got: int) -> None:
        if got != self.dim:
            raise MalformedFile(f"{self.path}:{lineno}: expected {self.dim} values, got {got}")

    def _text_header(self) -> tuple[int, int]:
        lines = self._text_lines()
        _, header = next(lines, (1, None))
        if header is None:
            raise MalformedFile(f"{self.path}: empty file")
        m = _HEADER_RE.match(header)
        if m is None:
            raise MalformedFile(f"{self.path}: bad header {header[:64]!r}")
        dim = _parse_int(m.group(1), self.path, 1)
        if dim > 0xFFFFFFFF:  # the binary format's u32 dim field
            raise MalformedFile(f"{self.path}: header dim={dim} is out of range")
        self.dim, n = dim, 0  # _check_count reads self.dim
        for lineno, line in lines:
            if line:
                self._check_count(lineno, line.count(","))
                n += 1
        return dim, n

    def _text_rows(self):
        lines = self._text_lines()
        next(lines)  # the header
        for lineno, line in lines:
            if not line:
                continue
            parts = line.split(",")
            self._check_count(lineno, len(parts) - 1)
            try:
                values = np.array([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise MalformedFile(f"{self.path}:{lineno}: {exc}")
            yield parts[0], values


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

    def named(self, sample_ids, class_ids) -> dict[str, str]:
        """Sample id -> class name, from parallel sample and class ids."""
        return {sid: self.names[c] for sid, c in zip(sample_ids, class_ids)}

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


def _id_value_lines(path, field: str):
    """``(lineno, sample_id, value)`` per non-blank line of a
    ``sample_id,<field>`` file; a line with no comma, or a sample id seen
    on an earlier line, is ``MalformedFile`` at its line."""
    seen: set[str] = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        if "," not in line:
            raise MalformedFile(f"{path}:{lineno}: expected 'sample_id,{field}'")
        sid, value = line.split(",", 1)
        if sid in seen:
            raise MalformedFile(f"{path}:{lineno}: duplicate sample id {sid!r}")
        seen.add(sid)
        yield lineno, sid, value


def read_labels(path) -> dict[str, str]:
    """Read a ``sample_id,class_name`` label file into an id -> name dict."""
    return {sid: name for _, sid, name in _id_value_lines(path, "class_name")}


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
        if self.seed < 0:
            raise ValidationError(f"manifest seed must be >= 0, got {self.seed}")
        if self.cap is not None and self.cap < 1:
            raise ValidationError(f"manifest cap must be >= 1, got {self.cap}")


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
    may repeat; declaration order is the fusion order.  ``dim`` and ``cap``
    are >= 1, checked here, before any data file is read.
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
                    if dim < 1:
                        raise MalformedFile(f"{path}:{lineno}: dim must be >= 1, got {dim}")
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


def split_ranges(splits: Mapping[str, str]) -> dict[str, tuple[int, int]]:
    """Each non-empty split's row range ``(start, stop)`` in a matrix whose
    rows are grouped by split in ``SPLIT_NAMES`` order, given each sample's
    split; ``fuse`` places rows and ingest slices its splits by them."""
    counts = Counter(splits.values())
    bounds = list(accumulate((counts[s] for s in SPLIT_NAMES), initial=0))
    return {s: (lo, hi) for s, lo, hi in zip(SPLIT_NAMES, bounds, bounds[1:]) if hi > lo}


def read_splits(path) -> dict[str, str]:
    """Read a ``sample_id,split`` file; split is train, val(idation), or test."""
    out: dict[str, str] = {}
    for lineno, sid, split in _id_value_lines(path, "split"):
        split = split.strip()
        split = "val" if split == "validation" else split
        if split not in SPLIT_NAMES:
            raise MalformedFile(f"{path}:{lineno}: unknown split {split!r}")
        out[sid] = split
    return out
