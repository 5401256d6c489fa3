"""Data model, feature/label file formats, splits, and balanced sampling.

Feature files come in two interchangeable formats, both carrying a sample
id per row so matrices produced by different extractors can be aligned
robustly.  Both round-trip bit-exactly:

* text: first line ``#locallearn-features v1 dim=<D>``, then one
  ``sample_id,v1,...,vD`` line per sample.  UTF-8, LF line endings.
* binary, a ``BinaryFile`` as vocabulary and MLP files are: magic
  ``LLFB``, u32 version=1, u32 dim, u64 n_samples, then per sample a u16
  id length, the UTF-8 id bytes, and D f64 values, all little-endian.

``FeatureRows`` reads either format one row at a time; ``load_features``
and fusion both read through it.  A file's rows and a ``FeatureMatrix``'s
pass one check, ``_checked_rows``: finite values, id syntax, unique ids.

Labels live in separate files of ``sample_id,class_name`` lines keyed by
sample id, never by position.  A label map file lists one class name per
line; line order defines the integer class ids.

A dataset manifest and a BOVW config are key-value text files, read by
``read_directives``, the one reader of that grammar; ``parse_manifest``
documents the manifest's keys.  ``reading`` names a file in a
``ValidationError`` raised while it is read.  ``fan_out`` is the one
worker-thread policy.
"""

from __future__ import annotations

import os
import re
import struct
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
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


@contextmanager
def reading(path, error: type[ValidationError] = ValidationError):
    """Name the file ``path`` in a ValidationError raised in the block: its
    message gains a ``<path>: `` prefix unless it starts with ``<path>:``
    already.  The error keeps its class and attributes if it is an
    ``error``, and is raised as an ``error`` otherwise."""
    try:
        yield
    except ValidationError as exc:
        if not str(exc).startswith(f"{path}:"):
            exc.args = (f"{path}: {exc}",)
        raise exc if isinstance(exc, error) else error(*exc.args)


def _check_id(sample_id: str) -> None:
    if not sample_id:
        raise ValidationError("empty sample id")
    for ch in _ID_FORBIDDEN:
        if ch in sample_id:
            raise ValidationError(f"sample id {sample_id!r} contains {ch!r}")


def check_finite(values: np.ndarray, prefix: str = "", first_row: int = 0) -> None:
    """``NonFiniteValue`` at the first NaN or infinity of a 2-D array, with
    its row (counted from ``first_row``) and column."""
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0].tolist()
        row += first_row
        raise NonFiniteValue(f"{prefix}non-finite value at row {row}, col {col}", row=row, col=col)


def _checked_rows(rows):
    """Yield each ``(sample_id, values)`` of ``rows`` once it is checked:
    finite values (``check_finite``), id syntax and an id not seen before.
    The first faulty row raises."""
    seen = set()
    for row, (sid, values) in enumerate(rows):
        check_finite(values[None], first_row=row)
        _check_id(sid)
        if sid in seen:
            raise ValidationError(f"duplicate sample id {sid!r}")
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


class BinaryFile:
    """An open container ``fh`` of a ``kind`` file at ``path``, read field
    by field after its magic and u32 version.  Each read checks its length
    against the bytes left first, and every fault names the file."""

    def __init__(self, fh, path, kind: str, magic: bytes, version: int):
        self.fh, self.path, self.kind = fh, path, kind
        self.size = os.fstat(fh.fileno()).st_size
        if fh.read(len(magic)) != magic:
            raise MalformedFile(f"{path}: bad {kind} magic")
        (got,) = self.read("<I")
        if got != version:
            raise MalformedFile(f"{path}: unsupported {kind} version {got}")

    def need(self, size: int, what: str) -> None:
        if size > self.size - self.fh.tell():
            raise MalformedFile(f"{self.path}: {what}, more than the file holds")

    def _take(self, size: int) -> bytes:
        self.need(size, f"truncated {self.kind} file: {size} bytes asked for")
        return self.fh.read(size)

    def read(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        """``count`` little-endian f64 values, in a new writable array."""
        return np.frombuffer(self._take(8 * count), dtype="<f8").copy()

    def text(self, what: str) -> str:
        raw = self._take(*self.read("<H"))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{self.path}: {what} is not UTF-8: {exc}")

    def end(self) -> None:
        trailing = self.size - self.fh.tell()
        if trailing:
            raise MalformedFile(f"{self.path}: {trailing} trailing bytes")

    @staticmethod
    def packed_text(text: str, what: str) -> bytes:
        """The u16-length UTF-8 string ``text`` reads; over 65,535 bytes is
        a ValidationError."""
        raw = text.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValidationError(f"{what} too long: {text[:32]!r}...")
        return struct.pack("<H", len(raw)) + raw


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
            fh.write(BINARY_MAGIC + struct.pack("<IIQ", 1, matrix.dim, matrix.n_samples))
            for sid, row in zip(matrix.sample_ids, matrix.values):
                fh.write(BinaryFile.packed_text(sid, "sample id"))
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
        with reading(self.path):
            yield from _checked_rows(self._rows())

    def _binary_header(self) -> tuple[int, int]:
        self._fh.seek(0)
        self._binary = BinaryFile(self._fh, self.path, "binary feature", BINARY_MAGIC, 1)
        dim, n = self._binary.read("<IQ")
        self._binary.need(n * (2 + 8 * dim), f"header names {n} samples")
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
        self._binary.end()

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
        # The binary format's dim field is a u32, of at most 10 digits past
        # any leading zeros; int() refuses more than 4,300 digits.
        digits = m.group(1).lstrip("0") or "0"
        if len(digits) > 10 or int(digits) > 0xFFFFFFFF:
            shown = digits if len(digits) <= 20 else digits[:20] + "..."
            raise MalformedFile(f"{self.path}: header dim={shown} is out of range")
        self.dim, n = int(digits), 0  # _check_count reads self.dim
        for lineno, line in lines:
            if line:
                self._check_count(lineno, line.count(","))
                n += 1
        return self.dim, n

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
        return {sid: self.name_of(c) for sid, c in zip(sample_ids, class_ids)}

    def name_of(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.names):
            raise UnknownClassName(f"class id {class_id} out of range")
        return self.names[class_id]

    @classmethod
    def from_file(cls, path) -> "LabelMap":
        with reading(path):
            return cls(tuple(ln.strip() for ln in read_lines(path) if ln.strip()))

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
    """Write ``sample_id,class_name`` lines, sorted by sample id."""
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
    """Parsed dataset manifest naming feature sources, labels, and splits.
    ``parse_manifest`` checks each value (a ``seed`` >= 0, a ``cap`` >= 1)
    at its line; the sources are checked here, as a whole."""

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


def read_directives(path, grammar, repeatable=()) -> dict:
    """The values of a key-value file, by key.

    One ``<key> <value>`` directive per line; ``#`` starts a comment, and
    blank lines are skipped.  ``grammar`` maps each key to the parser of
    its value, which raises ValueError or ValidationError on a bad one.  A
    key in ``repeatable`` gives the list of its values in line order, any
    other key its one value.  A line without a value, an unknown key and a
    repeated key are MalformedFile at their line, and a bad value is
    ``MalformedFile: <path>:<line>: <key>: <detail>``.
    """
    given: dict = {key: [] for key in repeatable}
    for lineno, raw in enumerate(read_lines(path), start=1):
        parts = raw.split("#", 1)[0].split(None, 1)
        if not parts:
            continue
        if len(parts) != 2:
            raise MalformedFile(f"{path}:{lineno}: expected 'key value'")
        key, text = parts[0], parts[1].strip()
        if key not in grammar:
            raise MalformedFile(f"{path}:{lineno}: unknown key {key!r}")
        if key in given and key not in repeatable:
            raise MalformedFile(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            value = grammar[key](text)
        except (ValueError, ValidationError) as exc:
            raise MalformedFile(f"{path}:{lineno}: {key}: {exc}")
        given[key] = given[key] + [value] if key in repeatable else value
    return given


def _at_least(least: int, text: str) -> int:
    """``text`` as an integer of at least ``least``; ValueError otherwise."""
    if re.fullmatch(r"[+-]?\d+", text) is None or int(text) < least:
        raise ValueError(f"expected an integer >= {least}, got {text!r}")
    return int(text)


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"expected on|off, got {text!r}")
    return text == "on"


def _source(base: Path, text: str) -> SourceSpec:
    """A ``source`` value, ``<name> <path> [dim=<D>] [normalize=on|off]``,
    its path resolved against ``base``."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("expected a name and a path")
    options = {}
    for option in tokens[2:]:
        key, _, value = option.partition("=")
        if key not in ("dim", "normalize"):
            raise ValueError(f"unknown option {option!r}")
        try:
            options[key] = _at_least(1, value) if key == "dim" else _on_off(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return SourceSpec(tokens[0], base / tokens[1], options.get("dim"), options.get("normalize", True))


def parse_manifest(path) -> DatasetManifest:
    """Parse a manifest file, ``read_directives`` of the keys::

        source <name> <path> [dim=<D>] [normalize=on|off]
        labels <path>
        labelmap <path>
        splits <path>
        seed <int>
        cap <int>
        renormalize on|off

    Paths are resolved relative to the manifest's directory.  ``source``
    may repeat; declaration order is the fusion order.  ``labels``,
    ``labelmap``, ``splits`` and one ``source`` are required; ``seed`` is
    >= 0, ``dim`` and ``cap`` are >= 1, checked here, before any data file
    is read.  A fault of the whole file is ``MalformedFile: <path>: ...``.
    """
    path = Path(path)

    def file(text: str) -> Path:
        if len(text.split()) != 1:
            raise ValueError(f"expected one path, got {text!r}")
        return path.parent / text

    given = read_directives(path, {
        "source": partial(_source, path.parent), "labels": file, "labelmap": file, "splits": file,
        "seed": partial(_at_least, 0), "cap": partial(_at_least, 1), "renormalize": _on_off,
    }, repeatable=("source",))
    with reading(path, MalformedFile):
        for required in ("labels", "labelmap", "splits"):
            if required not in given:
                raise ValidationError(f"missing required key {required!r}")
        return DatasetManifest(tuple(given["source"]), given["labels"], given["labelmap"],
                               given["splits"], given.get("seed", 0), given.get("cap"),
                               given.get("renormalize", False))


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
