"""Dataset ingestion, stratified splitting, and synthetic data generation.

Datasets are immutable after load: a float64 feature matrix plus dense 0-based
integer class labels. CSV is the only on-disk format (comma separator,
optional single header row, '.' decimal point, UTF-8 with or without a
byte-order mark); the label column may hold arbitrary tokens, which are
mapped to dense indexes in first-appearance order so that reloading a
re-serialized file reproduces the same labels.

`load_csv` has two paths that return the same Dataset, bit for bit. Both
read one UTF-8 text stream of the file, and both read its head (the header,
the first data row, the width check and the label column) with `_head`.

- The reader: `csv.reader` and one `float()` per feature cell. It takes any
  file, and every load error comes from it or from the helpers it shares.
- The plain path: one `np.loadtxt` call over the file's non-blank lines,
  whose C parser rounds each cell with the same correctly rounded decimal
  conversion as `float()`. It hands the whole file to the reader, which
  then gives the result or the error, when loadtxt raises (a ragged row, a
  cell that is not a number, a missing label, bytes that are not UTF-8),
  when a feature is NaN (the reader reads "nan" as missing), and when a
  line holds a `"` (the reader's quote), a NUL or one of the separators
  \x1c-\x1f (loadtxt strips those around a number and `float()` does not)
  or a cell longer than `csv.field_size_limit()`. A hand-over rewinds the
  stream to the file's start. A file that cannot seek (a pipe) is read
  once, by the reader.

That the two paths agree is pinned by tests rather than argued: files on
either side of each rule above, cells at and past the edges of float64's
range and precision, and random cells against `float()`.
"""

from __future__ import annotations

import csv
import io
import itertools
from array import array
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError
from .rng import RngStream

MISSING_TOKENS = {"", "?", "na", "nan", "n/a"}

# characters on a line that send the file to the reader
_REFUSED = '"\0\x1c\x1d\x1e\x1f'


@dataclass
class Dataset:
    name: str
    features: np.ndarray  # (n_instances, n_features) float64
    labels: np.ndarray  # (n_instances,) int64, dense 0..n_classes-1
    feature_names: list[str] | None = None

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


@dataclass(frozen=True)
class Split:
    """Disjoint train/test index sets covering every instance exactly once."""

    train_indices: np.ndarray
    test_indices: np.ndarray


def _validate_classes(labels: np.ndarray, name: str) -> None:
    counts = np.bincount(labels)
    if len(counts) < 2:
        raise DataError(f"{name}: dataset has a single class; nothing to classify")
    thin = np.flatnonzero(counts < 2)
    if thin.size:
        raise DataError(
            f"{name}: class index {thin[0]} has {counts[thin[0]]} instance(s); "
            "every class needs at least 2 for a stratified split"
        )


def load_csv(path, label_column: int | str = -1, has_header: bool = True) -> Dataset:
    """Load a numeric-feature CSV with one label column.

    label_column is an index, or a header name; a name the header lacks is
    read as an index when it is integer text, as the CLI passes it.

    Rows containing missing cells (empty, '?', 'NA', 'NaN') are an error, as
    are non-numeric feature cells, ragged rows and a header whose width is
    not the rows'; the error names the offending position and counts how
    many rows were affected. A file that cannot be opened or is not UTF-8
    text is a DataError naming the path; not being UTF-8 wins over every
    other error in the file. A leading byte-order mark is dropped. Once the
    file is parsed, a feature value that is not finite ('inf', or a number
    past float64's range such as 1e999) is a DataError naming its row and
    column, and so is a column whose max - min overflows float64.

    A plain numeric file is parsed by one np.loadtxt call, with no Python
    object per feature cell; any other file, a pipe, and every parse error
    go through `csv.reader` and float(). Both give the same features, bit
    for bit; the module docstring lists the files the plain path refuses.
    Either way the file is streamed line by line, through one text stream
    that a hand-over to the reader rewinds.
    """
    path = str(path)
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"{path}: cannot open file: {e.strerror or e}") from e
    with f, io.TextIOWrapper(f, encoding="utf-8-sig", newline="") as text:
        parsed = None
        if f.seekable():  # a pipe is read once, by the reader
            parsed = _read_plain(text, path, label_column, has_header)
            # the rewind resets the decoder too, so the reader drops a BOM again
            text.seek(0)
        if parsed is None:
            try:
                parsed = _read_text(text, path, label_column, has_header)
            except UnicodeDecodeError as e:
                raise DataError(f"{path}: file is not UTF-8 text ({e.reason})") from e
    features, label_tokens, header, label_idx = parsed
    _check_finite(features, label_idx, path)

    # dense label mapping, first-appearance order
    mapping: dict[str, int] = {}
    labels = [mapping.setdefault(tok, len(mapping)) for tok in label_tokens]

    ds = Dataset(
        name=path,
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        feature_names=[h for i, h in enumerate(header) if i != label_idx] if header else None,
    )
    if ds.n_features < 1:
        raise DataError(f"{path}: no feature columns found")
    _validate_classes(ds.labels, path)
    return ds


def _check_finite(features: np.ndarray, label_idx: int, path: str) -> None:
    """DataError at the first value that is not finite, in row order, then
    at the first column whose max - min overflows; either would turn into
    NaN when the columns are scaled. Columns are the file's."""
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path}: non-finite value at row {r}, "
                        f"column {c + (c >= label_idx)}")
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isinf(np.ptp(features, axis=0)))
    if wide.size:
        c = wide[0]
        raise DataError(f"{path}: max - min of column {c + (c >= label_idx)} "
                        "overflows float64")


def _read_text(text, path: str, label_column: int | str, has_header: bool):
    """_read_rows by csv.reader. Before a parse or config error is raised the
    rest of the text is decoded, a chunk at a time, so a byte that is not
    UTF-8 raises UnicodeDecodeError instead wherever it sits in the file."""
    reader = csv.reader(text)
    try:
        return _read_rows(reader, path, label_column, has_header)
    except (ConfigError, DataError, csv.Error) as e:
        while text.read(1 << 16):
            pass
        if isinstance(e, csv.Error):  # an over-long cell, or a NUL on Python 3.10
            raise DataError(f"{path}: line {reader.line_num}: {e}") from e
        raise


def _read_rows(reader, path: str, label_column: int | str, has_header: bool):
    """(features, label tokens, header, label index) from the non-empty rows.

    Rows are numbered from 0 after the header. A ragged row or an
    unparseable feature cell raises at once; missing cells are counted to
    the end, so either of the first two wins over a missing cell in an
    earlier row, and a row with a missing cell is not parsed.
    """
    rows = (row for row in reader if row)
    header, first, label_idx = _head(rows, list, path, label_column, has_header)
    n_cols = len(first)

    first_missing: tuple[int, int] | None = None
    bad_rows = 0
    values = array("d")
    label_tokens: list[str] = []
    for r, row in enumerate(itertools.chain((first,), rows)):
        if len(row) != n_cols:
            raise DataError(f"{path}: row {r} has {len(row)} columns, expected {n_cols}")
        if not MISSING_TOKENS.isdisjoint(map(str.lower, map(str.strip, row))):
            bad_rows += 1
            if first_missing is None:
                first_missing = (r, next(c for c, cell in enumerate(row)
                                         if cell.strip().lower() in MISSING_TOKENS))
            continue
        try:
            values.extend(map(float, row[:label_idx] + row[label_idx + 1:]))
        except ValueError:
            c = next(c for c, cell in enumerate(row) if c != label_idx and not _parses(cell))
            raise DataError(f"{path}: unparseable cell at row {r}, column {c}: {row[c]!r}")
        label_tokens.append(row[label_idx].strip())

    if first_missing is not None:
        r, c = first_missing
        raise DataError(
            f"{path}: {bad_rows} row(s) contain missing values "
            f"(first at row {r}, column {c}); clean the file before loading"
        )
    features = np.frombuffer(values, dtype=np.float64).reshape(len(label_tokens), n_cols - 1)
    return features, label_tokens, header, label_idx


def _head(rows, cells, path: str, label_column: int | str, has_header: bool):
    """(header, first data row, label index) from an iterator of non-empty
    rows, which it leaves at the second data row; `cells` splits a row into
    its cells. Both paths read their head here."""
    first = next(rows, None)
    if first is None:
        raise DataError(f"{path}: file is empty")
    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in cells(first)]
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: no data rows after the header")
    n_cols = len(cells(first))
    if header is not None and len(header) != n_cols:
        raise DataError(f"{path}: header has {len(header)} columns but row 0 has {n_cols}")
    return header, first, _label_index(label_column, header, n_cols, path)


def _read_plain(text, path: str, label_column: int | str, has_header: bool):
    """_read_rows's result by np.loadtxt over the lines of `text`, or None
    when the file needs the reader. `_head` reads the head, as it does for
    the reader; on None load_csv rewinds `text`, and the reader gives the
    result or the error from the same stream."""
    label_tokens: list[str] = []

    def label(cell: str) -> float:
        token = cell.strip()
        if token.lower() in MISSING_TOKENS:
            raise ValueError("missing label")
        label_tokens.append(token)
        return 0.0

    try:
        lines = _plain_lines(text)
        header, first, label_idx = _head(lines, lambda line: line.split(","), path,
                                         label_column, has_header)
        # no usecols: with it, loadtxt ignores cells past the last one used
        table = np.loadtxt(itertools.chain((first,), lines), dtype=np.float64, delimiter=",",
                           comments=None, quotechar=None, ndmin=2,
                           converters={label_idx: label})
    except ValueError:
        # UnicodeDecodeError, DataError and ConfigError are ValueErrors too:
        # the reader gives every error, as it may meet another one first
        return None
    features = np.delete(table, label_idx, axis=1)
    if np.isnan(features).any():
        return None
    return features, label_tokens, header, label_idx


def _plain_lines(text):
    """The non-blank lines; ValueError at one the plain path refuses."""
    limit = csv.field_size_limit()
    for line in text:
        if line in ("\n", "\r\n", "\r"):
            continue
        if any(map(line.__contains__, _REFUSED)) or (
                len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit):
            raise ValueError("line needs the reader")
        yield line


def _label_index(label_column: int | str, header: list[str] | None, n_cols: int,
                 path: str) -> int:
    """A string names a header column; one the header lacks is an index if
    it parses as an integer, so a column named "2020" is chosen by name."""
    if isinstance(label_column, str):
        if header is not None and label_column in header:
            return header.index(label_column)
        try:
            label_column = int(label_column)
        except ValueError:
            if header is None:
                raise ConfigError("label column given by name requires a header row")
            raise ConfigError(f"label column {label_column!r} not in header {header}")
    if -n_cols <= label_column < n_cols:
        return label_column % n_cols
    raise DataError(f"{path}: label column {label_column} is out of range "
                    f"for {n_cols} columns")


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def write_rows(path, header: list[str], rows) -> None:
    """Write a header row and then `rows` as UTF-8 CSV, each float as its
    repr so that it reloads bit for bit. Every CSV the package writes goes
    through here, so a replayed file matches its first write byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else str(v) for v in row]
                    for row in rows)


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV (features then label, full float precision)."""
    names = dataset.feature_names or [f"f{i}" for i in range(dataset.n_features)]
    write_rows(path, [*names, "label"],
               ([*x, y] for x, y in zip(dataset.features.tolist(), dataset.labels.tolist())))


def class_train_counts(dataset: Dataset, train_fraction: float) -> list[int]:
    """Train instances of each class, in label order, in every
    `stratified_split` of dataset at train_fraction: the class's fraction
    rounded half up, then clamped so both sides keep at least one instance.

    The class counts fix them, whatever the stream, so they are known before
    any split is drawn.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0,1), got {train_fraction}")
    _validate_classes(dataset.labels, dataset.name)
    return [min(max(int(np.floor(train_fraction * n_c + 0.5)), 1), n_c - 1)
            for n_c in np.bincount(dataset.labels).tolist()]


def stratified_split(dataset: Dataset, train_fraction: float, rng: RngStream) -> Split:
    """Per-class random split hitting train_fraction, both partitions non-empty.

    Classes are processed in label order and each class's indices are shuffled
    with the stream, so the split is a pure function of (dataset, seed).
    """
    train: list[int] = []
    test: list[int] = []
    for c, n_train in enumerate(class_train_counts(dataset, train_fraction)):
        idx = [int(i) for i in np.flatnonzero(dataset.labels == c)]
        rng.shuffle(idx)
        train.extend(idx[:n_train])
        test.extend(idx[n_train:])
    return Split(
        train_indices=np.asarray(sorted(train), dtype=np.int64),
        test_indices=np.asarray(sorted(test), dtype=np.int64),
    )


def generate_m_of_n(n_relevant: int, m: int, n_noise: int, n_instances: int,
                    rng: RngStream) -> Dataset:
    """Synthetic binary dataset whose label is 1 iff at least m of the first
    n_relevant bits are set; the remaining n_noise bits carry no information.

    The unique minimal optimal feature subset is the n_relevant relevant bits.
    """
    if m < 1 or m > n_relevant:
        raise ConfigError(f"m must satisfy 1 <= m <= n_relevant, got m={m}, n_relevant={n_relevant}")
    if n_noise < 0 or n_instances < 4:
        raise ConfigError("need n_noise >= 0 and at least 4 instances")
    d = n_relevant + n_noise
    # row by row, one bit() per feature; no draw is conditional, so the
    # whole table is one block, and a bit is raw & 1 since bit() never rejects
    bits = (rng.raws(n_instances * d) & 1).reshape(n_instances, d)
    features = bits.astype(np.float64)
    labels = (bits[:, :n_relevant].sum(axis=1) >= m).astype(np.int64)
    name = f"m-of-n-{n_relevant}-{m}-{n_noise}-{n_instances}"
    _validate_classes(labels, name)
    names = [f"rel{i}" for i in range(n_relevant)] + [f"noise{i}" for i in range(n_noise)]
    return Dataset(name=name, features=features, labels=labels, feature_names=names)
