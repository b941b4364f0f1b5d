"""Dataset ingestion, stratified splitting, and synthetic data generation.

Datasets are immutable after load: a float64 feature matrix plus dense 0-based
integer class labels. CSV is the only on-disk format (comma separator,
optional single header row, '.' decimal point, UTF-8 with or without a
byte-order mark); the label column may hold arbitrary tokens, which are
mapped to dense indexes in first-appearance order so that reloading a
re-serialized file reproduces the same labels.

`load_csv` has two paths that return the same Dataset, bit for bit.

- The reader: `csv.reader` and one `float()` per feature cell. It takes any
  file, and every load error comes from it or from the helpers it shares.
- The plain pass, for files the reader splits on commas and line ends alone.
  A file goes to the reader instead, from its first byte, when it has a `"`,
  a NUL byte or a lone `\r`, a row wider or narrower than the first, a
  missing label token, a cell longer than `csv.field_size_limit()`, a
  feature cell outside `[+-]digits[.digits][(e|E)[+-]digits]`, bytes that
  are not UTF-8, or anything else the reader reports as an error. A file
  that cannot seek, such as a pipe, goes to the reader unread. A blank line
  is an empty cell that both starts and ends a line; an empty last cell
  after a comma is a cell, as it is to the reader.

The plain pass reads whole lines in blocks of about BLOCK_BYTES and converts
at most _CHUNK_CELLS feature cells at a time, so its temporaries stay at a
few MB whatever the file's size (about 40 bytes per cell of a block and 250
per cell of a chunk), and the features grow in one array('d'), as the
reader's do. In a block, numpy finds every byte that is not a digit. Those
bytes (separators, signs, dots, exponent marks) form a skeleton, and each
pair of neighbours in it, with the number of digits between them, is checked
against the grammar's transitions (`_NEXT`); that check is exact for cells
of any length. A cell's mantissa, at most 24 bytes, is gathered
right-aligned into three 8-byte words, the dot is read as a 0 digit, and
each word's digits are folded into one number by three multiply-shift steps.

Exactness. A feature cell is M * 10**k, with M its mantissa digits as an
integer and k its exponent less its fraction digits. When M < 2**64 and
|k| <= 27, both M and 10**|k| = 5**|k| * 2**|k| (5**27 < 2**63) are exact in
a long double with a 64-bit significand, so one multiply or divide gives the
value correctly rounded to 64 bits. Rounding that to float64 is a second
rounding. It agrees with float()'s single rounding unless the long double
lies exactly halfway between two float64s, because those midpoints are
themselves long doubles and rounding is monotone. These cells get float()
instead: midpoint cells; cells with |k| > 27; cells whose digits, read with
the dot as one more 0, could reach 2**64, which is every cell with more than
19 significant digits and a few with 19; mantissas over 24 bytes; cells
ending in a block's first 24 bytes; and every cell where numpy's long double
is not an IEEE format with a 64-bit or wider significand
(`np.finfo(np.longdouble).nmant < 63`) or does not round to 64 bits.
"""

from __future__ import annotations

import csv
import io
import itertools
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ConfigError, DataError
from .rng import RngStream

MISSING_TOKENS = {"", "?", "na", "nan", "n/a"}

# bytes the plain pass reads at a time, rounded up to a whole line, and the
# most feature cells it converts at a time
BLOCK_BYTES = 1 << 17
_CHUNK_CELLS = 1 << 13

# x87 extended or IEEE binary128, with the x87 set to round to 64 bits;
# plain double and double-double are not exact
_EXACT_LONG_DOUBLE = bool(np.finfo(np.longdouble).nmant >= 63
                          and np.finfo(np.longdouble).nexp == 15
                          and np.longdouble(1) + np.longdouble(2) ** -63 > 1)

_BOM = b"\xef\xbb\xbf"

# skeleton classes of the bytes that are not digits
_OTHER, _SEP, _SIGN, _DOT, _EXP, _EXP_SIGN = range(6)
_CLASS = np.zeros(256, np.uint8)
_CLASS[[ord(","), ord("\n")]] = _SEP
_CLASS[[ord("+"), ord("-")]] = _SIGN
_CLASS[ord(".")] = _DOT
_CLASS[[ord("e"), ord("E")]] = _EXP
# _NEXT[a, b] says whether skeleton byte b may follow a in a feature cell:
# 1 with at least one digit between them, 2 with none, 0 never
_NEXT = np.zeros((6, 6), np.uint8)
_NEXT[_SEP, [_SEP, _DOT, _EXP]] = 1
_NEXT[_SEP, _SIGN] = 2
_NEXT[_SIGN, [_SEP, _DOT, _EXP]] = 1
_NEXT[_DOT, [_SEP, _EXP]] = 1
_NEXT[_EXP, _EXP_SIGN] = 2
_NEXT[_EXP_SIGN, _SEP] = 1
_NEXT[_EXP, _SEP] = 1

# _FITS[(a * 6 + b) * 2 + g]: may b follow a, with a digit between them (g = 1)
# or none (g = 0)
_FITS = np.stack([_NEXT == 2, _NEXT == 1], axis=-1).ravel()

# Eight digit bytes, the first in the lowest byte, fold into one number in
# three steps, to digit pairs, fours and eights: x * (10**w << s) + x, shifted
# down by s, adds each s-bit lane times 10**w to the lane after it, and the
# mask keeps every other lane. No lane overflows.
_FOLD = [((10 << 8) + 1, 8, 0x00FF00FF00FF00FF), ((100 << 16) + 1, 16, 0x0000FFFF0000FFFF),
         ((10000 << 32) + 1, 32, 0xFFFFFFFF)]

_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_POW10_LD = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))  # exact
# _KEEP[j] keeps bytes j..7 of a little-endian word
_KEEP = np.array([(1 << 64) - (1 << 8 * j) for j in range(9)], dtype=np.uint64)


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


def load_csv(path, label_column: int | str = -1, has_header: bool = True,
             name: str | None = None) -> Dataset:
    """Load a numeric-feature CSV with one label column.

    label_column is an index, or a header name; a name the header lacks is
    read as an index when it is integer text, as the CLI passes it.

    Rows containing missing cells (empty, '?', 'NA', 'NaN') are an error, as
    are non-numeric feature cells, ragged rows and a header whose width is
    not the rows'; the error names the offending position and counts how
    many rows were affected. A file that cannot be opened or is not UTF-8
    text is a DataError naming the path. A leading byte-order mark is
    dropped.

    A plain numeric file is parsed in numpy, block by block, with no Python
    object per cell; any other file, and every error, goes through
    `csv.reader` and float(). Both give the same features, bit for bit; the
    module docstring has the fallback triggers, the exactness argument and
    the memory bound. Either way the file is streamed, a pipe too, and the
    memory held beyond the features is a few MB.
    """
    path = str(path)
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"{path}: cannot open file: {e.strerror or e}") from e
    with f:
        parsed = None
        if f.seekable():  # a pipe is read once, by the reader
            parsed = _read_plain(f, path, label_column, has_header)
            f.seek(0)
        if parsed is None:
            with io.TextIOWrapper(f, encoding="utf-8-sig", newline="") as text:
                try:
                    parsed = _read_rows(csv.reader(text), path, label_column, has_header)
                except UnicodeDecodeError as e:
                    raise DataError(f"{path}: file is not UTF-8 text ({e.reason})") from e
    features, label_tokens, header, label_idx = parsed

    # dense label mapping, first-appearance order
    mapping: dict[str, int] = {}
    labels = [mapping.setdefault(tok, len(mapping)) for tok in label_tokens]

    ds = Dataset(
        name=name or path,
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        feature_names=[h for i, h in enumerate(header) if i != label_idx] if header else None,
    )
    if ds.n_features < 1:
        raise DataError(f"{path}: no feature columns found")
    _validate_classes(ds.labels, path)
    return ds


def _read_rows(reader, path: str, label_column: int | str, has_header: bool):
    """(features, label tokens, header, label index) from the non-empty rows.

    Rows are numbered from 0 after the header. A ragged row or an
    unparseable feature cell raises at once; missing cells are counted to
    the end, so either of the first two wins over a missing cell in an
    earlier row, and a row with a missing cell is not parsed.
    """
    rows = (row for row in reader if row)
    first = next(rows, None)
    if first is None:
        raise DataError(f"{path}: file is empty")

    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in first]
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: no data rows after the header")

    n_cols = len(first)
    label_idx = _layout(header, n_cols, label_column, path)

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


def _layout(header: list[str] | None, n_cols: int, label_column: int | str,
            path: str) -> int:
    """The label column's index, given the header and the first row's width."""
    if header is not None and len(header) != n_cols:
        raise DataError(f"{path}: header has {len(header)} columns "
                        f"but row 0 has {n_cols}")
    return _label_index(label_column, header, n_cols, path)


def _read_plain(f, path: str, label_column: int | str, has_header: bool):
    """_read_rows's result by the plain pass, or None when the file needs
    the reader, which then gives the result or the error."""
    limit = csv.field_size_limit()
    header: list[str] | None = None
    n_cols = label_idx = 0
    values = array("d")
    label_tokens: list[str] = []
    for block in _plain_blocks(f):
        cells = None if block is None else _scan(block, limit)
        if cells is None:
            return None
        if has_header and header is None and len(cells.sep):
            k = int(cells.line_end.argmax()) + 1  # the first line's cells
            header = _texts(block, cells.starts[:k], cells.ends[:k])
            if header is None:
                return None
            cells = cells.after(k)
        if not len(cells.sep):
            continue
        if not n_cols:  # the first row's width
            n_cols = int(cells.line_end.argmax()) + 1
            if n_cols < 2:
                return None
            try:
                label_idx = _layout(header, n_cols, label_column, path)
            except (ConfigError, DataError):
                return None  # the reader may meet another error first
        parsed = _parse_block(block, cells, n_cols, label_idx)
        if parsed is None:
            return None
        values.frombytes(parsed[0].data.cast("B"))
        label_tokens += parsed[1]
    if not label_tokens:
        return None
    features = np.frombuffer(values, dtype=np.float64).reshape(len(label_tokens), n_cols - 1)
    return features, label_tokens, header, label_idx


def _plain_blocks(f):
    """The file's whole lines in blocks of about BLOCK_BYTES, after a
    leading byte-order mark, each block ending in a newline; a block with a
    quote or a NUL byte is yielded as None, and no block is empty."""
    if f.read(len(_BOM)) != _BOM:
        f.seek(0)
    rest = b""
    while True:
        block = rest + f.read(BLOCK_BYTES)
        end = len(block) == len(rest)
        cut = len(block) if end else block.rfind(b"\n") + 1
        block, rest = block[:cut], block[cut:]
        if b'"' in block or b"\0" in block:
            yield None
            return
        if block:
            yield block if block.endswith(b"\n") else block + b"\n"
        if end:
            return


class _Cells(NamedTuple):
    """A block's skeleton, its bytes that are not digits, and its cells."""

    buf: np.ndarray  # the block's bytes
    pos: np.ndarray  # where the skeleton bytes are, CRs left out
    byte: np.ndarray
    code: np.ndarray  # their skeleton classes
    bad: np.ndarray  # skeleton indexes that break the feature grammar
    sep: np.ndarray  # the skeleton index of each cell's separator
    starts: np.ndarray  # each cell's bytes, a CR before its LF left out
    ends: np.ndarray
    line_end: np.ndarray  # whether the cell ends its line

    def after(self, k: int) -> _Cells:
        """The cells from the k-th on."""
        return self._replace(bad=self.bad[self.bad > self.sep[k - 1]], sep=self.sep[k:],
                             starts=self.starts[k:], ends=self.ends[k:],
                             line_end=self.line_end[k:])


def _scan(block: bytes, limit: int) -> _Cells | None:
    """The cells of a block of whole lines, blank lines dropped, or None
    when it has a lone CR or a cell longer than limit."""
    buf = np.frombuffer(block, np.uint8)
    pos = np.flatnonzero(buf - 48 >= 10)  # the skeleton: every byte but the digits
    byte = buf[pos]
    gap = np.empty(len(pos), bool)  # a digit between it and the one before
    gap[0] = pos[0] > 0
    np.greater(pos[1:] - pos[:-1], 1, out=gap[1:])
    crlf = b"\r" in block
    if crlf:
        cr = np.flatnonzero(byte == 13)
        if not np.all(buf[pos[cr] + 1] == 10):
            return None
        gap[cr + 1] = gap[cr]  # the LF after a CR ends the line's last cell
        keep = np.ones(len(pos), bool)
        keep[cr] = False
        pos, byte, gap = pos[keep], byte[keep], gap[keep]

    code = _CLASS[byte]
    code[1:][(code[1:] == _SIGN) & (code[:-1] == _EXP)] = _EXP_SIGN
    pair = code * 2 + gap
    pair[0] += _SEP * 12
    pair[1:] += code[:-1] * 12
    bad = np.flatnonzero(~_FITS[pair])

    # a separator ends the cell that starts after the separator before it
    sep = np.flatnonzero((byte == 44) | (byte == 10))
    starts = np.empty_like(sep)
    starts[0] = 0
    starts[1:] = pos[sep[:-1]] + 1
    ends = pos[sep]
    if crlf:
        ends -= buf[ends - 1] == 13
    line_end = byte[sep] == 10
    # a blank line is one empty cell that both starts and ends a line
    blank = line_end & (starts == ends)
    blank[1:] &= line_end[:-1]
    if blank.any():
        bad = np.setdiff1d(bad, sep[blank])
        keep = ~blank
        sep, starts, ends, line_end = sep[keep], starts[keep], ends[keep], line_end[keep]
    if len(sep) and (ends - starts).max() > limit:
        return None
    return _Cells(buf, pos, byte, code, bad, sep, starts, ends, line_end)


def _texts(block: bytes, starts: np.ndarray, ends: np.ndarray) -> list[str] | None:
    """The cells' text, stripped, or None when one is not UTF-8."""
    try:
        return [block[a:b].decode("utf-8").strip()
                for a, b in zip(starts.tolist(), ends.tolist())]
    except UnicodeDecodeError:
        return None


def _parse_block(block: bytes, cells: _Cells, n_cols: int, label_idx: int):
    """(feature values, label tokens) of a block's cells, or None when a row
    is ragged, a feature cell is off the grammar or a label token is missing
    or not UTF-8."""
    sep, starts, ends, line_end = cells.sep, cells.starts, cells.ends, cells.line_end
    n = len(sep)
    if n % n_cols or not np.array_equal(np.flatnonzero(line_end),
                                        np.arange(n_cols - 1, n, n_cols)):
        return None
    if np.any(np.searchsorted(sep, cells.bad) % n_cols != label_idx):
        return None
    tokens = _texts(block, starts[label_idx::n_cols], ends[label_idx::n_cols])
    if tokens is None or not MISSING_TOKENS.isdisjoint(map(str.lower, tokens)):
        return None

    # the per-cell temporaries, a few hundred bytes a cell, scale with the
    # cells in one call, and a block of one-digit cells has BLOCK_BYTES / 2
    columns = np.arange(n_cols) != label_idx
    bounds = [a.reshape(-1, n_cols)[:, columns] for a in (sep, starts, ends)]
    rows = max(1, _CHUNK_CELLS // (n_cols - 1))
    values = np.concatenate([
        _feature_values(block, cells, *(a[r:r + rows].ravel() for a in bounds))
        for r in range(0, len(bounds[0]), rows)])
    return values, tokens


def _feature_values(block, cells, sep, starts, ends):
    """float64 values of grammar-checked feature cells, given the block's
    skeleton, each cell's separator index in it, and its bounds."""
    buf, pos, byte, code = cells.buf, cells.pos, cells.byte, cells.code
    # walk back from each cell's separator over [e [sign] digits] and [. digits];
    # index -1 reads the block's last byte, a LF
    mant_end = ends.copy()
    exp10 = np.zeros(len(sep), np.int64)
    last = sep - 1
    e = np.flatnonzero(code[last] >= _EXP)
    if e.size:
        at = last[e]
        exp_signed = code[at] == _EXP_SIGN
        exp_neg = exp_signed & (byte[at] == 45)
        at -= exp_signed
        mant_end[e] = pos[at]
        last[e] = at - 1
        n_digits = ends[e] - pos[at] - 1 - exp_signed
        k = np.arange(3)
        digits = buf[ends[e, None] - 1 - k].astype(np.int64) - 48
        value = (digits * (k < n_digits[:, None])) @ np.array([1, 10, 100])
        value[n_digits > 3] = 1000  # beyond the exact range either way
        exp10[e] = np.where(exp_neg, -value, value)
    dot = np.where(code[last] == _DOT, pos[last], -1)
    first = buf[starts]
    signed = (first == 43) | (first == 45)

    values, exact = _decimals(buf, starts + signed, mant_end, dot, exp10, first == 45)
    for i in np.flatnonzero(~exact).tolist():
        values[i] = float(block[starts[i]:ends[i]])
    return values


def _decimals(buf, start, end, dot, exp10, neg):
    """float64 values of grammar-checked cells, and which of them are exact.

    start:end is each mantissa without its sign, dot its '.' or -1, and
    exp10 its explicit exponent. Cells not marked exact need float().
    """
    width = end - start
    frac = np.where(dot >= 0, end - dot - 1, 0)
    if len(buf) < 24:
        buf = np.concatenate((buf, np.zeros(24, np.uint8)))
    win = sliding_window_view(buf, 24)[np.maximum(end - 24, 0)]  # the 24 bytes before each end
    has_dot = np.flatnonzero((dot >= 0) & (end - dot <= 24))
    win.reshape(-1)[has_dot * 24 + 24 - (end - dot)[has_dot]] = 48  # the dot reads as a 0
    words = win.view("<u8")
    words ^= 0x3030303030303030
    lead = 24 - width  # bytes before the mantissa
    for k in range(3):
        if lead.max() <= 8 * k:
            break
        words[:, k] &= _KEEP[np.clip(lead - 8 * k, 0, 8)]
    # fold eight digit bytes, most significant first, into one number
    for factor, shift, keep in _FOLD:
        words *= factor
        words >>= shift
        words &= keep
    digits = words[:, 0] * 10**16 + words[:, 1] * 10**8 + words[:, 2]
    # digits holds the integer part one place too high, above the dot's 0
    whole = np.where(dot >= 0, digits // _POW10[np.minimum(frac + 1, 19)], 0)
    mantissa = digits - whole * 9 * _POW10[np.minimum(frac, 19)]
    scale = exp10 - frac

    # a window clipped at the block's start, a mantissa wider than it, a sum
    # that may pass 2**64, or a divisor past 10**19 is not exact
    exact = ((end >= 24) & (lead >= 0) & (words[:, 0] <= 1843)
             & (frac <= 18) & (np.abs(scale) <= 27) & _EXACT_LONG_DOUBLE)
    wide = mantissa.astype(np.longdouble)
    up = np.flatnonzero(scale > 0)
    wide[up] *= _POW10_LD[np.minimum(scale[up], 27)]
    wide /= _POW10_LD[np.clip(-scale, 0, 27)]  # by 1 where scale >= 0
    values = wide.astype(np.float64)
    # off is exact in both formats: the bits of wide that rounding dropped
    off = np.abs((wide - values).astype(np.float64))
    step = np.spacing(values)
    exact &= (2 * off != step) & (4 * off != step)  # not on a float64 midpoint
    return np.copysign(values, 0.5 - neg, out=values), exact


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


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV (features then label, full float precision)."""
    names = dataset.feature_names or [f"f{i}" for i in range(dataset.n_features)]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow([*names, "label"])
        for x, y in zip(dataset.features, dataset.labels):
            w.writerow([*(repr(float(v)) for v in x), int(y)])


def stratified_split(dataset: Dataset, train_fraction: float, rng: RngStream) -> Split:
    """Per-class random split hitting train_fraction, both partitions non-empty.

    Classes are processed in label order and each class's indices are shuffled
    with the stream, so the split is a pure function of (dataset, seed).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0,1), got {train_fraction}")
    _validate_classes(dataset.labels, dataset.name)
    train: list[int] = []
    test: list[int] = []
    for c in range(dataset.n_classes):
        idx = [int(i) for i in np.flatnonzero(dataset.labels == c)]
        rng.shuffle(idx)
        n_c = len(idx)
        # round half up, then clamp so both sides keep at least one instance
        n_train = int(np.floor(train_fraction * n_c + 0.5))
        n_train = min(max(n_train, 1), n_c - 1)
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
