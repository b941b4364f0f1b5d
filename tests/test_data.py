import csv
import io
import os
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsro.data as data_module
from fsro import DataError, RngStream, generate_m_of_n, load_csv, save_csv
from fsro.core import ConfigError
from fsro.data import Dataset, class_train_counts, stratified_split


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_labels_first_appearance_order(tmp_path):
    p = write(tmp_path, "f0,f1,label\n1,2,B\n3,4,M\n5,6,B\n7,8,M\n")
    ds = load_csv(p)
    assert list(ds.labels) == [0, 1, 0, 1]
    assert ds.feature_names == ["f0", "f1"]
    assert ds.features.shape == (4, 2)


def test_label_column_by_name_and_index(tmp_path):
    p = write(tmp_path, "y,a,b\n0,1,2\n1,3,4\n0,5,6\n1,7,8\n")
    by_name = load_csv(p, label_column="y")
    by_index = load_csv(p, label_column=0)
    assert np.array_equal(by_name.labels, by_index.labels)
    assert np.array_equal(by_name.features, by_index.features)
    assert by_name.features[0, 0] == 1.0


def test_no_header(tmp_path):
    p = write(tmp_path, "1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    ds = load_csv(p, has_header=False)
    assert ds.features.shape == (4, 2)
    assert list(ds.labels) == [0, 1, 0, 1]


def test_missing_cell_is_an_error_naming_position(tmp_path):
    p = write(tmp_path, "a,b,label\n1,2,x\n1,?,x\n3,4,y\n5,6,y\n")
    with pytest.raises(DataError, match=r"row 1, column 1"):
        load_csv(p)


def test_unparseable_cell_names_position(tmp_path):
    p = write(tmp_path, "a,b,label\n1,2,x\n1,zap,y\n")
    with pytest.raises(DataError, match=r"row 1, column 1"):
        load_csv(p)


def test_single_class_rejected(tmp_path):
    p = write(tmp_path, "a,label\n1,x\n2,x\n3,x\n")
    with pytest.raises(DataError):
        load_csv(p)


def test_roundtrip_idempotent(tmp_path):
    p = write(tmp_path, "a,b,label\n1.5,2,M\n3,4.25,B\n5,6,M\n7,8,B\n")
    ds1 = load_csv(p)
    out = tmp_path / "round.csv"
    save_csv(ds1, out)
    ds2 = load_csv(out)
    assert np.array_equal(ds1.features, ds2.features)
    assert np.array_equal(ds1.labels, ds2.labels)


def test_split_balanced_two_class():
    from fsro.data import Dataset

    labels = np.array([0, 1] * 5, dtype=np.int64)
    ds = Dataset("ten", np.arange(20, dtype=np.float64).reshape(10, 2), labels)
    split = stratified_split(ds, 0.8, RngStream(4))
    assert len(split.train_indices) == 8
    assert len(split.test_indices) == 2
    assert set(labels[split.test_indices]) == {0, 1}


def test_split_partitions_everything(bench_m_of_n):
    split = stratified_split(bench_m_of_n, 0.8, RngStream(2))
    both = np.concatenate([split.train_indices, split.test_indices])
    assert sorted(both) == list(range(bench_m_of_n.n_instances))
    assert len(set(both)) == bench_m_of_n.n_instances


def test_split_never_empties_a_class_partition(small_m_of_n):
    # a fraction that would round a 3-instance class's test share to zero
    split = stratified_split(small_m_of_n, 0.95, RngStream(3))
    test_labels = set(small_m_of_n.labels[split.test_indices])
    assert test_labels == set(range(small_m_of_n.n_classes))


@given(counts=st.lists(st.integers(2, 40), min_size=2, max_size=4),
       fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_class_train_counts_are_every_splits_per_class_train_counts(counts, fraction, seed):
    labels = np.repeat(np.arange(len(counts)), counts)
    ds = Dataset("classes", np.zeros((labels.size, 1)), labels)
    split = stratified_split(ds, fraction, RngStream(seed))
    assert class_train_counts(ds, fraction) == np.bincount(labels[split.train_indices],
                                                           minlength=len(counts)).tolist()


def test_split_deterministic(bench_m_of_n):
    s1 = stratified_split(bench_m_of_n, 0.8, RngStream(10))
    s2 = stratified_split(bench_m_of_n, 0.8, RngStream(10))
    assert np.array_equal(s1.train_indices, s2.train_indices)
    assert np.array_equal(s1.test_indices, s2.test_indices)


def test_split_single_instance_class_rejected(tmp_path):
    p = tmp_path / "thin.csv"
    p.write_text("a,label\n1,x\n2,x\n3,y\n")
    with pytest.raises(DataError):
        load_csv(p)


def test_m_of_n_shape():
    ds = generate_m_of_n(6, 3, 7, 1000, RngStream(0))
    assert ds.features.shape == (1000, 13)
    assert ds.n_classes == 2


def test_m_of_n_labels_match_rule():
    ds = generate_m_of_n(6, 3, 7, 500, RngStream(8))
    recomputed = (ds.features[:, :6].sum(axis=1) >= 3).astype(np.int64)
    assert np.array_equal(ds.labels, recomputed)


def test_m_of_n_class_balance():
    # P(label=1) = sum_{j>=3} C(6,j)/2^6 = 42/64 = 0.65625
    ds = generate_m_of_n(6, 3, 7, 4000, RngStream(21))
    assert abs(ds.labels.mean() - 42 / 64) < 0.03


def test_m_of_n_relevant_mask_is_consistent():
    ds = generate_m_of_n(3, 2, 2, 300, RngStream(5))
    # the label is a deterministic function of the relevant bits: identical
    # relevant patterns always carry identical labels
    patterns = {}
    for row, label in zip(ds.features, ds.labels):
        key = tuple(row[:3])
        assert patterns.setdefault(key, int(label)) == int(label)


def test_m_of_n_invalid_m():
    with pytest.raises(ConfigError):
        generate_m_of_n(3, 4, 2, 100, RngStream(0))


@pytest.mark.parametrize("n_noise,n_instances", [(-1, 100), (2, 3), (2, 0)])
def test_m_of_n_rejects_negative_noise_or_fewer_than_4_instances(n_noise, n_instances):
    with pytest.raises(ConfigError, match="^need n_noise >= 0 and at least 4 instances$"):
        generate_m_of_n(3, 2, n_noise, n_instances, RngStream(0))


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
def test_stratified_split_rejects_train_fraction_outside_the_open_unit_interval(fraction):
    dataset = generate_m_of_n(2, 1, 2, 40, RngStream(0))
    with pytest.raises(ConfigError, match=rf"^train_fraction must be in \(0,1\), got {fraction}$"):
        stratified_split(dataset, fraction, RngStream(0))


# load_csv behaviour, pinned: messages, 0-based data-row and column numbers,
# and which error wins when several apply.

def test_empty_file_rejected(tmp_path):
    for text in ("", "\n\n"):
        p = write(tmp_path, text)
        with pytest.raises(DataError, match=r"file is empty"):
            load_csv(p)
        with pytest.raises(DataError, match=r"file is empty"):
            load_csv(p, has_header=False)


def test_header_only_file_rejected(tmp_path):
    p = write(tmp_path, "a,b,label\n\n")
    with pytest.raises(DataError, match=r"no data rows after the header"):
        load_csv(p)


def test_ragged_row_names_row_and_widths(tmp_path):
    p = write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n5,6\n7,8,y\n")
    with pytest.raises(DataError, match=r"row 2 has 2 columns, expected 3"):
        load_csv(p)


def test_label_name_needs_a_header(tmp_path):
    p = write(tmp_path, "1,2,0\n3,4,1\n")
    with pytest.raises(ConfigError, match=r"requires a header row"):
        load_csv(p, label_column="y", has_header=False)


def test_label_name_not_in_header(tmp_path):
    p = write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n")
    with pytest.raises(ConfigError, match=r"label column 'y' not in header"):
        load_csv(p, label_column="y")


def test_missing_label_token_is_a_missing_value(tmp_path):
    p = write(tmp_path, "a,b,label\n1,2,x\n3,4,NA\n5,6,y\n")
    with pytest.raises(DataError, match=r"1 row\(s\) contain missing values "
                                        r"\(first at row 1, column 2\)"):
        load_csv(p)


def test_missing_values_counted_across_rows(tmp_path):
    # blank lines are skipped and not numbered; two missing cells in one row
    # count that row once
    p = write(tmp_path, "a,b,label\n1,2,x\n\n3,,y\n ? ,n/a,x\n5,6,y\n7,NaN,x\n")
    with pytest.raises(DataError, match=r"3 row\(s\) contain missing values "
                                        r"\(first at row 1, column 1\)"):
        load_csv(p)


def test_unparseable_later_row_wins_over_earlier_missing(tmp_path):
    p = write(tmp_path, "a,b,label\n1,?,x\n3,4,y\n5,oops,x\n")
    with pytest.raises(DataError, match=r"unparseable cell at row 2, column 1: 'oops'"):
        load_csv(p)


def test_ragged_later_row_wins_over_earlier_missing(tmp_path):
    p = write(tmp_path, "a,b,label\n1,?,x\n3,4,y\n5\n")
    with pytest.raises(DataError, match=r"row 2 has 1 columns, expected 3"):
        load_csv(p)


def test_missing_wins_over_unparseable_in_the_same_row(tmp_path):
    p = write(tmp_path, "a,b,label\n1,2,x\nzap,?,y\n3,4,y\n")
    with pytest.raises(DataError, match=r"first at row 1, column 1"):
        load_csv(p)


def test_label_only_file_has_no_features(tmp_path):
    p = write(tmp_path, "label\nx\ny\nx\ny\n")
    with pytest.raises(DataError, match=r"no feature columns found"):
        load_csv(p)


def test_cells_parse_as_python_floats(tmp_path):
    p = write(tmp_path, "a,b,label\n 1.5 ,-2e3,x\n+.5,1_0,y\n3,4,x\n5,6,y\n")
    ds = load_csv(p)
    assert ds.features.dtype == np.float64
    assert ds.features.flags.c_contiguous
    assert ds.features.tolist() == [[1.5, -2000.0], [0.5, 10.0],
                                    [3.0, 4.0], [5.0, 6.0]]


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999", "-1e999"])
def test_non_finite_cells_are_rejected_at_their_position(tmp_path, cell, either_path):
    # the label sits between the features, so file column 2 is feature 1
    p = write(tmp_path, f"a,label,b\n1,x,2\n3,y,4\n5,x,{cell}\n7,y,8\n")
    with pytest.raises(DataError, match=r"d\.csv: non-finite value at row 2, column 2$"):
        load_csv(p, label_column="label")


def test_column_whose_span_overflows_is_rejected(tmp_path, either_path):
    p = write(tmp_path, "a,label,b\n1,x,1e308\n3,y,4\n5,x,-1e308\n7,y,8\n")
    with pytest.raises(DataError, match=r"d\.csv: max - min of column 2 overflows float64$"):
        load_csv(p, label_column="label")


def test_label_column_in_the_middle(tmp_path):
    p = write(tmp_path, "a,y,b\n1,M,2\n3,B,4\n5,M,6\n7,B,8\n")
    ds = load_csv(p, label_column=1)
    assert ds.features.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert list(ds.labels) == [0, 1, 0, 1]
    assert ds.feature_names == ["a", "b"]


def test_label_column_index_out_of_range_is_a_data_error(tmp_path):
    # a wrapped index would read column a as the label and keep b, c
    p = write(tmp_path, "a,b,c\n0,1,0\n1,3,1\n0,5,0\n1,7,1\n")
    for label_column in (3, -4, 10):
        with pytest.raises(DataError, match=rf"label column {label_column} .*3 columns"):
            load_csv(p, label_column=label_column)
    assert load_csv(p, label_column=2).feature_names == ["a", "b"]
    assert load_csv(p, label_column=-3).feature_names == ["b", "c"]


def test_missing_file_is_a_data_error_naming_the_path(tmp_path):
    p = tmp_path / "absent.csv"
    with pytest.raises(DataError, match=r"absent\.csv: cannot open file"):
        load_csv(p)


def test_non_utf8_file_is_a_data_error_naming_the_path(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("a,b,label\n1,2,café\n3,4,x\n".encode("latin-1"))
    with pytest.raises(DataError, match=r"latin1\.csv: file is not UTF-8 text"):
        load_csv(p)


# The plain path (np.loadtxt) against the reader (csv.reader and float()):
# the same features bit for bit, labels and names, or the same error.

def _outcome(path, **kwargs):
    try:
        ds = load_csv(path, **kwargs)
    except (ConfigError, DataError) as e:
        return type(e).__name__, str(e)
    assert ds.features.dtype == np.float64 and ds.features.flags.c_contiguous
    return (ds.features.view(np.uint64).tolist(), ds.features.shape,
            ds.labels.tolist(), ds.feature_names)


def _reader_outcome(path, **kwargs):
    with mock.patch.object(data_module, "_read_plain", lambda *args: None):
        return _outcome(path, **kwargs)


def _plain_result(path, **kwargs):
    """What the plain path returned, None when it handed the file over."""
    seen = []
    real = data_module._read_plain

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(data_module, "_read_plain", spy):
        _outcome(path, **kwargs)
    return seen[0]


@pytest.fixture(params=["plain", "reader"])
def either_path(request, monkeypatch):
    if request.param == "reader":
        monkeypatch.setattr(data_module, "_read_plain", lambda *args: None)
    return request.param


def test_utf8_bom_is_not_part_of_the_first_name(tmp_path, either_path):
    p = write(tmp_path, "\ufeffa,b,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n")
    assert load_csv(p).feature_names == ["a", "b"]


def test_utf8_bom_header_name_selects_the_label(tmp_path, either_path):
    p = write(tmp_path, "\ufeffa,b,label\n0,2,3\n1,4,5\n0,6,7\n1,8,9\n")
    ds = load_csv(p, label_column="a")
    assert ds.feature_names == ["b", "label"]
    assert ds.labels.tolist() == [0, 1, 0, 1]


def test_utf8_bom_before_a_headerless_first_cell(tmp_path, either_path):
    p = write(tmp_path, "\ufeff1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    ds = load_csv(p, has_header=False)
    assert ds.features[0].tolist() == [1.0, 2.0]


@pytest.mark.parametrize("text,header,row", [
    ("a,b,label\n1,2,3,x\n4,5,6,y\n7,8,9,x\n1,2,3,y\n", 3, 4),
    ("a,b,c,d,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n", 5, 3),
], ids=["narrower", "wider"])
def test_header_width_must_match_the_rows(tmp_path, either_path, text, header, row):
    p = write(tmp_path, text)
    with pytest.raises(DataError, match=rf"header has {header} columns but row 0 has {row}"):
        load_csv(p)


def test_float64_extremes_round_trip_through_save_csv(tmp_path):
    values = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, -2.5]
    n = len(values)
    ds = Dataset("x", np.array([values, values[::-1]] * 2), np.array([0, 0, 1, 1]))
    save_csv(ds, tmp_path / "x.csv")
    assert _plain_result(tmp_path / "x.csv") is not None
    got = load_csv(tmp_path / "x.csv")
    assert got.features.shape == (4, n)
    assert got.features.view(np.uint64).tolist() == ds.features.view(np.uint64).tolist()


# Files the plain path must take: CRLF (as save_csv writes), a byte-order
# mark, blank lines anywhere, no final newline, the label in any column,
# labels full of signs, dots and e's, and no header.
PLAIN_FILES = {
    "crlf": (b"a,b,label\r\n1.5,-2e3,x\r\n3,4,y\r\n5,6,x\r\n7,8,y\r\n", {}),
    "crlf after a feature": (b"y,a,b\r\nx,1,1.5\r\ny,3,-2e-3\r\nx,5,6\r\ny,7,8\r\n",
                             {"label_column": 0}),
    "bom": (b"\xef\xbb\xbfa,b,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n", {}),
    "blank lines": (b"\n\r\na,b,label\n\n1,2,x\r\n\r\n\n3,4,y\n5,6,x\n\n7,8,y\n\n\n", {}),
    "no final newline": (b"a,b,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y", {}),
    "label first": (b"y,a,b\nIris-setosa,1,2\n1e5,3,4\nIris-setosa,5,6\n1e5,7,8\n",
                    {"label_column": 0}),
    "label in the middle": (b"a,y,b\n1,-.e+,2\n3,B,4\n5,-.e+,6\n7,B,8\n", {"label_column": "y"}),
    "spaces around labels": (b"a,b,label\n1,2, x\n3,4,y \n5,6,\tx\n7,8,y\n", {}),
    "no header": (b"+1.25e-3,00.5,1\n-0,1E+2,2\n3,4,1\n5,6,2\n", {"has_header": False}),
}


@pytest.mark.parametrize("name", PLAIN_FILES)
def test_plain_files_take_the_plain_pass(tmp_path, name):
    data, kwargs = PLAIN_FILES[name]
    p = tmp_path / "d.csv"
    p.write_bytes(data)
    assert _plain_result(p, **kwargs) is not None
    assert _outcome(p, **kwargs) == _reader_outcome(p, **kwargs)


def test_cells_over_the_csv_field_limit_go_to_the_reader(tmp_path):
    p = write(tmp_path, "a,b,label\n1,2,x\n3,4.000000000001,y\n5,6,x\n7,8,y\n")
    old = csv.field_size_limit(14)  # the longest cell's length
    try:
        assert _plain_result(p) is not None
        csv.field_size_limit(13)
        assert _plain_result(p) is None
        with pytest.raises(DataError, match=r"d\.csv: line 3: field larger than field limit"):
            load_csv(p)
    finally:
        csv.field_size_limit(old)


# Each must get the reader's result or error. The plain path hands each to
# the reader, but for TAKEN under the default label column: like csv.reader
# and float(), loadtxt ends a line at a lone CR, strips spaces around a
# number and reads ".5", "5." and "inf", and a label-only file loads with no
# features, which load_csv then rejects.
READER_FILES = {
    "quote": b'a,b,label\n1,2,"x"\n3,4,y\n5,6,x\n7,8,y\n',
    "lone cr": b"a,b,label\r1,2,x\r3,4,y\r5,6,x\r7,8,y\r",
    "cr inside a row": b"a,b,label\n1,2,x\n3,4\r,y\n5,6,x\n7,8,y\n",
    "cr in the header": b"a,b\r,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n",
    "nul": b"a,b,label\n1,2,x\n3,4,y\x00\n5,6,x\n7,8,y\n",
    "ragged row": b"a,b,label\n1,2,x\n3,4,y\n5,6\n7,8,y\n",
    # with usecols, loadtxt would drop the extra cell
    "wider row": b"a,b,label\n1,2,x\n3,4,y,5\n5,6,x\n7,8,y\n",
    "missing label": b"a,b,label\n1,2,x\n3,4,NA\n5,6,x\n7,8,y\n",
    "missing feature": b"a,b,label\n1,2,x\n3,?,y\n5,6,x\n7,8,y\n",
    "not utf-8": b"a,b,label\n1,2,x\n3,4,caf\xe9\n5,6,x\n7,8,y\n",
    "label only": b"label\nx\ny\nx\ny\n",
    "header only": b"a,b,label\n\r\n",
    "empty": b"\n\n",
    "wider header": b"a,b,c,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n",
    # an empty cell after a comma is not a blank line, so no row may take
    # the next line's cells
    "empty last cell, short row": b"a,b,label\n1,2,x\n3,\n4,y\n5,6,x\n7,8,y\n",
    "empty label, label below": b"a,b,label\n1,2,x\n3,4,\nx\n5,6,x\n7,8,y\n",
    "first row's label below": b"a,b,label\n1,2,\nx\n3,4,y\n5,6,x\n7,8,y\n",
    "empty label, last line": b"a,b,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n1,2,\n",
}
# loadtxt strips \x1c-\x1f around a number and reads NaN; float() rejects
# the first and the reader reads the second as a missing value
for cell in ["1_0", " 1.5", "1.5 ", ".5", "5.", "inf", "nan", "NaN", "-nan", " nan", "1e",
             "1e+", "e5", "--1", "+-1", "1-1", "1.2.3", "1e5e5", "1e5.5", "0x10", "\u0661", "",
             "1\0", "1\x1c", "1\x1d", "1\x1e", "1\x1f"]:
    READER_FILES[f"feature {cell!r}"] = f"a,b,label\n1,2,x\n3,{cell},y\n5,6,x\n7,8,y\n".encode()
# to the reader a quoted label is its text; loadtxt has no quotes
for token in ['"x"', "x\0"]:
    READER_FILES[f"label {token!r}"] = f"a,b,label\n1,2,x\n3,4,{token}\n5,6,x\n7,8,y\n".encode()
TAKEN = {"lone cr", "label only",
         *(f"feature {cell!r}" for cell in [" 1.5", "1.5 ", ".5", "5.", "inf"])}
# each after a byte-order mark: a hand-over rewinds the one text stream that
# the plain path has read into, and the rewind must drop the mark again
for name in list(READER_FILES):
    READER_FILES[f"bom, {name}"] = b"\xef\xbb\xbf" + READER_FILES[name]
TAKEN |= {f"bom, {name}" for name in TAKEN}


def _decode_in_blocks(monkeypatch, block):
    """Make both paths decode `block` bytes at a time: 1 splits a BOM, a CRLF
    or a multibyte character across reads, and 128 KiB reads a small file
    whole."""
    def text_io(*args, **kwargs):
        text = io.TextIOWrapper(*args, **kwargs)
        text._CHUNK_SIZE = block
        return text

    monkeypatch.setattr(data_module, "io", SimpleNamespace(TextIOWrapper=text_io))


@pytest.mark.parametrize("name", READER_FILES)
@pytest.mark.parametrize("label_column", [-1, "a", "b", 1, 5])
@pytest.mark.parametrize("block", [1, 1 << 17])
def test_fallback_files_get_the_readers_result_or_error(tmp_path, monkeypatch, name,
                                                        label_column, block):
    _decode_in_blocks(monkeypatch, block)
    p = tmp_path / "d.csv"
    p.write_bytes(READER_FILES[name])
    taken = label_column == -1 and name in TAKEN
    assert (_plain_result(p, label_column=label_column) is not None) == taken
    assert _outcome(p, label_column=label_column) == _reader_outcome(p, label_column=label_column)


# Each error meets the reader on the first rows: a label column the header
# lacks, a ragged row, a cell over csv.field_size_limit() (lowered to 20).
FIRST_ROW_ERRORS = {
    "label column": ("", "nosuch"),
    "ragged row": ("1,2,x\n3,4\n", -1),
    "over-long cell": ("5," + "6" * 30 + ",y\n", -1),
}


@pytest.mark.parametrize("error", FIRST_ROW_ERRORS)
@pytest.mark.parametrize("at_row", [2, 30_000])
@pytest.mark.parametrize("block", [1, 1 << 17])
def test_bytes_that_are_not_utf8_win_wherever_they_sit(tmp_path, monkeypatch, error,
                                                       at_row, block):
    _decode_in_blocks(monkeypatch, block)
    rows, label_column = FIRST_ROW_ERRORS[error]
    rows += "".join(f"{i},{i + 1},{'xy'[i % 2]}\n" for i in range(at_row))
    p = tmp_path / "d.csv"
    p.write_bytes(b"a,b,label\n" + rows.encode() + b"1,2,caf\xe9\n")
    # row 30,000 sits past 128 KiB, outside the first decode chunk of either size
    assert (p.read_bytes().index(b"\xe9") > 1 << 17) == (at_row > 2)
    old = csv.field_size_limit(20)
    try:
        with pytest.raises(DataError, match=r"d\.csv: file is not UTF-8 text"):
            load_csv(p, label_column=label_column)
    finally:
        csv.field_size_limit(old)


# Cells at the edges of float64's range and precision: more than 19
# significant digits, large exponents, long mantissas, subnormals, and
# decimals on or next to a float64 midpoint, below and above a power of two.
FLOAT_CELLS = [
    "12345678901234567890", "1.2345678901234567890", "0.17000000000000000000",
    "18446744073709551615", "18446744073709551616", "9" * 40, "0." + "0" * 30 + "1",
    "1e28", "1e-28", "123e-30", "5e-324", "2.4703282292062328e-324", "1.7976931348623159e308",
    "1e0005", "1e-0005", "1e1005", "1e-1005", "4.9e-324", "1" + "0" * 30 + "e-30",
    "1" + "0" * 25 + ".5", "7" + "0" * 24,
    "9007199254740993", "9007199254740995", "-9007199254740993.0",
    "6249999999999999653e-20", "8589934591999999523e-9", "5960464477539062169e-26",
    "2980232238769531581e-26", "5960464477539063162e-26", "9536743164062501059e-25",
]


def _cells_file(path, cells, width):
    """cells in rows of `width` features, labels a/b, and four more rows so
    every class has two instances; returns float() of each cell, as rows."""
    cells = cells + ["0"] * (-len(cells) % width)
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    rows += [["1"] * width] * 4
    path.write_text("".join(",".join([*r, "ab"[i % 2]]) + "\n" for i, r in enumerate(rows)))
    return np.array([[float(c) for c in r] for r in rows])


def _assert_loads_as_float(path, cells, width):
    """load_csv of _cells_file gives float() of every cell bit for bit, or
    the error float()'s values call for: the first that is not finite, or
    a column whose max - min overflows."""
    want = _cells_file(path, cells, width)
    bad = np.argwhere(~np.isfinite(want))
    with np.errstate(over="ignore", invalid="ignore"):
        wide = np.flatnonzero(~np.isfinite(np.ptp(want, axis=0)))
    if bad.size:
        message = "non-finite value at row {}, column {}".format(*bad[0])
    elif wide.size:
        message = f"max - min of column {wide[0]} overflows float64"
    else:
        got = load_csv(path, has_header=False).features
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        return
    with pytest.raises(DataError, match=f"{message}$"):
        load_csv(path, has_header=False)


@pytest.mark.parametrize("width", [1, 3])
def test_cells_beyond_the_exact_range_match_float(tmp_path, width, either_path):
    p = tmp_path / "d.csv"
    cells = FLOAT_CELLS + ["-" + c.lstrip("-") for c in FLOAT_CELLS]
    finite = [c for c in cells if np.isfinite(float(c))]
    _assert_loads_as_float(p, finite, width)
    # a cell that overflows must overflow on either path, as in float()
    assert len(finite) == len(cells) - 4
    for cell in cells:
        if cell not in finite:
            _assert_loads_as_float(p, [*finite[:width], cell], width)


@st.composite
def number_cells(draw):
    """Number cells: repr, %.{p}g and %.{p}e of any finite float64,
    18- and 19-digit mantissas, 16-digit float64 midpoints such as
    9007199254740993, with signs and leading zeros."""
    kind = draw(st.sampled_from(["repr", "g", "e", "digits", "midpoint"]))
    if kind == "digits":
        digits = draw(st.text("0123456789", min_size=18, max_size=19))
        point = draw(st.integers(1, len(digits)))
        text = digits[:point] + ("." + digits[point:] if point < len(digits) else "")
        text += draw(st.sampled_from(["", "e5", "E-12", "e+27", "e-30", "e-9"]))
    elif kind == "midpoint":
        text = str(2 * draw(st.integers(2**52, 2**53 - 1)) + 1)
    else:
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        p = draw(st.integers(0, 20))
        text = {"repr": repr(x), "g": "%.*g" % (max(p, 1), x), "e": "%.*e" % (p, x)}[kind]
    sign = "-" if text.startswith("-") else draw(st.sampled_from(["", "", "-", "+"]))
    return sign + draw(st.sampled_from(["", "", "0", "000"])) + text.lstrip("-")


@settings(deadline=None)
@given(cells=st.lists(number_cells(), min_size=1, max_size=30), width=st.integers(1, 4))
def test_plain_pass_matches_float_bit_for_bit(tmp_path_factory, cells, width):
    p = tmp_path_factory.mktemp("cells") / "d.csv"
    _assert_loads_as_float(p, cells, width)
    assert _plain_result(p, has_header=False) is not None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("data", [
    b"\xef\xbb\xbfa,b,label\r\n1.5,2,x\r\n3,4e-2,y\r\n5,6,x\r\n7,8,y\r\n",
    b"a,b,label\n1,2,x\n3,4,y\n5,6\n7,8,y\n",
], ids=["plain", "ragged"])
def test_a_pipe_loads_as_the_same_file_does(tmp_path, data):
    (tmp_path / "d.csv").write_bytes(data)
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        got = _outcome(fifo)
    finally:
        writer.join(timeout=10)
    assert repr(got).replace("fifo.csv", "d.csv") == repr(_outcome(tmp_path / "d.csv"))
