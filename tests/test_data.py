import numpy as np
import pytest

from fsro import DataError, RngStream, generate_m_of_n, load_csv, save_csv
from fsro.core import ConfigError
from fsro.data import stratified_split


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
    p = write(tmp_path, "a,b,label\n 1.5 ,-2e3,x\ninf,1_0,y\n3,4,x\n5,6,y\n")
    ds = load_csv(p)
    assert ds.features.dtype == np.float64
    assert ds.features.flags.c_contiguous
    assert ds.features.tolist() == [[1.5, -2000.0], [float("inf"), 10.0],
                                    [3.0, 4.0], [5.0, 6.0]]


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
