"""`fsro` command line: error paths (`error: ...` and exit 2), config-file
precedence, and the `compare` and `gen` commands."""

import csv

import numpy as np
import pytest

from fsro import RngStream, generate_m_of_n
from fsro.cli import main
from fsro.data import load_csv

TINY = ["--synthetic", "m-of-n:2,1,2,40", "--seed", "3", "--pop-size", "4"]


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def test_missing_dataset_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, err = _run(["run", "--dataset", str(missing), "--out", str(tmp_path / "out")],
                     capsys)
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err
    assert not (tmp_path / "out").exists()


def test_non_utf8_dataset_exits_2(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"a,b,label\n1,2,\xe9\n3,4,x\n")
    code, err = _run(["run", "--dataset", str(data), "--out", str(tmp_path / "out")],
                     capsys)
    assert code == 2
    assert err.startswith("error: ") and str(data) in err
    assert "UTF-8" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_fewer_than_one_worker_exits_2(command, workers, tmp_path, capsys):
    algorithms = ["--algorithm", "ga"] if command == "run" else ["--algorithms", "ga", "bpso"]
    out = tmp_path / "out"
    code, err = _run([command, *TINY, *algorithms, "--runs", "2", "--iterations", "1",
                      "--workers", workers, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "worker" in err
    assert not out.exists()


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def test_config_file_values_apply_and_explicit_flags_win(tmp_path):
    config = tmp_path / "fsro.cfg"
    config.write_text("# comment\nruns = 2\niterations = 3\nalgorithm = ga\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", *TINY, "--config", str(config), "--iterations", "1", "--out", str(out)]
    assert main(argv) == 0
    runs = _rows(out / "runs.csv")
    assert len(runs) == 1 + 2  # runs from the file
    assert {row[0] for row in runs[1:]} == {"ga"}  # algorithm from the file
    trace = _rows(out / "trace_3.csv")
    assert len(trace) == 1 + 2  # --iterations 1 beats the file's 3: rows 0 and 1


def test_compare_exits_0_and_writes_its_files(tmp_path, capsys):
    out = tmp_path / "cmp"
    argv = ["compare", *TINY, "--runs", "3", "--iterations", "2",
            "--algorithms", "fsro", "ga", "--out", str(out)]
    assert main(argv) == 0
    assert "fsro vs ga" in capsys.readouterr().out
    paired = _rows(out / "paired.csv")
    assert paired[0] == ["seed", "fitness_fsro", "fitness_ga"]
    assert [row[0] for row in paired[1:]] == ["3", "4", "5"]
    comparison = _rows(out / "comparison.csv")
    assert comparison[0] == ["algorithm_a", "algorithm_b", "dataset", "runs",
                             "p_value", "decision"]
    assert comparison[1][:2] == ["fsro", "ga"] and comparison[1][3] == "3"
    assert 0.0 <= float(comparison[1][4]) <= 1.0


def test_gen_output_reloads_to_the_same_dataset(tmp_path):
    path = tmp_path / "sub" / "gen.csv"
    assert main(["gen", "--synthetic", "m-of-n:3,2,4,50", "--seed", "8",
                 "--out", str(path)]) == 0
    want = generate_m_of_n(3, 2, 4, 50, RngStream(8))
    got = load_csv(path)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
