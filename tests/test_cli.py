"""`fsro` command line: error paths (`error: ...` and exit 2), config-file
precedence, and the `compare` and `gen` commands."""

import csv
from dataclasses import fields

import numpy as np
import pytest

from fsro import FitnessParams, FsroParams, RngStream, cli, generate_m_of_n
from fsro.bench import ALGORITHMS
from fsro.cli import _load_dataset, _params, build_parser, main
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


def test_cell_over_the_csv_field_limit_exits_2(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("a,b,label\n0,1,x\n1," + "3" * 140_000 + ",y\n", encoding="utf-8")
    code, err = _run(["run", "--dataset", str(data), "--out", str(tmp_path / "out")],
                     capsys)
    assert code == 2
    assert err.startswith(f"error: {data}: line 3: field larger than field limit")
    assert not (tmp_path / "out").exists()


def test_label_column_out_of_range_exits_2(tmp_path, capsys):
    data = tmp_path / "abc.csv"
    data.write_text("a,b,c\n0,1,0\n1,3,1\n0,5,0\n1,7,1\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["run", "--dataset", str(data), "--label-column", "3",
                      "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "3 columns" in err
    assert not out.exists()


def test_numeric_label_column_name_is_read_from_the_header(tmp_path):
    data = tmp_path / "years.csv"
    data.write_text("a,2020,y\n0.5,0,1\n1.5,1,2\n2.5,0,1\n3.5,1,2\n", encoding="utf-8")
    parser, _ = build_parser()
    # a header name wins; integer text the header lacks is an index
    for label, names in (("2020", ["a", "y"]), ("2", ["a", "2020"]), ("-2", ["a", "y"])):
        args = parser.parse_args(["run", "--dataset", str(data), "--label-column", label])
        dataset = _load_dataset(args)
        assert dataset.feature_names == names
        assert dataset.labels.tolist() == [0, 1, 0, 1]


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


@pytest.mark.parametrize("command,argv", [
    ("run", [*TINY, "--runs", "2", "--iterations", "1"]),
    ("compare", [*TINY, "--algorithms", "ga", "bpso", "--runs", "2", "--iterations", "1"]),
    ("gen", ["--synthetic", "m-of-n:2,1,2,40"]),
], ids=["run", "compare", "gen"])
def test_negative_seed_exits_2(command, argv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command, *argv, "--seed", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "--seed" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command,argv,seed", [
    ("run", [*TINY, "--runs", "2", "--iterations", "1"], 2**64 - 1),
    ("compare", [*TINY, "--algorithms", "ga", "bpso", "--runs", "3", "--iterations", "1"],
     2**64 - 2),
    ("gen", ["--synthetic", "m-of-n:2,1,2,40"], 2**64),
], ids=["run", "compare", "gen"])
def test_seed_at_or_past_2_64_exits_2(command, argv, seed, tmp_path, capsys):
    # seed 2**64 would replay seed 0
    out = tmp_path / "out"
    code = main([command, *argv, "--seed", str(seed), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "--seed" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_last_seed_below_2_64_is_accepted(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["gen", "--synthetic", "m-of-n:2,1,2,40", "--seed", str(2**64 - 1),
                 "--out", str(out)]) == 0
    assert out.exists()


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


@pytest.mark.parametrize("key", ["pop-size", "pop_size"])
def test_config_keys_are_flag_names(key, tmp_path):
    config = tmp_path / "fsro.cfg"
    config.write_text(f"{key} = 6\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--synthetic", "m-of-n:2,1,2,40", "--seed", "3", "--runs", "1",
            "--iterations", "1", "--config", str(config), "--out", str(out)]
    assert main(argv) == 0
    trace = _rows(out / "trace_3.csv")
    assert trace[0][2:4] == ["frog_count", "snake_count"]
    assert {int(row[2]) + int(row[3]) for row in trace[1:]} == {6}


def test_config_key_naming_a_dest_exits_2(tmp_path, capsys):
    config = tmp_path / "fsro.cfg"
    config.write_text("population_size = 6\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["run", *TINY, "--config", str(config), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "unknown option 'population_size'" in err
    assert not out.exists()


@pytest.mark.parametrize("command,line", [("run", "algorithm = nope"),
                                          ("compare", "algorithms = fsro nope")])
def test_unknown_algorithm_in_config_exits_2(command, line, tmp_path, capsys):
    config = tmp_path / "fsro.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run([command, *TINY, "--runs", "2", "--iterations", "1",
                      "--config", str(config), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: unknown algorithm 'nope'")
    assert not out.exists()


@pytest.mark.parametrize("line,message", [("", "compare needs --algorithms"),
                                          ("algorithms = fsro", "algorithms takes 2 values")])
def test_compare_without_two_algorithms_exits_2(line, message, tmp_path, capsys):
    config = tmp_path / "fsro.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["compare", *TINY, "--config", str(config), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_compare_one_algorithm_twice_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, err = _run(["compare", *TINY, "--runs", "2", "--iterations", "1",
                      "--algorithms", "ga", "ga", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: compare needs two different algorithms")
    assert not out.exists()


def _set_every_flag(cls, command):
    """Parse `command` with each flag of a `cls` field set off its class
    default; return the params built and the values set."""
    names = {f.name for f in fields(cls)}
    parser, sub_map = build_parser()
    argv, want = [command], {}
    for action in sub_map[command]._actions:
        if action.dest in names:
            default = getattr(cls(), action.dest)
            value = default + 2 if action.type is int else default / 2
            argv += [action.option_strings[0], str(value)]
            want[action.dest] = value
    assert want and all(want[f] != getattr(cls(), f) for f in want)
    return _params(cls, parser.parse_args(argv)), want


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_algorithm_flag_sets_its_params_field(name):
    # a misspelled dest would leave its field at the default without an error
    cls = ALGORITHMS[name]
    for command in ("run", "compare"):
        params, want = _set_every_flag(cls, command)
        assert set(want) == {f.name for f in fields(cls)} - {"ess_threshold", "velocity_clamp"}
        assert {f: getattr(params, f) for f in want} == want


def test_alpha_and_knn_k_set_their_fitness_params_fields():
    for command in ("run", "compare"):
        params, want = _set_every_flag(FitnessParams, command)
        assert want.keys() == {"alpha", "k_neighbors"}
        assert {f: getattr(params, f) for f in want} == want


class _Stop(Exception):
    pass


def _built_params(argv, monkeypatch):
    """The (algorithm params, fitness params) that `main(argv)` passes to its
    first run_experiment call, which runs nothing."""
    built = []

    def run_experiment(algorithm, dataset, algo_params, fit_params, *args, **kwargs):
        built.append((algo_params, fit_params))
        raise _Stop

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    with pytest.raises(_Stop):
        main([*argv, "--synthetic", "m-of-n:2,1,2,40"])
    return built[0]


@pytest.mark.parametrize("argv,name", [
    *((["run", "--algorithm", name], name) for name in sorted(ALGORITHMS)),
    # compare runs its first algorithm first
    *((["compare", "--algorithms", a, b], a)
      for a, b in (("bpso", "fsro"), ("fsro", "ga"), ("ga", "bpso"))),
])
def test_without_params_flags_params_are_the_class_defaults(argv, name, monkeypatch):
    algo_params, fit_params = _built_params(argv, monkeypatch)
    assert algo_params == ALGORITHMS[name]()
    assert fit_params == FitnessParams()


def test_config_values_set_params_fields(tmp_path, monkeypatch):
    config = tmp_path / "fsro.cfg"
    config.write_text("knn-k = 3\nw1 = 0.5\n", encoding="utf-8")
    algo_params, fit_params = _built_params(["run", "--config", str(config)], monkeypatch)
    assert algo_params == FsroParams(w1=0.5)
    assert fit_params == FitnessParams(k_neighbors=3)


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
