"""`fsro` command line: error paths (`error: ...` and exit 2), config-file
precedence, and the `compare` and `gen` commands."""

import concurrent.futures
import csv
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fsro
import fsro.bench
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


@pytest.mark.parametrize("line,message", [
    ("help = true", "unknown option 'help'"),
    ("config = other.cfg", "unknown option 'config'"),
    ("iterations 3", "expected key=value, got 'iterations 3'"),
    ("no-header = yes", "no-header takes true or false"),
])
def test_config_file_errors_name_the_file_and_line(line, message, tmp_path, capsys):
    config = tmp_path / "fsro.cfg"
    config.write_text(f"# comment\n\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["run", *TINY, "--config", str(config), "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: {config}:3: {message}\n"
    assert not out.exists()


BAD_VALUES = [
    ("run", "algorithm = nope", "argument --algorithm: invalid choice: 'nope'"),
    ("compare", "algorithms = fsro nope", "argument --algorithms: invalid choice: 'nope'"),
    ("compare", "algorithms = fsro", "argument --algorithms: expected 2 arguments"),
    ("run", "runs = x", "argument --runs: invalid int value: 'x'"),
]


@pytest.mark.parametrize("command,line,message", BAD_VALUES,
                         ids=[f"{command}:{line}" for command, line, _ in BAD_VALUES])
def test_bad_config_value_gets_argparses_message(command, line, message, tmp_path, capsys):
    config = tmp_path / "fsro.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    key, value = line.split(" = ")
    out = tmp_path / "out"
    errors = []
    for argv in ([command, *TINY, "--config", str(config), "--out", str(out)],
                 [command, f"--{key}", *value.split(), *TINY, "--out", str(out)]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]  # as the same flag on the command line
    assert message in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("", "compare needs --algorithms"),
    ("algorithms = ga ga", "compare needs two different algorithms"),
])
def test_compare_without_two_algorithms_exits_2(line, message, tmp_path, capsys):
    config = tmp_path / "fsro.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["compare", *TINY, "--config", str(config), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("file_line,argv", [
    (None, ["--dataset", "d.csv", "--synthetic", "m-of-n:2,1,2,40"]),
    ("dataset = d.csv", ["--synthetic", "m-of-n:2,1,2,40"]),
    ("synthetic = m-of-n:2,1,2,40", ["--dataset", "d.csv"]),
], ids=["flags", "dataset in file", "synthetic in file"])
def test_dataset_and_synthetic_exclude_each_other(command, file_line, argv, tmp_path, capsys):
    if file_line is not None:
        config = tmp_path / "fsro.cfg"
        config.write_text(file_line + "\n", encoding="utf-8")
        argv = [*argv, "--config", str(config)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([command, *argv, "--out", str(out)])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_compare_help_names_its_outputs_and_p_value(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for phrase in ("paired.csv gets each run seed's best fitness per algorithm",
                   "comparison.csv gets the two-sided paired Wilcoxon signed-rank p-value",
                   "'+' when p < 0.05",
                   "better, the algorithm whose best fitness ranks lower",
                   "the exact signed-rank count for every number of nonzero differences",
                   "the same bits on every platform"):
        assert phrase in text


def test_compare_one_algorithm_twice_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, err = _run(["compare", *TINY, "--runs", "2", "--iterations", "1",
                      "--algorithms", "ga", "ga", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: compare needs two different algorithms")
    assert not out.exists()


@pytest.mark.parametrize("case", ["file", "under-file", "dangling-link"])
@pytest.mark.parametrize("command", [
    ["run", *TINY],
    ["compare", *TINY, "--algorithms", "fsro", "ga"],
], ids=["run", "compare"])
def test_out_naming_a_file_exits_2_before_any_run(command, case, tmp_path, capsys,
                                                  monkeypatch):
    started = []
    monkeypatch.setattr(fsro.bench, "run_single", lambda *args: started.append(args))
    taken = tmp_path / "taken"
    if case == "dangling-link":
        taken.symlink_to(tmp_path / "nowhere" / "out")
    else:
        taken.write_text("keep\n", encoding="utf-8")
    out = taken / "out" if case == "under-file" else taken
    code, err = _run([*command, "--runs", "2", "--iterations", "1", "--out", str(out)],
                     capsys)
    assert code == 2
    assert err == f"error: --out: {taken} is not a directory\n"
    assert not started
    if case == "dangling-link":
        assert taken.is_symlink() and not (tmp_path / "nowhere").exists()
    else:
        assert taken.read_text(encoding="utf-8") == "keep\n"


def test_gen_out_under_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    code, err = _run(["gen", "--synthetic", "m-of-n:2,1,2,40", "--out", str(taken / "x.csv")],
                     capsys)
    assert code == 2
    assert err == f"error: --out: {taken} is not a directory\n"
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    # summary.csv is taken by a directory, so writing the outputs fails
    out = tmp_path / "out"
    (out / "summary.csv").mkdir(parents=True)
    code, err = _run(["run", *TINY, "--runs", "1", "--iterations", "1", "--out", str(out)],
                     capsys)
    assert code == 2
    assert err.startswith("error: ") and "summary.csv" in err

    code, err = _run(["gen", "--synthetic", "m-of-n:2,1,2,40", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and str(out) in err


SPEC_HELP = "(expected m-of-n:R,M,NOISE,INSTANCES)"


@pytest.mark.parametrize("argv,message", [
    (["run", "--synthetic", "k-of-n:2,1,2,40"],
     f"bad --synthetic spec 'k-of-n:2,1,2,40' {SPEC_HELP}: unknown synthetic kind 'k-of-n'"),
    (["run", "--synthetic", "m-of-n:2,1,2"],
     f"bad --synthetic spec 'm-of-n:2,1,2' {SPEC_HELP}: "
     "not enough values to unpack (expected 4, got 3)"),
    (["compare", "--synthetic", "m-of-n", "--algorithms", "ga", "bpso"],
     f"bad --synthetic spec 'm-of-n' {SPEC_HELP}: "
     "not enough values to unpack (expected 2, got 1)"),
    (["run"], "either --dataset or --synthetic is required"),
    (["compare", "--algorithms", "ga", "bpso"], "either --dataset or --synthetic is required"),
], ids=["unknown kind", "short spec", "no colon", "no data run", "no data compare"])
def test_bad_or_missing_data_source_exits_2_with_one_error_line(argv, message, tmp_path,
                                                                capsys):
    out = tmp_path / "out"
    code, err = _run([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unreadable_config_exits_2_with_one_error_line(command, tmp_path, capsys):
    config = tmp_path / "missing.cfg"
    code, err = _run([command, *TINY, "--config", str(config)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot read config file {config}: ")
    assert err.count("\n") == 1 and "No such file" in err


def test_too_many_neighbors_exit_2_before_a_pool_starts(tmp_path, capsys, monkeypatch):
    # the train size is known from the class counts, so no worker is started
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: pools.append(args))
    out = tmp_path / "out"
    code, err = _run(["run", *TINY, "--runs", "2", "--iterations", "1", "--knn-k", "1000",
                      "--workers", "2", "--out", str(out)], capsys)
    assert code == 2
    assert re.fullmatch(r"error: k_neighbors=1000 exceeds training size \d+\n", err)
    assert pools == []
    assert not out.exists()


def test_module_entry_point_exits_with_mains_code(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(fsro.__file__).parents[1])}
    bad = subprocess.run([sys.executable, "-m", "fsro.cli", "gen", "--synthetic", "m-of-n:2,1",
                          "--out", str(tmp_path / "x.csv")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: bad --synthetic spec") and bad.stderr.count("\n") == 1
    good = subprocess.run([sys.executable, "-m", "fsro.cli", "gen", "--synthetic",
                           "m-of-n:2,1,2,40", "--out", str(tmp_path / "x.csv")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert good.returncode == 0 and good.stderr == ""
    assert load_csv(tmp_path / "x.csv").n_instances == 40


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
        assert set(want) == {f.name for f in fields(cls)}
        assert {f: getattr(params, f) for f in want} == want


def test_alpha_and_knn_k_set_their_fitness_params_fields():
    for command in ("run", "compare"):
        params, want = _set_every_flag(FitnessParams, command)
        assert want.keys() == {"alpha", "k_neighbors"}
        assert {f: getattr(params, f) for f in want} == want


def _config_cases():
    """(command, config key, config value, the same flag's command-line
    tokens) for every long flag of run and compare but --help and --config,
    with each key spelled with - and with _."""
    for command, sub in build_parser()[1].items():
        if command == "gen":
            continue
        for action in sub._actions:
            if action.dest in ("config", "help"):
                continue
            flag, = (opt for opt in action.option_strings if opt.startswith("--"))
            if action.nargs == 0:
                values = [("true", [flag]), ("false", [])]
            else:
                if action.choices:
                    value = " ".join(list(action.choices)[-(action.nargs or 1):])
                else:
                    value = {int: "5", float: "0.25", None: "x"}[action.type]
                values = [(value, [flag, *value.split()])]
            for key in dict.fromkeys(flag[2:].replace("-", sep) for sep in "-_"):
                for value, tokens in values:
                    yield pytest.param(command, key, value, tokens,
                                       id=f"{command}:{key}={value}")


def _parsed(argv, monkeypatch):
    """The namespace `main(argv)` hands its command, but --config's path."""
    seen = []
    for name in ("cmd_run", "cmd_compare"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    assert main(argv) == 0
    parsed = vars(seen[0])
    del parsed["config"], parsed["func"]
    return parsed


@pytest.mark.parametrize("command,key,value,tokens", _config_cases())
def test_config_line_parses_as_its_flag(command, key, value, tokens, tmp_path, monkeypatch):
    config = tmp_path / "fsro.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    from_file = _parsed([command, "--config", str(config)], monkeypatch)
    assert from_file == _parsed([command, *tokens], monkeypatch)
    # the line sets something, but a zero-argument flag set to false
    assert (from_file == _parsed([command], monkeypatch)) == (value == "false")


def test_config_key_given_twice_takes_its_last_line(tmp_path, monkeypatch):
    config = tmp_path / "fsro.cfg"
    config.write_text("runs = 2\nno-header = true\nruns = 3\nno_header = false\n",
                      encoding="utf-8")
    assert _parsed(["run", "--config", str(config)], monkeypatch) == _parsed(
        ["run", "--runs", "3"], monkeypatch)


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
    stdout = capsys.readouterr().out
    assert "fsro vs ga" in stdout
    paired = _rows(out / "paired.csv")
    assert paired[0] == ["seed", "fitness_fsro", "fitness_ga"]
    assert [row[0] for row in paired[1:]] == ["3", "4", "5"]
    comparison = _rows(out / "comparison.csv")
    assert comparison[0] == ["algorithm_a", "algorithm_b", "dataset", "runs",
                             "p_value", "decision", "better"]
    assert comparison[1][:2] == ["fsro", "ga"] and comparison[1][3] == "3"
    assert 0.0 <= float(comparison[1][4]) <= 1.0
    better = comparison[1][6]
    assert better in ("fsro", "ga", "")
    assert f"better={better or 'neither'}" in stdout


def test_gen_output_reloads_to_the_same_dataset(tmp_path):
    path = tmp_path / "sub" / "gen.csv"
    assert main(["gen", "--synthetic", "m-of-n:3,2,4,50", "--seed", "8",
                 "--out", str(path)]) == 0
    want = generate_m_of_n(3, 2, 4, 50, RngStream(8))
    got = load_csv(path)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
