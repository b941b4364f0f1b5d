"""Self-tests of the benchmark's oracle, generator and tracer.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import fsro.bench  # noqa: E402
import fsro.cli  # noqa: E402
from fsro.data import generate_m_of_n, save_csv, stratified_split  # noqa: E402
from fsro.fitness import FitnessEvaluator, FitnessParams  # noqa: E402
from fsro.rng import RngStream  # noqa: E402
from oracle import TRAIN_FRACTION, Oracle, knn_scores, replay_digest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_madelon, write_csv  # noqa: E402

RUNS, ITERATIONS = 2, 3
SEEDS = [11, 12]  # what --seed 11 gives RUNS runs


@pytest.mark.parametrize("dataset", [
    generate_m_of_n(3, 2, 3, 60, RngStream(7)),  # binary: many exact distance ties
    make_madelon(80, 3, 4, 10, seed=3),  # real-valued: tie-free
], ids=["m-of-n", "madelon"])
def test_oracle_agrees_with_evaluator(dataset):
    params = FitnessParams()
    rng = RngStream(11)
    for seed in range(3):
        split = stratified_split(dataset, TRAIN_FRACTION, RngStream(seed))
        evaluator = FitnessEvaluator(dataset, split, params)
        for _ in range(25):
            mask = np.array([rng.bit() for _ in range(dataset.n_features)], dtype=np.uint8)
            mask[rng.index(mask.size)] = 1
            fitness, accuracy = knn_scores(dataset.features, dataset.labels,
                                           split.train_indices, split.test_indices, mask)
            assert fitness == evaluator(mask)
            assert accuracy == evaluator.accuracy(mask)


def _run_cli(tmp_path: Path) -> tuple[Path, Path]:
    data = tmp_path / "data.csv"
    save_csv(generate_m_of_n(3, 2, 3, 60, RngStream(5)), data)
    out = tmp_path / "out"
    code = fsro.cli.main(["run", "--dataset", str(data), "--runs", str(RUNS),
                          "--iterations", str(ITERATIONS), "--pop-size", "8",
                          "--seed", str(SEEDS[0]), "--out", str(out)])
    assert code == 0
    return data, out


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    rows[row][column] = edit(rows[row][column])
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _flip_first_zero(mask: str) -> str:
    i = mask.index("0")
    return mask[:i] + "1" + mask[i + 1:]


@pytest.mark.parametrize("column, edit", [
    ("best_fitness", lambda v: repr(float(v) + 0.01)),
    ("test_accuracy", lambda v: repr(float(v) - 0.05)),
    ("best_mask", _flip_first_zero),
])
def test_tampered_runs_row_counts_as_failure(tmp_path, capsys, column, edit):
    data, out = _run_cli(tmp_path)
    oracle = Oracle(data)
    assert oracle.check_command(out, SEEDS, ITERATIONS) == []
    _edit_csv(out / "runs.csv", 1, column, edit)
    failures = Oracle(data).check_command(out, SEEDS, ITERATIONS)
    assert len(failures) == 1 and "seed 12" in failures[0]


def test_runs_of_other_seeds_all_fail(tmp_path, capsys):
    data, out = _run_cli(tmp_path)
    assert len(Oracle(data).check_command(out, [s + 10 for s in SEEDS], ITERATIONS)) == RUNS


def test_tampered_trace_counts_as_failure(tmp_path, capsys):
    data, out = _run_cli(tmp_path)
    before = replay_digest([out])
    _edit_csv(out / "trace_11.csv", ITERATIONS, "best_fitness", lambda v: repr(float(v) + 1.0))
    failures = Oracle(data).check_command(out, SEEDS, ITERATIONS)
    assert len(failures) == 1 and "seed 11" in failures[0]
    assert replay_digest([out]) != before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_bytes_depend_only_on_seed(tmp_path, name):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (3, 3, 4)):
        write_csv(WORKLOADS[name], seed, path)
    first, again, other = (p.read_bytes() for p in paths)
    assert first == again
    assert first != other


def test_tracer_spans_counts_and_restore(tmp_path, capsys):
    originals = (fsro.bench.run_single, FitnessEvaluator.__call__, RngStream.next_raw)
    tracer = Tracer()
    with tracer.installed():
        _run_cli(tmp_path)
    assert (fsro.bench.run_single, FitnessEvaluator.__call__, RngStream.next_raw) == originals
    names = {s[0] for s in tracer.spans}
    assert {"bench.run_experiment", "bench.run_single", "data.stratified_split",
            "fitness.setup", "fitness.call", "fitness.accuracy", "engine.run_search",
            "engine.step"} <= names
    assert len(tracer.durations("bench.run_single")) == RUNS
    assert len(tracer.durations("engine.step")) == RUNS * ITERATIONS
    assert 0 < tracer.counts["fitness.unique"] <= tracer.counts["fitness.calls"]
    assert tracer.counts["rng.draws"] > 0
    for self_time, duration in zip(tracer.self_times("engine.step"),
                                   tracer.durations("engine.step")):
        assert 0 <= self_time <= duration
