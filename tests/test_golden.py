"""Frozen replay fixture: `fsro run` must reproduce these files byte for byte.

Each case is one CLI invocation. Its deterministic outputs (summary.csv,
runs.csv and every trace) are committed under tests/data/golden/<case>/.
The m-of-n case has binary features, so KNN distances tie constantly and the
tie rules decide the outcome; it runs on the evaluator's bit path. The
real-valued case is tie-free, so its outcome rests on the distance order
alone; it runs on the float path. Both are checked at one and two
workers, with a BLOCK_BYTES small enough that every batch is over budget
and run in several blocks of test rows, and with BLOCK_BYTES at 0, which
scores every batch one test row per block.

Each dataset also has one `fsro compare` case of FSRO against GA over 25
runs, whose paired.csv and comparison.csv are committed under
tests/data/golden/<case>/compare/. The m-of-n case has 16 nonzero paired
differences and the real-valued case 21; both p-values are exact counts,
so they pin every bit, and comparison.csv's `better` names FSRO on the
m-of-n case and GA on the real-valued one. Both are checked at one and two
workers.

The fixture changes only on purpose, together with a note saying why. To
re-freeze it, run this file as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from fsro import fitness
from fsro.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"
SMALL = ["--runs", "3", "--iterations", "4", "--pop-size", "8"]
DATASETS = {
    "mofn": ["--synthetic", "m-of-n:3,2,4,60", "--seed", "11"],
    # a relative path, so the dataset name in runs.csv is machine-independent
    "real": ["--dataset", "real_small.csv", "--seed", "5"],
}
CASES = [(data, algo) for data in DATASETS for algo in ("fsro", "ga", "bpso")]
COMPARE = ["--algorithms", "fsro", "ga", "--runs", "25", "--iterations", "4", "--pop-size", "8"]
# the compare cases' nonzero paired differences, a pin on the paired data
NONZERO = {"mofn": 16, "real": 21}
# BLOCK_BYTES per over-budget mode. With 48 (m-of-n, 2-byte keys of the bit
# path) and 57 (real, 8-byte screened distances) training rows, 1 KB holds at
# most 10 and 2 test rows' buffers, fewer than the 12 and 15 test rows, so
# every batch screens, or keys the masks its gate skips, in two blocks or
# more, and the bit path keys its gated pairs two at a time (48 int64 train
# codes each); 0 gives one test row, or one gated pair, per block.
OVER_BUDGET_BYTES = {"over_budget": 1_000, "over_budget_chunk1": 0}


def _run_case(data: str, algo: str, out: Path, workers: int = 1) -> None:
    argv = ["run", *DATASETS[data], *SMALL, "--algorithm", algo,
            "--workers", str(workers), "--out", str(out)]
    assert main(argv) == 0


def _run_compare(data: str, out: Path, workers: int = 1) -> None:
    argv = ["compare", *DATASETS[data], *COMPARE, "--workers", str(workers), "--out", str(out)]
    assert main(argv) == 0


def _replay_files(out: Path) -> dict[str, bytes]:
    """Every deterministic output; timings.csv holds clock values and is left out."""
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))
            if p.name != "timings.csv"}


@pytest.mark.parametrize("data,algo", CASES)
@pytest.mark.parametrize("mode", ["workers1", "workers2", "over_budget", "over_budget_chunk1"])
def test_cli_replays_golden_outputs(data, algo, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    if mode in OVER_BUDGET_BYTES:
        monkeypatch.setattr(fitness, "BLOCK_BYTES", OVER_BUDGET_BYTES[mode])
    _run_case(data, algo, tmp_path, workers=2 if mode == "workers2" else 1)
    got = _replay_files(tmp_path)
    want = _replay_files(GOLDEN_DIR / data / algo)
    assert len(want) == 5  # summary.csv, runs.csv and three traces
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{data}/{algo}/{name} differs from the golden file"


@pytest.mark.parametrize("data", DATASETS)
@pytest.mark.parametrize("workers", [1, 2])
def test_compare_replays_golden_outputs(data, workers, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    _run_compare(data, tmp_path, workers)
    want = _replay_files(GOLDEN_DIR / data / "compare")
    assert sorted(want) == ["comparison.csv", "paired.csv"]
    rows = [line.split(",") for line in want["paired.csv"].decode().splitlines()[1:]]
    assert len(rows) == 25
    assert sum(a != b for _, a, b in rows) == NONZERO[data]
    assert _replay_files(tmp_path) == want


def _freeze() -> None:
    os.chdir(DATA_DIR)
    for data, algo in CASES:
        target = GOLDEN_DIR / data / algo
        shutil.rmtree(target, ignore_errors=True)
        _run_case(data, algo, target)
        (target / "timings.csv").unlink()
    for data in DATASETS:
        target = GOLDEN_DIR / data / "compare"
        shutil.rmtree(target, ignore_errors=True)
        _run_compare(data, target)


if __name__ == "__main__":
    _freeze()
