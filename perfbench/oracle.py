"""Independent checks of the CLI's outputs.

Every runs.csv row is recomputed from the CSV the CLI read: the oracle parses
the file itself, rebuilds that run's split, and scores the reported mask with
a brute-force KNN that sorts every distance row in (distance, index) order
and sends vote ties to the smallest class. Each run's trace must be
non-increasing and end at the reported best fitness.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from fsro.data import Dataset, stratified_split
from fsro.rng import RngStream

ALPHA = 0.9
K_NEIGHBORS = 5
TRAIN_FRACTION = 0.8
TOLERANCE = 1e-12


def read_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a header-first CSV whose last column is the label.

    Label tokens map to 0, 1, ... in first-appearance order, as the CLI's
    loader documents.
    """
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    mapping: dict[str, int] = {}
    labels = [mapping.setdefault(r[-1].strip(), len(mapping)) for r in rows]
    features = np.array([[float(c) for c in r[:-1]] for r in rows], dtype=np.float64)
    return features, np.array(labels, dtype=np.int64)


def knn_scores(features: np.ndarray, labels: np.ndarray, train: np.ndarray,
               test: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """(fitness, accuracy) of a mask on one split, by brute force."""
    lo = features[train].min(axis=0)
    span = features[train].max(axis=0) - lo
    scale = np.where(span == 0.0, 1.0, span)
    norm = (features - lo) / scale
    norm[:, span == 0.0] = 0.0
    selected = np.flatnonzero(mask)
    # summed feature by feature in index order, the documented accumulation
    # order, so exact distance ties stay exact
    d2 = np.zeros((test.size, train.size))
    for f in selected:
        d2 += (norm[test, f][:, None] - norm[train, f][None, :]) ** 2
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :K_NEIGHBORS]
    n_classes = int(labels.max()) + 1
    votes = np.zeros((test.size, n_classes), dtype=np.int64)
    rows = np.arange(test.size)
    for j in range(K_NEIGHBORS):
        votes[rows, labels[train][neighbors[:, j]]] += 1
    wrong = int(np.count_nonzero(votes.argmax(axis=1) != labels[test]))
    err = wrong / test.size
    fitness = ALPHA * err + (1.0 - ALPHA) * (selected.size / mask.size)
    return fitness, 1.0 - err


class Oracle:
    """Checks CLI output directories against one dataset CSV."""

    def __init__(self, csv_path: Path):
        self.features, self.labels = read_dataset(csv_path)
        self._dataset = Dataset("oracle", self.features, self.labels)
        self._scores: dict[tuple[int, str], tuple[float, float]] = {}

    def scores(self, seed: int, mask_text: str) -> tuple[float, float]:
        key = (seed, mask_text)
        if key not in self._scores:
            split = stratified_split(self._dataset, TRAIN_FRACTION, RngStream(seed))
            mask = np.array([c == "1" for c in mask_text], dtype=bool)
            self._scores[key] = knn_scores(self.features, self.labels,
                                           split.train_indices, split.test_indices, mask)
        return self._scores[key]

    def check_run(self, out: Path, row: dict, iterations: int) -> str | None:
        """Reason the run's outputs are wrong, or None when they check out."""
        mask = row["best_mask"]
        if len(mask) != self.features.shape[1] or set(mask) - {"0", "1"} or "1" not in mask:
            return f"bad mask {mask!r}"
        if int(row["selected_count"]) != mask.count("1"):
            return "selected_count disagrees with the mask"
        seed = int(row["seed"])
        fitness, accuracy = self.scores(seed, mask)
        if abs(float(row["best_fitness"]) - fitness) > TOLERANCE:
            return f"best_fitness {row['best_fitness']} but oracle gives {fitness!r}"
        if abs(float(row["test_accuracy"]) - accuracy) > TOLERANCE:
            return f"test_accuracy {row['test_accuracy']} but oracle gives {accuracy!r}"
        trace_path = out / f"trace_{seed}.csv"
        if not trace_path.is_file():
            return f"missing {trace_path.name}"
        with open(trace_path, newline="", encoding="utf-8") as f:
            best = [float(r["best_fitness"]) for r in csv.DictReader(f)]
        if len(best) != iterations + 1:
            return f"trace has {len(best)} rows, expected {iterations + 1}"
        if any(b > a for a, b in zip(best, best[1:])):
            return "trace best_fitness increases"
        if best[-1] != float(row["best_fitness"]):
            return "trace does not end at best_fitness"
        return None

    def check_command(self, out: Path, seeds: list[int], iterations: int) -> list[str]:
        """One failure reason per failed run of one CLI command's output."""
        runs_path = out / "runs.csv"
        if not runs_path.is_file():
            return ["missing runs.csv"] * len(seeds)
        with open(runs_path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        reported = [row.get("seed") for row in rows]
        if reported != [str(s) for s in seeds]:
            return [f"runs.csv seeds {reported}, expected {seeds}"] * len(seeds)
        failures = []
        for row in rows:
            try:
                reason = self.check_run(out, row, iterations)
            except (KeyError, ValueError, TypeError) as e:
                reason = f"unreadable row: {e!r}"
            if reason:
                failures.append(f"seed {row['seed']}: {reason}")
        if not failures:
            expected = sum(self.scores(int(r["seed"]), r["best_mask"])[0]
                           for r in rows) / len(rows)
            try:
                with open(out / "summary.csv", newline="", encoding="utf-8") as f:
                    reported_mean = float(next(csv.DictReader(f))["mean_fitness"])
            except (OSError, StopIteration, KeyError, ValueError) as e:
                return [f"unreadable summary.csv: {e!r}"]
            if abs(reported_mean - expected) > TOLERANCE:
                failures.append(f"summary mean_fitness {reported_mean!r}, "
                                f"oracle gives {expected!r}")
        return failures


def replay_digest(out_dirs: list[Path]) -> str:
    """sha256 over runs.csv and every trace file of the given output dirs."""
    h = hashlib.sha256()
    for out in out_dirs:
        files = [out / "runs.csv"] + sorted(out.glob("trace_*.csv"),
                                            key=lambda p: int(p.stem.split("_")[1]))
        for path in files:
            h.update(path.name.encode())
            h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()
