"""Wrapper fitness: KNN error on a held-out split plus a subset-size penalty.

fitness(mask) = alpha * error_rate + (1 - alpha) * selected/total, both terms
in [0, 1]. The split is fixed per run, so fitness is a pure function of the
mask and is cached by mask bytes; cache hits are bit-identical to fresh
evaluations.

Tie rules are pinned for cross-platform determinism: a vote tie goes to the
smallest class index, and a distance tie at the k-th neighbor goes to the
smaller training-instance index. Neighbors are taken by k argmin-extraction
passes, which realizes exactly that (distance, index) lexicographic order.

Distances have one definition. A plane is the (n_test, n_train) matrix of
squared differences on one feature, computed by `_square_diff`; a mask's
squared distances are its planes summed in feature-index order. The one
loop that sums them is `_accumulate`, which serves many masks at once: it
walks the features in index order, squares each selected feature once into
one scratch tile, and adds that tile into every mask that selects the
feature. The evaluator feeds it a block of test rows at a time, so a tile
is a few rows of a plane. Every element is the same subtract-then-square
and every mask keeps its feature order, so every route to a distance gives
the same bits, whatever the block size or the number of masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, mask_key
from .data import Dataset, Split


@dataclass(frozen=True)
class FitnessParams:
    alpha: float = 0.9
    k_neighbors: int = 5
    train_fraction: float = 0.8

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {self.alpha}")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0,1), got {self.train_fraction}")


def minmax_normalize(train: np.ndarray, apply_to: np.ndarray) -> np.ndarray:
    """Scale columns of apply_to by (x - min)/(max - min) of the training data.

    Constant training columns map to 0. Values outside the training range are
    not clamped, so test features may fall outside [0, 1].
    """
    lo = train.min(axis=0)
    span = train.max(axis=0) - lo
    safe = np.where(span == 0.0, 1.0, span)
    out = (apply_to - lo) / safe
    out[:, span == 0.0] = 0.0
    return out


# Largest set of per-mask distance accumulators, (masks, rows, n_train)
# float64, that one block of test rows may use; about one core's L2 cache.
BLOCK_BYTES = 2_000_000


def _square_diff(test: np.ndarray, train: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = (test[i] - train[j]) ** 2, written in place: one feature's plane."""
    np.subtract(test[:, None], train[None, :], out=out)
    return np.square(out, out=out)


def _accumulate(accs, masks: np.ndarray, test_rows: np.ndarray,
                train_rows: np.ndarray, scratch: np.ndarray) -> None:
    """Sum each mask's planes into its accumulator, in feature-index order.

    masks is an (n, n_features) 0/1 matrix and accs holds its n buffers;
    test_rows and train_rows are feature-major, (n_features, rows) and
    (n_features, n_train). Each feature any mask selects is squared into
    scratch once, in increasing feature order, then added into every mask
    that selects it. Each mask's first plane is copied instead of added to
    zeros. 0.0 + x == x exactly, so every accumulator is the same
    left-to-right sum as a zero-seeded one, for any number of masks.
    """
    started = [False] * len(masks)
    current = -1
    # (feature, mask) pairs, ordered by feature, then by mask
    features, owners = np.nonzero(masks.T)
    for f, i in zip(features.tolist(), owners.tolist()):
        if f != current:
            current = f
            _square_diff(test_rows[f], train_rows[f], scratch)
        if started[i]:
            np.add(accs[i], scratch, out=accs[i])
        else:
            np.copyto(accs[i], scratch)
            started[i] = True


def _nearest_indices(d2: np.ndarray, k: int) -> np.ndarray:
    """Row-wise indices of the k nearest columns in (value, index) order.

    Each pass takes the first (lowest-index) minimum of every row, which is
    the documented distance tie rule. The input matrix is consumed.
    """
    rows = np.arange(d2.shape[0])
    cols = np.empty((d2.shape[0], k), dtype=np.int64)
    for j in range(k):
        nearest = d2.argmin(axis=1)
        cols[:, j] = nearest
        if j + 1 < k:
            d2[rows, nearest] = np.inf
    return cols


def _vote(neighbor_labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Majority vote per row; ties go to the smallest class index."""
    counts = np.zeros((neighbor_labels.shape[0], n_classes), dtype=np.int64)
    rows = np.repeat(np.arange(neighbor_labels.shape[0]), neighbor_labels.shape[1])
    np.add.at(counts, (rows, neighbor_labels.ravel()), 1)
    return counts.argmax(axis=1)


def knn_predict(train_x: np.ndarray, train_y: np.ndarray, queries: np.ndarray,
                k: int, mask: np.ndarray) -> np.ndarray:
    """Predict class labels for each query row using masked Euclidean KNN."""
    mask = np.asarray(mask)
    if not mask.any():
        raise ValueError("mask selects no features; repair masks before evaluating")
    if k > train_x.shape[0]:
        raise ValueError(f"k={k} exceeds training-set size {train_x.shape[0]}")
    scratch = np.empty((queries.shape[0], train_x.shape[0]))
    d2 = np.empty_like(scratch)
    _accumulate([d2], mask[None, :], queries.T, train_x.T, scratch)
    neighbors = _nearest_indices(d2, k)
    n_classes = int(train_y.max()) + 1
    return _vote(train_y[neighbors], n_classes)


def knn_classify(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray,
                 k: int, mask: np.ndarray) -> int:
    """Single-query form of knn_predict."""
    return int(knn_predict(train_x, train_y, np.asarray(query)[None, :], k, mask)[0])


def error_rate(train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray,
               test_y: np.ndarray, k: int, mask: np.ndarray) -> float:
    """Fraction of test instances misclassified by masked KNN."""
    pred = knn_predict(train_x, train_y, test_x, k, mask)
    return float(np.mean(pred != test_y))


def fitness_value(err: float, selected_count: int, total_features: int, alpha: float) -> float:
    return alpha * err + (1.0 - alpha) * (selected_count / total_features)


class FitnessEvaluator:
    """Cached mask -> fitness function over one normalized train/test split.

    The split is normalized once and held feature-major: C-contiguous
    (n_features, n_test) and (n_features, n_train) row arrays, so one
    feature's values are one contiguous row. `test_x` and `train_x` are
    transposed views of those rows, not second copies.

    `evaluate_all(masks)` is the optimizers' entry point: it scores a whole
    generation. Duplicate and cached masks are dropped, and the rest are
    scored together, one block of test rows at a time. A block has as many
    rows as keep the accumulators of every mask in the batch within
    BLOCK_BYTES (at least one row). For each block, `_accumulate` squares
    each selected feature's tile once and adds it into every mask that
    selects it, then the k argmin passes and the vote run once over all of
    the block's (mask, test row) pairs and wrong predictions are counted
    per mask. Tiles are computed from the normalized rows alone: there is
    no precomputed distance stack and no distance buffer survives a batch.
    Every element is the same subtract-then-square in `_square_diff`, each
    mask's planes are added in feature-index order, and top-k and the vote
    are row-wise, so the outputs carry the same bits as one mask at a time
    over the whole split.

    `__call__` scores one mask. Inside `evaluate_all` it is called once per
    mask, and its first cache miss scores the whole pending batch, so
    wrapping `__call__` observes every evaluation and its kernel time.

    The pending batch makes an evaluator belong to one run: it is not
    reentrant and must not be shared between threads. The mask cache is a
    plain dict owned by that run.
    """

    def __init__(self, dataset: Dataset, split: Split, params: FitnessParams):
        self.dataset = dataset
        self.split = split
        self.params = params
        train_raw = dataset.features[split.train_indices]
        test_raw = dataset.features[split.test_indices]
        self._train_rows = np.ascontiguousarray(minmax_normalize(train_raw, train_raw).T)
        self._test_rows = np.ascontiguousarray(minmax_normalize(train_raw, test_raw).T)
        self.train_x = self._train_rows.T
        self.test_x = self._test_rows.T
        self.train_y = dataset.labels[split.train_indices]
        self.test_y = dataset.labels[split.test_indices]
        if params.k_neighbors > self.train_x.shape[0]:
            raise ConfigError(
                f"k_neighbors={params.k_neighbors} exceeds training size {self.train_x.shape[0]}"
            )
        self.n_features = dataset.n_features
        self.n_classes = dataset.n_classes
        self._cache: dict[bytes, tuple[float, float]] = {}
        self._pending = []

    def _score(self, masks) -> None:
        """Cache (error, fitness) for every distinct uncached mask, block by block."""
        todo: dict[bytes, np.ndarray] = {}
        for mask in masks:
            key = mask_key(mask)
            if key not in self._cache and key not in todo:
                if not mask.any():
                    raise ValueError("all-zero mask reached the evaluator; "
                                     "repair is missing upstream")
                todo[key] = mask
        if not todo:
            return
        matrix = np.array(list(todo.values()))
        n, n_test, n_train = len(matrix), len(self.test_y), len(self.train_y)
        rows = max(1, min(n_test, BLOCK_BYTES // (8 * n_train * n)))
        buf, scratch = np.empty(n * rows * n_train), np.empty((rows, n_train))
        wrong = np.zeros(n, dtype=np.int64)
        for lo in range(0, n_test, rows):
            hi = min(lo + rows, n_test)
            # a fresh contiguous (n, hi - lo, n_train) view, so the short
            # last block still flattens to (mask, row) pairs without a copy
            block = buf[:n * (hi - lo) * n_train].reshape(n, hi - lo, n_train)
            # views held in a list: np.add on a view writes in place, where
            # `block[i] += tile` would copy the tile back
            _accumulate(list(block), matrix, self._test_rows[:, lo:hi],
                        self._train_rows, scratch[:hi - lo])
            neighbors = _nearest_indices(block.reshape(-1, n_train), self.params.k_neighbors)
            pred = _vote(self.train_y[neighbors], self.n_classes).reshape(n, hi - lo)
            wrong += np.count_nonzero(pred != self.test_y[lo:hi], axis=1)
        for key, mask, w in zip(todo, matrix, wrong.tolist()):
            err = w / n_test
            self._cache[key] = (err, fitness_value(err, int(mask.sum()), self.n_features,
                                                   self.params.alpha))

    def evaluate_all(self, masks) -> list[float]:
        """Fitness of each mask, in order; the batch form optimizers call."""
        self._pending = masks
        try:
            return [self(mask) for mask in masks]
        finally:
            self._pending = []

    def evaluate(self, mask: np.ndarray) -> float:
        return self.error_and_fitness(mask)[1]

    __call__ = evaluate

    def error_and_fitness(self, mask: np.ndarray) -> tuple[float, float]:
        key = mask_key(mask)
        hit = self._cache.get(key)
        if hit is None:
            self._score([mask, *self._pending])
            hit = self._cache[key]
        return hit

    def accuracy(self, mask: np.ndarray) -> float:
        return 1.0 - self.error_and_fitness(mask)[0]
