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
loop that sums them is `_accumulate`, which serves a chunk of masks at once:
it walks the features in index order, fetches each plane once, and adds it
into every chunk mask that selects that feature. Every caller goes through
these two functions, so every route to a distance gives the same bits,
whatever the chunk size.
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


# Largest (n_features, n_test, n_train) float64 plane stack an evaluator
# precomputes; past it, each plane is computed into a scratch buffer.
STACK_BUDGET_BYTES = 200_000_000
# Distance buffers an evaluator without a stack holds for one chunk of masks;
# every plane it computes serves the whole chunk.
BATCH_BYTES = 4_000_000


def _square_diff(test: np.ndarray, train: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[..., i, j] = (test[..., i] - train[..., j]) ** 2, written in place.

    Given one feature's test and train values this is one plane; given
    (n_features, n) row arrays it is the whole stack of planes.
    """
    np.subtract(test[..., :, None], train[..., None, :], out=out)
    return np.square(out, out=out)


def _accumulate(accs: list[np.ndarray], masks: np.ndarray, plane) -> list[np.ndarray]:
    """Sum each mask's planes into its accumulator, in feature-index order.

    masks is a (chunk, n_features) 0/1 matrix and accs holds at least chunk
    buffers; plane(f) returns feature f's plane and is called once per
    feature any mask selects, in increasing f, so it may reuse one buffer.
    Each mask's first plane is copied instead of added to zeros. 0.0 + x == x
    exactly, so every accumulator is the same left-to-right sum as a
    zero-seeded one, for any chunk size. Returns the chunk's accumulators.
    """
    accs = accs[:len(masks)]
    started = [False] * len(accs)
    current, buf = -1, None
    # (feature, mask) pairs, ordered by feature, then by mask
    features, owners = np.nonzero(masks.T)
    for f, i in zip(features.tolist(), owners.tolist()):
        if f != current:
            current, buf = f, plane(f)
        if started[i]:
            np.add(accs[i], buf, out=accs[i])
        else:
            np.copyto(accs[i], buf)
            started[i] = True
    return accs


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
    [d2] = _accumulate([np.empty_like(scratch)], mask[None, :],
                       lambda f: _square_diff(queries[:, f], train_x[:, f], scratch))
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
    generation. Duplicate and cached masks are dropped, and the rest go
    through `_accumulate` in chunks, then take k argmin passes and a vote
    each. A plane comes from one of two sources. While the full stack of
    planes fits in STACK_BUDGET_BYTES, the stack is built once into a single
    C-contiguous array and a plane is a slice of it; reading one costs
    nothing, so the chunk is one mask. Past the budget, each plane is
    computed into one reused scratch buffer once per chunk, and the chunk is
    as many masks as BATCH_BYTES of distance buffers hold (at least one).
    Both sources compute every element with the same subtract-then-square
    in `_square_diff`, and each mask's planes are added in feature-index
    order whatever the chunk, so the outputs carry the same bits as one mask
    at a time.

    `__call__` scores one mask. Inside `evaluate_all` it is called once per
    mask, and its first cache miss scores the whole pending batch, so
    wrapping `__call__` observes every evaluation and its kernel time.

    The reused buffers and the pending batch make an evaluator belong to one
    run: it is not reentrant and must not be shared between threads. The
    mask cache is a plain dict owned by that run.
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
        plane_shape = (len(self.test_y), len(self.train_y))
        plane_bytes = 8 * plane_shape[0] * plane_shape[1]
        if self.n_features * plane_bytes <= STACK_BUDGET_BYTES:
            self._stack = _square_diff(self._test_rows, self._train_rows,
                                       np.empty((self.n_features, *plane_shape)))
            self._scratch = None
            chunk = 1
        else:
            self._stack = None
            self._scratch = np.empty(plane_shape)
            chunk = max(1, BATCH_BYTES // plane_bytes)
        # views held in a list: np.add on a view writes in place, where
        # `buf[i] += plane` on the 3-D array would copy the plane back
        self._accs = list(np.empty((chunk, *plane_shape)))
        self._cache: dict[bytes, tuple[float, float]] = {}
        self._pending = []

    def _plane(self, f: int) -> np.ndarray:
        """Feature f's plane. Over the budget it is the one scratch buffer,
        rewritten on each call, so it must be used before the next call."""
        if self._stack is not None:
            return self._stack[f]
        return _square_diff(self._test_rows[f], self._train_rows[f], self._scratch)

    def _score(self, masks) -> None:
        """Cache (error, fitness) for every distinct uncached mask, chunk by chunk."""
        todo: dict[bytes, np.ndarray] = {}
        for mask in masks:
            key = mask_key(mask)
            if key not in self._cache and key not in todo:
                if not mask.any():
                    raise ValueError("all-zero mask reached the evaluator; "
                                     "repair is missing upstream")
                todo[key] = mask
        keys = list(todo)
        step = len(self._accs)
        for start in range(0, len(keys), step):
            chunk = keys[start:start + step]
            matrix = np.array([todo[key] for key in chunk])
            for key, mask, d2 in zip(chunk, matrix, _accumulate(self._accs, matrix, self._plane)):
                neighbors = _nearest_indices(d2, self.params.k_neighbors)
                pred = _vote(self.train_y[neighbors], self.n_classes)
                err = float(np.mean(pred != self.test_y))
                fit = fitness_value(err, int(mask.sum()), self.n_features, self.params.alpha)
                self._cache[key] = (err, fit)

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
