"""Wrapper fitness: KNN error on a held-out split plus a subset-size penalty.

fitness(mask) = alpha * error_rate + (1 - alpha) * selected/total, both terms
in [0, 1]. The split is fixed per run, so fitness is a pure function of the
mask and is cached by mask bytes; cache hits are bit-identical to fresh
evaluations.

Tie rules are pinned for cross-platform determinism: a vote tie goes to the
smallest class index, and a distance tie at the k-th neighbor goes to the
smaller training-instance index. Neighbors are taken in that (distance,
index) lexicographic order.

Distances have one exact definition. A plane is the (n_test, n_train)
matrix of squared differences on one feature, computed by `_square_diff`; a
mask's squared distances are its planes summed in feature-index order. The
one loop that sums them is `_accumulate`, which serves many masks at once:
it walks the features in index order, squares each selected feature once
into one scratch tile, and adds that tile into every mask that selects it.
Every element is the same subtract-then-square and every mask keeps its
feature order, so the exact distances carry the same bits whatever the
block size or the number of masks. One routine applies the tie rule:
`_take_k` takes a row's k neighbors in k passes, each recording the row's
pick and writing a value over it that no later pass picks. On distances
(`_nearest_indices`) a pass is an argmin, and the first minimum of a row is
its lowest index, which is the tie rule. The vote depends only on the
neighbor set, so every route below that finds the same neighbor sets gives
the same outputs.
The evaluator finds them by one of two paths, fixed per split:

- The real-valued path screens, then rechecks. A mask's squared distance
  is a + b - 2 * Q, with a = sum m_f * x_f**2 over the test row, b = sum
  m_f * y_f**2 over the train row and Q = sum m_f * x_f * y_f. The screen
  computes b - 2 * Q for every (mask, test row, train row); a is the same
  for every train row of a (mask, test row) pair, so leaving it out changes
  no rank and no gap. a and b are one matrix product each per batch. Q
  comes from one GEMM per mask of its selected test rows against its
  selected train rows, so a mask's screen costs in proportion to its size.
  `_nearest_and_gap` takes `_nearest_indices` over the screened values
  and returns the gap between each pair's (k+1)-th and k-th smallest.
- Why the screen keeps the bits. Error bounds for a sum of products hold
  for any summation order and for FMA, and every term here is at most
  x_f**2 + y_f**2 in size. So the screen (as a + screened) and the exact
  loop are each within about 2 * s * 2**-53 * (a + b) of the true
  distance, s being the mask's feature count; the screen sums only the
  mask's selected products. `_screen_tolerance` returns eps = 16 * (s + 4)
  * 2**-53 * (a + max b), a bound on |screened - exact| with a wide
  margin. Where the gap exceeds 2 * eps, every screened neighbor's exact
  distance is below every other train row's, so the screened set is the
  exact set and no tie rule is needed. Every other pair, exact ties
  included, is rescored by `_recheck` with `_accumulate` and
  `_nearest_indices`, which apply the tie rule.
- The bit path serves splits whose normalized values are all exactly 0.0
  or 1.0 (`_is_binary`). There each squared difference is 0 or 1, so a
  mask's distance is the number of selected features on which the rows
  differ: popcount((test_word ^ train_word) & mask_word) over rows packed
  into uint64 words by `_pack`. Every partial sum of the planes is such a
  small integer, which float64 holds exactly, so the popcount is the exact
  distance to the bit. Two more exact facts let it skip most of that work.
  A row's projection is its bits on the mask's selected features, and a
  mask's cell is the train rows with one projection.
  - popcount((x ^ y) & m) = popcount((x & m) ^ (y & m)), so a test row's
    neighbors depend only on its projection: test rows with one projection
    are one pair, scored once.
  - A train row at distance 0 comes before every other in (distance,
    index) order, so when a pair's cell holds k rows or more, the cell's k
    lowest indices are its neighbors, in order, with no popcount.
  Grouping costs sorts, so it serves the masks whose cells can fill by
  pigeonhole, (k - 1) * 2**s < n_train for s selected features, with k - 1
  read as 1 at k = 1. A row's code under such a mask sums 2**rank over the
  selected features it sets: below n_train, and exact from one GEMM. Bit r
  of a code is the row's bit on the mask's rank-r selected feature, so
  popcount(test_code ^ train_code) is the distance too.
  Every neighbor that no full cell gives is ranked by the composite keys
  distance << shift | train_index, which `_nearest_keys` builds from the
  distances: they are unique per row and order exactly as (distance, index)
  does, so `_take_k`'s passes of `min` take the same neighbors as its
  argmin passes, in the same order. The distances come from two passes
  that share nothing. The gated pass groups the codes by `_cells`, takes
  the full cells, and keys each other pair from its codes, a chunk of
  pairs at a time. The skipped pass keys every test row of the masks the
  gate skips, one block of test rows at a time: `_bit_keys` takes one
  block's xor of packed test and train words, and each mask ANDs its words
  into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import ConfigError, mask_key
from .data import Dataset, Split


@dataclass(frozen=True)
class FitnessParams:
    alpha: float = 0.9
    k_neighbors: int = 5
    # the train share of every run's stratified split
    train_fraction: ClassVar[float] = 0.8

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {self.alpha}")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")

    def require_train_rows(self, n_train: int) -> None:
        """Raise unless a split with n_train train rows has k_neighbors of them."""
        if self.k_neighbors > n_train:
            raise ConfigError(f"k_neighbors={self.k_neighbors} exceeds training size {n_train}")


# Largest buffer that one block of test rows may use, about one core's L2
# cache: the screen's (rows, n_train) float64 plane of one mask, the recheck's
# (masks, rows, n_train) exact distances, the bit path's (masks, rows,
# n_train) keys, and the gathered (pairs, n_train) int64 train codes of one
# chunk of its gated pairs each fit. One buffer falls outside it: the screen's
# gather of a mask's selected train rows, (selected, n_train) float64, at
# most the size of the split's own train rows.
BLOCK_BYTES = 2_000_000


def _is_binary(*rows: np.ndarray) -> bool:
    """The bit path's predicate: every normalized value is exactly 0.0 or 1.0.

    It checks one row of each array at a time, so on real-valued data it
    stops at the first feature row and makes no split-sized temporaries.
    """
    return all(bool(((row == 0.0) | (row == 1.0)).all()) for r in rows for row in r)


def _pack(rows: np.ndarray) -> np.ndarray:
    """(n, n_features) 0/1 rows -> (n, words) uint64; bit f is feature f."""
    packed = np.packbits(np.asarray(rows) != 0, axis=1, bitorder="little")
    padded = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return np.ascontiguousarray(padded).view(np.uint64)


def _key_dtype(n_train: int, n_features: int) -> np.dtype:
    """Narrowest unsigned dtype whose maximum exceeds every composite key.

    A key is distance << shift | train_index, with distance <= n_features and
    shift = (n_train - 1).bit_length(); the maximum is `_nearest_keys`'s
    sentinel for a taken neighbor.
    """
    bits = (n_train - 1).bit_length() + n_features.bit_length()
    return next(dt for dt in map(np.dtype, (np.uint16, np.uint32, np.uint64))
                if bits < 8 * dt.itemsize)


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


def _take_k(values: np.ndarray, k: int, pick, taken) -> np.ndarray:
    """The one k-pass loop behind every neighbor set: (rows, k) picked columns.

    Each pass records pick(values), one column per row, and unless it is the
    last pass writes `taken` over that column, a value that no later pass
    picks. values is consumed: each row's first k - 1 picks hold `taken`,
    and its k-th keeps its value.
    """
    rows = np.arange(values.shape[0])
    cols = np.empty((values.shape[0], k), dtype=np.int64)
    for j in range(k):
        nearest = pick(values)
        cols[:, j] = nearest
        if j + 1 < k:
            values[rows, nearest] = taken
    return cols


def _nearest_indices(d2: np.ndarray, k: int) -> np.ndarray:
    """Row-wise indices of the k nearest columns in (value, index) order.

    Each of `_take_k`'s passes takes the first (lowest-index) minimum of
    every row, which is the documented distance tie rule, and writes inf
    over it. The input matrix is consumed.
    """
    return _take_k(d2, k, lambda d: d.argmin(axis=1), np.inf)


def _nearest_and_gap(d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The screen's top-k: `_nearest_indices`, plus each row's gap.

    Returns the (rows, k) neighbor indices and each row's (k+1)-th smallest
    value minus its k-th; with k == n_train the gap is inf. The input matrix
    is consumed.
    """
    cols = _nearest_indices(d, k)
    rows, last = np.arange(d.shape[0]), cols[:, -1]
    kth = d[rows, last]
    d[rows, last] = np.inf
    return cols, d[rows, d.argmin(axis=1)] - kth


def _screen_tolerance(selected, a, b_max):
    """eps >= |screened - exact| squared distance for a mask of `selected` features.

    a is the test row's and b_max the largest train row's sum of squares over
    the mask. See the module docstring for the bound.
    """
    return 16.0 * (selected + 4) * 2.0 ** -53 * (a + b_max)


def _recheck(neighbors, flagged, matrix, test_rows, train_rows) -> None:
    """Replace the screened neighbors of one block's flagged pairs by exact ones.

    neighbors is the block's (masks, rows, k) screened result and flagged its
    (masks, rows) gap test. The masks with a flagged pair are summed by
    `_accumulate` over the union of their flagged rows and ranked by
    `_nearest_indices`; the squares are shared as on the exact path, so a
    block with every pair flagged costs one exact block.
    """
    masks, rows = np.flatnonzero(flagged.any(axis=1)), np.flatnonzero(flagged.any(axis=0))
    if masks.size == 0:
        return
    n_train, k = train_rows.shape[1], neighbors.shape[-1]
    exact = np.empty((masks.size, rows.size, n_train))
    # views held in a list: np.add on a view writes in place, where
    # `exact[i] += tile` would copy the tile back
    _accumulate(list(exact), matrix[masks], test_rows[:, rows], train_rows,
                np.empty((rows.size, n_train)))
    neighbors[np.ix_(masks, rows)] = _nearest_indices(
        exact.reshape(-1, n_train), k).reshape(masks.size, rows.size, k)


def _cells(test_codes: np.ndarray, train_codes: np.ndarray, k: int):
    """Group (mask, test row) pairs by projection; take full cells' neighbors.

    test_codes (masks, n_test) and train_codes (masks, n_train) hold each
    row's projection code under each mask, every code below n_train. A pair
    is a distinct (mask, code) of the test rows, standing for every test row
    with that code; its cell is the train rows with that code. Returns each
    pair's mask and lowest test row, the pair of every (mask, test row),
    mask-major, and the pairs' (pairs, k) neighbors with the flags of those
    set: a cell of k rows or more gives its k lowest train indices.
    """
    n_test, n_train = test_codes.shape[1], train_codes.shape[1]
    base = np.arange(len(test_codes))[:, None] * n_train
    # an id is mask * n_train + code; sorted, id * n_test + row puts each
    # id's rows together, lowest first
    ids, rows = np.divmod(np.sort((base + test_codes) * n_test + np.arange(n_test), axis=None),
                          n_test)
    first = np.diff(ids, prepend=-1) != 0
    pairs = ids[first]
    inverse = np.empty(ids.size, dtype=np.int64)
    inverse[ids // n_train * n_test + rows] = np.cumsum(first) - 1
    # sorted, id * n_train + train index makes each cell one run, in
    # train-index order
    cells = base + train_codes
    full = np.bincount(cells.ravel(), minlength=base.size * n_train)[pairs] >= k
    cells = np.sort(cells * n_train + np.arange(n_train), axis=None)
    start = np.searchsorted(cells, pairs[full] * n_train)
    neighbors = np.empty((len(pairs), k), dtype=np.int64)
    neighbors[full] = cells[start[:, None] + np.arange(k)] % n_train
    return pairs // n_train, rows[first], inverse, neighbors, full


def _bit_keys(distances: np.ndarray, xor: np.ndarray, mask_words: np.ndarray) -> None:
    """Write one block's popcount distances, popcount(xor & mask), for each mask.

    xor is (words, rows, n_train), the block's test words ^ train words, and
    distances is (masks, rows, n_train), one plane per row of mask_words
    (masks, words). Each mask ANDs its words into one shared tile and sums
    the popcounts over the words.
    """
    tile = np.empty(xor.shape[1:], dtype=np.uint64)
    for out, words in zip(distances, mask_words):
        for w, (plane, word) in enumerate(zip(xor, words)):
            np.bitwise_and(plane, word, out=tile)
            if w:
                np.add(out, np.bitwise_count(tile), out=out)
            else:
                np.bitwise_count(tile, out=out)


def _nearest_keys(distances: np.ndarray, k: int, shift: int) -> np.ndarray:
    """Row-wise indices of the k nearest columns in (distance, index) order.

    distances is (rows, n_train), of the key dtype. In place it becomes the
    composite keys distance << shift | train_index, which are unique within
    a row and order as (distance, index) does. Each of `_take_k`'s passes
    takes a row's minimum, which names one column by its low `shift` bits,
    and writes the dtype maximum over it, which no key reaches. The input
    matrix is consumed.
    """
    keys = np.left_shift(distances, shift, out=distances)
    np.bitwise_or(keys, np.arange(keys.shape[-1], dtype=keys.dtype), out=keys)
    low = (1 << shift) - 1
    return _take_k(keys, k, lambda ks: ks.min(axis=1) & low, np.iinfo(keys.dtype).max)


def _vote(neighbor_labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Majority vote per row; ties go to the smallest class index."""
    n = neighbor_labels.shape[0]
    slots = np.arange(n)[:, None] * n_classes + neighbor_labels
    counts = np.bincount(slots.ravel(), minlength=n * n_classes)
    return counts.reshape(n, n_classes).argmax(axis=1)


def fitness_value(err: float, selected_count: int, total_features: int, alpha: float) -> float:
    return alpha * err + (1.0 - alpha) * (selected_count / total_features)


class FitnessEvaluator:
    """Cached mask -> fitness function over one normalized train/test split.

    It holds the split, normalized once and feature-major: C-contiguous
    (n_features, n_test) and (n_features, n_train) row arrays, of which
    `test_x` and `train_x` are transposed views, not second copies. Each
    side is gathered from the dataset's rows into its array, which is then
    min-max scaled in place by the train rows: x becomes (x - min) / (max -
    min) per feature, a feature constant over the train rows becomes 0, and
    test values outside the train range are not clamped. It also
    holds the labels, the neighbor path chosen once by `_is_binary`
    (`_key_dtype` is None on the float path), the bit path's packed rows and
    the mask cache, a plain dict of (error, fitness) by mask bytes. How each
    path finds the exact neighbors is in the module docstring.

    - `evaluate_all(masks)` is the optimizers' entry point: it scores a
      generation. Cached and duplicate masks are dropped, and `_score`
      votes once over the (masks, n_test, k) neighbors of the rest. The
      float path screens each mask a plane of test rows at a time, then
      rechecks every flagged mask a block of test rows at a time. The bit
      path keys its gated masks' pairs a chunk of pairs at a time, and its
      skipped masks one block of test rows at a time. A plane, block or
      chunk keeps each buffer within BLOCK_BYTES (at least one row or
      pair), but for the screen's gathered train rows. No buffer survives a
      batch; the bit path packs the rows into words once, at construction.
    - `__call__(mask)` gives one mask's fitness. Inside `evaluate_all` it is
      called once per mask, and its first cache miss scores the whole
      pending batch, so wrapping `__call__` observes every evaluation and its
      kernel time.
    - `accuracy(mask)` gives 1 - error on the test rows.

    The pending batch ties an evaluator to one run: it is not reentrant and
    must not be shared between threads.
    """

    def __init__(self, dataset: Dataset, split: Split, params: FitnessParams):
        params.require_train_rows(len(split.train_indices))
        self.params = params
        self._train_rows = np.ascontiguousarray(dataset.features[split.train_indices].T)
        self._test_rows = np.ascontiguousarray(dataset.features[split.test_indices].T)
        lo = self._train_rows.min(axis=1, keepdims=True)
        span = self._train_rows.max(axis=1, keepdims=True) - lo
        flat = span[:, 0] == 0.0
        span[flat] = 1.0
        for rows in (self._train_rows, self._test_rows):
            rows -= lo
            rows /= span
            rows[flat] = 0.0
        self.train_x, self.test_x = self._train_rows.T, self._test_rows.T
        self.train_y = dataset.labels[split.train_indices]
        self.test_y = dataset.labels[split.test_indices]
        self.n_features = dataset.n_features
        self.n_classes = dataset.n_classes
        # the bit path's key dtype and packed rows, or None for the float path
        self._key_dtype = self._test_words = self._train_words = None
        if _is_binary(self._train_rows, self._test_rows):
            self._key_dtype = _key_dtype(len(self.train_y), self.n_features)
            # word-major (words, rows): xor[w] in `_bit_neighbors` is one
            # contiguous tile per word
            self._test_words, self._train_words = _pack(self.test_x).T, _pack(self.train_x).T
        self._cache: dict[bytes, tuple[float, float]] = {}
        self._pending = []

    def _score(self, masks) -> None:
        """Cache (error, fitness) for every distinct uncached mask, block by
        block. The caller passes a cache miss first, so there is always one."""
        todo: dict[bytes, np.ndarray] = {}
        for mask in masks:
            key = mask_key(mask)
            if key not in self._cache and key not in todo:
                if not mask.any():
                    raise ValueError("all-zero mask reached the evaluator; "
                                     "repair is missing upstream")
                todo[key] = mask
        matrix = np.array(list(todo.values()))
        neighbors = (self._float_neighbors if self._key_dtype is None
                     else self._bit_neighbors)(matrix)
        pred = _vote(self.train_y[neighbors].reshape(-1, self.params.k_neighbors),
                     self.n_classes)
        wrong = np.count_nonzero(pred.reshape(len(matrix), -1) != self.test_y, axis=1)
        n_test = len(self.test_y)
        for key, mask, w in zip(todo, matrix, wrong.tolist()):
            err = w / n_test
            self._cache[key] = (err, fitness_value(err, int(mask.sum()), self.n_features,
                                                   self.params.alpha))

    def _float_neighbors(self, matrix: np.ndarray) -> np.ndarray:
        """(masks, n_test, k) neighbors: per-mask GEMM screen, exact recheck per block."""
        n, n_test, n_train = len(matrix), len(self.test_y), len(self.train_y)
        k = self.params.k_neighbors
        # per (mask, row): sums of squares over the mask, a of the test rows
        # and b of the train rows. np.matmul, as for the screen's GEMMs, so
        # that one wrapper of it sees every product the float path makes
        a = np.matmul(matrix, np.square(self._test_rows))
        b = np.matmul(matrix, np.square(self._train_rows))
        neighbors = np.empty((n, n_test, k), dtype=np.int64)
        gaps = np.empty((n, n_test))
        # a plane of as many test rows as fit in BLOCK_BYTES, reused
        rows = max(1, min(n_test, BLOCK_BYTES // (8 * n_train)))
        buf = np.empty(rows * n_train)
        for i, mask in enumerate(matrix):
            cols = np.flatnonzero(mask)
            train = self._train_rows[cols]
            for lo in range(0, n_test, rows):
                hi = min(lo + rows, n_test)
                # scaling by a power of two is exact, so the GEMM gives -2 * Q
                test = self._test_rows[cols, lo:hi]
                test *= -2.0
                screened = buf[:(hi - lo) * n_train].reshape(hi - lo, n_train)
                np.matmul(test.T, train, out=screened)
                # b - 2Q: the distance less a, which no train row's rank or
                # gap depends on
                screened += b[i]
                neighbors[i, lo:hi], gaps[i, lo:hi] = _nearest_and_gap(screened, k)
        flagged = gaps <= 2.0 * _screen_tolerance(matrix.sum(axis=1)[:, None], a,
                                                  b.max(axis=1)[:, None])
        block = max(1, min(n_test, BLOCK_BYTES // (8 * n * n_train)))
        for lo in range(0, n_test, block):
            _recheck(neighbors[:, lo:lo + block], flagged[:, lo:lo + block], matrix,
                     self._test_rows[:, lo:lo + block], self._train_rows)
        return neighbors

    def _bit_neighbors(self, matrix: np.ndarray) -> np.ndarray:
        """(masks, n_test, k) neighbors in two passes: gated masks, then skipped ones."""
        n, n_test, n_train = len(matrix), len(self.test_y), len(self.train_y)
        k, dtype = self.params.k_neighbors, self._key_dtype
        shift = (n_train - 1).bit_length()
        # the gate, (k - 1) * 2**s < n_train, in integers: 2.0**s overflows
        # from s = 1024
        gated = matrix.sum(axis=1) < ((n_train - 1) // max(k - 1, 1)).bit_length()
        neighbors = np.empty((n, n_test, k), dtype=np.int64)
        # a row's code sums 2**rank over the selected features it sets: one
        # exact GEMM, and below n_train under the gate
        chosen = matrix[gated]
        powers = chosen * np.exp2(np.cumsum(chosen, axis=1, dtype=np.float64) - 1.0)
        test_codes = (powers @ self._test_rows).astype(np.int64)
        train_codes = (powers @ self._train_rows).astype(np.int64)
        owners, rows, inverse, pair_neighbors, full = _cells(test_codes, train_codes, k)
        # pairs without a full cell, keyed from their codes, a chunk of pairs
        # whose gathered train codes fit in BLOCK_BYTES at a time
        todo = np.flatnonzero(~full)
        chunk = max(1, BLOCK_BYTES // (train_codes.itemsize * n_train))
        for lo in range(0, todo.size, chunk):
            pairs = todo[lo:lo + chunk]
            codes = train_codes[owners[pairs]]
            codes ^= test_codes[owners[pairs], rows[pairs], None]
            pair_neighbors[pairs] = _nearest_keys(np.bitwise_count(codes).astype(dtype),
                                                  k, shift)
        neighbors[gated] = pair_neighbors[inverse].reshape(-1, n_test, k)
        # every test row of each skipped mask, one block of test rows at a time
        skipped = np.flatnonzero(~gated)
        if skipped.size:
            per = max(1, min(n_test, BLOCK_BYTES // (dtype.itemsize * n_train * n)))
            test_words, train_words = self._test_words, self._train_words
            mask_words = _pack(matrix[skipped])
            buf = np.empty(skipped.size * per * n_train, dtype=dtype)
            for lo in range(0, n_test, per):
                hi = min(lo + per, n_test)
                xor = np.bitwise_xor(test_words[:, lo:hi, None], train_words[:, None, :])
                keys = buf[:skipped.size * (hi - lo) * n_train].reshape(
                    skipped.size, hi - lo, n_train)
                _bit_keys(keys, xor, mask_words)
                neighbors[skipped, lo:hi] = _nearest_keys(
                    keys.reshape(-1, n_train), k, shift).reshape(skipped.size, hi - lo, k)
        return neighbors

    def evaluate_all(self, masks) -> list[float]:
        """Fitness of each mask, in order; the batch form optimizers call."""
        self._pending = masks
        try:
            return [self(mask) for mask in masks]
        finally:
            self._pending = []

    def __call__(self, mask: np.ndarray) -> float:
        return self.error_and_fitness(mask)[1]

    def error_and_fitness(self, mask: np.ndarray) -> tuple[float, float]:
        key = mask_key(mask)
        hit = self._cache.get(key)
        if hit is None:
            self._score([mask, *self._pending])
            hit = self._cache[key]
        return hit

    def accuracy(self, mask: np.ndarray) -> float:
        return 1.0 - self.error_and_fitness(mask)[0]
