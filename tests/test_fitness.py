import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_evaluator
from fsro import FitnessParams, RngStream, blas, fitness, generate_m_of_n
from fsro.core import ConfigError
from fsro.data import Dataset, Split, load_csv, stratified_split
from fsro.fitness import FitnessEvaluator, fitness_value
from oracles import (brute_error_rate, brute_knn_classify, error_rate, knn_predict,
                     minmax_scaled, new_mask)


def _assert_scaled_like_the_oracle(evaluator, train_raw, test_raw):
    """The evaluator's rows equal `minmax_scaled`'s, bit for bit."""
    for got, raw in ((evaluator.train_x, train_raw), (evaluator.test_x, test_raw)):
        want = minmax_scaled(train_raw, raw)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _scaled_rows(train, test):
    """The evaluator's (train_x, test_x) for these train and test rows,
    checked against the min-max oracle."""
    features = np.array([*train, *test], dtype=np.float64)
    split = Split(np.arange(len(train)), np.arange(len(train), len(features)))
    dataset = Dataset("rows", features, np.arange(len(features)) % 2)
    evaluator = FitnessEvaluator(dataset, split, FitnessParams(k_neighbors=1))
    _assert_scaled_like_the_oracle(evaluator, train, test)
    return evaluator.train_x, evaluator.test_x


def test_normalize_midpoint():
    _, test_x = _scaled_rows([[0.0], [10.0]], [[5.0]])
    assert test_x[0, 0] == 0.5


def test_normalize_constant_column_maps_to_zero():
    train_x, test_x = _scaled_rows([[3.0, 1.0], [3.0, 2.0]], [[4.0, 1.5], [-1.0, 3.0]])
    assert np.all(train_x[:, 0] == 0.0) and np.all(test_x[:, 0] == 0.0)
    assert test_x[:, 1].tolist() == [0.5, 2.0]


def test_normalize_endpoints_and_no_clamping():
    train_x, test_x = _scaled_rows([[0.0], [4.0]], [[4.0], [8.0], [-2.0]])
    assert train_x[:, 0].tolist() == [0.0, 1.0]
    assert test_x[:, 0].tolist() == [1.0, 2.0, -0.5]


def test_knn_exact_match_wins_at_k1():
    train_x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
    train_y = np.array([0, 1, 0])
    assert knn_predict(train_x, train_y, np.array([[5.0, 5.0]]), 1,
                       new_mask([1, 1])).tolist() == [1]


def test_knn_vote_tie_smaller_class_wins():
    # both classes at the same distance from the query, k=2
    train_x = np.array([[1.0], [3.0]])
    train_y = np.array([1, 0])
    assert knn_predict(train_x, train_y, np.array([[2.0]]), 2, new_mask([1])).tolist() == [0]


def test_knn_distance_tie_smaller_index_wins():
    # masking out the only separating feature leaves identical instances
    train_x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    train_y = np.array([2, 0, 1])
    assert knn_predict(train_x, train_y, np.array([[9.0, 7.0]]), 1,
                       new_mask([0, 1])).tolist() == [2]


def _tied_rows(values, n_train, seed):
    """Rows of n_train entries drawn from a few values, so most entries tie,
    plus one row that is one value throughout."""
    g = np.random.default_rng(seed)
    rows = g.choice(np.asarray(values), size=(12, n_train))
    rows[0] = values[-1]
    return rows


def _stable_order(values):
    """Each row's columns in (value, index) order: a stable sort by value."""
    return np.argsort(values, axis=1, kind="stable")


@pytest.mark.parametrize("n_train", [1, 2, 9, 33])
def test_nearest_indices_and_gap_follow_the_tie_rule(n_train):
    rows = _tied_rows([-1.5, 0.0, 0.25, 0.25 + 2.0 ** -50, 3.0], n_train, seed=n_train)
    order, ranked = _stable_order(rows), np.sort(rows, axis=1)
    for k in range(1, n_train + 1):
        assert np.array_equal(fitness._nearest_indices(rows.copy(), k), order[:, :k])
        cols, gaps = fitness._nearest_and_gap(rows.copy(), k)
        assert np.array_equal(cols, order[:, :k])
        if k < n_train:
            assert np.array_equal(gaps, ranked[:, k] - ranked[:, k - 1])
        else:
            assert np.all(gaps == np.inf)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
@pytest.mark.parametrize("n_train", [1, 2, 9, 33])
def test_nearest_keys_follow_the_tie_rule(dtype, n_train):
    shift = (n_train - 1).bit_length()
    # the largest distance that `_key_dtype` admits: distance.bit_length()
    # + shift < the dtype's bits, so that every key is below the sentinel
    top = 2 ** (8 * np.dtype(dtype).itemsize - shift - 1) - 1
    rows = _tied_rows([0, 1, 2, top - 1, top], n_train, seed=n_train).astype(dtype)
    order = _stable_order(rows)
    for k in range(1, n_train + 1):
        assert np.array_equal(fitness._nearest_keys(rows.copy(), k, shift), order[:, :k])


def test_knn_rejects_empty_mask_and_large_k():
    train_x = np.array([[1.0], [2.0]])
    train_y = np.array([0, 1])
    with pytest.raises(ValueError):
        knn_predict(train_x, train_y, np.array([[1.0]]), 1, new_mask([0]))
    with pytest.raises(ValueError):
        knn_predict(train_x, train_y, np.array([[1.0]]), 3, new_mask([1]))


def test_knn_agrees_with_bruteforce_oracle():
    # integer-valued fixtures so both routes compute exact distances and
    # genuinely exercise both tie rules
    rng = np.random.default_rng(1234)
    for trial in range(100):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, 11))
        k = int(rng.integers(1, min(n, 7) + 1))
        train_x = rng.integers(0, 5, size=(n, d)).astype(np.float64)
        train_y = rng.integers(0, int(rng.integers(2, 5)), size=n).astype(np.int64)
        mask = np.zeros(d, dtype=np.uint8)
        mask[rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)] = 1
        queries = rng.integers(0, 5, size=(3, d)).astype(np.float64)
        got = knn_predict(train_x, train_y, queries, k, mask)
        for q, pred in zip(queries, got):
            assert pred == brute_knn_classify(train_x, train_y, q, k, mask)


def test_error_rate_zero_when_test_subset_of_train():
    rng = np.random.default_rng(7)
    train_x = rng.random((20, 4)) * 10
    train_y = np.arange(20) % 3
    mask = new_mask([1, 1, 1, 1])
    assert error_rate(train_x, train_y, train_x[:5], train_y[:5], 1, mask) == 0.0


def test_error_rate_one_when_labels_flipped():
    train_x = np.array([[0.0], [10.0]])
    train_y = np.array([0, 1])
    test_x = np.array([[1.0], [9.0]])
    test_y = np.array([1, 0])
    assert error_rate(train_x, train_y, test_x, test_y, 1, new_mask([1])) == 1.0


def test_error_rate_matches_allpairs_oracle_on_desk_fixture():
    train_x = np.array([[0.0, 1.0], [4.0, 2.0], [8.0, 3.0]])
    train_y = np.array([0, 1, 0])
    test_x = np.array([[1.0, 1.0], [7.0, 3.0], [4.0, 0.0]])
    test_y = np.array([0, 0, 1])
    mask = new_mask([1, 1])
    got = error_rate(train_x, train_y, test_x, test_y, 1, mask)
    want = brute_error_rate(train_x, train_y, test_x, test_y, 1, mask)
    assert got == want


def test_fitness_hand_values():
    assert fitness_value(0.0, 6, 13, 0.9) == pytest.approx(0.9 * 0 + 0.1 * 6 / 13)
    assert fitness_value(1.0, 10, 10, 0.9) == 1.0
    assert fitness_value(0.1, 5, 10, 0.9) == pytest.approx(0.14)


def test_fitness_full_mask_zero_error_equals_beta():
    params = FitnessParams(alpha=0.9)
    assert fitness_value(0.0, 13, 13, params.alpha) == pytest.approx(1.0 - params.alpha)


def test_fitness_monotone_in_subset_size_at_equal_error():
    f_small = fitness_value(0.2, 3, 10, 0.9)
    f_large = fitness_value(0.2, 4, 10, 0.9)
    assert f_small < f_large


def test_params_validation():
    with pytest.raises(ConfigError):
        FitnessParams(alpha=1.5)
    with pytest.raises(ConfigError):
        FitnessParams(k_neighbors=0)


def test_evaluator_rejects_more_neighbors_than_training_rows(small_m_of_n):
    split = stratified_split(small_m_of_n, 0.8, RngStream(3))
    n_train = len(split.train_indices)
    with pytest.raises(ConfigError,
                       match=f"^k_neighbors={n_train + 1} exceeds training size {n_train}$"):
        FitnessEvaluator(small_m_of_n, split, FitnessParams(k_neighbors=n_train + 1))
    assert FitnessEvaluator(small_m_of_n, split,
                            FitnessParams(k_neighbors=n_train)).params.k_neighbors == n_train


def test_evaluator_bounds_and_cache(small_m_of_n):
    evaluator, _ = make_evaluator(small_m_of_n, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(30):
        mask = np.zeros(small_m_of_n.n_features, dtype=np.uint8)
        mask[rng.choice(small_m_of_n.n_features,
                        size=int(rng.integers(1, small_m_of_n.n_features + 1)),
                        replace=False)] = 1
        first = evaluator(mask)
        assert 0.0 <= first <= 1.0
        assert evaluator(mask) == first


def test_evaluator_fresh_instance_bit_identical(small_m_of_n):
    e1, _ = make_evaluator(small_m_of_n, seed=5)
    e2, _ = make_evaluator(small_m_of_n, seed=5)
    mask = new_mask([1, 0, 1, 1])
    assert e1(mask) == e2(mask)
    assert e1.error_and_fitness(mask) == e2.error_and_fitness(mask)


def test_evaluator_matches_standalone_error_rate(small_m_of_n):
    evaluator, _ = make_evaluator(small_m_of_n, seed=9)
    mask = new_mask([1, 1, 0, 1])
    err, _ = evaluator.error_and_fitness(mask)
    standalone = error_rate(evaluator.train_x, evaluator.train_y,
                            evaluator.test_x, evaluator.test_y,
                            evaluator.params.k_neighbors, mask)
    assert err == standalone


def test_evaluator_rejects_zero_mask(small_m_of_n):
    evaluator, _ = make_evaluator(small_m_of_n, seed=2)
    with pytest.raises(ValueError):
        evaluator(np.zeros(small_m_of_n.n_features, dtype=np.uint8))


def _continuous_dataset():
    g = np.random.default_rng(2024)
    labels = np.arange(90) % 3
    features = g.standard_normal((90, 9)) + labels[:, None] * g.uniform(0.0, 1.0, 9)
    return Dataset("continuous", features, labels.astype(np.int64))


KERNEL_DATASETS = {
    # binary features: distances tie constantly
    "binary": lambda: generate_m_of_n(3, 2, 6, 120, RngStream(3)),
    # real-valued features: no ties, so the arithmetic itself is compared
    "continuous": _continuous_dataset,
}


def _random_masks(n_features, count, seed):
    g = np.random.default_rng(seed)
    masks = []
    for _ in range(count):
        mask = np.zeros(n_features, dtype=np.uint8)
        mask[g.choice(n_features, size=int(g.integers(1, n_features + 1)),
                      replace=False)] = 1
        masks.append(mask)
    return masks


# Row-block configs of the kernel tests: test rows per block for a split of
# n_test test rows, or None for the default BLOCK_BYTES. The IDs are those of
# the mask-chunk configs they replaced, so the test names stay stable.
BLOCK_ROWS = {
    # one row per block (BLOCK_BYTES = 0)
    "scratch_chunk1": lambda n_test: 1,
    # three blocks, the last one short
    "scratch_chunk3": lambda n_test: n_test // 3 + 1,
    # the batch's accumulator stack one row over budget: n_test - 1 rows, then 1
    "stack": lambda n_test: n_test - 1,
    # the whole split in one block at the default BLOCK_BYTES
    "scratch_default": lambda n_test: None,
}


def _set_block_rows(monkeypatch, evaluator, n_masks, config):
    """Make a batch of n_masks uncached masks run in blocks of the config's rows.

    Returns the block sizes, in test rows, that such a batch goes through.
    """
    n_test, n_train = len(evaluator.test_y), len(evaluator.train_y)
    # bytes per (mask, test row) of a block: the recheck's float64 exact
    # distances, or the bit path's composite keys
    if evaluator._key_dtype is None:
        row_bytes = 8 * n_train
    else:
        row_bytes = evaluator._key_dtype.itemsize * n_train
    rows = BLOCK_ROWS[config](n_test)
    if rows is None:
        assert fitness.BLOCK_BYTES // (row_bytes * n_masks) >= n_test
        rows = n_test
    elif rows == 1:
        monkeypatch.setattr(fitness, "BLOCK_BYTES", 0)
    else:
        assert n_test % rows != 0  # the last block is short
        monkeypatch.setattr(fitness, "BLOCK_BYTES", row_bytes * n_masks * rows)
    return [min(rows, n_test - lo) for lo in range(0, n_test, rows)]


def _gated(evaluator, mask):
    """The bit path's gate: the mask's cells can hold k train rows by pigeonhole."""
    k, n_train = evaluator.params.k_neighbors, len(evaluator.train_y)
    return max(k - 1, 1) * 2 ** int(mask.sum()) < n_train


def _projections(rows, mask):
    """Each row's bits on the mask's selected features, as bytes."""
    return [r.tobytes() for r in rows[:, mask.astype(bool)].astype(np.uint8)]


def _keyed_rows(evaluator, masks):
    """Reference for the bit path's keyed pairs: (mask, test row) of each.

    A mask the gate skips keys every test row. A gated mask keys the lowest
    test row of each projection whose cell, the train rows with the same
    projection, holds fewer than k rows; the other test rows are resolved
    by their cells.
    """
    keyed = []
    for i, mask in enumerate(masks):
        tests = _projections(evaluator.test_x, mask)
        if not _gated(evaluator, mask):
            keyed += [(i, row) for row in range(len(tests))]
            continue
        cells = Counter(_projections(evaluator.train_x, mask))
        lowest = {}
        for row, code in enumerate(tests):
            lowest.setdefault(code, row)
        keyed += [(i, row) for code, row in lowest.items()
                  if cells[code] < evaluator.params.k_neighbors]
    return keyed


def _key_blocks(evaluator, masks, sizes):
    """The (pairs, n_train) shape of each matrix that the bit path ranks by keys.

    The gated pass comes first: its keyed pairs, in chunks of as many pairs
    as BLOCK_BYTES holds int64 train codes for. The skipped pass follows with
    one matrix per block of test rows, sizes giving the blocks' rows, holding
    those rows of every skipped mask.
    """
    n_train = len(evaluator.train_y)
    gated = sum(_gated(evaluator, masks[i]) for i, _ in _keyed_rows(evaluator, masks))
    chunk = max(1, fitness.BLOCK_BYTES // (8 * n_train))
    skipped = sum(not _gated(evaluator, m) for m in masks)
    return [(min(chunk, gated - lo), n_train) for lo in range(0, gated, chunk)] + \
        [(skipped * r, n_train) for r in sizes if skipped]


def _zero_seeded_distances(evaluator, mask):
    """Reference: zeros plus each squared-difference plane, in feature order."""
    test_x, train_x = evaluator.test_x, evaluator.train_x
    want = np.zeros((len(test_x), len(train_x)))
    for f in np.flatnonzero(mask):
        want = want + (test_x[:, f, None] - train_x[None, :, f]) ** 2
    return want


def _force_float_path(monkeypatch):
    monkeypatch.setattr(fitness, "_is_binary", lambda *rows: False)


def _plane_rows(evaluator):
    """Test rows of each plane that the float screen runs per mask."""
    n_test, n_train = len(evaluator.test_y), len(evaluator.train_y)
    rows = max(1, min(n_test, fitness.BLOCK_BYTES // (8 * n_train)))
    return [min(rows, n_test - lo) for lo in range(0, n_test, rows)]


def _force_recheck(monkeypatch):
    """Flag every (mask, test row) pair, so all go through the exact recheck."""
    monkeypatch.setattr(fitness, "_screen_tolerance", lambda *args: np.inf)


@pytest.mark.parametrize("kind", sorted(KERNEL_DATASETS))
def test_row_blocks_are_bit_identical(kind, monkeypatch):
    # the float path is the oracle of the bit path, so binary data is held on
    # it, and its exact recheck takes every pair
    _force_float_path(monkeypatch)
    _force_recheck(monkeypatch)
    dataset = KERNEL_DATASETS[kind]()
    masks = _random_masks(dataset.n_features, 40, seed=11)
    distinct = list({m.tobytes(): m for m in masks}.values())
    reference, _ = make_evaluator(dataset, seed=4)
    want = [_zero_seeded_distances(reference, m) for m in distinct]
    results = [reference.error_and_fitness(m) for m in masks]  # one mask per batch
    for mask, result in zip(masks, results):
        assert result[0] == error_rate(reference.train_x, reference.train_y, reference.test_x,
                                       reference.test_y, reference.params.k_neighbors, mask)
    real_accumulate = fitness._accumulate
    for config in BLOCK_ROWS:
        evaluator, _ = make_evaluator(dataset, seed=4)
        seen = []

        def spy(accs, *args):  # one block's exact sums, copied before top-k consumes them
            real_accumulate(accs, *args)
            seen.append(np.array(accs))

        with monkeypatch.context() as m:
            sizes = _set_block_rows(m, evaluator, len(distinct), config)
            m.setattr(fitness, "_accumulate", spy)
            assert evaluator.evaluate_all(masks) == [fit for _, fit in results]
        n_train = len(evaluator.train_y)
        assert [acc.shape for acc in seen] == [(len(distinct), r, n_train) for r in sizes]
        # (mask, row) pairs of each block, reassembled into one matrix per mask
        got = np.concatenate(seen, axis=1)
        for g, ref in zip(got, want):
            assert np.array_equal(g, ref)
        assert [evaluator.error_and_fitness(m) for m in masks] == results


@pytest.mark.parametrize("config", sorted(BLOCK_ROWS))
@pytest.mark.parametrize("kind", sorted(KERNEL_DATASETS))
def test_evaluate_all_matches_per_mask_evaluation(kind, config, monkeypatch):
    dataset = KERNEL_DATASETS[kind]()
    masks = _random_masks(dataset.n_features, 30, seed=12)
    reference, _ = make_evaluator(dataset, seed=4)
    want = [reference.error_and_fitness(m) for m in masks]
    evaluator, _ = make_evaluator(dataset, seed=4)
    for mask in masks[::4]:  # cached before the batch arrives
        evaluator(mask)
    uncached = {m.tobytes() for m in masks} - {m.tobytes() for m in masks[::4]}
    _set_block_rows(monkeypatch, evaluator, len(uncached), config)
    # duplicates inside the batch, as copies and as the same object
    batch = masks + [m.copy() for m in masks[::3]] + masks[:5]
    got = evaluator.evaluate_all(batch)
    assert got == [fit for _, fit in want] + [want[i][1] for i in range(0, 30, 3)] + \
        [fit for _, fit in want[:5]]
    assert [evaluator.error_and_fitness(m) for m in masks] == want
    assert len(evaluator._cache) == len({m.tobytes() for m in masks})


@pytest.mark.parametrize("config", sorted(BLOCK_ROWS))
def test_bit_path_matches_float_path(config, monkeypatch):
    dataset = KERNEL_DATASETS["binary"]()
    masks = _random_masks(dataset.n_features, 30, seed=12)
    batch = masks + [m.copy() for m in masks[::3]] + masks[:5]
    cached = {m.tobytes() for m in masks[::4]}
    uncached = {m.tobytes(): m for m in masks if m.tobytes() not in cached}
    outputs = {}
    for path in ("float", "bit"):
        with monkeypatch.context() as mp:
            if path == "float":
                _force_float_path(mp)
            evaluator, _ = make_evaluator(dataset, seed=4)
            assert (evaluator._key_dtype is None) == (path == "float")
            for mask in masks[::4]:  # cached before the batch arrives
                evaluator(mask)
            sizes = _set_block_rows(mp, evaluator, len(uncached), config)
            blocks = []  # the shape of each block that the screen or the keys rank

            def spy(real):
                def top_k(d, *args):
                    blocks.append(d.shape)
                    return real(d, *args)
                return top_k

            for name in ("_nearest_and_gap", "_nearest_keys"):
                mp.setattr(fitness, name, spy(getattr(fitness, name)))
            got = evaluator.evaluate_all(batch)
            if path == "float":  # each mask's planes in turn
                assert blocks == [(r, len(evaluator.train_y))
                                  for _ in uncached for r in _plane_rows(evaluator)]
            else:  # only the keyed pairs: the gated ones, then each skipped block
                assert blocks == _key_blocks(evaluator, list(uncached.values()), sizes)
                # cells resolve some pairs, on both sides of the gate
                gated = [_gated(evaluator, m) for m in uncached.values()]
                assert any(gated) and not all(gated)
                assert sum(n for n, _ in blocks) < len(uncached) * len(evaluator.test_y)
        outputs[path] = got, [evaluator.error_and_fitness(m) for m in masks]
    assert outputs["bit"] == outputs["float"]


# binary kernel datasets: one packed word per row, and two (73 features)
BIT_DATASETS = {
    "binary": KERNEL_DATASETS["binary"],
    "binary_wide": lambda: generate_m_of_n(3, 2, 70, 120, RngStream(3)),
}


@pytest.mark.parametrize("kind", sorted(BIT_DATASETS))
def test_bit_keys_decode_to_float_distances(kind, monkeypatch):
    dataset = BIT_DATASETS[kind]()
    masks = list({m.tobytes(): m for m in _random_masks(dataset.n_features, 40, seed=11)}
                 .values())
    evaluator, _ = make_evaluator(dataset, seed=4)
    assert evaluator._key_dtype == np.uint16
    n_test, n_train = len(evaluator.test_y), len(evaluator.train_y)
    k = evaluator.params.k_neighbors
    shift = (n_train - 1).bit_length()
    gated = [i for i, mask in enumerate(masks) if _gated(evaluator, mask)]
    assert gated and len(gated) < len(masks)  # both passes run
    mask_of = {fitness._pack(m[None])[0].tobytes(): i for i, m in enumerate(masks)}
    # (mask, test row) of each distance row not yet ranked, oldest first
    pending, keyed, codes, found = [], [], [], []
    skipped_rows = 0  # test rows that the skipped pass has keyed
    real_cells, real_keys, real_nearest = fitness._cells, fitness._bit_keys, fitness._nearest_keys
    real_neighbors = FitnessEvaluator._bit_neighbors

    def spy_cells(test_codes, train_codes, k):  # the gated pass: codes and keyed pairs
        codes.append((test_codes.copy(), train_codes.copy()))
        owners, rows, inverse, neighbors, full = real_cells(test_codes, train_codes, k)
        pending.extend((gated[o], r) for o, r in zip(owners[~full], rows[~full]))
        return owners, rows, inverse, neighbors, full

    def spy_keys(distances, xor, mask_words):  # the skipped pass: one block of rows
        nonlocal skipped_rows
        real_keys(distances, xor, mask_words)
        lo, skipped_rows = skipped_rows, skipped_rows + xor.shape[1]
        pending.extend((mask_of[words.tobytes()], row) for words in mask_words
                       for row in range(lo, skipped_rows))

    def spy_nearest(distances, k, shift):  # ranks the oldest pending rows
        before = distances.copy()
        cols = real_nearest(distances, k, shift)
        keyed.extend(zip(pending[:len(before)], before, distances.copy(), cols))
        del pending[:len(before)]
        return cols

    def spy_neighbors(self, matrix):
        found.append(real_neighbors(self, matrix))
        return found[-1]

    monkeypatch.setattr(fitness, "_cells", spy_cells)
    monkeypatch.setattr(fitness, "_bit_keys", spy_keys)
    monkeypatch.setattr(fitness, "_nearest_keys", spy_nearest)
    monkeypatch.setattr(FitnessEvaluator, "_bit_neighbors", spy_neighbors)
    # blocks of 7 test rows of 2-byte keys; chunks of 7 * len(masks) / 4
    # gated pairs of 8-byte codes
    monkeypatch.setattr(fitness, "BLOCK_BYTES", 2 * n_train * len(masks) * 7)
    evaluator.evaluate_all(masks)
    want = [_zero_seeded_distances(evaluator, mask) for mask in masks]
    # a gated mask's code distance, popcount(test code ^ train code), is the
    # distance for every (test row, train row)
    (test_codes, train_codes), = codes
    distances = np.bitwise_count(test_codes[:, :, None] ^ train_codes[:, None, :])
    for i, got in zip(gated, distances):
        assert np.array_equal(got, want[i])
    # the keyed pairs are the reference's, each ranked once, and each ranked
    # the keys distance << shift | train index, but for its k - 1 first
    # neighbors, which were taken
    assert skipped_rows == n_test and not pending
    assert sorted(pair for pair, *_ in keyed) == sorted(_keyed_rows(evaluator, masks))
    top = np.iinfo(evaluator._key_dtype).max
    for (i, row), before, keys, cols in keyed:
        assert np.array_equal(before, want[i][row])
        free = np.ones(n_train, dtype=bool)
        free[cols[:-1]] = False
        assert np.all(keys[~free] == top)
        assert np.array_equal(keys[free] >> shift, want[i][row][free])
        assert np.array_equal(keys[free] & ((1 << shift) - 1), np.flatnonzero(free))
    # every pair's neighbors, keyed or taken from its cell, are the float path's
    neighbors, = found
    assert neighbors.shape == (len(masks), n_test, k)
    for mask, got, distances in zip(masks, neighbors, want):
        assert np.array_equal(got, fitness._nearest_indices(distances.copy(), k))
    # a pair that no key row stands for was resolved by its cell: k train rows
    # at distance 0
    stood_for = {(i, _projections(evaluator.test_x, masks[i])[row]) for (i, row), *_ in keyed}
    celled = [(i, row) for i, mask in enumerate(masks)
              for row, code in enumerate(_projections(evaluator.test_x, mask))
              if (i, code) not in stood_for]
    assert celled
    for i, row in celled:
        assert not want[i][row, neighbors[i, row]].any()


def test_gate_takes_masks_of_1024_features_or_more():
    # 2**s overflows float64 from s = 1024; the gate computes no power of two
    dataset = generate_m_of_n(3, 2, 1030, 60, RngStream(3))
    evaluator, _ = make_evaluator(dataset, seed=4)
    assert evaluator._key_dtype is not None
    d = dataset.n_features
    gated = np.zeros(d, dtype=np.uint8)
    gated[:2] = 1
    masks = [np.ones(d, dtype=np.uint8), gated, *_random_masks(d, 2, seed=5)]
    assert _gated(evaluator, gated) and not _gated(evaluator, masks[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluator.evaluate_all(masks)
    for mask in masks:
        assert evaluator.error_and_fitness(mask)[0] == error_rate(
            evaluator.train_x, evaluator.train_y, evaluator.test_x, evaluator.test_y,
            evaluator.params.k_neighbors, mask)


@st.composite
def cell_splits(draw):
    """A 0/1 split with repeated rows, k, and masks on both sides of the gate.

    The train rows copy a few patterns c - 1, c or c + 1 times each, beside
    rows drawn at random, and k is c or any count up to n_train, so under
    the all-ones mask cells of k - 1, k and k + 1 rows occur. The test rows
    copy the same patterns. The masks hold the 1-feature and the all-ones
    mask, the widest mask the gate takes and the narrowest it skips, where
    the features allow, and random ones.
    """
    d = draw(st.sampled_from([13, 73]))  # one and two packed words
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = g.integers(0, 2, size=(draw(st.integers(1, 5)), d))
    c = draw(st.integers(1, 6))
    copies = draw(st.lists(st.sampled_from([c - 1, c, c + 1]), min_size=len(patterns),
                           max_size=len(patterns)))
    train = np.concatenate([np.repeat(patterns, copies, axis=0),
                            g.integers(0, 2, size=(draw(st.integers(0, 12)), d))])
    if len(train) < 2:
        train = np.concatenate([train, g.integers(0, 2, size=(2, d))])
    test = np.concatenate([patterns[g.integers(0, len(patterns), size=draw(st.integers(1, 12)))],
                           g.integers(0, 2, size=(draw(st.integers(0, 4)), d))])
    k = draw(st.one_of(st.just(min(c, len(train))), st.integers(1, len(train))))
    labels = g.integers(0, 3, size=len(train) + len(test))
    labels[:2] = [0, 1]  # two classes at least
    dataset = Dataset("cells", np.concatenate([train, test]).astype(np.float64),
                      labels.astype(np.int64))
    split = Split(np.arange(len(train)), np.arange(len(train), len(train) + len(test)))
    widest = next((s for s in range(d, 0, -1) if max(k - 1, 1) * 2**s < len(train)), 0)
    sizes = [1, d, *(s for s in (widest, widest + 1) if 1 <= s <= d),
             *draw(st.lists(st.integers(1, d), max_size=6))]
    masks = []
    for size in sizes:
        mask = np.zeros(d, dtype=np.uint8)
        mask[g.choice(d, size=size, replace=False)] = 1
        masks.append(mask)
    return dataset, split, k, masks


@settings(deadline=None)
@given(case=cell_splits(), default_blocks=st.booleans())
def test_bit_path_cells_and_keys_match_the_oracles(case, default_blocks):
    dataset, split, k, masks = case
    params = FitnessParams(k_neighbors=k)
    outputs = {}
    with pytest.MonkeyPatch.context() as mp:
        if not default_blocks:
            mp.setattr(fitness, "BLOCK_BYTES", 0)
        for path in ("bit", "float"):
            if path == "float":
                _force_float_path(mp)
            evaluator = FitnessEvaluator(dataset, split, params)
            assert (evaluator._key_dtype is None) == (path == "float")
            evaluator.evaluate_all(masks)
            outputs[path] = [evaluator.error_and_fitness(m) for m in masks]
    assert outputs["bit"] == outputs["float"]
    for mask, (err, _) in zip(masks, outputs["bit"]):
        assert err == error_rate(evaluator.train_x, evaluator.train_y, evaluator.test_x,
                                 evaluator.test_y, k, mask)


# train rows, test rows, and whether the normalized split is all 0.0 and 1.0
PREDICATE_CASES = {
    # a two-valued column, and a column constant on the train rows, which
    # normalizes to 0.0 on every row, whatever the test rows hold
    "constant_train_column": ([[3, 5], [7, 5], [3, 5], [7, 5], [3, 5], [7, 5]],
                              [[7, 9], [3, 1], [7, 5]], True),
    # a test value beyond the train range normalizes to 2.0
    "test_value_outside": ([[3, 0], [7, 1], [3, 1], [7, 0], [3, 1], [7, 0]],
                           [[11, 0], [3, 1], [7, 0]], False),
    # a train column of 0, 0.5 and 1
    "half_column": ([[0, 0], [0.5, 1], [1, 1], [0, 0], [0.5, 1], [1, 0]],
                    [[0, 1], [1, 0], [0.5, 1]], False),
}


@pytest.mark.parametrize("case", sorted(PREDICATE_CASES))
def test_bit_path_predicate(case):
    train, test, binary = PREDICATE_CASES[case]
    features = np.array(train + test, dtype=np.float64)
    dataset = Dataset(case, features, np.arange(len(features), dtype=np.int64) % 2)
    split = Split(np.arange(len(train)), np.arange(len(train), len(features)))
    evaluator = FitnessEvaluator(dataset, split, FitnessParams(k_neighbors=3))
    assert fitness._is_binary(evaluator.train_x, evaluator.test_x) is binary
    assert (evaluator._key_dtype is not None) is binary
    for mask in (new_mask([1, 0]), new_mask([0, 1]), new_mask([1, 1])):
        assert evaluator.error_and_fitness(mask)[0] == brute_error_rate(
            evaluator.train_x, evaluator.train_y, evaluator.test_x, evaluator.test_y, 3, mask)


@pytest.mark.parametrize("config", sorted(BLOCK_ROWS))
def test_evaluate_all_rejects_zero_mask(small_m_of_n, config, monkeypatch):
    evaluator, _ = make_evaluator(small_m_of_n, seed=4)
    _set_block_rows(monkeypatch, evaluator, 1, config)
    zero = np.zeros(small_m_of_n.n_features, dtype=np.uint8)
    ok = new_mask([1, 0, 1, 1])
    with pytest.raises(ValueError, match="all-zero mask"):
        evaluator.evaluate_all([ok, zero])
    with pytest.raises(ValueError, match="all-zero mask"):
        evaluator.evaluate_all([zero])
    # the failed batch leaves nothing pending: a later call scores normally
    assert evaluator.evaluate_all([ok]) == [evaluator(ok)]


@pytest.mark.parametrize("config", sorted(BLOCK_ROWS))
def test_each_block_squares_each_selected_feature_once(config, monkeypatch):
    # the exact recheck squares the planes; here it takes every pair
    _force_recheck(monkeypatch)
    dataset = KERNEL_DATASETS["continuous"]()
    d = dataset.n_features
    evaluator, _ = make_evaluator(dataset, seed=4)
    cached = np.zeros(d, dtype=np.uint8)
    cached[d - 1] = 1
    evaluator(cached)
    # the uncached masks leave the last three features unselected
    masks = [np.concatenate([m, np.zeros(3, dtype=np.uint8)])
             for m in _random_masks(d - 3, 12, seed=13)]
    uncached = list({m.tobytes(): m for m in masks}.values())
    selected = np.flatnonzero(np.any(uncached, axis=0))
    assert selected.size < d
    sizes = _set_block_rows(monkeypatch, evaluator, len(uncached), config)
    calls = []
    real_square_diff = fitness._square_diff

    def spy(test, train, out):
        calls.append(test.shape)
        return real_square_diff(test, train, out)

    monkeypatch.setattr(fitness, "_square_diff", spy)
    evaluator.evaluate_all([cached, *masks, cached])
    assert len(calls) == len(sizes) * selected.size
    assert calls == [(r,) for r in sizes for _ in selected]
    calls.clear()
    evaluator.evaluate_all(masks + [cached])  # every mask already cached
    assert calls == []


def _tie_heavy_dataset():
    """Five-level real values with every row present four times.

    The levels are 0.3 + 0.1 * {0..4}, which normalize to values that are no
    multiples of a power of two, so the screen rounds where the exact sums
    round differently. Labels are drawn per row, so copies of one row can
    disagree, and the distance tie rule decides the vote.
    """
    g = np.random.default_rng(2025)
    levels = g.integers(0, 5, size=(30, 9))
    labels = g.integers(0, 3, size=120)
    return Dataset("tie_heavy", np.repeat(0.3 + 0.1 * levels, 4, axis=0),
                   labels.astype(np.int64))


SCREEN_DATASETS = {**KERNEL_DATASETS, "tie_heavy": _tie_heavy_dataset}


@pytest.mark.parametrize("kind", sorted(SCREEN_DATASETS))
def test_screen_is_within_tolerance_of_exact_distances(kind, monkeypatch):
    _force_float_path(monkeypatch)
    dataset = SCREEN_DATASETS[kind]()
    d = dataset.n_features
    masks = [np.ones(d, dtype=np.uint8), *_random_masks(d, 30, seed=14)]
    masks = list({m.tobytes(): m for m in masks}.values())
    # split seed 5 puts continuous test values on both sides of [0, 1]
    evaluator, _ = make_evaluator(dataset, seed=5)
    if kind == "continuous":  # test values beyond the train range
        assert evaluator.test_x.min() < 0.0 and evaluator.test_x.max() > 1.0
    n_test, n_train = len(evaluator.test_y), len(evaluator.train_y)
    seen = []
    real_nearest = fitness._nearest_and_gap

    def spy(screened, k):  # one plane's b - 2Q, copied before top-k consumes it
        seen.append(screened.copy())
        return real_nearest(screened, k)

    monkeypatch.setattr(fitness, "_nearest_and_gap", spy)
    # planes of 7 test rows, each mask's in turn
    monkeypatch.setattr(fitness, "BLOCK_BYTES", 8 * n_train * 7)
    evaluator.evaluate_all(masks)
    rows = [min(7, n_test - lo) for lo in range(0, n_test, 7)]
    assert len(rows) > 1
    assert [plane.shape for plane in seen] == [(r, n_train) for _ in masks for r in rows]
    screened = np.concatenate(seen).reshape(len(masks), n_test, n_train)
    for mask, got in zip(masks, screened):
        cols = np.flatnonzero(mask)
        a = np.sum(evaluator.test_x[:, cols] ** 2, axis=1)
        b = np.sum(evaluator.train_x[:, cols] ** 2, axis=1)
        eps = fitness._screen_tolerance(cols.size, a[:, None], b.max())
        error = np.abs(a[:, None] + got - _zero_seeded_distances(evaluator, mask))
        assert np.all(error <= eps)


def test_screen_contracts_over_each_masks_selected_columns(monkeypatch):
    dataset = KERNEL_DATASETS["continuous"]()
    d = dataset.n_features
    lone = np.zeros(d, dtype=np.uint8)
    lone[4] = 1
    masks = list({m.tobytes(): m for m in _random_masks(d, 12, seed=18)}.values())
    evaluator, _ = make_evaluator(dataset, seed=4)
    n_test, n_train = len(evaluator.test_y), len(evaluator.train_y)
    # (left, right) shapes of each np.matmul call: the batch's sums of
    # squares a and b, then the screen's GEMMs
    products = []
    real_matmul = np.matmul

    def spy(x, y, *args, **kwargs):
        products.append((x.shape, y.shape))
        return real_matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    evaluator.evaluate_all([lone])
    sums = [((1, d), (d, n_test)), ((1, d), (d, n_train))]
    assert products == [*sums, ((n_test, 1), (1, n_train))]
    products.clear()
    evaluator.evaluate_all(masks)
    # one GEMM per mask, over its selected columns
    sums = [((len(masks), d), (d, n_test)), ((len(masks), d), (d, n_train))]
    assert products == [*sums, *(((n_test, m.sum()), (m.sum(), n_train)) for m in masks)]


@pytest.mark.parametrize("config", sorted(BLOCK_ROWS))
def test_screen_tolerance_keeps_tie_heavy_outputs(config, monkeypatch):
    dataset = _tie_heavy_dataset()
    masks = _random_masks(dataset.n_features, 60, seed=15)
    distinct = {m.tobytes() for m in masks}
    outputs = {}
    for tolerance in ("default", "inf"):
        with monkeypatch.context() as mp:
            if tolerance == "inf":
                _force_recheck(mp)
            evaluator, _ = make_evaluator(dataset, seed=4)
            assert evaluator._key_dtype is None
            _set_block_rows(mp, evaluator, len(distinct), config)
            outputs[tolerance] = (evaluator.evaluate_all(masks),
                                  [evaluator.error_and_fitness(m) for m in masks])
    assert outputs["default"] == outputs["inf"]
    for mask, (err, _) in zip(masks, outputs["default"][1]):
        assert err == error_rate(evaluator.train_x, evaluator.train_y, evaluator.test_x,
                                 evaluator.test_y, evaluator.params.k_neighbors, mask)


@pytest.mark.parametrize("kind", ["continuous", "tie_heavy"])
def test_recheck_takes_every_tied_pair_and_no_settled_one(kind, monkeypatch):
    dataset = SCREEN_DATASETS[kind]()
    masks = list({m.tobytes(): m for m in _random_masks(dataset.n_features, 40, seed=16)}
                 .values())
    evaluator, _ = make_evaluator(dataset, seed=4)
    k = evaluator.params.k_neighbors
    seen = []
    real_recheck = fitness._recheck

    def spy(neighbors, flagged, *args):  # one block's (mask, row) gap test
        seen.append(flagged.copy())
        return real_recheck(neighbors, flagged, *args)

    monkeypatch.setattr(fitness, "_recheck", spy)
    monkeypatch.setattr(fitness, "BLOCK_BYTES", 0)  # one test row per block
    evaluator.evaluate_all(masks)
    flagged = np.concatenate(seen, axis=1)
    assert flagged.shape == (len(masks), len(evaluator.test_y))
    # a pair is tied when its k-th and (k+1)-th exact distances are equal
    tied = np.array([[row[k - 1] == row[k] for row in np.sort(
        _zero_seeded_distances(evaluator, mask), axis=1)] for mask in masks])
    if kind == "continuous":
        assert not tied.any() and not flagged.any()
    else:
        assert tied.sum() > len(masks)
        assert np.all(flagged[tied])


@pytest.mark.parametrize("kind", ["continuous", "tie_heavy"])
def test_blas_thread_count_cannot_change_outputs(kind):
    default = blas.threads()
    if default is None:
        pytest.skip("numpy's bundled OpenBLAS or its thread setter was not found")
    dataset = SCREEN_DATASETS[kind]()
    masks = _random_masks(dataset.n_features, 40, seed=17)
    outputs = {}
    try:
        for count in (1, default):
            blas.set_threads(count)
            evaluator, _ = make_evaluator(dataset, seed=4)
            outputs[count] = (evaluator.evaluate_all(masks),
                              [evaluator.error_and_fitness(m) for m in masks])
    finally:
        blas.set_threads(default)
    assert outputs[1] == outputs[default]


def _integer_levels_dataset(rows, features, low, high, seed):
    """rows x features values at the integer levels low..high, with labels
    drawn per row, so exact distances tie often.

    Levels 1-10 normalize to multiples of 1/9, which no power of two
    divides, so the screen's sums round too; levels 0-4 and 0-2 normalize
    to multiples of 1/4 and 1/2, whose sums are exact."""
    g = np.random.default_rng(seed)
    return Dataset("levels", g.integers(low, high + 1, size=(rows, features)).astype(np.float64),
                   g.integers(0, 2, size=rows).astype(np.int64))


GOLDEN_REAL_CSV = Path(__file__).parent / "data" / "real_small.csv"
ROUNDING_SPLITS = {
    "levels": lambda: make_evaluator(_integer_levels_dataset(699, 9, 1, 10, 2026), seed=8)[0],
    "levels_400x40": lambda: make_evaluator(_integer_levels_dataset(400, 40, 0, 4, 2027),
                                            seed=8)[0],
    "levels_300x60": lambda: make_evaluator(_integer_levels_dataset(300, 60, 0, 2, 2028),
                                            seed=8)[0],
    # the golden `real` case's split: run 0 draws it from the CLI seed
    "golden_real": lambda: make_evaluator(load_csv(GOLDEN_REAL_CSV), seed=5)[0],
}


def _returned(result, out):
    """What np.matmul returns: result, or out holding it when out is given."""
    if out is None:
        return result
    out[...] = result
    return out


def _reversed_matmul(x, y, out=None):
    """x @ y with each element's products summed in reverse contraction order."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    result = np.zeros((x.shape[0], y.shape[1]))
    for j in reversed(range(x.shape[1])):
        result += np.multiply.outer(x[:, j], y[j])
    return _returned(result, out)


def _blocked_matmul(x, y, out=None, tile=4):
    """x @ y with each tile of `tile` contraction terms summed on its own, in
    order, and the tile sums then added in order."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    result = np.zeros((x.shape[0], y.shape[1]))
    for lo in range(0, x.shape[1], tile):
        part = np.zeros_like(result)
        for j in range(lo, min(lo + tile, x.shape[1])):
            part += np.multiply.outer(x[:, j], y[j])
        result += part
    return _returned(result, out)


def _rounding_bound(real_matmul, x, y):
    """2 * m * 2**-53 * (|x| @ |y|) per element of x @ y.

    m is the element's count of nonzero products. Any summation order, with
    or without FMA, is within gamma_m * (|x| @ |y|) of the true sum, gamma_m
    = m * 2**-53 / (1 - m * 2**-53) (Higham 2002, section 3.1), so this is
    a BLAS's worst case, doubled.
    """
    m = real_matmul((x != 0).astype(np.float64), (y != 0).astype(np.float64))
    return 2.0 * m * 2.0 ** -53 * real_matmul(np.abs(x), np.abs(y))


def _perturbed_matmul(real_matmul, signs):
    """x @ y, each element moved by `_rounding_bound` with signs(shape)."""
    def matmul(x, y, out=None):
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        bound = _rounding_bound(real_matmul, x, y)
        return _returned(real_matmul(x, y) + signs(bound.shape) * bound, out)

    return matmul


def _gap_shrinking_matmul(real_matmul, k):
    """x @ y, each screen product moved by `_rounding_bound` with the signs
    that shrink its row's apparent gap.

    The screen is the one product made with out=, of the mask's test rows
    times -2 against its train rows y; the product plus b, each train row's
    sum of squares y**2 over the mask, is the unperturbed screen. It moves
    up by the bound on the columns that this screen ranks among the row's k
    nearest and down by it on every other column, so the (k+1)-th value
    draws toward the k-th. The sums of squares a and b are left exact.
    """
    def matmul(x, y, out=None):
        if out is None:
            return real_matmul(x, y)
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        product, bound = real_matmul(x, y), _rounding_bound(real_matmul, x, y)
        screen = product + np.square(y).sum(axis=0)
        near = np.zeros(screen.shape, dtype=bool)
        np.put_along_axis(near, np.argsort(screen, axis=1, kind="stable")[:, :k], True, axis=1)
        return _returned(product + np.where(near, bound, -bound), out)

    return matmul


def _rounding_wrappers(real_matmul, k):
    g = np.random.default_rng(19)
    return {
        "reversed": _reversed_matmul,
        "blocked": _blocked_matmul,
        "up": _perturbed_matmul(real_matmul, np.ones),
        "down": _perturbed_matmul(real_matmul, lambda shape: -np.ones(shape)),
        "random": _perturbed_matmul(real_matmul,
                                    lambda shape: g.choice([-1.0, 1.0], size=shape)),
        "shrink": _gap_shrinking_matmul(real_matmul, k),
    }


@pytest.mark.parametrize("wrapper", ["reversed", "blocked", "up", "down", "random", "shrink"])
@pytest.mark.parametrize("split", sorted(ROUNDING_SPLITS))
def test_screen_outputs_do_not_depend_on_how_the_blas_sums(split, wrapper, monkeypatch):
    # every product the float path makes goes through np.matmul: its sums of
    # squares and its screen. Whatever order or rounding a conforming BLAS
    # uses, the gap test must send every pair it could misorder to the
    # exact recheck.
    evaluator = ROUNDING_SPLITS[split]()
    assert evaluator._key_dtype is None
    masks = _random_masks(evaluator.n_features, 80, seed=20)
    want = (evaluator.evaluate_all(masks), [evaluator.error_and_fitness(m) for m in masks])
    monkeypatch.setattr(np, "matmul",
                        _rounding_wrappers(np.matmul, evaluator.params.k_neighbors)[wrapper])
    evaluator = ROUNDING_SPLITS[split]()
    assert (evaluator.evaluate_all(masks),
            [evaluator.error_and_fitness(m) for m in masks]) == want


def test_kernel_runs_inside_the_first_missing_call(small_m_of_n, monkeypatch):
    """Wrapping __call__ sees one call per mask and all of the kernel's work."""
    evaluator, _ = make_evaluator(small_m_of_n, seed=2)
    calls, inside, scored = [], [], []
    call, score = FitnessEvaluator.__call__, FitnessEvaluator._score

    def counted_call(self, mask):
        calls.append(mask)
        inside.append(True)
        try:
            return call(self, mask)
        finally:
            inside.pop()

    def watched_score(self, masks):
        scored.append(bool(inside))
        return score(self, masks)

    monkeypatch.setattr(FitnessEvaluator, "__call__", counted_call)
    monkeypatch.setattr(FitnessEvaluator, "_score", watched_score)
    masks = _random_masks(small_m_of_n.n_features, 12, seed=3)
    evaluator.evaluate_all(masks)
    evaluator.evaluate_all(masks[:6] + _random_masks(small_m_of_n.n_features, 6, seed=4))
    assert len(calls) == 24
    assert scored == [True, True]


def _retained_numpy_bytes(action):
    """Run action(); return its result and the numpy data bytes it left allocated."""
    domain = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(domain)
        result = action()
        after = tracemalloc.take_snapshot().filter_traces(domain)
    finally:
        tracemalloc.stop()
    return result, sum(s.size_diff for s in after.compare_to(before, "filename"))


def _constant_feature_dataset():
    """The continuous dataset with feature 3 at one value on every row."""
    dataset = _continuous_dataset()
    dataset.features[:, 3] = 2.5
    return dataset


NORMALIZE_DATASETS = {**KERNEL_DATASETS, "constant_feature": _constant_feature_dataset}


@pytest.mark.parametrize("kind", sorted(NORMALIZE_DATASETS))
def test_evaluator_holds_normalized_rows_feature_major(kind):
    dataset = NORMALIZE_DATASETS[kind]()
    params = FitnessParams()
    split = stratified_split(dataset, params.train_fraction, RngStream(6))
    evaluator, retained = _retained_numpy_bytes(
        lambda: FitnessEvaluator(dataset, split, params))
    _assert_scaled_like_the_oracle(evaluator, dataset.features[split.train_indices],
                                   dataset.features[split.test_indices])
    if kind == "continuous":  # split seed 6 puts test values beyond the train range
        assert evaluator.test_x.min() < 0.0 and evaluator.test_x.max() > 1.0
    # feature-major: each feature's values are one contiguous row
    assert evaluator.train_x.T.flags.c_contiguous
    assert evaluator.test_x.T.flags.c_contiguous
    # the normalized rows and the labels are all it keeps, with the bit
    # path's rows packed once into 8-byte words of 64 features: no distance
    # buffers, whether fresh or after scoring a batch
    held = sum(a.nbytes for a in (evaluator.train_x, evaluator.test_x,
                                  evaluator.train_y, evaluator.test_y))
    if kind == "binary":
        words = -(-dataset.n_features // 64)
        held += 8 * words * len(dataset.labels)
        assert evaluator._test_words.shape == (words, len(evaluator.test_y))
        assert evaluator._train_words.shape == (words, len(evaluator.train_y))
    else:
        assert evaluator._test_words is None and evaluator._train_words is None
    assert retained == held
    masks = _random_masks(dataset.n_features, 20, seed=7)
    _, retained = _retained_numpy_bytes(lambda: evaluator.evaluate_all(masks))
    assert len(evaluator._cache) == len({m.tobytes() for m in masks})
    assert retained == 0


def test_building_an_evaluator_peaks_below_1_75_times_the_rows_it_keeps():
    # large's shape, 600 x 500 real values: each side of the split is one
    # gather and one feature-major copy, then scaled in place
    g = np.random.default_rng(28)
    dataset = Dataset("wide", g.standard_normal((600, 500)), np.arange(600) % 2)
    params = FitnessParams()
    split = stratified_split(dataset, params.train_fraction, RngStream(1))
    tracemalloc.start()
    try:
        evaluator = FitnessEvaluator(dataset, split, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = evaluator.train_x.nbytes + evaluator.test_x.nbytes
    assert kept == 8 * 600 * 500
    assert peak <= 1.75 * kept
