"""Independent brute-force oracles the implementation is checked against.

Everything here but the one-mask reference and `new_mask` at the end is
deliberately written the slow, obvious way (plain Python loops, no shared
helpers from the package) so a bug in the implementation cannot hide in its
oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from fsro import fitness


def brute_knn_classify(train_x, train_y, query, k, mask):
    """All-pairs KNN: squared distances over selected features, neighbors by
    (distance, train index), vote ties to the smallest class label."""
    selected = [i for i, m in enumerate(mask) if m]
    dists = []
    for idx, row in enumerate(train_x):
        d = 0.0
        for f in selected:
            d += (float(query[f]) - float(row[f])) ** 2
        dists.append((d, idx))
    dists.sort()
    votes: dict[int, int] = {}
    for d, idx in dists[:k]:
        lab = int(train_y[idx])
        votes[lab] = votes.get(lab, 0) + 1
    top = max(votes.values())
    return min(lab for lab, c in votes.items() if c == top)


def brute_error_rate(train_x, train_y, test_x, test_y, k, mask):
    wrong = 0
    for query, truth in zip(test_x, test_y):
        if brute_knn_classify(train_x, train_y, query, k, mask) != int(truth):
            wrong += 1
    return wrong / len(test_y)


def wilcoxon_enum_p(sample_a, sample_b):
    """Exact two-sided signed-rank p-value by enumerating every sign pattern."""
    diffs = [a - b for a, b in zip(sample_a, sample_b) if a != b]
    if not diffs:
        return 1.0
    m = len(diffs)
    # average ranks of |d| with ties
    pairs = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0.0] * m
    i = 0
    while i < m:
        j = i
        while j < m and pairs[j][0] == pairs[i][0]:
            j += 1
        avg = (i + 1 + j) / 2.0
        for t in range(i, j):
            ranks[pairs[t][1]] = avg
        i = j
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    observed = min(w_plus, w_minus)
    total = sum(ranks)
    hits = 0
    for signs in itertools.product((0, 1), repeat=m):
        wp = sum(r for r, s in zip(ranks, signs) if s)
        if min(wp, total - wp) <= observed:
            hits += 1
    return hits / 2 ** m


def exhaustive_best_fitness(evaluate, n_features):
    """Minimum fitness over every non-empty mask, checked one by one."""
    best = math.inf
    best_mask = None
    for bits in itertools.product((0, 1), repeat=n_features):
        if not any(bits):
            continue
        fit = evaluate(np.asarray(bits, dtype=np.uint8))
        if fit < best:
            best = fit
            best_mask = bits
    return best, best_mask


# --- per-draw optimizer steps ---------------------------------------------
# The scalar forms the block draws replaced: one RngStream call per draw, in
# the documented order, with the zero-mask repair written out each time.

def scalar_random_mask(dim, rng):
    """One bit() per position, then one index(dim) draw if all came out 0."""
    bits = np.empty(dim, dtype=np.uint8)
    for d in range(dim):
        bits[d] = rng.bit()
    if not bits.any():
        bits[rng.index(dim)] = 1
    return bits


def scalar_uniform_crossover(a, b, rng):
    """(child, mask, changed): one uniform() per position, b's bit below 0.5."""
    mask = np.empty(a.size, dtype=bool)
    for i in range(a.size):
        mask[i] = rng.uniform() < 0.5
    child = np.where(mask, b, a).astype(np.uint8)
    return child, mask, child != a


def scalar_bpso_step(positions, velocities, pbest, pbest_fit, gbest, gbest_fit,
                     params, evaluate, rng):
    """A BPSO sweep one Python float at a time, updating the lists in place."""
    w, c1, c2 = params.inertia_weight, params.cognitive_factor, params.social_factor
    clamp = params.velocity_clamp
    dim = gbest.size
    for i, x in enumerate(positions):
        v = velocities[i]
        for d in range(dim):
            r1 = rng.uniform()
            r2 = rng.uniform()
            vd = (w * v[d]
                  + c1 * r1 * (float(pbest[i][d]) - float(x[d]))
                  + c2 * r2 * (float(gbest[d]) - float(x[d])))
            v[d] = min(max(vd, -clamp), clamp)
        for d in range(dim):
            x[d] = 1 if rng.uniform() < 1.0 / (1.0 + math.exp(-v[d])) else 0
        if not x.any():
            x[rng.index(dim)] = 1
    for i, (x, fit) in enumerate(zip(positions, evaluate(positions))):
        if fit < pbest_fit[i]:
            pbest_fit[i] = fit
            pbest[i] = x.copy()
    for i in range(len(pbest_fit)):
        if pbest_fit[i] < gbest_fit:
            gbest_fit = pbest_fit[i]
            gbest = pbest[i].copy()
    return gbest, gbest_fit


def scalar_m_of_n_bits(n_instances, d, rng):
    """The m-of-n bit table, one bit() per cell in row order."""
    return np.array([[rng.bit() for _ in range(d)] for _ in range(n_instances)],
                    dtype=np.float64)


# The one-mask reference: not independent, it is the package's own distance
# sum, top-k and vote on one mask, with no cache, batch, screen or blocks.
# The evaluator's batched paths must give its results bit for bit.

def knn_predict(train_x, train_y, queries, k, mask):
    """Predict class labels for each query row using masked Euclidean KNN."""
    mask = np.asarray(mask)
    if not mask.any():
        raise ValueError("mask selects no features; repair masks before evaluating")
    if k > train_x.shape[0]:
        raise ValueError(f"k={k} exceeds training-set size {train_x.shape[0]}")
    scratch = np.empty((queries.shape[0], train_x.shape[0]))
    d2 = np.empty_like(scratch)
    fitness._accumulate([d2], mask[None, :], queries.T, train_x.T, scratch)
    neighbors = fitness._nearest_indices(d2, k)
    n_classes = int(train_y.max()) + 1
    return fitness._vote(train_y[neighbors], n_classes)


def error_rate(train_x, train_y, test_x, test_y, k, mask):
    """Fraction of test instances misclassified by masked KNN."""
    pred = knn_predict(train_x, train_y, test_x, k, mask)
    return float(np.mean(pred != test_y))


def new_mask(bits) -> np.ndarray:
    """Build a validated mask from any 0/1 sequence."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("mask must be a non-empty 1-D sequence")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("mask elements must be 0 or 1")
    return arr
