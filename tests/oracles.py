"""Independent brute-force oracles the implementation is checked against.

Everything here but the list-based FSRO step's per-pair operators, the
list-based GA step's zero-mask repair, the one-mask reference and `new_mask`
at the end is deliberately written the slow, obvious way (plain Python
loops, no shared helpers from the package) so a bug in the implementation
cannot hide in its oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from fsro import baselines, engine, fitness


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


def _doubled_signed_ranks(sample_a, sample_b):
    """Twice the average rank of each nonzero |a - b|, and the observed
    min(W+, W-) in the same doubled units, by a walk over the tie groups."""
    diffs = [a - b for a, b in zip(sample_a, sample_b) if a != b]
    m = len(diffs)
    pairs = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0] * m
    i = 0
    while i < m:
        j = i
        while j < m and pairs[j][0] == pairs[i][0]:
            j += 1
        # positions i..j-1 hold ranks i+1..j, whose average is (i + 1 + j) / 2
        for t in range(i, j):
            ranks[pairs[t][1]] = i + 1 + j
        i = j
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    return ranks, min(w_plus, w_minus)


def wilcoxon_enum_p(sample_a, sample_b):
    """Exact two-sided signed-rank p-value by enumerating every sign pattern."""
    ranks, observed = _doubled_signed_ranks(sample_a, sample_b)
    if not ranks:
        return 1.0
    m = len(ranks)
    total = sum(ranks)
    hits = 0
    for signs in itertools.product((0, 1), repeat=m):
        wp = sum(r for r, s in zip(ranks, signs) if s)
        if min(wp, total - wp) <= observed:
            hits += 1
    return hits / 2 ** m


def wilcoxon_poly_p(sample_a, sample_b):
    """Exact two-sided signed-rank p-value from the null's generating function.

    The number of sign patterns whose positive ranks sum to w is the
    coefficient of x**w in the product of (1 + x**r) over the doubled ranks r.
    The product is held as one Python int with m + 1 bits per coefficient:
    no coefficient exceeds 2**m, so none carries into the next.
    """
    ranks, observed = _doubled_signed_ranks(sample_a, sample_b)
    if not ranks:
        return 1.0
    m = len(ranks)
    total = sum(ranks)
    width = m + 1
    product = 1
    for r in ranks:
        product += product << (width * r)
    digits = format(product, f"0{width * (total + 1)}b")  # x**total's coefficient first
    coefficients = [int(digits[k:k + width], 2) for k in range(0, len(digits), width)][::-1]
    assert sum(coefficients) == 2 ** m
    hits = sum(c for w, c in enumerate(coefficients) if min(w, total - w) <= observed)
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
    clamp = baselines.VELOCITY_CLAMP
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


# --- list-based FSRO step ---------------------------------------------------
# The engine's bookkeeping before its population became arrays: a list of
# agent objects in age order, each carrying its group, with a group's list
# rebuilt whenever it is needed. The pairing, the uniform crossover, the
# predation points, the regrouping and ESS are written out here; the
# package's two-point crossover, distance, avoidance rate, capture and
# replicator formulas, tested on their own, are reused.

@dataclass(eq=False)
class ListAgent:
    """One agent: equality is identity, and its age is its place in the list."""

    solution: np.ndarray
    frog: bool
    fitness: float
    prev_fitness: float = math.nan


@dataclass
class ListPopulation:
    agents: list
    frog_share: float
    snake_share: float
    best_mask: np.ndarray
    best_fitness: float
    captured: bool = False

    def group(self, frog):
        return [a for a in self.agents if a.frog == frog]


def list_partners(n, rng):
    """Shuffle the group's positions and pair them two at a time; an odd
    leftover pairs with the first shuffled position."""
    order = list(range(n))
    rng.shuffle(order)
    partner = [0] * n
    for i in range(0, n - 1, 2):
        partner[order[i]] = order[i + 1]
        partner[order[i + 1]] = order[i]
    if n % 2 == 1:
        partner[order[-1]] = order[0]
    return partner


def list_predation_points(mask, changed, rng):
    """A changed index stakes itself; an unchanged one stakes the block from
    the nearest mask boundary (the lower on a tie) to its own end."""
    d = mask.size
    s = rng.index(d)
    boundaries = [i for i in range(1, d) if mask[i] != mask[i - 1]]
    if changed[s] or not boundaries:
        return range(s, s + 1)
    b = min(boundaries, key=lambda b: abs(b - s))
    return range(b, d) if s >= b else range(0, b)


def list_fsro_step(pop, params, evaluate, rng):
    """One FSRO iteration on a ListPopulation, updating it in place."""
    for a in pop.agents:
        a.prev_fitness = a.fitness
    d = pop.agents[0].solution.size

    def repaired(child):
        if not child.any():
            child[rng.index(d)] = 1
        return child

    if d >= 2:
        snakes = pop.group(False)
        parents = [a.solution for a in snakes]
        for a, mate in zip(snakes, list_partners(len(snakes), rng)):
            a.solution = repaired(engine.two_point_crossover(a.solution, parents[mate], rng)[0])
    frogs = pop.group(True)
    parents = [a.solution for a in frogs]
    records = []
    for a, mate in zip(frogs, list_partners(len(frogs), rng)):
        child, mask, changed = scalar_uniform_crossover(a.solution, parents[mate], rng)
        a.solution = repaired(child)
        records.append((mask, changed))
    stakes = [list_predation_points(mask, changed, rng) for mask, changed in records]
    snakes = pop.group(False)
    pop.captured = False
    for a, stake in zip(frogs, stakes):
        foe = snakes[rng.index(len(snakes))]
        dist = engine.frog_snake_distance(a.solution, foe.solution, params.max_dis)
        a.solution, succeeded = engine.capture(a.solution, stake,
                                               engine.avoidance_rate(dist, params), rng)
        pop.captured = pop.captured or succeeded

    for a, fit in zip(pop.agents, evaluate([a.solution for a in pop.agents])):
        a.fitness = fit
        if fit < pop.best_fitness:
            pop.best_fitness = fit
            pop.best_mask = a.solution.copy()

    frogs, snakes = pop.group(True), pop.group(False)
    payoffs = engine.replicator_payoffs(
        sum(max(0.0, a.prev_fitness - a.fitness) for a in frogs),
        sum(max(0.0, a.prev_fitness - a.fitness) for a in snakes), len(frogs), len(snakes))
    pop.frog_share, pop.snake_share = engine.replicator_update(
        (pop.frog_share, pop.snake_share), payoffs)

    def worst_first(agents):
        return sorted(agents, key=lambda a: -a.fitness)

    n = len(pop.agents)
    target = min(max(math.floor(pop.frog_share * n + 0.5), 1), n - 1)
    if target > len(frogs):
        for a in worst_first(snakes)[:target - len(frogs)]:
            a.frog = True
    elif target < len(frogs):
        for a in worst_first(frogs)[:len(frogs) - target]:
            a.frog = False

    sizes = {True: len(pop.group(True)), False: len(pop.group(False))}
    for frog in (True, False):
        if sizes[frog] > engine.ESS_THRESHOLD:
            continue
        pop.agents.append(ListAgent(pop.best_mask.copy(), frog, pop.best_fitness))
        donors = pop.group(not frog)
        if len(donors) > 1:
            pop.agents.remove(worst_first(donors)[0])
    return pop


# --- list-based GA step -----------------------------------------------------
# GA before its population became arrays: a list of masks and a list of
# fitness values, the generation grown by appending until it is full. The
# tournament is copied too, so a change to the package's draws shows here.

def list_best(masks, fitness):
    """(fitness, mask) of the fittest mask; the first wins ties."""
    i = min(range(len(fitness)), key=fitness.__getitem__)
    return fitness[i], masks[i]


def list_tournament(fitness, rng):
    """Binary tournament without replacement; the first pick wins ties."""
    i = rng.index(len(fitness))
    j = rng.index(len(fitness) - 1)
    if j >= i:
        j += 1
    return j if fitness[j] < fitness[i] else i


def list_ga_step(population, fitness, params, evaluate, rng):
    """One elitist generation on lists: (new masks, new fitness)."""
    n = len(population)
    dim = population[0].size
    elite_fit, elite = list_best(population, fitness)
    new_pop, new_fit = [elite.copy()], [elite_fit]
    while len(new_pop) < n:
        p1 = population[list_tournament(fitness, rng)]
        p2 = population[list_tournament(fitness, rng)]
        if rng.uniform() < params.crossover_rate and dim >= 2:
            point = 1 + rng.index(dim - 1)
            c1 = np.concatenate([p1[:point], p2[point:]])
            c2 = np.concatenate([p2[:point], p1[point:]])
        else:
            c1, c2 = p1.copy(), p2.copy()
        for child in (c1, c2):
            if len(new_pop) >= n:
                break
            if rng.uniform() < params.mutation_rate:
                child[rng.index(dim)] ^= 1
            engine.repair_mask(child, rng)
            new_pop.append(child)
    new_fit.extend(evaluate(new_pop[1:]))
    return new_pop, new_fit


def scalar_m_of_n_bits(n_instances, d, rng):
    """The m-of-n bit table, one bit() per cell in row order."""
    return np.array([[rng.bit() for _ in range(d)] for _ in range(n_instances)],
                    dtype=np.float64)


# The one-mask reference: not independent in its distances, it is the
# package's own distance sum and top-k on one mask, with no cache, batch,
# screen, cells or blocks, but it counts votes on its own. The evaluator's
# batched paths must give its results bit for bit.

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
    # per row, the most frequent label; a tie goes to the smallest
    return np.array([min(set(labels), key=lambda c: (-labels.count(c), c))
                     for labels in train_y[neighbors].tolist()], dtype=np.int64)


def error_rate(train_x, train_y, test_x, test_y, k, mask):
    """Fraction of test instances misclassified by masked KNN."""
    pred = knn_predict(train_x, train_y, test_x, k, mask)
    return float(np.mean(pred != test_y))


def minmax_scaled(train_rows, rows):
    """Each value x of rows as (x - min) / (max - min), min and max being its
    feature's over train_rows, one Python float at a time. A feature that is
    constant over the train rows gives 0.0; nothing is clamped to [0, 1]."""
    train_rows = [[float(v) for v in row] for row in train_rows]
    bounds = [(min(column), max(column)) for column in zip(*train_rows)]
    out = []
    for row in rows:
        scaled = []
        for (lo, hi), x in zip(bounds, row):
            scaled.append(0.0 if hi == lo else (float(x) - lo) / (hi - lo))
        out.append(scaled)
    return np.array(out, dtype=np.float64)


def new_mask(bits) -> np.ndarray:
    """Build a validated mask from any 0/1 sequence."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("mask must be a non-empty 1-D sequence")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("mask elements must be 0 or 1")
    return arr
