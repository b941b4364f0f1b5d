"""Layer microbenchmarks, through public functions only.

Each timing is the median over a few repeats of a timed loop, per call.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from fsro.data import Dataset, load_csv, stratified_split
from fsro.engine import FsroParams, initialize, two_point_crossover, uniform_crossover
from fsro.fitness import FitnessEvaluator, FitnessParams
from fsro.rng import RngStream

REPEATS = 5
SAMPLES = 7


def _per_call(loop, n: int) -> float:
    """Median seconds per call of loop(n), which makes n calls."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop(n)
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times)


def rng_metrics(dim: int, seed: int) -> dict[str, float]:
    rng = RngStream(seed)
    next_raw, uniform, bit, index = rng.next_raw, rng.uniform, rng.bit, rng.index

    def raw_loop(n):
        for _ in range(n):
            next_raw()

    def uniform_loop(n):
        for _ in range(n):
            uniform()

    def bit_loop(n):
        for _ in range(n):
            bit()

    def index_loop(n):
        for _ in range(n):
            index(dim)

    n = 20_000
    return {
        "rng.next_raw_ns": _per_call(raw_loop, n) * 1e9,
        "rng.uniform_ns": _per_call(uniform_loop, n) * 1e9,
        "rng.bit_ns": _per_call(bit_loop, n) * 1e9,
        "rng.index_ns": _per_call(index_loop, n) * 1e9,
    }


def engine_metrics(dim: int, seed: int) -> dict[str, float]:
    rng = RngStream(seed)
    a = np.array([rng.bit() for _ in range(dim)], dtype=np.uint8)
    b = np.array([rng.bit() for _ in range(dim)], dtype=np.uint8)
    params = FsroParams()

    def uniform_loop(n):
        for _ in range(n):
            uniform_crossover(a, b, rng)

    def two_point_loop(n):
        for _ in range(n):
            two_point_crossover(a, b, rng)

    def initialize_loop(n):
        for _ in range(n):
            initialize(params, dim, rng)

    calls = max(4, 4000 // dim)
    return {
        "engine.uniform_crossover_us": _per_call(uniform_loop, calls) * 1e6,
        "engine.two_point_crossover_us": _per_call(two_point_loop, 2000) * 1e6,
        "engine.initialize_ms": _per_call(initialize_loop, max(1, calls // 40)) * 1e3,
    }


def _retained_numpy_bytes(build):
    """(object, numpy bytes still allocated after build() returns)."""
    domain = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(domain)
        obj = build()
        after = tracemalloc.take_snapshot().filter_traces(domain)
    finally:
        tracemalloc.stop()
    return obj, sum(s.size_diff for s in after.compare_to(before, "filename"))


def fitness_metrics(dataset: Dataset, seed: int) -> dict[str, float]:
    """Evaluator costs on one split; every uncached sample uses a fresh evaluator.

    Timing a 1-feature and an all-features mask fits t = select_vote +
    accum_per_feature * features: the slope is the distance accumulation
    per feature plane, the intercept the top-k and vote.
    """
    params = FitnessParams()
    split = stratified_split(dataset, params.train_fraction, RngStream(seed))
    d = dataset.n_features
    rng = RngStream(seed + 1)
    one = np.zeros(d, dtype=np.uint8)
    one[0] = 1
    full = np.ones(d, dtype=np.uint8)
    setup, t_one, t_full, t_half = [], [], [], []
    for _ in range(SAMPLES):
        half = np.array([rng.bit() for _ in range(d)], dtype=np.uint8)
        half[0] = 1
        for mask, times in ((None, setup), (one, t_one), (full, t_full), (half, t_half)):
            start = time.perf_counter()
            if mask is None:
                evaluator = FitnessEvaluator(dataset, split, params)
            else:
                evaluator(mask)
            times.append(time.perf_counter() - start)

    def hit_loop(n):  # every mask above is cached now
        for _ in range(n):
            evaluator(half)

    eval_hit = _per_call(hit_loop, 20_000)
    one_s, full_s = statistics.median(t_one), statistics.median(t_full)
    per_feature = (full_s - one_s) / max(1, d - 1)
    plane_bytes = 24 * split.test_indices.size * split.train_indices.size
    evaluator, retained = _retained_numpy_bytes(
        lambda: FitnessEvaluator(dataset, split, params))
    data_bytes = sum(a.nbytes for a in (evaluator.train_x, evaluator.test_x,
                                         evaluator.train_y, evaluator.test_y))
    return {
        "fitness.eval_uncached_us": statistics.median(t_half) * 1e6,
        "fitness.eval_hit_ns": eval_hit * 1e9,
        "fitness.accum_us_per_feature": per_feature * 1e6,
        "fitness.select_vote_us": (one_s - per_feature) * 1e6,
        "fitness.accum_gbps_computed": plane_bytes / per_feature / 1e9,
        "fitness.setup_ms": statistics.median(setup) * 1e3,
        "fitness.stack_mb": (retained - data_bytes) / 1e6,
    }


def load_csv_seconds(path) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        load_csv(path)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
