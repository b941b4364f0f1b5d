"""Experiment orchestration: M seeded runs, the seven summary criteria, and
the paired Wilcoxon signed-rank comparison.

Run k of an experiment uses seed base_seed + k; each run draws its own
train/test split from its own stream, so two algorithms given the same base
seed see identical splits and their per-run results pair exactly.
"""

from __future__ import annotations

import enum
import os
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import blas
from .baselines import BpsoParams, GaParams
from .core import ConfigError, RunResult
from .data import Dataset, class_train_counts, stratified_split
from .engine import FsroParams
from .fitness import FitnessEvaluator, FitnessParams
from .rng import MASK64, RngStream

# each algorithm's params class; its search(dim, evaluate, rng) runs it
ALGORITHMS = {"fsro": FsroParams, "ga": GaParams, "bpso": BpsoParams}

# the paper's significance level for its +/- decisions
SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class ExperimentSummary:
    mean_fitness: float
    best_fitness: float
    worst_fitness: float
    std_fitness: float
    average_accuracy: float
    average_reduction: float
    average_time: float
    runs: int


class Decision(enum.Enum):
    NO_DIFFERENCE = "-"
    SIGNIFICANT = "+"


def run_single(algorithm: str, dataset: Dataset, algo_params,
               fit_params: FitnessParams, seed: int) -> RunResult:
    """One seeded run: split, evaluate-loop, and dataset-level bookkeeping."""
    start = time.perf_counter()
    rng = RngStream(seed)
    split = stratified_split(dataset, fit_params.train_fraction, rng)
    evaluator = FitnessEvaluator(dataset, split, fit_params)
    outcome = algo_params.search(dataset.n_features, evaluator.evaluate_all, rng)
    wall = time.perf_counter() - start
    return RunResult(
        algorithm=algorithm,
        dataset=dataset.name,
        seed=seed,
        best_fitness=outcome.best_fitness,
        best_mask=outcome.best_mask,
        test_accuracy=evaluator.accuracy(outcome.best_mask),
        selected_count=int(outcome.best_mask.sum()),
        wall_time_seconds=wall,
        trace=outcome.trace,
    )


# (algorithm, dataset, algo_params, fit_params) of a pool worker's runs, set
# once by _start_worker; only pool workers read it
_worker_inputs: tuple | None = None


def _start_worker(blas_threads: int, inputs: tuple) -> None:
    global _worker_inputs
    # a forked worker inherits the cap, and a spawned or forkserver one
    # loads OpenBLAS at it from OPENBLAS_NUM_THREADS. Setting the cap again
    # in a forked worker would restart OpenBLAS's thread pool at full size.
    if blas.threads() != blas_threads:
        blas.set_threads(blas_threads)
    _worker_inputs = inputs


def _run_seed(seed: int) -> RunResult:
    return run_single(*_worker_inputs, seed)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_context():
    """The pool's multiprocessing context: fork on Linux, unless this process
    has fixed a start method; elsewhere the platform's default.

    A forked worker starts from this process's memory, with the package,
    numpy and the BLAS cap already loaded, where a spawned or forkserver
    worker starts a fresh interpreter and imports them again. From Python
    3.14 Linux's default is forkserver, so fork is asked for by name. The
    package starts no threads of its own, and OpenBLAS stops its thread
    pool in a fork handler, so the fork copies no thread mid-call.
    """
    import multiprocessing  # kept off one-worker start-up, with the pool

    fixed = multiprocessing.get_start_method(allow_none=True)
    return multiprocessing.get_context(fixed or ("fork" if sys.platform == "linux" else None))


def run_experiment(algorithm: str, dataset: Dataset, algo_params,
                   fit_params: FitnessParams, m_runs: int, base_seed: int,
                   workers: int = 1) -> tuple[list[RunResult], ExperimentSummary]:
    """M independent runs with seeds base_seed..base_seed+M-1, plus the summary.

    The runs use a pool of min(workers, m_runs) processes, or none for one,
    started by `_pool_context`'s method. Each pool worker receives the run
    inputs once, at start, and runs numpy's BLAS at its share of the CPUs'
    threads, max(1, cpus // pool size), so the workers' matrix products do
    not contend for the CPUs. This process sets that cap, and
    OPENBLAS_NUM_THREADS to it, before the pool starts, and restores both
    when the pool is done. Forked workers inherit the cap; spawned and
    forkserver workers load OpenBLAS at it from the variable, and one that
    starts at another count (a forkserver started earlier, say) sets the
    cap itself. A serial run keeps every BLAS thread.
    """
    if m_runs < 1:
        raise ConfigError(f"need at least one run, got {m_runs}")
    if workers < 1:
        raise ConfigError(f"need at least one worker, got {workers}")
    seeds = [base_seed + k for k in range(m_runs)]
    # checked before any run starts; a stream takes seeds in [0, 2**64)
    if seeds[0] < 0 or seeds[-1] > MASK64:
        raise ConfigError(f"run seeds {seeds[0]}..{seeds[-1]} must be in [0, 2**64)")
    # every run's split has the same train rows per class, so a k that no
    # run can take fails here, before any run or pool starts
    fit_params.require_train_rows(sum(class_train_counts(dataset, fit_params.train_fraction)))
    workers = min(workers, m_runs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # kept off one-worker start-up

        inputs = (algorithm, dataset, algo_params, fit_params)
        share, own = max(1, _cpu_count() // workers), blas.threads()
        own_variable = os.environ.get("OPENBLAS_NUM_THREADS")
        blas.set_threads(share)
        # a capped pool keeps the threads it started with: a worker that
        # loaded OpenBLAS at its default would run them all
        os.environ["OPENBLAS_NUM_THREADS"] = str(share)
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context(),
                                     initializer=_start_worker,
                                     initargs=(share, inputs)) as pool:
                results = list(pool.map(_run_seed, seeds))
        finally:
            if own is not None:
                blas.set_threads(own)
            if own_variable is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = own_variable
    else:
        results = [run_single(algorithm, dataset, algo_params, fit_params, seed)
                   for seed in seeds]
    return results, summarize(results, dataset.n_features)


def summarize(results: list[RunResult], total_features: int) -> ExperimentSummary:
    """The seven criteria over one or more runs; std is the population std."""
    if not results:
        raise ValueError("cannot summarize an empty list of runs")
    fits = np.asarray([r.best_fitness for r in results], dtype=np.float64)
    return ExperimentSummary(
        mean_fitness=float(fits.mean()),
        best_fitness=float(fits.min()),
        worst_fitness=float(fits.max()),
        std_fitness=float(fits.std()),
        average_accuracy=float(np.mean([r.test_accuracy for r in results])),
        average_reduction=float(np.mean([total_features - r.selected_count for r in results])),
        average_time=float(np.mean([r.wall_time_seconds for r in results])),
        runs=len(results),
    )


def _exact_p(scaled_ranks: list[int], w_scaled: int) -> float:
    """P(min(W+, W-) <= observed) over all 2**m equally likely sign
    assignments of the m observed doubled ranks: the exact conditional null
    under the observed ties.

    The null counts come from a subset-sum table of sum(scaled_ranks) + 1
    Python ints, each added to once per rank, so the cost grows as about
    m**3. Best of repeated calls on a shared 2-vCPU x86_64 VM, over
    tie-heavy samples: 1.3-1.4 ms at m = 30 (the paper's run count),
    9-12 ms at 60, 175-181 ms at 148 and 1.5-1.6 s at 300. The p-value is
    an integer count over 2**m, and int / int division rounds correctly, so
    it has the same bits on every platform.
    """
    total = sum(scaled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in scaled_ranks:
        for w in range(total - r, -1, -1):
            if counts[w]:
                counts[w + r] += counts[w]
    hits = sum(c for w, c in enumerate(counts) if min(w, total - w) <= w_scaled)
    return hits / (1 << len(scaled_ranks))


def wilcoxon_signed_rank(sample_a, sample_b) -> tuple[float, Decision, int]:
    """Two-sided paired signed-rank test; zero differences are dropped.

    Returns the exact p-value (`_exact_p`) for every number of nonzero
    differences, the decision at SIGNIFICANCE, and the direction: the sign
    of W+ - W-, the rank sums of the positive and negative differences
    a - b. It is 1 when sample_a's values rank larger, -1 when sample_b's
    do, and 0 when the sums are equal or no difference is nonzero.
    """
    a = list(sample_a)
    b = list(sample_b)
    if len(a) != len(b) or not a:
        raise ValueError(f"need equal-length non-empty samples, got {len(a)} and {len(b)}")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 1.0, Decision.NO_DIFFERENCE, 0
    # average ranks of |d|, doubled so they stay integers: a tie group fills
    # the sorted positions [lo, hi), whose ranks lo+1..hi average to
    # (lo + 1 + hi) / 2
    ordered = sorted(map(abs, diffs))
    scaled = [bisect_left(ordered, abs(d)) + 1 + bisect_right(ordered, abs(d)) for d in diffs]
    w_plus = sum(r for r, d in zip(scaled, diffs) if d > 0)
    w_minus = sum(scaled) - w_plus
    p = _exact_p(scaled, min(w_plus, w_minus))
    return (p, Decision.SIGNIFICANT if p < SIGNIFICANCE else Decision.NO_DIFFERENCE,
            (w_plus > w_minus) - (w_plus < w_minus))
