import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsro import FitnessParams, RngStream, bench, blas, generate_m_of_n
from fsro.baselines import GaParams
from fsro.bench import Decision, run_experiment, wilcoxon_signed_rank
from fsro.core import ConfigError
from oracles import wilcoxon_enum_p, wilcoxon_poly_p


def _tied_pairs(g, n, zeros, q=4):
    """Paired samples on a coarse grid in steps of 1/q: |differences| tie,
    `zeros` of them are 0.

    Positive differences are likelier, so both decisions occur.
    """
    b = g.integers(0, 6, size=n)
    steps = g.integers(1, 4, size=n) * g.choice([-1, 1], size=n, p=[0.3, 0.7])
    steps[g.choice(n, size=zeros, replace=False)] = 0
    return list((b + steps) / q), list(b / q)


def test_exact_branch_matches_enumeration_oracle():
    g = np.random.default_rng(17)
    for _ in range(200):
        n = int(g.integers(1, 13))
        a, b = _tied_pairs(g, n, zeros=int(g.integers(0, n // 3 + 1)))
        p, decision, _ = wilcoxon_signed_rank(a, b)
        assert p == wilcoxon_enum_p(a, b)
        assert decision is (Decision.SIGNIFICANT if p < 0.05 else Decision.NO_DIFFERENCE)


def test_exact_p_matches_the_generating_function_oracle_above_twelve():
    # 13 to 80 nonzero differences, beyond what enumeration can check
    g = np.random.default_rng(31)
    for q in (4, 10, 35):
        for _ in range(12):
            nonzero = int(g.integers(13, 81))
            zeros = int(g.integers(0, nonzero // 3 + 1))
            a, b = _tied_pairs(g, nonzero + zeros, zeros, q)
            assert sum(x != y for x, y in zip(a, b)) == nonzero
            p, _, _ = wilcoxon_signed_rank(a, b)
            assert p == wilcoxon_poly_p(a, b)


# up to 60 pairs on a grid of 3 to 7 levels in steps of 1/q: most |differences|
# tie, many are zero, and both decisions occur
TIED_PAIRS = st.tuples(st.integers(3, 7), st.integers(1, 60)).flatmap(lambda shape: st.lists(
    st.tuples(st.integers(0, shape[0]), st.integers(0, shape[0])),
    min_size=shape[1], max_size=shape[1]))


@settings(deadline=None)
@given(pairs=TIED_PAIRS, q=st.sampled_from([4, 10, 35]), data=st.data())
def test_permuting_or_swapping_the_pairs_keeps_p_and_decision(pairs, q, data):
    a, b = [x / q for x, _ in pairs], [y / q for _, y in pairs]
    p, decision, direction = wilcoxon_signed_rank(a, b)
    assert 0.0 < p <= 1.0
    assert decision is (Decision.SIGNIFICANT if p < 0.05 else Decision.NO_DIFFERENCE)
    order = data.draw(st.permutations(range(len(pairs))))
    assert (wilcoxon_signed_rank([a[i] for i in order], [b[i] for i in order])
            == (p, decision, direction))
    assert wilcoxon_signed_rank(b, a) == (p, decision, -direction)


@pytest.mark.parametrize("diffs,direction", [
    ([1, 2, -1], 1),             # W+ = 4.5 against W- = 1.5
    ([-1, -2, -3, 10, 11], 1),   # a lower in 3 of 5 pairs, but W+ = 9 against 6
    ([-1, -2, 3], 0),            # W+ = W- = 3
    ([-4, 0, 0, -1], -1),
])
def test_direction_is_the_sign_of_w_plus_minus_w_minus(diffs, direction):
    b = [20.0] * len(diffs)
    a = [y + d for y, d in zip(b, diffs)]
    assert wilcoxon_signed_rank(a, b)[2] == direction
    assert wilcoxon_signed_rank(b, a)[2] == -direction


def test_identical_samples_give_p_one():
    assert wilcoxon_signed_rank([0.1, 0.2], [0.1, 0.2]) == (1.0, Decision.NO_DIFFERENCE, 0)


def test_unequal_lengths_are_rejected():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([0.1, 0.2], [0.1])


@pytest.mark.parametrize("n", [25, 30, 50])
def test_exact_p_matches_scipy_on_tie_free_samples(n):
    stats = pytest.importorskip("scipy.stats")
    g = np.random.default_rng(n)
    b = g.integers(0, 100, size=n).astype(np.float64)
    # |differences| 1..n: no ties and no zeros, as scipy's exact method needs
    a = b + (g.permutation(n) + 1) * g.choice([-1, 1], size=n, p=[0.3, 0.7])
    p, _, _ = wilcoxon_signed_rank(list(a), list(b))
    want = stats.wilcoxon(a, b, method="exact").pvalue
    assert p == pytest.approx(want, rel=1e-12, abs=0)


def _tiny_experiment(m_runs, workers, base_seed=7):
    dataset = generate_m_of_n(2, 1, 2, 40, RngStream(3))
    return run_experiment("ga", dataset, GaParams(population_size=4, max_iterations=1),
                          FitnessParams(), m_runs, base_seed, workers=workers)


def test_zero_runs_are_rejected():
    with pytest.raises(ConfigError, match="^need at least one run, got 0$"):
        _tiny_experiment(0, 1)


def test_summarize_rejects_an_empty_list_of_runs():
    with pytest.raises(ValueError, match="^cannot summarize an empty list of runs$"):
        bench.summarize([], 4)


@pytest.mark.parametrize("workers", [0, -3])
def test_fewer_than_one_worker_is_rejected(workers):
    with pytest.raises(ConfigError, match="worker"):
        _tiny_experiment(2, workers)


@pytest.mark.parametrize("base_seed,m_runs", [(-1, 1), (-3, 5), (2**64, 1), (2**64 - 2, 3)])
def test_run_seeds_outside_the_stream_range_fail_before_any_run(base_seed, m_runs,
                                                                monkeypatch):
    started = []
    real = bench.run_single

    def run_single(*args):
        started.append(args[-1])
        return real(*args)

    monkeypatch.setattr(bench, "run_single", run_single)
    with pytest.raises(ConfigError, match=r"must be in \[0, 2\*\*64\)"):
        _tiny_experiment(m_runs, 1, base_seed)
    assert started == []


@pytest.mark.parametrize("workers", [1, 2])
def test_too_many_neighbors_fail_before_any_run_or_pool(workers, monkeypatch):
    started, pools = [], []
    monkeypatch.setattr(bench, "run_single", lambda *args: started.append(args[-1]))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: pools.append(args))
    dataset = generate_m_of_n(2, 1, 2, 40, RngStream(3))
    n_train = len(bench.stratified_split(dataset, 0.8, RngStream(7)).train_indices)
    # the evaluator's message, from the train size every run's split has
    with pytest.raises(ConfigError,
                       match=f"^k_neighbors={n_train + 1} exceeds training size {n_train}$"):
        run_experiment("ga", dataset, GaParams(population_size=4, max_iterations=1),
                       FitnessParams(k_neighbors=n_train + 1), 3, 7, workers=workers)
    assert started == [] and pools == []


def test_last_run_seed_below_2_64_is_accepted():
    results, _ = _tiny_experiment(3, 1, 2**64 - 3)
    assert [r.seed for r in results] == [2**64 - 3, 2**64 - 2, 2**64 - 1]


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _outputs(results):
    """Everything a run reports but its wall time."""
    return [(r.algorithm, r.dataset, r.seed, r.best_fitness, r.best_mask.tobytes(),
             r.test_accuracy, r.selected_count, r.trace) for r in results]


def test_pool_is_no_larger_than_the_run_count(monkeypatch):
    sizes = []
    caps = []
    methods = []  # the start method of each pool's context
    variables = []  # OPENBLAS_NUM_THREADS as each pool starts
    # a stand-in for numpy's BLAS thread count, above any pool's share
    own = _cpus() + 1
    count = [own]

    def pool(max_workers, mp_context, initializer, initargs):  # records, runs jobs in threads
        sizes.append(max_workers)
        methods.append(mp_context.get_start_method())
        variables.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return ThreadPoolExecutor(max_workers, initializer=initializer, initargs=initargs)

    def set_threads(n):
        caps.append(n)
        count[0] = n

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    # the worker set-up runs in this process's threads, which see its BLAS
    # count as forked workers do: record each cap on the stand-in instead
    # of applying it, and put the input slot back afterwards
    monkeypatch.setattr(blas, "threads", lambda: count[0])
    monkeypatch.setattr(blas, "set_threads", set_threads)
    monkeypatch.setattr(bench, "_worker_inputs", ("not", "for", "serial", "runs"))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    serial, _ = _tiny_experiment(3, 1)
    assert caps == []  # a serial run keeps every BLAS thread
    pooled, _ = _tiny_experiment(3, 8)
    assert sizes == [3]
    # fork on Linux unless this process fixed a start method; elsewhere the
    # platform's default, which the pool has fixed by now
    fixed = multiprocessing.get_start_method(allow_none=True)
    assert methods == [(fixed or "fork") if sys.platform == "linux" else fixed]
    # the share is set once, before the pool starts, so the workers inherit
    # it and set nothing, and a worker that loads OpenBLAS afresh reads it
    # from the variable; then this process gets its own count and variable
    # back
    share = max(1, _cpus() // 3)
    assert caps == [share, own] and count == [own]
    assert variables == [str(share)] and os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert [r.best_fitness for r in pooled] == [r.best_fitness for r in serial]
    _tiny_experiment(1, 8)  # one run takes no pool
    assert sizes == [3]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    _tiny_experiment(2, 2)
    assert variables[-1] == str(max(1, _cpus() // 2))
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    # a worker that starts at another count, as one forked from a server
    # started before the variable was set would, sets it
    caps.clear()
    bench._start_worker(share, ("inputs",))
    assert caps == [share] and bench._worker_inputs == ("inputs",)


def test_pool_forks_on_linux_unless_a_start_method_is_fixed(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("this platform cannot fork")
    monkeypatch.setattr(sys, "platform", "linux")
    for fixed, method in ((None, "fork"), ("spawn", "spawn"), ("fork", "fork")):
        monkeypatch.setattr(multiprocessing, "get_start_method",
                            lambda allow_none=False, fixed=fixed: fixed)
        assert bench._pool_context().get_start_method() == method


def test_importing_the_cli_leaves_the_process_pool_out():
    # a one-worker command starts no pool, so it should not import one
    src = os.path.dirname(os.path.dirname(bench.__file__))
    code = "import sys, fsro.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def _os_threads():
    """This process's OS thread count, from /proc on Linux; None elsewhere."""
    if not sys.platform.startswith("linux"):
        return None
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))


def _report_blas_threads(real_run_single):
    def run_single(*args):  # runs in a pool worker
        result = real_run_single(*args)
        return replace(result, dataset=(os.getpid(), blas.threads(), _os_threads()))

    return run_single


def test_pool_workers_share_the_blas_threads(monkeypatch):
    before = blas.threads()
    if before is None:
        pytest.skip("numpy's bundled OpenBLAS or its thread setter was not found")
    if bench._pool_context().get_start_method() != "fork":
        pytest.skip("the patched run_single reaches pool workers only through fork")
    monkeypatch.setattr(bench, "run_single", _report_blas_threads(bench.run_single))
    results, _ = _tiny_experiment(4, 2)
    readings = [r.dataset for r in results]
    share = max(1, _cpus() // 2)
    assert all(pid != os.getpid() for pid, *_ in readings)
    assert {threads for _, threads, _ in readings} == {share}
    # OpenBLAS runs its BLAS threads as OS threads, the caller's included,
    # so a worker runs at most one OS thread per thread of its cap. A
    # thread pool restarted at full size breaks this, and the getter cannot
    # see it.
    if _os_threads() is not None:
        assert all(os_threads <= share for *_, os_threads in readings)
    assert blas.threads() == before  # the parent keeps its own count


# Runs a tiny experiment serially and in a pool of two spawned workers, and
# prints whether the outputs match, with the BLAS count of the workers, of
# this process before and after, the workers' OS thread counts (on Linux)
# and their share.
SPAWNED_EXPERIMENT = textwrap.dedent("""
    import concurrent.futures, json, multiprocessing, pathlib, sys
    from fsro import FitnessParams, RngStream, blas, generate_m_of_n
    from fsro.baselines import GaParams
    from fsro.bench import _cpu_count, run_experiment

    STATUS = pathlib.Path("/proc/self/status")

    def os_threads(status):
        return next(int(line.split()[1]) for line in status.splitlines()
                    if line.startswith("Threads:"))

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables):  # also reads each worker's thread counts
            results = list(super().map(fn, *iterables))
            counts.extend(self.submit(blas.threads).result() for _ in range(4))
            if sys.platform.startswith("linux"):
                os_counts.extend(os_threads(self.submit(STATUS.read_text).result())
                                 for _ in range(4))
            return results

    def outputs(results):
        return [(r.seed, r.best_fitness, r.best_mask.tolist(), r.test_accuracy,
                 r.selected_count, r.trace) for r in results]

    multiprocessing.set_start_method("spawn")
    concurrent.futures.ProcessPoolExecutor = Pool
    counts, os_counts, before = [], [], blas.threads()
    dataset = generate_m_of_n(2, 1, 2, 40, RngStream(3))
    args = ("ga", dataset, GaParams(population_size=4, max_iterations=1), FitnessParams(), 2, 7)
    serial, _ = run_experiment(*args, workers=1)
    pooled, _ = run_experiment(*args, workers=2)
    print(json.dumps({"same": outputs(serial) == outputs(pooled), "counts": counts,
                      "os_counts": os_counts, "before": before, "after": blas.threads(),
                      "share": max(1, _cpu_count() // 2)}))
""")


def test_spawned_workers_run_their_share_and_give_the_serial_results():
    # the start method of macOS, and forkserver's case on Linux from Python
    # 3.14: a worker loads OpenBLAS afresh, at the share that
    # OPENBLAS_NUM_THREADS names
    src = os.path.dirname(os.path.dirname(bench.__file__))
    out = subprocess.run([sys.executable, "-c", SPAWNED_EXPERIMENT], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    report = json.loads(out.stdout)
    assert report["same"]
    assert report["after"] == report["before"]
    if report["before"] is not None:
        assert set(report["counts"]) == {report["share"]}
        # one OS thread per thread of the cap, as for forked workers
        assert all(n <= report["share"] for n in report["os_counts"])


def test_pool_without_openblas_gives_the_serial_results(monkeypatch):
    monkeypatch.setattr(blas, "_openblas_calls", lambda: None)
    assert blas.threads() is None
    serial, serial_summary = _tiny_experiment(3, 1)
    pooled, pooled_summary = _tiny_experiment(3, 2)
    assert _outputs(pooled) == _outputs(serial)
    assert (replace(pooled_summary, average_time=0.0)
            == replace(serial_summary, average_time=0.0))


def test_blas_without_a_loadable_openblas_finds_nothing(tmp_path, monkeypatch):
    # numpy.libs/ holds a file named like OpenBLAS that is not a library,
    # and the package has no .dylibs/: threads() is None and set_threads()
    # leaves numpy's own BLAS as it was
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").write_text("not a library\n")
    before = blas.threads()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
            assert blas._openblas_calls() is None and blas.threads() is None
            blas.set_threads(2 if before == 1 else 1)
        assert blas.threads() == before
    finally:
        if before is not None:
            blas.set_threads(before)


def test_cpu_count_without_sched_getaffinity_is_os_cpu_count_or_one(monkeypatch):
    # macOS and Windows have no sched_getaffinity; os.cpu_count() may be None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert bench._cpu_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bench._cpu_count() == 1
