"""The fsro names the benchmark harness in perfbench/ imports, wraps and
patches still exist, so a src/ change that drops or renames one fails here,
in tier-1, rather than in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# harness imports tracer, micro, oracle and workloads; the tracer looks its
# targets up when it is installed, and probe.py patches bench.run_single.
# micro.py's layer timings (`run.py --trace 1`) build an evaluator, read its
# rows, labels and FitnessParams().train_fraction, score masks through
# evaluator(mask), and call the engine's crossovers and initialize: each of
# those is used here once, as micro.py uses it, on a tiny m-of-n split
CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import fsro.bench, fsro.cli
import harness
from fsro.data import generate_m_of_n, stratified_split
from fsro.engine import FsroParams, initialize, two_point_crossover, uniform_crossover
from fsro.fitness import FitnessEvaluator, FitnessParams
from fsro.rng import RngStream
with harness.Tracer().installed():
    pass
assert callable(fsro.bench.run_single) and callable(fsro.cli.main)

dataset = generate_m_of_n(2, 1, 2, 40, RngStream(7))
params = FitnessParams()
split = stratified_split(dataset, params.train_fraction, RngStream(1))
evaluator = FitnessEvaluator(dataset, split, params)
n_train, n_test = len(split.train_indices), len(split.test_indices)
assert evaluator.train_x.shape == (n_train, 4) and evaluator.test_x.shape == (n_test, 4)
assert evaluator.train_y.shape == (n_train,) and evaluator.test_y.shape == (n_test,)
assert 0.0 <= evaluator(np.ones(4, dtype=np.uint8)) <= 1.0
rng = RngStream(2)
a, b = np.array([1, 0, 1, 0], dtype=np.uint8), np.array([0, 1, 1, 0], dtype=np.uint8)
child, _, _ = uniform_crossover(a, b, rng)
assert child.shape == (4,)
child, _ = two_point_crossover(a, b, rng)
assert child.shape == (4,)
assert initialize(FsroParams(), 4, rng).solutions.shape == (FsroParams().population_size, 4)
"""


def test_the_benchmark_harness_imports_and_its_tracer_installs(tmp_path):
    # -B: no bytecode is written into perfbench/ or src/
    done = subprocess.run([sys.executable, "-B", "-c", CHECK,
                           str(ROOT / "perfbench"), str(ROOT / "src")],
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
