import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=ci`: four times the default examples for
# properties that do not fix their own count, drawn the same way on every
# run so a CI failure replays
settings.register_profile("ci", max_examples=400, derandomize=True)

from fsro import FitnessParams, RngStream, generate_m_of_n
from fsro.data import stratified_split
from fsro.fitness import FitnessEvaluator

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def small_m_of_n():
    """4-feature, 40-instance dataset with a known optimal 2-feature subset."""
    return generate_m_of_n(2, 1, 2, 40, RngStream(7))


@pytest.fixture(scope="session")
def bench_m_of_n():
    """The 13-feature, 1000-instance dataset shape used by the benchmarks."""
    return generate_m_of_n(6, 3, 7, 1000, RngStream(99))


def make_evaluator(dataset, seed, params=None):
    params = params or FitnessParams()
    rng = RngStream(seed)
    split = stratified_split(dataset, params.train_fraction, rng)
    return FitnessEvaluator(dataset, split, params), rng


def mismatch_fitness(masks):
    """Fraction of bits differing from 1010...: cheap, with ties and a unique optimum."""
    return [float(np.mean(m != (np.arange(m.size) % 2 == 0))) for m in masks]
