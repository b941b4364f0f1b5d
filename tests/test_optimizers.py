"""The batch evaluation protocol, checked the same way for every registered
optimizer."""

import pytest

from conftest import make_evaluator
from fsro.bench import ALGORITHMS
from fsro.rng import RngStream
from oracles import exhaustive_best_fitness


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_one_evaluate_call_per_generation(name):
    params = ALGORITHMS[name](population_size=8, max_iterations=7)
    batches = []

    def spy(masks):
        batches.append(len(masks))
        return [float(m.sum()) / m.size for m in masks]

    outcome = params.search(6, spy, RngStream(3))
    # the initial population, then one batch per generation
    assert len(batches) == 8 == len(outcome.trace)
    assert batches[0] == 8
    # GA carries its elite over unscored; FSRO and BPSO score every agent
    assert set(batches[1:]) == {7 if name == "ga" else 8}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_reaches_exhaustive_optimum(small_m_of_n, name, seed):
    params = ALGORITHMS[name](population_size=8, max_iterations=10)
    # the oracle scores every mask on its own evaluator over the same split,
    # so the run's evaluator starts with an empty cache
    oracle, _ = make_evaluator(small_m_of_n, seed=seed)
    best, _ = exhaustive_best_fitness(oracle, small_m_of_n.n_features)
    evaluator, rng = make_evaluator(small_m_of_n, seed=seed)
    outcome = params.search(small_m_of_n.n_features, evaluator.evaluate_all, rng)
    assert outcome.best_fitness == best
    assert evaluator(outcome.best_mask) == best
