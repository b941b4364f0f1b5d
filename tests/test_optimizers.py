"""The batch evaluation protocol, the trace contract and the params checks,
the same way for every registered optimizer."""

import math
from dataclasses import fields

import pytest

from conftest import make_evaluator
from fsro.baselines import BpsoParams
from fsro.bench import ALGORITHMS
from fsro.core import ConfigError
from fsro.engine import FsroParams
from fsro.rng import RngStream
from oracles import exhaustive_best_fitness

FLOAT_FIELDS = [(cls, f.name) for cls in (FsroParams, BpsoParams)
                for f in fields(cls) if f.type in ("float", float)]


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


@pytest.mark.parametrize("iterations", [0, 12])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_trace_contract(bench_m_of_n, name, iterations):
    params = ALGORITHMS[name](population_size=8, max_iterations=iterations)
    evaluator, rng = make_evaluator(bench_m_of_n, seed=29)
    outcome = params.search(bench_m_of_n.n_features, evaluator.evaluate_all, rng)
    assert [row.iteration for row in outcome.trace] == list(range(iterations + 1))
    fits = [row.best_fitness for row in outcome.trace]
    assert all(a >= b for a, b in zip(fits, fits[1:]))
    assert fits[-1] == outcome.best_fitness == evaluator(outcome.best_mask)
    # the seed is one on which every optimizer improves, so the order is tested
    assert iterations == 0 or fits[-1] < fits[0]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,field", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, field in FLOAT_FIELDS])
def test_non_finite_float_param_is_rejected(cls, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        cls(**{field: value})
