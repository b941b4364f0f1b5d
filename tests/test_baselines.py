import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_evaluator, mismatch_fitness
from fsro.baselines import (
    BpsoParams,
    GaParams,
    bpso_run,
    bpso_step,
    ga_run,
    ga_step,
    sigmoid_transfer,
)
from fsro.core import ConfigError, drive
from fsro.engine import random_masks
from fsro.rng import RngStream
from oracles import list_best, list_ga_step, new_mask, scalar_bpso_step


def count_ones(mask):
    return float(mask.sum()) / mask.size


def count_ones_fitness(masks):
    """count_ones in the optimizers' batch form."""
    return [count_ones(m) for m in masks]


def random_population(n, d, rng):
    gen = np.random.default_rng(rng)
    pop = []
    for _ in range(n):
        mask = np.zeros(d, dtype=np.uint8)
        mask[gen.choice(d, size=int(gen.integers(2, d + 1)), replace=False)] = 1
        pop.append(mask)
    return np.array(pop)


def test_params_validation():
    with pytest.raises(ConfigError):
        GaParams(crossover_rate=1.5)
    with pytest.raises(ConfigError):
        GaParams(mutation_rate=-0.1)


@pytest.mark.parametrize("cls,field,value,message", [
    (GaParams, "population_size", 1, "population_size must be >= 2, got 1"),
    (GaParams, "max_iterations", -1, "max_iterations must be >= 0, got -1"),
    (BpsoParams, "population_size", 0, "population_size must be >= 1, got 0"),
    (BpsoParams, "max_iterations", -1, "max_iterations must be >= 0, got -1"),
])
def test_params_reject_too_few_rows_or_iterations(cls, field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cls(**{field: value})
    assert getattr(cls(**{field: value + 1}), field) == value + 1


def test_sigmoid_values():
    assert sigmoid_transfer(0.0) == 0.5
    assert sigmoid_transfer(6.0) == pytest.approx(0.997527, abs=1e-6)
    assert sigmoid_transfer(-6.0) == pytest.approx(0.002472, abs=1e-6)
    assert sigmoid_transfer(6.0) + sigmoid_transfer(-6.0) == pytest.approx(1.0)


def test_ga_no_operators_copies_selected_parents():
    params = GaParams(crossover_rate=0.0, mutation_rate=0.0, population_size=10)
    population = random_population(10, 8, 3)
    fitness = np.array(count_ones_fitness(population))
    new_pop, new_fit = ga_step(population, fitness, params, count_ones_fitness, RngStream(5))
    assert len(new_pop) == 10
    originals = {x.tobytes() for x in population}
    assert all(child.tobytes() in originals for child in new_pop)
    # elite carried over
    elite = min(range(10), key=lambda i: (fitness[i], i))
    assert new_pop[0].tobytes() == population[elite].tobytes()


def test_ga_mutation_flips_exactly_one_bit():
    # masks with >= 2 set bits cannot be zeroed by a single flip, so no repair
    params = GaParams(crossover_rate=0.0, mutation_rate=1.0, population_size=10)
    population = random_population(10, 8, 4)
    fitness = np.array(count_ones_fitness(population))
    new_pop, _ = ga_step(population, fitness, params, count_ones_fitness, RngStream(6))
    originals = list(population)
    for child in new_pop[1:]:
        diffs = [int(np.sum(child != parent)) for parent in originals]
        assert min(diffs) == 1


def test_ga_finds_single_bit_optimum():
    outcome = ga_run(GaParams(population_size=20, max_iterations=60), 12,
                     count_ones_fitness, RngStream(8))
    assert outcome.best_fitness == pytest.approx(1 / 12)


def test_ga_replay_identical(small_m_of_n):
    runs = []
    for _ in range(2):
        evaluator, rng = make_evaluator(small_m_of_n, seed=23)
        runs.append(ga_run(GaParams(population_size=10, max_iterations=10),
                           small_m_of_n.n_features, evaluator.evaluate_all, rng))
    assert runs[0].best_mask.tobytes() == runs[1].best_mask.tobytes()
    assert runs[0].trace == runs[1].trace


GA_CASES = dict(seed=st.integers(0, 2**32 - 1), population=st.integers(2, 12),
                dim=st.sampled_from([1, 2, 7, 13]), crossover=st.sampled_from([0.0, 0.3, 1.0]),
                mutation=st.sampled_from([0.0, 0.3, 1.0]), iterations=st.integers(1, 4))


@settings(deadline=None)
@given(**GA_CASES)
def test_ga_step_matches_the_list_based_reference(seed, population, dim, crossover, mutation,
                                                  iterations):
    """After every step the arrays hold what the list-based generation holds,
    row for mask, and the stream stands at the same place; odd population
    sizes fill every pair, even ones leave the last pair half-filled."""
    params = GaParams(crossover, mutation, population)
    rng = RngStream(seed)
    masks = random_masks(population, dim, rng)
    fitness = np.array(mismatch_fitness(masks))
    ref, ref_fit = list(masks.copy()), fitness.tolist()
    ref_rng = RngStream(0)
    ref_rng.setstate(rng.getstate())
    for _ in range(iterations):
        masks, fitness = ga_step(masks, fitness, params, mismatch_fitness, rng)
        ref, ref_fit = list_ga_step(ref, ref_fit, params, mismatch_fitness, ref_rng)
        assert masks.dtype == np.uint8 and fitness.dtype == np.float64
        assert masks.tolist() == [m.tolist() for m in ref]
        assert fitness.tolist() == ref_fit
        assert rng.getstate() == ref_rng.getstate()


@settings(deadline=None)
@given(**GA_CASES)
def test_ga_run_matches_the_list_based_reference(seed, population, dim, crossover, mutation,
                                                 iterations):
    """A whole run traces the list-based run's best fitness and ends on its
    best mask, the first of the fittest on ties."""
    params = GaParams(crossover, mutation, population, iterations)
    got = ga_run(params, dim, mismatch_fitness, RngStream(seed))
    rng = RngStream(seed)
    masks = list(random_masks(population, dim, rng))
    want = drive(iterations, (masks, mismatch_fitness(masks)),
                 lambda state: list_ga_step(*state, params, mismatch_fitness, rng),
                 lambda state: list_best(*state))
    assert got.trace == want.trace
    assert got.best_mask.tolist() == want.best_mask.tolist()


def test_bpso_stationary_particle_resamples_at_half():
    d = 2000
    params = BpsoParams(population_size=1, max_iterations=1)
    x = np.ones((1, d), dtype=np.uint8)
    positions, velocities, *_ = bpso_step(x, np.zeros((1, d)), x, np.array([1.0]), x[0], 1.0,
                                          params, lambda masks: [1.0] * len(masks),
                                          RngStream(12))
    # x = pbest = gbest and v = 0 keeps v at 0: each bit resampled at 0.5
    assert np.all(velocities[0] == 0.0)
    assert abs(positions[0].mean() - 0.5) < 0.05


def test_bpso_clamped_velocity_saturates_bits():
    d = 2000
    params = BpsoParams(population_size=1, max_iterations=1)
    x = np.ones((1, d), dtype=np.uint8)
    positions, velocities, *_ = bpso_step(x, np.full((1, d), 6.0), x, np.array([1.0]), x[0],
                                          1.0, params, lambda masks: [1.0] * len(masks),
                                          RngStream(13))
    # w=1 with zero attraction keeps v at +clamp; ones fraction ~ sigmoid(6)
    assert np.all(velocities[0] == 6.0)
    assert abs(positions[0].mean() - 0.997527) < 0.005


@pytest.mark.parametrize("score", [0.5, 0.25])
def test_bpso_global_best_moves_on_strict_gains_to_the_first_best(score):
    # every particle scores `score`: a tie with gbest keeps it, a gain takes
    # particle 0's new position; the list-based reference agrees
    d, n = 40, 5
    params = BpsoParams(population_size=n, max_iterations=1)
    gen = np.random.default_rng(3)
    x = (gen.random((n, d)) < 0.5).astype(np.uint8)
    gbest = (gen.random(d) < 0.5).astype(np.uint8)

    def same_score(masks):
        return [score] * len(masks)

    positions, *_, got, got_fit = bpso_step(x, np.zeros((n, d)), x, np.ones(n), gbest, 0.5,
                                            params, same_score, RngStream(16))
    want = positions[0] if score < 0.5 else gbest
    assert got.tolist() == want.tolist() and got_fit == score
    lists = [list(x.copy()), list(np.zeros((n, d))), list(x.copy()), [1.0] * n]
    ref, ref_fit = scalar_bpso_step(*lists, gbest, 0.5, params, same_score, RngStream(16))
    assert ref.tolist() == want.tolist() and ref_fit == score


def test_bpso_finds_single_bit_optimum():
    outcome = bpso_run(BpsoParams(population_size=20, max_iterations=60), 12,
                       count_ones_fitness, RngStream(14))
    assert outcome.best_fitness == pytest.approx(1 / 12)


def test_bpso_masks_always_repaired():
    seen = []

    def spy(masks):
        seen.extend(int(m.sum()) for m in masks)
        return count_ones_fitness(masks)

    bpso_run(BpsoParams(population_size=6, max_iterations=20), 3, spy, RngStream(15))
    assert min(seen) >= 1
