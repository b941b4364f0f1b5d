import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_evaluator, mismatch_fitness
from fsro.bench import ALGORITHMS
from fsro.core import ConfigError, PopulationState
from fsro.engine import (
    _evaluate,
    _partners,
    _two_point_group,
    _uniform_group,
    FsroParams,
    avoidance_rate,
    capture,
    determine_predation_points,
    ess_mutation,
    frog_snake_distance,
    initialize,
    replicator_payoffs,
    replicator_update,
    resize_groups,
    run_search,
    step,
    two_point_crossover,
    uniform_crossover,
)
from fsro.rng import RngStream
from oracles import ListAgent, ListPopulation, list_fsro_step, new_mask, scalar_uniform_crossover

ZEROS6 = new_mask([0] * 6)
ONES6 = new_mask([1] * 6)


def record_from(mask, changed, d):
    """(mask, changed) of a uniform crossover, as determine_predation_points takes them."""
    changed_bits = np.zeros(d, dtype=bool)
    changed_bits[list(changed)] = True
    return np.asarray(mask, dtype=bool), changed_bits


# --- initialization ---------------------------------------------------------

def test_initialize_default_population():
    pop = initialize(FsroParams(), 13, RngStream(1))
    assert pop.solutions.shape == (40, 13) and pop.solutions.dtype == np.uint8
    assert pop.frog.tolist() == [True] * 20 + [False] * 20
    assert pop.frog_share == pop.snake_share == 0.5
    assert pop.solutions.sum(axis=1).min() >= 1


def test_initialize_rejects_bad_population_size():
    with pytest.raises(ConfigError):
        FsroParams(population_size=5)
    with pytest.raises(ConfigError):
        FsroParams(population_size=2)


@pytest.mark.parametrize("field,value,message", [
    ("max_iterations", -1, "max_iterations must be >= 0, got -1"),
    ("max_dis", 0.0, "max_dis and decision_dis must be positive"),
    ("max_dis", -80.0, "max_dis and decision_dis must be positive"),
    ("decision_dis", 0.0, "max_dis and decision_dis must be positive"),
    ("decision_dis", -6.0, "max_dis and decision_dis must be positive"),
])
def test_params_reject_negative_iterations_and_non_positive_distances(field, value, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        FsroParams(**{field: value})


def test_initialize_single_bit_repairs_to_one():
    pop = initialize(FsroParams(population_size=4), 1, RngStream(3))
    assert pop.solutions.tolist() == [[1]] * 4


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_search_rejects_a_dimension_below_one(name):
    # all three draw their first population with random_masks, which checks
    def evaluate(masks):
        raise AssertionError("a zero-feature search evaluated a mask")

    with pytest.raises(ConfigError, match="^dimension must be >= 1, got 0$"):
        ALGORITHMS[name]().search(0, evaluate, RngStream(1))


def test_initialize_bit_frequency():
    total = ones = 0
    for seed in range(1000):
        pop = initialize(FsroParams(), 34, RngStream(seed))
        ones += int(pop.solutions.sum())
        total += pop.solutions.size
    # D=34 makes the all-zero repair event negligible (p = 2^-34)
    assert 0.47 <= ones / total <= 0.53


# --- crossovers -------------------------------------------------------------

def test_two_point_hand_case():
    # seed 16 draws the point pair (2, 4) on a 6-bit solution
    child, pts = two_point_crossover(ZEROS6, ONES6, RngStream(16))
    assert pts == (2, 4)
    assert list(child) == [0, 0, 1, 1, 1, 0]


def test_two_point_identical_parents():
    child, _ = two_point_crossover(ONES6, ONES6, RngStream(0))
    assert np.array_equal(child, ONES6)


def test_two_point_full_span_returns_other_parent():
    # seed 7 draws the full span (0, 5)
    child, pts = two_point_crossover(ZEROS6, ONES6, RngStream(7))
    assert pts == (0, 5)
    assert np.array_equal(child, ONES6)


def test_two_point_segment_rule_holds():
    rng = RngStream(100)
    gen = np.random.default_rng(0)
    for _ in range(10**4):
        d = int(gen.integers(2, 20))
        a = new_mask(gen.integers(0, 2, size=d))
        b = new_mask(gen.integers(0, 2, size=d))
        child, (p1, p2) = two_point_crossover(a, b, rng)
        assert 0 <= p1 < p2 <= d - 1
        assert np.array_equal(child[p1:p2 + 1], b[p1:p2 + 1])
        assert np.array_equal(child[:p1], a[:p1])
        assert np.array_equal(child[p2 + 1:], a[p2 + 1:])


def test_two_point_length_mismatch():
    with pytest.raises(ValueError):
        two_point_crossover(ZEROS6, new_mask([1, 0]), RngStream(0))


def test_two_point_needs_two_positions():
    with pytest.raises(ValueError, match="^two-point crossover needs at least 2 positions$"):
        two_point_crossover(new_mask([0]), new_mask([1]), RngStream(0))


def test_uniform_length_mismatch():
    with pytest.raises(ValueError, match=r"^parent lengths differ: \(6,\) vs \(2,\)$"):
        uniform_crossover(ZEROS6, new_mask([1, 0]), RngStream(0))


def test_uniform_hand_case():
    # seed 4 draws the mask 101010 on 6 bits
    child, mask, changed = uniform_crossover(ZEROS6, ONES6, RngStream(4))
    assert list(mask) == [True, False, True, False, True, False]
    assert list(child) == [1, 0, 1, 0, 1, 0]
    assert list(np.flatnonzero(changed)) == [0, 2, 4]


def test_uniform_identical_parents_changed_empty():
    child, _, changed = uniform_crossover(ONES6, ONES6, RngStream(5))
    assert np.array_equal(child, ONES6)
    assert not changed.any()


def test_uniform_all_true_mask_returns_other_parent():
    # seed 11 draws an all-true mask on 6 bits
    child, mask, _ = uniform_crossover(ZEROS6, ONES6, RngStream(11))
    assert mask.all()
    assert np.array_equal(child, ONES6)


def test_uniform_membership_and_changed_set():
    rng = RngStream(200)
    gen = np.random.default_rng(1)
    for _ in range(10**4):
        d = int(gen.integers(1, 20))
        a = new_mask(gen.integers(0, 2, size=d))
        b = new_mask(gen.integers(0, 2, size=d))
        child, mask, changed = uniform_crossover(a, b, rng)
        assert all(child[i] in (a[i], b[i]) for i in range(d))
        assert np.array_equal(child, np.where(mask, b, a))
        assert changed.dtype == bool
        assert np.array_equal(changed, child != a)


# --- approach phase ---------------------------------------------------------

def test_predation_escape_selects_single_index():
    # seed 0 draws s=2 from index(6)
    rec = record_from([True, False, True, False, True, False], {0, 2, 4}, 6)
    assert set(determine_predation_points(*rec, RngStream(0))) == {2}


def test_predation_immobile_selects_block_to_end():
    # mask 111000 has its only boundary at 3; seed 2 draws s=5, an unchanged
    # index, so the staked block is [3, 6)
    rec = record_from([True, True, True, False, False, False], {0, 1, 2}, 6)
    assert set(determine_predation_points(*rec, RngStream(2))) == {3, 4, 5}


def test_predation_immobile_selects_block_before_boundary():
    # seed 1 draws s=1; nearest boundary 3 lies above s, so stake [0, 3)
    rec = record_from([False, False, False, True, True, True], {3, 4, 5}, 6)
    assert set(determine_predation_points(*rec, RngStream(1))) == {0, 1, 2}


def test_predation_no_boundary_falls_back_to_single_index():
    rec = record_from([False] * 6, (), 6)
    s = RngStream(9).index(6)
    assert set(determine_predation_points(*rec, RngStream(9))) == {s}


def test_predation_boundary_tie_prefers_smaller():
    # boundaries at 2 and 6; from s=4 both are distance 2 away
    rec = record_from([True, True, False, False, False, False, True, True], {0, 1, 6, 7}, 8)
    for seed in range(200):
        if RngStream(seed).index(8) == 4:
            points = determine_predation_points(*rec, RngStream(seed))
            assert set(points) == {2, 3, 4, 5, 6, 7}
            break
    else:
        pytest.fail("no seed drawing s=4 found")


# --- capture phase ----------------------------------------------------------

def test_distance_identical_and_complementary():
    assert frog_snake_distance(ONES6, ONES6, 80.0) == 0.0
    assert frog_snake_distance(ZEROS6, ONES6, 80.0) == 80.0


def test_distance_half_match():
    a = new_mask([1] * 17 + [0] * 17)
    b = new_mask([1] * 17 + [1] * 17)
    assert frog_snake_distance(a, b, 80.0) == pytest.approx(40.0)


def test_distance_symmetric_and_bounded():
    gen = np.random.default_rng(3)
    for _ in range(500):
        d = int(gen.integers(1, 30))
        a = new_mask(gen.integers(0, 2, size=d))
        b = new_mask(gen.integers(0, 2, size=d))
        dist = frog_snake_distance(a, b, 80.0)
        assert dist == frog_snake_distance(b, a, 80.0)
        assert 0.0 <= dist <= 80.0
        assert (dist == 0.0) == np.array_equal(a, b)


def test_distance_length_mismatch():
    with pytest.raises(ValueError, match=r"^solution lengths differ: \(6,\) vs \(2,\)$"):
        frog_snake_distance(ZEROS6, new_mask([1, 0]), 80.0)


def test_order_thresholds():
    # up to decision_dis (6) the (w1, d1) line applies, beyond it (w2, d2)
    p = FsroParams()
    assert avoidance_rate(0.0, p) == pytest.approx((0.75 * 0.0 + 40.0) / 100.0)
    assert avoidance_rate(6.0, p) == pytest.approx((0.75 * 6.0 + 40.0) / 100.0)
    assert avoidance_rate(6.1, p) == pytest.approx((1.0 * 6.1 + 20.0) / 100.0)


def test_avoidance_rates():
    p = FsroParams()
    assert avoidance_rate(0.0, p) == pytest.approx(0.40)
    assert avoidance_rate(80.0, p) == pytest.approx(1.00)
    assert avoidance_rate(20.0, p) == pytest.approx(0.40)


def test_avoidance_rate_clamped():
    # decision_dis=80 keeps distance 80 on the (w1, d1) line, which reads 2.5
    p = FsroParams(w1=2.0, d1=90.0, decision_dis=80.0)
    assert avoidance_rate(80.0, p) == 1.0


def test_capture_certain_avoidance_never_flips():
    frog = new_mask([1, 0, 1, 0])
    for seed in range(50):
        sol, ok = capture(frog, range(2, 4), 1.0, RngStream(seed))
        assert not ok
        assert sol is frog


def test_capture_certain_success_flips_points():
    # a stake is one contiguous block; [2, 4) flips the last two bits
    frog = new_mask([1, 0, 1, 0])
    sol, ok = capture(frog, range(2, 4), 0.0, RngStream(1))
    assert ok
    assert list(sol) == [1, 0, 0, 1]
    assert list(frog) == [1, 0, 1, 0]


def test_capture_full_inversion():
    frog = new_mask([1, 0, 1, 0])
    sol, ok = capture(frog, range(0, 4), 0.0, RngStream(1))
    assert ok
    assert list(sol) == [0, 1, 0, 1]


def test_capture_repairs_all_zero_result():
    frog = new_mask([1, 1])
    sol, ok = capture(frog, range(0, 2), 0.0, RngStream(1))
    assert ok
    assert sol.sum() == 1


# --- replicator dynamics ----------------------------------------------------

def test_payoffs_symmetric():
    assert replicator_payoffs(0.02, 0.02, 1, 1) == (0.5, 0.5)


def test_payoffs_hand_case():
    u_f, u_s = replicator_payoffs(0.03, 0.01, 1, 1)
    assert u_f == pytest.approx(0.75)
    assert u_s == pytest.approx(0.25)


def test_payoffs_zero_improvement_fallback():
    assert replicator_payoffs(0.0, 0.0, 10, 10) == (0.5, 0.5)


def test_payoffs_empty_group_rejected():
    with pytest.raises(ValueError):
        replicator_payoffs(0.1, 0.1, 0, 5)


def test_update_fixed_point():
    assert replicator_update((0.5, 0.5), (0.5, 0.5)) == (0.5, 0.5)


def test_update_hand_case():
    x_f, x_s = replicator_update((0.5, 0.5), (1.0, 0.0))
    assert x_f == pytest.approx(0.75)
    assert x_s == pytest.approx(0.25)


def test_update_extinct_stays_extinct_preclamp():
    assert replicator_update((1.0, 0.0), (0.3, 0.9), floor=0.0) == (1.0, 0.0)


def test_update_clamps_to_share_floor():
    x_f, x_s = replicator_update((1.0, 0.0), (0.3, 0.9))
    assert x_f == pytest.approx(0.975)
    assert x_s == pytest.approx(0.025)


def test_update_preserves_sum_and_monotonicity():
    gen = np.random.default_rng(5)
    for _ in range(10**4):
        x_f = float(gen.uniform(0.025, 0.975))
        u_f = float(gen.uniform(0, 1))
        u_s = float(gen.uniform(0, 1))
        new_f, new_s = replicator_update((x_f, 1.0 - x_f), (u_f, u_s))
        assert abs(new_f + new_s - 1.0) < 1e-12
        pre_f, pre_s = replicator_update((x_f, 1.0 - x_f), (u_f, u_s), floor=0.0)
        assert abs(pre_f + pre_s - 1.0) < 1e-12
        if u_f > u_s:
            assert new_f > x_f
        elif u_s > u_f:
            assert new_s > 1.0 - x_f


# --- regrouping -------------------------------------------------------------

AGE_BITS = 6


def make_population(n_frogs, n_snakes, fitnesses=None):
    """Frogs then snakes, row i the AGE_BITS-bit binary of i + 1, so every
    row is distinct and names its age; the all-ones best mask names none."""
    n = n_frogs + n_snakes
    solutions = (np.arange(1, n + 1)[:, None] >> np.arange(AGE_BITS) & 1).astype(np.uint8)
    fitness = np.array(fitnesses if fitnesses else [i / 100.0 for i in range(n)])
    return PopulationState(solutions=solutions, frog=np.arange(n) < n_frogs, fitness=fitness,
                           frog_share=n_frogs / n, snake_share=n_snakes / n,
                           global_best_mask=np.ones(AGE_BITS, dtype=np.uint8),
                           global_best_fitness=0.0)


def ages(pop):
    """Each row's place in make_population's order, read from its bits;
    None for a clone of the best mask."""
    codes = (pop.solutions.astype(int) << np.arange(AGE_BITS)).sum(axis=1)
    return [None if c == 2**AGE_BITS - 1 else int(c) - 1 for c in codes]


def counts(pop):
    return int(pop.frog.sum()), int((~pop.frog).sum())


def test_resize_balanced():
    pop = make_population(20, 20)
    resize_groups(pop, (0.5, 0.5))
    assert counts(pop) == (20, 20)


def test_resize_grows_frogs_from_worst_snakes():
    pop = make_population(20, 20)
    snakes = np.flatnonzero(~pop.frog)
    worst_snakes = sorted(snakes, key=lambda i: -pop.fitness[i])[:4]
    resize_groups(pop, (0.6, 0.4))
    assert counts(pop) == (24, 16)
    assert pop.frog[worst_snakes].all()
    assert ages(pop) == list(range(40))


def test_resize_relabels_the_earliest_of_equally_fit_agents_first():
    pop = make_population(20, 20, fitnesses=[0.5] * 40)
    snakes = np.flatnonzero(~pop.frog)
    resize_groups(pop, (0.6, 0.4))
    assert snakes[pop.frog[snakes]].tolist() == snakes[:4].tolist()
    assert ages(pop) == list(range(40))

    pop = make_population(20, 20, fitnesses=[0.5] * 40)
    frogs = np.flatnonzero(pop.frog)
    resize_groups(pop, (0.4, 0.6))
    assert frogs[~pop.frog[frogs]].tolist() == frogs[:4].tolist()
    assert ages(pop) == list(range(40))

    # ties among better rows, in a group of more than 16 rows, where an
    # unstable sort (numpy's default) can take a later tie first
    pop = make_population(20, 20, fitnesses=[0.1] * 20 + [0.5, 0.1, 0.5, 0.5, 0.1] * 4)
    snakes = np.flatnonzero(~pop.frog)
    resize_groups(pop, (0.65, 0.35))
    assert snakes[pop.frog[snakes]].tolist() == snakes[[0, 2, 3, 5, 7, 8]].tolist()


def test_resize_clamps_to_keep_one_snake():
    pop = make_population(20, 20)
    resize_groups(pop, (0.999, 0.001))
    assert counts(pop) == (39, 1)


def test_ess_reseeds_small_group():
    pop = make_population(2, 38)
    ess_mutation(pop, 2)
    assert counts(pop) == (3, 37)
    assert pop.frog[-1]
    assert np.array_equal(pop.solutions[-1], pop.global_best_mask)
    assert pop.fitness[-1] == pop.global_best_fitness
    assert len(pop.solutions) == len(pop.fitness) == 40
    # the clone is the newest row
    assert ages(pop)[-1] is None


def test_ess_drops_the_earliest_of_equally_fit_donors():
    pop = make_population(2, 38, fitnesses=[0.5] * 40)
    ess_mutation(pop, 2)
    # frogs 0 and 1 keep their places, snake 2 is dropped, the clone comes last
    assert ages(pop) == [0, 1, *range(3, 40), None]
    assert pop.frog.tolist() == [True, True] + [False] * 37 + [True]
    assert pop.fitness.tolist() == [0.5] * 39 + [0.0]

    # the worst snakes' ties mixed with better ones, where an unstable sort
    # can take a later tie first: the earliest (snake 10, row 12) goes
    worst = {10, 13, 14, 19, 20, 21, 22, 23, 27, 28, 29, 31, 32, 33, 34}
    pop = make_population(2, 38, fitnesses=[0.1, 0.1] + [0.5 if i in worst else 0.1
                                                         for i in range(38)])
    ess_mutation(pop, 2)
    assert ages(pop) == [*range(12), *range(13, 40), None]


def test_ess_leaves_balanced_groups_alone():
    pop = make_population(20, 20)
    frog, fitness = pop.frog.copy(), pop.fitness.copy()
    ess_mutation(pop, 2)
    assert ages(pop) == list(range(40))
    assert np.array_equal(pop.frog, frog) and np.array_equal(pop.fitness, fitness)


def test_ess_covers_single_member_group():
    pop = make_population(1, 39)
    ess_mutation(pop, 2)
    assert counts(pop) == (2, 38)


def test_ess_at_twice_the_threshold_lifts_the_thin_group_and_keeps_the_even_split():
    for frogs, snakes in ((3, 5), (5, 3), (4, 4)):
        pop = make_population(frogs, snakes)
        ess_mutation(pop, 4)
        assert counts(pop) == (4, 4)


def test_ess_below_twice_the_threshold_cannot_lift_the_thin_group():
    """Why population 4 with threshold 3 is rejected: both groups reseed and cancel."""
    pop = make_population(1, 3)
    ess_mutation(pop, 3)
    assert counts(pop) == (1, 3)


def test_ess_needs_a_global_best():
    pop = make_population(1, 5)
    pop.global_best_mask = None
    message = "mutation needs a global best; evaluate the population first"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ess_mutation(pop, 2)


# --- pairing ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 4])
def test_crossover_pairs_shuffled_positions(n):
    for seed in range(8):
        rng = RngStream(seed)
        partner = _partners(n, rng)

        replay = RngStream(seed)
        order = list(range(n))
        replay.shuffle(order)
        for i in range(0, n - 1, 2):
            assert (partner[order[i]], partner[order[i + 1]]) == (order[i + 1], order[i])
        if n % 2 == 1:
            assert partner[order[-1]] == order[0]
        if n == 1:
            assert partner == [0]
        # the pairing draws the one shuffle and nothing else
        assert rng.getstate() == replay.getstate()


@pytest.mark.parametrize("cross", [_two_point_group, _uniform_group])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_group_crossover_draws_per_agent_then_repair(cross, n):
    d = 4
    for seed in range(8):
        # all-zero parents and one distinct one: most children need a repair,
        # and the distinct parent shows whether a cross read a parent or a child
        parents = np.zeros((n, d), dtype=np.uint8)
        parents[0] = [1, 0, 1, 0]
        given_parents = parents.copy()
        partner = [(i + 1) % n for i in range(n)]
        rng = RngStream(seed)
        children = cross(given_parents, partner, rng)
        if cross is _uniform_group:
            children = children[0]
        assert np.array_equal(given_parents, parents)

        # after the shuffle, each row draws its crossover then its repair,
        # in row order, crossing with its partner's parent solution
        replay = RngStream(seed)
        for i, mate in enumerate(partner):
            if cross is _two_point_group:
                child, _ = two_point_crossover(parents[i], parents[mate], replay)
            else:
                child, _, _ = scalar_uniform_crossover(parents[i], parents[mate], replay)
            if not child.any():
                child[replay.index(d)] = 1
            assert list(children[i]) == list(child)
        assert rng.uniform() == replay.uniform()


# --- step / run -------------------------------------------------------------

def count_ones(mask):
    # minimized at a single selected bit
    return float(mask.sum()) / mask.size


def count_ones_fitness(masks):
    """count_ones in the optimizers' batch form."""
    return [count_ones(m) for m in masks]


def test_step_preserves_population_and_improves_best(small_m_of_n):
    evaluator, rng = make_evaluator(small_m_of_n, seed=11)
    params = FsroParams(population_size=8, max_iterations=5)
    pop = initialize(params, small_m_of_n.n_features, rng)
    _evaluate(pop, evaluator.evaluate_all)
    for _ in range(10):
        before = pop.global_best_fitness
        step(pop, params, evaluator.evaluate_all, rng)
        assert pop.solutions.shape == (8, small_m_of_n.n_features)
        assert pop.frog.shape == pop.fitness.shape == (8,)
        assert 1 <= pop.frog.sum() <= 7
        assert pop.global_best_fitness <= before
        assert abs(pop.frog_share + pop.snake_share - 1.0) < 1e-12
        assert pop.solutions.sum(axis=1).min() >= 1


def test_step_deterministic_from_same_state():
    params = FsroParams(population_size=8, max_iterations=1)
    pop_a = initialize(params, 6, RngStream(21))
    _evaluate(pop_a, count_ones_fitness)
    pop_b = copy.deepcopy(pop_a)
    step(pop_a, params, count_ones_fitness, RngStream(77))
    step(pop_b, params, count_ones_fitness, RngStream(77))
    assert pop_a.frog_share == pop_b.frog_share
    assert np.array_equal(pop_a.solutions, pop_b.solutions)
    assert np.array_equal(pop_a.fitness, pop_b.fitness)
    assert np.array_equal(pop_a.frog, pop_b.frog)


def test_run_zero_iterations_returns_initial_best():
    params = FsroParams(population_size=8, max_iterations=0)
    outcome = run_search(params, 6, count_ones_fitness, RngStream(31))
    assert len(outcome.trace) == 1
    pop = initialize(params, 6, RngStream(31))
    assert outcome.best_fitness == min(count_ones_fitness(pop.solutions))


def test_run_trace_contract():
    # the contract common to every optimizer is in test_optimizers.py
    params = FsroParams(population_size=8, max_iterations=25)
    outcome = run_search(params, 8, count_ones_fitness, RngStream(13))
    assert len(outcome.trace) == 26
    assert all(row.frog_count >= 1 and row.snake_count >= 1 for row in outcome.trace)
    assert all(row.frog_count + row.snake_count == 8 for row in outcome.trace)


def test_run_replay_is_byte_identical(small_m_of_n):
    params = FsroParams(population_size=8, max_iterations=15)
    runs = []
    for _ in range(2):
        evaluator, rng = make_evaluator(small_m_of_n, seed=17)
        runs.append(run_search(params, small_m_of_n.n_features, evaluator.evaluate_all, rng))
    a, b = runs
    assert a.best_mask.tobytes() == b.best_mask.tobytes()
    assert a.best_fitness == b.best_fitness
    assert a.trace == b.trace


def test_run_with_dimension_one():
    params = FsroParams(population_size=4, max_iterations=3)
    outcome = run_search(params, 1, count_ones_fitness, RngStream(2))
    assert outcome.best_fitness == 1.0
    assert list(outcome.best_mask) == [1]


POPULATIONS = st.integers(2, 10).map(lambda half: 2 * half)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), population=POPULATIONS,
       dim=st.integers(1, 12), iterations=st.integers(0, 5))
def test_step_keeps_population_state_invariants(seed, population, dim, iterations):
    """The PopulationState invariants hold after every step."""
    params = FsroParams(population_size=population, max_iterations=iterations)
    rng = RngStream(seed)
    pop = initialize(params, dim, rng)
    _evaluate(pop, mismatch_fitness)
    for _ in range(iterations):
        best = pop.global_best_fitness
        step(pop, params, mismatch_fitness, rng)
        assert abs(pop.frog_share + pop.snake_share - 1.0) < 1e-12
        assert pop.solutions.shape == (population, dim)
        assert pop.frog.shape == pop.fitness.shape == (population,)
        assert pop.frog.any() and not pop.frog.all()
        assert pop.global_best_fitness <= best
        assert pop.fitness.tolist() == mismatch_fitness(pop.solutions)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), population=POPULATIONS,
       dim=st.integers(1, 12), iterations=st.integers(0, 5))
def test_step_matches_the_list_based_reference(seed, population, dim, iterations):
    """After every step the arrays hold what the agent-list bookkeeping holds,
    row for agent in age order, and the stream stands at the same place."""
    params = FsroParams(population_size=population, max_iterations=iterations)
    rng = RngStream(seed)
    pop = initialize(params, dim, rng)
    _evaluate(pop, mismatch_fitness)
    ref = ListPopulation([ListAgent(row.copy(), bool(frog), float(fit))
                          for row, frog, fit in zip(pop.solutions, pop.frog, pop.fitness)],
                         pop.frog_share, pop.snake_share,
                         pop.global_best_mask.copy(), pop.global_best_fitness)
    ref_rng = RngStream(0)
    ref_rng.setstate(rng.getstate())
    for _ in range(iterations):
        before = list(ref.agents)
        step(pop, params, mismatch_fitness, rng)
        list_fsro_step(ref, params, mismatch_fitness, ref_rng)
        assert pop.solutions.tolist() == [a.solution.tolist() for a in ref.agents]
        assert pop.frog.tolist() == [a.frog for a in ref.agents]
        assert pop.fitness.tolist() == [a.fitness for a in ref.agents]
        assert (pop.frog_share, pop.snake_share) == (ref.frog_share, ref.snake_share)
        assert pop.global_best_fitness == ref.best_fitness
        assert pop.global_best_mask.tolist() == ref.best_mask.tolist()
        assert pop.captured == ref.captured
        assert rng.getstate() == ref_rng.getstate()
        # age order: survivors keep their relative order, clones come last
        order = [next((i for i, b in enumerate(before) if b is a), None) for a in ref.agents]
        kept = [i for i in order if i is not None]
        assert kept == sorted(kept)
        assert order == kept + [None] * (len(order) - len(kept))
