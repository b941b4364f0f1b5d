import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_evaluator
from fsro.core import ConfigError, Group
from fsro.engine import (
    CrossoverRecord,
    _crossover,
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
from fsro.core import Agent, PopulationState
from fsro.rng import RngStream
from oracles import new_mask, scalar_uniform_crossover

ZEROS6 = new_mask([0] * 6)
ONES6 = new_mask([1] * 6)


def record_from(mask, changed, d):
    mask = np.asarray(mask, dtype=bool)
    changed_bits = np.zeros(d, dtype=bool)
    changed_bits[list(changed)] = True
    return CrossoverRecord(
        mask=mask,
        changed=changed_bits,
        boundaries=np.flatnonzero(mask[1:] != mask[:-1]) + 1,
    )


# --- initialization ---------------------------------------------------------

def test_initialize_default_population():
    pop = initialize(FsroParams(), 13, RngStream(1))
    assert len(pop.frogs()) == 20
    assert len(pop.snakes()) == 20
    assert pop.frog_share == pop.snake_share == 0.5
    assert all(a.solution.sum() >= 1 for a in pop.agents)


def test_initialize_rejects_bad_population_size():
    with pytest.raises(ConfigError):
        FsroParams(population_size=5)
    with pytest.raises(ConfigError):
        FsroParams(population_size=2)


def test_initialize_single_bit_repairs_to_one():
    pop = initialize(FsroParams(population_size=4), 1, RngStream(3))
    for a in pop.agents:
        assert list(a.solution) == [1]


def test_initialize_bit_frequency():
    total = ones = 0
    for seed in range(1000):
        pop = initialize(FsroParams(), 34, RngStream(seed))
        for a in pop.agents:
            ones += int(a.solution.sum())
            total += a.solution.size
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


def test_uniform_hand_case():
    # seed 4 draws the mask 101010 on 6 bits
    child, rec = uniform_crossover(ZEROS6, ONES6, RngStream(4))
    assert list(rec.mask) == [True, False, True, False, True, False]
    assert list(child) == [1, 0, 1, 0, 1, 0]
    assert list(np.flatnonzero(rec.changed)) == [0, 2, 4]


def test_uniform_identical_parents_changed_empty():
    child, rec = uniform_crossover(ONES6, ONES6, RngStream(5))
    assert np.array_equal(child, ONES6)
    assert not rec.changed.any()


def test_uniform_all_true_mask_returns_other_parent():
    # seed 11 draws an all-true mask on 6 bits
    child, rec = uniform_crossover(ZEROS6, ONES6, RngStream(11))
    assert rec.mask.all()
    assert np.array_equal(child, ONES6)


def test_uniform_membership_and_changed_set():
    rng = RngStream(200)
    gen = np.random.default_rng(1)
    for _ in range(10**4):
        d = int(gen.integers(1, 20))
        a = new_mask(gen.integers(0, 2, size=d))
        b = new_mask(gen.integers(0, 2, size=d))
        child, rec = uniform_crossover(a, b, rng)
        assert all(child[i] in (a[i], b[i]) for i in range(d))
        assert rec.changed.dtype == bool
        assert np.array_equal(rec.changed, child != a)
        assert all(1 <= bnd <= d - 1 for bnd in rec.boundaries)


# --- approach phase ---------------------------------------------------------

def test_predation_escape_selects_single_index():
    # seed 0 draws s=2 from index(6)
    rec = record_from([True, False, True, False, True, False], {0, 2, 4}, 6)
    assert set(determine_predation_points(rec, RngStream(0))) == {2}


def test_predation_immobile_selects_block_to_end():
    # mask 111000 has its only boundary at 3; seed 2 draws s=5, an unchanged
    # index, so the staked block is [3, 6)
    rec = record_from([True, True, True, False, False, False], {0, 1, 2}, 6)
    assert set(determine_predation_points(rec, RngStream(2))) == {3, 4, 5}


def test_predation_immobile_selects_block_before_boundary():
    # seed 1 draws s=1; nearest boundary 3 lies above s, so stake [0, 3)
    rec = record_from([False, False, False, True, True, True], {3, 4, 5}, 6)
    assert set(determine_predation_points(rec, RngStream(1))) == {0, 1, 2}


def test_predation_no_boundary_falls_back_to_single_index():
    rec = record_from([False] * 6, (), 6)
    s = RngStream(9).index(6)
    assert set(determine_predation_points(rec, RngStream(9))) == {s}


def test_predation_boundary_tie_prefers_smaller():
    # boundaries at 2 and 6; from s=4 both are distance 2 away
    rec = record_from([True, True, False, False, False, False, True, True], {0, 1, 6, 7}, 8)
    assert tuple(rec.boundaries) == (2, 6)
    # seed 19 draws s=4 from index(8)? verify, else find: s must be 4
    for seed in range(200):
        if RngStream(seed).index(8) == 4:
            points = determine_predation_points(rec, RngStream(seed))
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

def make_population(n_frogs, n_snakes, fitnesses=None):
    agents = []
    for i in range(n_frogs + n_snakes):
        group = Group.FROG if i < n_frogs else Group.SNAKE
        fit = fitnesses[i] if fitnesses else i / 100.0
        agents.append(Agent(new_mask([1, 0, 1]), group, fitness=fit, prev_fitness=fit))
    n = n_frogs + n_snakes
    return PopulationState(agents=agents, frog_share=n_frogs / n, snake_share=n_snakes / n,
                           global_best_mask=new_mask([1, 0, 1]),
                           global_best_fitness=0.0)


def same_agents(xs, ys):
    """The same agent objects in the same order."""
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def ages(agents, start):
    """Each agent's place in `start` by identity; None for one not in it."""
    return [next((i for i, b in enumerate(start) if b is a), None) for a in agents]


def test_resize_balanced():
    pop = make_population(20, 20)
    resize_groups(pop, (0.5, 0.5))
    assert len(pop.frogs()) == 20


def test_resize_grows_frogs_from_worst_snakes():
    pop = make_population(20, 20)
    worst_snakes = sorted(pop.snakes(), key=lambda a: -a.fitness)[:4]
    resize_groups(pop, (0.6, 0.4))
    assert len(pop.frogs()) == 24
    assert len(pop.snakes()) == 16
    assert all(a.group is Group.FROG for a in worst_snakes)


def test_resize_relabels_the_earliest_of_equally_fit_agents_first():
    pop = make_population(20, 20, fitnesses=[0.5] * 40)
    snakes = pop.snakes()
    resize_groups(pop, (0.6, 0.4))
    assert same_agents([a for a in snakes if a.group is Group.FROG], snakes[:4])

    pop = make_population(20, 20, fitnesses=[0.5] * 40)
    frogs = pop.frogs()
    resize_groups(pop, (0.4, 0.6))
    assert same_agents([a for a in frogs if a.group is Group.SNAKE], frogs[:4])


def test_resize_clamps_to_keep_one_snake():
    pop = make_population(20, 20)
    resize_groups(pop, (0.999, 0.001))
    assert len(pop.frogs()) == 39
    assert len(pop.snakes()) == 1


def test_ess_reseeds_small_group():
    pop = make_population(2, 38)
    ess_mutation(pop, 2)
    assert len(pop.frogs()) == 3
    assert len(pop.snakes()) == 37
    newest = pop.agents[-1]
    assert newest.group is Group.FROG
    assert np.array_equal(newest.solution, pop.global_best_mask)
    assert len(pop.agents) == 40


def test_ess_drops_the_earliest_of_equally_fit_donors():
    pop = make_population(2, 38, fitnesses=[0.5] * 40)
    frogs, snakes = pop.frogs(), pop.snakes()
    ess_mutation(pop, 2)
    assert same_agents(pop.snakes(), snakes[1:])
    assert same_agents(pop.agents[:-1], frogs + snakes[1:])


def test_ess_leaves_balanced_groups_alone():
    pop = make_population(20, 20)
    before = list(pop.agents)
    ess_mutation(pop, 2)
    assert same_agents(pop.agents, before)


def test_ess_covers_single_member_group():
    pop = make_population(1, 39)
    ess_mutation(pop, 2)
    assert len(pop.frogs()) == 2
    assert len(pop.agents) == 40


def test_params_reject_population_below_twice_ess_threshold():
    for population, threshold in ((4, 3), (6, 4), (8, 5)):
        with pytest.raises(ConfigError, match="2 \\* ess_threshold"):
            FsroParams(population_size=population, ess_threshold=threshold)
    for population, threshold in ((4, 2), (6, 3), (8, 4), (40, 2)):
        assert FsroParams(population_size=population,
                          ess_threshold=threshold).ess_threshold == threshold


def test_ess_at_twice_the_threshold_lifts_the_thin_group_and_keeps_the_even_split():
    for frogs, snakes in ((3, 5), (5, 3), (4, 4)):
        pop = make_population(frogs, snakes)
        ess_mutation(pop, 4)
        assert (len(pop.frogs()), len(pop.snakes())) == (4, 4)


def test_ess_below_twice_the_threshold_cannot_lift_the_thin_group():
    """Why population 4 with threshold 3 is rejected: both groups reseed and cancel."""
    pop = make_population(1, 3)
    ess_mutation(pop, 3)
    assert (len(pop.frogs()), len(pop.snakes())) == (1, 3)


# --- pairing ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 4])
def test_crossover_pairs_shuffled_positions(n):
    d = 4
    for seed in range(8):
        # distinct parents, so each call names the partner it crossed with
        group = [Agent(new_mask([(i + 1) >> k & 1 for k in range(d)]), Group.FROG)
                 for i in range(n)]
        parents = [a.solution for a in group]
        calls = []

        def cross(solutions, partner, rng):
            calls.append((solutions, partner))
            children = [new_mask(np.eye(d, dtype=np.uint8)[rng.index(d)]) for _ in partner]
            return children, list(range(n))

        rng = RngStream(seed)
        records = _crossover(group, cross, rng)
        assert records == list(range(n))
        [(solutions, partner)] = calls
        assert all(a is parent for a, parent in zip(solutions, parents))

        replay = RngStream(seed)
        order = list(range(n))
        replay.shuffle(order)
        for i in range(0, n - 1, 2):
            assert (partner[order[i]], partner[order[i + 1]]) == (order[i + 1], order[i])
        if n % 2 == 1:
            assert partner[order[-1]] == order[0]
        if n == 1:
            assert partner == [0]
        # cross draws right after the one shuffle, and each agent keeps its child
        for a in group:
            assert list(a.solution) == list(np.eye(d, dtype=np.uint8)[replay.index(d)])
        assert rng.uniform() == replay.uniform()


@pytest.mark.parametrize("cross", [_two_point_group, _uniform_group])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_group_crossover_draws_per_agent_then_repair(cross, n):
    d = 4
    for seed in range(8):
        # all-zero parents and one distinct one: most children need a repair,
        # and the distinct parent shows whether a cross read a parent or a child
        parents = [new_mask([0] * d) for _ in range(n)]
        parents[0] = new_mask([1, 0, 1, 0])
        partner = [(i + 1) % n for i in range(n)]
        rng = RngStream(seed)
        children, _ = cross(list(parents), partner, rng)

        # after the shuffle, each agent draws its crossover then its repair,
        # in group order, crossing with its partner's parent solution
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
    for a in pop.agents:
        a.fitness = evaluator(a.solution)
        if pop.global_best_fitness is None or a.fitness < pop.global_best_fitness:
            pop.global_best_fitness = a.fitness
            pop.global_best_mask = a.solution.copy()
    for _ in range(10):
        before = pop.global_best_fitness
        step(pop, params, evaluator.evaluate_all, rng)
        assert len(pop.agents) == 8
        assert len(pop.frogs()) >= 1
        assert len(pop.snakes()) >= 1
        assert pop.global_best_fitness <= before
        assert abs(pop.frog_share + pop.snake_share - 1.0) < 1e-12
        assert all(a.solution.sum() >= 1 for a in pop.agents)


def test_step_deterministic_from_same_state():
    params = FsroParams(population_size=8, max_iterations=1)
    pop_a = initialize(params, 6, RngStream(21))
    for a in pop_a.agents:
        a.fitness = count_ones(a.solution)
    pop_a.global_best_fitness = min(a.fitness for a in pop_a.agents)
    pop_a.global_best_mask = pop_a.agents[0].solution.copy()
    pop_b = copy.deepcopy(pop_a)
    start_a, start_b = list(pop_a.agents), list(pop_b.agents)
    step(pop_a, params, count_ones_fitness, RngStream(77))
    step(pop_b, params, count_ones_fitness, RngStream(77))
    assert pop_a.frog_share == pop_b.frog_share
    assert ages(pop_a.agents, start_a) == ages(pop_b.agents, start_b)
    for x, y in zip(pop_a.agents, pop_b.agents):
        assert np.array_equal(x.solution, y.solution)
        assert x.fitness == y.fitness
        assert x.group == y.group


def test_run_zero_iterations_returns_initial_best():
    params = FsroParams(population_size=8, max_iterations=0)
    outcome = run_search(params, 6, count_ones_fitness, RngStream(31))
    assert len(outcome.trace) == 1
    pop = initialize(params, 6, RngStream(31))
    assert outcome.best_fitness == min(count_ones(a.solution) for a in pop.agents)


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


def mismatch_fitness(masks):
    """Fraction of bits differing from 1010...: cheap, with ties and a unique optimum."""
    return [float(np.mean(m != (np.arange(m.size) % 2 == 0))) for m in masks]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       population=st.integers(2, 10).map(lambda half: 2 * half),
       dim=st.integers(1, 12),
       iterations=st.integers(0, 5))
def test_step_keeps_population_state_invariants(seed, population, dim, iterations):
    """The PopulationState invariants hold after every step."""
    params = FsroParams(population_size=population, max_iterations=iterations)
    rng = RngStream(seed)
    pop = initialize(params, dim, rng)
    fits = mismatch_fitness([a.solution for a in pop.agents])
    for a, fit in zip(pop.agents, fits):
        a.fitness = fit
    pop.global_best_fitness = min(fits)
    pop.global_best_mask = pop.agents[fits.index(min(fits))].solution.copy()
    for _ in range(iterations):
        best = pop.global_best_fitness
        before = list(pop.agents)
        step(pop, params, mismatch_fitness, rng)
        assert abs(pop.frog_share + pop.snake_share - 1.0) < 1e-12
        assert len(pop.agents) == population
        assert pop.frogs() and pop.snakes()
        assert pop.global_best_fitness <= best
        # age order: survivors keep their relative order, clones come last
        order = ages(pop.agents, before)
        kept = [i for i in order if i is not None]
        assert kept == sorted(kept)
        assert order == kept + [None] * (len(order) - len(kept))
