"""The frog-snake search engine.

The population is one (n, d) uint8 array of masks, a row per agent, with a
bool vector that marks the frogs (the other rows are snakes) and a float64
vector of fitness. Rows are in age order, and that order breaks fitness
ties.

Each iteration runs, in order: two-point crossover inside the snake group,
uniform crossover inside the frog group (keeping each frog's crossover mask
and the positions it changed), predation-point selection per frog, a
capture attempt per frog against a random snake, evaluation of every row, a
replicator-dynamics share update that relabels rows, and a mutation that
reseeds any near-extinct group with the best solution found so far.

Crossover partners are paired by position within a group: the group's
positions are shuffled and taken two at a time.

The stream is consumed in a fixed order so runs replay exactly: group
shuffle, then per-row crossover draws in row order (snakes before frogs),
then the approach draw per frog, then capture draws per frog (partner
index, success uniform), with a one-draw repair wherever a new solution
comes out all-zero. No draws occur during evaluation or the share update.

Row-wise draws come in speculative blocks (`draw_rows`): the initial
population's bits, and the frog group's uniform crossovers after the
shuffle, are drawn as one `RngStream.raws` block for all remaining rows. If
a row's mask comes out all-zero, the stream goes back to that row's end, its
repair draw runs, and the rows after it are drawn again in a new block. So
the stream is consumed exactly as the per-draw order above says.

Evaluation is batched: `evaluate(masks) -> list[float]` scores the rows of
the (n, d) population array, which it is passed as is. A run calls it once
for the initial population and once per iteration, on every row, after all
of that iteration's draws. Since it draws nothing, batching leaves the
stream and the results unchanged. `run_search` is `initialize` plus one
`core.drive` call: the generation loop of FSRO, GA and BPSO, which calls
`step` and writes the trace rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, PopulationState, SearchOutcome, drive, require_finite
from .rng import RngStream, uniforms

# keeps both shares representable at one agent for the default N=40
SHARE_FLOOR = 0.025

# A group of this many rows or fewer is reseeded by `ess_mutation`. Twice
# the threshold is the smallest population (4), so both groups can be that
# thin only on an even split, and their two reseeds then keep it even.
ESS_THRESHOLD = 2


@dataclass(frozen=True)
class FsroParams:
    """Frog-snake search settings; every field has a CLI flag.

    population_size is the even number of rows (>= 4), half of them frogs
    at the start, and max_iterations the number of steps. max_dis scales the
    share of mismatched bits between a frog and its snake into a distance.
    An escape rate is (w * distance + d) / 100, clamped into [0, 1]: the
    (w1, d1) avoidance line up to decision_dis, the (w2, d2) line beyond
    it. Distances, decision_dis and the d terms are in percent. The group
    size at which the ESS mutation reseeds is the module constant
    ESS_THRESHOLD.
    """

    population_size: int = 40
    max_iterations: int = 100
    max_dis: float = 80.0
    decision_dis: float = 6.0
    w1: float = 0.75
    w2: float = 1.0
    d1: float = 40.0
    d2: float = 20.0

    def __post_init__(self):
        require_finite(self, "max_dis", "decision_dis", "w1", "w2", "d1", "d2")
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise ConfigError(
                f"population_size must be an even integer >= 4, got {self.population_size}"
            )
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.max_dis <= 0 or self.decision_dis <= 0:
            raise ConfigError("max_dis and decision_dis must be positive")

    def search(self, dim: int, evaluate, rng: RngStream) -> SearchOutcome:
        return run_search(self, dim, evaluate, rng)


def repair_mask(mask: np.ndarray, rng: RngStream) -> np.ndarray:
    """Force at least one selected bit; consumes one draw only when needed."""
    if not np.count_nonzero(mask):  # a third of mask.any()'s cost on a short row
        mask[rng.index(mask.size)] = 1
    return mask


def draw_rows(rng: RngStream, count: int, width: int, build) -> list[np.ndarray]:
    """Draw `count` rows of `width` raws each, a row whose mask comes out
    all-zero followed by its repair draw, from speculative blocks.

    build(first, raws) turns the (k, width) raws of rows first..first+k-1
    into a tuple of arrays with one row per row drawn, the first being the
    uint8 masks. All remaining rows are drawn as one block. At the first
    all-zero mask the stream is set back to the block's start and the rows
    up to that one are drawn again, which leaves it at that row's end; the
    repair draw runs, and the rows after it are drawn as the next block.
    Returns each of build's arrays, concatenated over the blocks.
    """
    parts = []
    first = 0
    while first < count:
        start = rng.getstate()
        raws = rng.raws((count - first) * width).reshape(count - first, width)
        out = build(first, raws)
        empty = np.flatnonzero(~out[0].any(axis=1))
        if empty.size:
            kept = int(empty[0]) + 1
            rng.setstate(start)
            rng.raws(kept * width)
            out = tuple(item[:kept] for item in out)
            repair_mask(out[0][-1], rng)
        parts.append(out)
        first += len(out[0])
    return [np.concatenate(items) for items in zip(*parts)]


def random_masks(count: int, dim: int, rng: RngStream) -> np.ndarray:
    """(count, dim) uint8 masks of one fair bit per position, each row
    followed by its zero-mask repair. A bit is raw & 1: bit() never rejects."""
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    masks, = draw_rows(rng, count, dim, lambda first, raws: ((raws & 1).astype(np.uint8),))
    return masks


def initialize(params: FsroParams, dim: int, rng: RngStream) -> PopulationState:
    """Uniform random population, half frogs half snakes, every mask non-empty."""
    n = params.population_size
    return PopulationState(solutions=random_masks(n, dim, rng), frog=np.arange(n) < n // 2,
                           fitness=np.full(n, np.nan), frog_share=0.5, snake_share=0.5)


def two_point_crossover(a: np.ndarray, b: np.ndarray,
                        rng: RngStream) -> tuple[np.ndarray, tuple[int, int]]:
    """Child takes b on a random inclusive segment [p1, p2], a elsewhere."""
    if a.shape != b.shape:
        raise ValueError(f"parent lengths differ: {a.shape} vs {b.shape}")
    d = a.size
    if d < 2:
        raise ValueError("two-point crossover needs at least 2 positions")
    p1 = rng.index(d)
    p2 = rng.index(d - 1)
    if p2 >= p1:
        p2 += 1
    if p1 > p2:
        p1, p2 = p2, p1
    child = a.copy()
    child[p1:p2 + 1] = b[p1:p2 + 1]
    return child, (p1, p2)


def _uniform_children(own: np.ndarray, mates: np.ndarray, raws: np.ndarray):
    """(children, mask, changed): a child takes its mate's bit where the
    uniform of that position's raw is below 0.5; mask marks those positions
    and changed the positions where the child differs from its own parent."""
    mask = uniforms(raws) < 0.5
    children = np.where(mask, mates, own).astype(np.uint8)
    return children, mask, children != own


def uniform_crossover(a: np.ndarray, b: np.ndarray,
                      rng: RngStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(child, mask, changed): the child takes b wherever an independent
    fair coin lands True."""
    if a.shape != b.shape:
        raise ValueError(f"parent lengths differ: {a.shape} vs {b.shape}")
    return _uniform_children(a, b, rng.raws(a.size))


def determine_predation_points(mask: np.ndarray, changed: np.ndarray, rng: RngStream) -> range:
    """Pick the contiguous block of solution indexes at stake in this frog's
    capture standoff, from its uniform crossover's mask and changed rows.

    A random index that was changed by the crossover stakes just itself
    (escape); an unchanged index stakes the whole block from the nearest mask
    boundary (an i >= 1 with mask[i] != mask[i-1]) to the string end on its
    own side (immobility), the lower of two equally near boundaries winning.
    Without any boundary the single index is staked.
    """
    d = mask.size
    s = rng.index(d)
    boundaries = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    if changed[s] or boundaries.size == 0:
        return range(s, s + 1)
    b = int(boundaries[np.argmin(np.abs(boundaries - s))])
    return range(b, d) if s >= b else range(0, b)


def frog_snake_distance(frog: np.ndarray, snake: np.ndarray, max_dis: float) -> float:
    """max_dis scaled by the fraction of mismatched positions."""
    if frog.shape != snake.shape:
        raise ValueError(f"solution lengths differ: {frog.shape} vs {snake.shape}")
    d = frog.size
    matches = int(np.sum(frog == snake))
    return max_dis * (d - matches) / d


def avoidance_rate(distance: float, params: FsroParams) -> float:
    """Escape probability, clamped into [0, 1]: the (w1, d1) line up to
    decision_dis, the (w2, d2) line beyond it."""
    if distance <= params.decision_dis:
        raw = (params.w1 * distance + params.d1) / 100.0
    else:
        raw = (params.w2 * distance + params.d2) / 100.0
    return min(max(raw, 0.0), 1.0)


def capture(solution: np.ndarray, stake: range, rate: float,
            rng: RngStream) -> tuple[np.ndarray, bool]:
    """Attempt the capture: with probability 1 - rate the staked bits flip."""
    succeeded = rng.uniform() < (1.0 - rate)
    if not succeeded:
        return solution, False
    flipped = solution.copy()
    flipped[stake.start:stake.stop] ^= 1
    repair_mask(flipped, rng)
    return flipped, True


def replicator_payoffs(frog_improvement_sum: float, snake_improvement_sum: float,
                       n_frogs: int, n_snakes: int) -> tuple[float, float]:
    """Normalize per-group average fitness improvements into payoffs summing to 1."""
    if n_frogs < 1 or n_snakes < 1:
        raise ValueError("both groups must be non-empty to compute payoffs")
    avg_f = frog_improvement_sum / n_frogs
    avg_s = snake_improvement_sum / n_snakes
    total = avg_f + avg_s
    if total == 0.0:
        return 0.5, 0.5
    return avg_f / total, avg_s / total


def replicator_update(shares: tuple[float, float], payoffs: tuple[float, float],
                      floor: float = SHARE_FLOOR) -> tuple[float, float]:
    """Grow the share of the better-paying group: x' = x + x(u - u_mean).

    Results are clamped into [floor, 1 - floor] and renormalized so neither
    group can go extinct.
    """
    x_f, x_s = shares
    u_f, u_s = payoffs
    u_mean = x_f * u_f + x_s * u_s
    new_f = x_f + x_f * (u_f - u_mean)
    new_s = x_s + x_s * (u_s - u_mean)
    new_f = min(max(new_f, floor), 1.0 - floor)
    new_s = min(max(new_s, floor), 1.0 - floor)
    total = new_f + new_s
    return new_f / total, new_s / total


def _worst_first(pop: PopulationState, frog: bool) -> np.ndarray:
    """The group's rows, worst (largest) fitness first; the stable sort keeps
    ties in age order."""
    rows = np.flatnonzero(pop.frog == frog)
    return rows[np.argsort(-pop.fitness[rows], kind="stable")]


def resize_groups(pop: PopulationState, new_shares: tuple[float, float]) -> PopulationState:
    """Relabel the worst members of the shrinking group to match the new shares."""
    n = len(pop.frog)
    target_frogs = int(np.floor(new_shares[0] * n + 0.5))
    target_frogs = min(max(target_frogs, 1), n - 1)
    n_frogs = int(pop.frog.sum())
    if target_frogs != n_frogs:
        grow = target_frogs > n_frogs
        pop.frog[_worst_first(pop, not grow)[:abs(target_frogs - n_frogs)]] = grow
    return pop


def ess_mutation(pop: PopulationState, ess_threshold: int) -> PopulationState:
    """Reseed any group at or below the threshold with a copy of the best
    solution so far, dropping the other group's worst row to keep the count."""
    if pop.global_best_mask is None:
        raise ValueError("mutation needs a global best; evaluate the population first")
    n_frogs = int(pop.frog.sum())
    for frog, size in ((True, n_frogs), (False, len(pop.frog) - n_frogs)):
        if size > ess_threshold:
            continue
        pop.solutions = np.vstack([pop.solutions, pop.global_best_mask])
        pop.frog = np.append(pop.frog, frog)
        pop.fitness = np.append(pop.fitness, pop.global_best_fitness)
        donors = _worst_first(pop, not frog)
        if donors.size > 1:
            pop.solutions, pop.frog, pop.fitness = (
                np.delete(a, donors[0], axis=0) for a in (pop.solutions, pop.frog, pop.fitness))
    return pop


def _partners(n: int, rng: RngStream) -> list[int]:
    """Each of a group's n positions' crossover partner.

    The positions are shuffled and paired two at a time; with an odd count
    the leftover pairs with the first shuffled position, so a singleton
    pairs with itself.
    """
    order = list(range(n))
    rng.shuffle(order)
    partner = [0] * n
    for i in range(0, n - 1, 2):
        partner[order[i]], partner[order[i + 1]] = order[i + 1], order[i]
    if n % 2 == 1:
        partner[order[-1]] = order[0]
    return partner


def _two_point_group(parents: np.ndarray, partner: list[int], rng: RngStream) -> np.ndarray:
    """The repaired children of each parent row's two-point crossover with
    its partner's parent (never a child), drawn in row order."""
    return np.array([repair_mask(two_point_crossover(a, parents[mate], rng)[0], rng)
                     for a, mate in zip(parents, partner)])


def _uniform_group(parents: np.ndarray, partner: list[int], rng: RngStream):
    """[children, mask, changed] of each parent row's uniform crossover with
    its partner's parent, in row order, drawn in blocks by `draw_rows`."""
    mates = parents[partner]
    return draw_rows(rng, len(parents), parents.shape[1],
                     lambda first, raws: _uniform_children(parents[first:first + len(raws)],
                                                           mates[first:first + len(raws)], raws))


def _evaluate(pop: PopulationState, evaluate) -> None:
    """Score every row in one batch. The best so far moves to the first
    fittest row, and only on a strict gain."""
    pop.fitness = np.array(evaluate(pop.solutions), dtype=np.float64)
    i = int(np.argmin(pop.fitness))
    if pop.global_best_fitness is None or pop.fitness[i] < pop.global_best_fitness:
        pop.global_best_fitness = float(pop.fitness[i])
        pop.global_best_mask = pop.solutions[i].copy()


def step(pop: PopulationState, params: FsroParams, evaluate, rng: RngStream) -> PopulationState:
    """Advance the population by one full iteration."""
    prev_fitness = pop.fitness
    frogs, snakes = np.flatnonzero(pop.frog), np.flatnonzero(~pop.frog)

    # snakes explore by two-point crossover (skipped for 1-bit solutions,
    # where no point pair exists)
    if pop.solutions.shape[1] >= 2:
        partner = _partners(len(snakes), rng)
        pop.solutions[snakes] = _two_point_group(pop.solutions[snakes], partner, rng)

    # frogs exploit by uniform crossover, keeping its masks for the hunt
    partner = _partners(len(frogs), rng)
    children, masks, changed = _uniform_group(pop.solutions[frogs], partner, rng)
    pop.solutions[frogs] = children

    # approach phase: stake the predation points
    stakes = [determine_predation_points(m, c, rng) for m, c in zip(masks, changed)]

    # capture phase: each frog faces one random snake
    pop.captured = False
    for i, stake in zip(frogs, stakes):
        foe = snakes[rng.index(len(snakes))]
        dist = frog_snake_distance(pop.solutions[i], pop.solutions[foe], params.max_dis)
        pop.solutions[i], succeeded = capture(pop.solutions[i], stake,
                                              avoidance_rate(dist, params), rng)
        pop.captured |= succeeded

    _evaluate(pop, evaluate)

    # replicator dynamics on this iteration's improvements, summed in row
    # order one Python float at a time
    gains = np.maximum(0.0, prev_fitness - pop.fitness)
    payoffs = replicator_payoffs(sum(gains[frogs].tolist()), sum(gains[snakes].tolist()),
                                 len(frogs), len(snakes))
    shares = replicator_update((pop.frog_share, pop.snake_share), payoffs)
    pop.frog_share, pop.snake_share = shares
    resize_groups(pop, shares)
    ess_mutation(pop, ESS_THRESHOLD)
    return pop


def run_search(params: FsroParams, dim: int, evaluate, rng: RngStream) -> SearchOutcome:
    """Full run: initialize and evaluate, then `drive` max_iterations steps."""
    pop = initialize(params, dim, rng)
    _evaluate(pop, evaluate)
    # the lambda looks `step` up at each call, so a wrapper swapped in sees it
    return drive(params.max_iterations, pop,
                 lambda pop: step(pop, params, evaluate, rng),
                 lambda pop: (pop.global_best_fitness, pop.global_best_mask),
                 lambda pop: (int(pop.frog.sum()), int((~pop.frog).sum()), pop.captured))
