"""The frog-snake search engine.

Each iteration runs, in order: two-point crossover inside the snake group,
uniform crossover inside the frog group (recording which indexes changed),
predation-point selection per frog, a capture attempt per frog against a
random snake, evaluation of every agent, a replicator-dynamics share update
that regroups agents, and a mutation that reseeds any near-extinct group with
the best solution found so far.

Crossover partners are paired by position: a group's positions are shuffled
and taken two at a time. Agents carry no identity number; the population
list is in age order, and that order breaks fitness ties.

The stream is consumed in a fixed order so runs replay exactly: group
shuffle, then per-agent crossover draws in agent-list order (snakes before
frogs), then the approach draw per frog, then capture draws per frog
(partner index, success uniform), with a one-draw repair wherever a new
solution comes out all-zero. No draws occur during evaluation or the share
update.

Row-wise draws come in speculative blocks (`draw_rows`): the initial
population's bits, and the frog group's uniform crossovers after the
shuffle, are drawn as one `RngStream.raws` block for all remaining rows. If
a row's mask comes out all-zero, the stream goes back to that row's end, its
repair draw runs, and the rows after it are drawn again in a new block. So
the stream is consumed exactly as the per-draw order above says.

Evaluation is batched: `evaluate(masks) -> list[float]` scores a list of
masks. A run calls it once for the initial population and once per
iteration, on every agent, after all of that iteration's draws. Since it
draws nothing, batching leaves the stream and the results unchanged.
`run_search` is `initialize` plus one `core.drive` call: the generation loop
of FSRO, GA and BPSO, which calls `step` and writes the trace rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Agent,
    ConfigError,
    Group,
    PopulationState,
    SearchOutcome,
    drive,
    require_finite,
)
from .rng import RngStream, uniforms

# keeps both shares representable at one agent for the default N=40
SHARE_FLOOR = 0.025


@dataclass(frozen=True)
class FsroParams:
    population_size: int = 40
    max_iterations: int = 100
    max_dis: float = 80.0
    decision_dis: float = 6.0
    w1: float = 0.75
    w2: float = 1.0
    d1: float = 40.0
    d2: float = 20.0
    ess_threshold: int = 2

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
        if self.ess_threshold < 1:
            raise ConfigError(f"ess_threshold must be >= 1, got {self.ess_threshold}")
        # Below 2 * threshold, an uneven split can leave both groups at or
        # under the threshold; both reseed, the two reseeds cancel, and the
        # thin group is never lifted. At 2 * threshold only the even split
        # has both groups there, and its two reseeds keep it even.
        if self.population_size < 2 * self.ess_threshold:
            raise ConfigError(
                f"population_size must be >= 2 * ess_threshold, got "
                f"{self.population_size} with ess_threshold={self.ess_threshold}"
            )

    def search(self, dim: int, evaluate, rng: RngStream) -> SearchOutcome:
        return run_search(self, dim, evaluate, rng)


@dataclass(frozen=True)
class CrossoverRecord:
    """Outcome of one uniform crossover, seen from one parent.

    mask[i] is True where the child took the partner's bit; changed[i] is True
    where the child actually differs from this parent; boundaries are the mask
    flip positions (i >= 1 with mask[i] != mask[i-1]), ascending.
    """

    mask: np.ndarray
    changed: np.ndarray
    boundaries: np.ndarray


def repair_mask(mask: np.ndarray, rng: RngStream) -> np.ndarray:
    """Force at least one selected bit; consumes one draw only when needed."""
    if not mask.any():
        mask[rng.index(mask.size)] = 1
    return mask


def draw_rows(rng: RngStream, count: int, width: int, build) -> list[np.ndarray]:
    """Draw `count` rows of `width` raws each, a row whose mask comes out
    all-zero followed by its repair draw, from speculative blocks.

    build(first, raws) turns the (k, width) raws of rows first..first+k-1
    into a tuple of arrays with one row per row drawn, the first being the
    uint8 masks. All remaining rows are drawn as one block. At the first
    all-zero mask the stream is set back to that row's end, the repair draw
    runs, and the rows after it are drawn again. Returns each of build's
    arrays, concatenated over the blocks.
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
            rng.advance(kept * width)
            out = tuple(item[:kept] for item in out)
            repair_mask(out[0][-1], rng)
        parts.append(out)
        first += len(out[0])
    return [np.concatenate(items) for items in zip(*parts)]


def random_masks(count: int, dim: int, rng: RngStream) -> list[np.ndarray]:
    """Masks of one fair bit per position, each followed by its zero-mask
    repair. A bit is raw & 1: bit() never rejects."""
    masks, = draw_rows(rng, count, dim, lambda first, raws: ((raws & 1).astype(np.uint8),))
    return list(masks)


def initialize(params: FsroParams, dim: int, rng: RngStream) -> PopulationState:
    """Uniform random population, half frogs half snakes, every mask non-empty."""
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    n = params.population_size
    agents = [Agent(mask, Group.FROG if i < n // 2 else Group.SNAKE)
              for i, mask in enumerate(random_masks(n, dim, rng))]
    return PopulationState(agents=agents, frog_share=0.5, snake_share=0.5)


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
    uniform of that position's raw is below 0.5."""
    mask = uniforms(raws) < 0.5
    children = np.where(mask, mates, own).astype(np.uint8)
    return children, mask, children != own


def _record(mask: np.ndarray, changed: np.ndarray) -> CrossoverRecord:
    boundaries = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    return CrossoverRecord(mask=mask, changed=changed, boundaries=boundaries)


def uniform_crossover(a: np.ndarray, b: np.ndarray,
                      rng: RngStream) -> tuple[np.ndarray, CrossoverRecord]:
    """Child takes b wherever an independent fair coin lands True."""
    if a.shape != b.shape:
        raise ValueError(f"parent lengths differ: {a.shape} vs {b.shape}")
    child, mask, changed = _uniform_children(a, b, rng.raws(a.size))
    return child, _record(mask, changed)


def determine_predation_points(record: CrossoverRecord, rng: RngStream) -> range:
    """Pick the contiguous block of solution indexes at stake in this frog's
    capture standoff.

    A random index that was changed by the crossover stakes just itself
    (escape); an unchanged index stakes the whole block from the nearest mask
    boundary to the string end on its own side (immobility), the lower of two
    equally near boundaries winning. Without any boundary the single index is
    staked.
    """
    d = record.mask.size
    s = rng.index(d)
    if record.changed[s] or record.boundaries.size == 0:
        return range(s, s + 1)
    b = int(record.boundaries[np.argmin(np.abs(record.boundaries - s))])
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


def _worst_first(agents: list[Agent]) -> list[Agent]:
    # worst (largest) fitness first; the stable sort keeps ties in age order
    return sorted(agents, key=lambda a: -a.fitness)


def resize_groups(pop: PopulationState, new_shares: tuple[float, float]) -> PopulationState:
    """Relabel the worst members of the shrinking group to match the new shares."""
    n = len(pop.agents)
    target_frogs = int(np.floor(new_shares[0] * n + 0.5))
    target_frogs = min(max(target_frogs, 1), n - 1)
    frogs = pop.frogs()
    if target_frogs > len(frogs):
        for agent in _worst_first(pop.snakes())[: target_frogs - len(frogs)]:
            agent.group = Group.FROG
    elif target_frogs < len(frogs):
        for agent in _worst_first(frogs)[: len(frogs) - target_frogs]:
            agent.group = Group.SNAKE
    return pop


def ess_mutation(pop: PopulationState, ess_threshold: int = 2) -> PopulationState:
    """Reseed any group at or below the threshold with a copy of the best
    solution so far, dropping the other group's worst agent to keep the count."""
    if pop.global_best_mask is None:
        raise ValueError("mutation needs a global best; evaluate the population first")
    sizes = {Group.FROG: len(pop.frogs()), Group.SNAKE: len(pop.snakes())}
    for group in (Group.FROG, Group.SNAKE):
        if sizes[group] > ess_threshold:
            continue
        other = Group.SNAKE if group is Group.FROG else Group.FROG
        pop.agents.append(Agent(pop.global_best_mask.copy(), group,
                                fitness=pop.global_best_fitness,
                                prev_fitness=pop.global_best_fitness))
        donors = [a for a in pop.agents if a.group is other]
        if len(donors) > 1:
            pop.agents.remove(_worst_first(donors)[0])
    return pop


def _two_point_group(parents: list[np.ndarray], partner: list[int], rng: RngStream):
    children = []
    for a, mate in zip(parents, partner):
        child, _ = two_point_crossover(a, parents[mate], rng)
        children.append(repair_mask(child, rng))
    return children, None


def _uniform_group(parents: list[np.ndarray], partner: list[int], rng: RngStream):
    own = np.array(parents)
    mates = own[partner]
    children, masks, changed = draw_rows(
        rng, len(parents), own.shape[1],
        lambda first, raws: _uniform_children(own[first:first + len(raws)],
                                              mates[first:first + len(raws)], raws))
    return list(children), [_record(m, c) for m, c in zip(masks, changed)]


def _crossover(group: list[Agent], cross, rng: RngStream):
    """Cross every agent with its partner and keep the repaired child.

    The group's positions are shuffled and paired two at a time; with an odd
    count the leftover pairs with the first shuffled position, so a singleton
    pairs with itself. Then cross(parents, partner, rng) draws, in group
    order, each agent's crossover with its partner's parent solution (never
    a child) and then its repair, and returns the repaired children and its
    records; this returns the records.
    """
    order = list(range(len(group)))
    rng.shuffle(order)
    partner = [0] * len(order)
    for i in range(0, len(order) - 1, 2):
        partner[order[i]], partner[order[i + 1]] = order[i + 1], order[i]
    if len(order) % 2 == 1:
        partner[order[-1]] = order[0]
    children, records = cross([a.solution for a in group], partner, rng)
    for a, child in zip(group, children):
        a.solution = child
    return records


def _evaluate_agents(pop: PopulationState, evaluate) -> None:
    """Score every agent in one batch, keeping the elitist best in agent order."""
    for a, fit in zip(pop.agents, evaluate([a.solution for a in pop.agents])):
        a.fitness = fit
        if pop.global_best_fitness is None or a.fitness < pop.global_best_fitness:
            pop.global_best_fitness = a.fitness
            pop.global_best_mask = a.solution.copy()


def step(pop: PopulationState, params: FsroParams, evaluate, rng: RngStream) -> PopulationState:
    """Advance the population by one full iteration."""
    for a in pop.agents:
        a.prev_fitness = a.fitness

    # snakes explore by two-point crossover (skipped for 1-bit solutions,
    # where no point pair exists)
    if pop.agents[0].solution.size >= 2:
        _crossover(pop.snakes(), _two_point_group, rng)

    # frogs exploit by uniform crossover, keeping records for the hunt
    frogs = pop.frogs()
    records = _crossover(frogs, _uniform_group, rng)

    # approach phase: stake the predation points
    stakes = [determine_predation_points(record, rng) for record in records]

    # capture phase: each frog faces one random snake
    snakes = pop.snakes()
    pop.captured = False
    for a, stake in zip(frogs, stakes):
        foe = snakes[rng.index(len(snakes))]
        dist = frog_snake_distance(a.solution, foe.solution, params.max_dis)
        a.solution, succeeded = capture(a.solution, stake, avoidance_rate(dist, params), rng)
        pop.captured |= succeeded

    _evaluate_agents(pop, evaluate)

    # replicator dynamics on this iteration's improvements
    frogs = pop.frogs()
    snakes = pop.snakes()
    frog_gain = sum(max(0.0, a.prev_fitness - a.fitness) for a in frogs)
    snake_gain = sum(max(0.0, a.prev_fitness - a.fitness) for a in snakes)
    payoffs = replicator_payoffs(frog_gain, snake_gain, len(frogs), len(snakes))
    shares = replicator_update((pop.frog_share, pop.snake_share), payoffs)
    pop.frog_share, pop.snake_share = shares
    resize_groups(pop, shares)
    ess_mutation(pop, params.ess_threshold)
    return pop


def run_search(params: FsroParams, dim: int, evaluate, rng: RngStream) -> SearchOutcome:
    """Full run: initialize and evaluate, then `drive` max_iterations steps."""
    pop = initialize(params, dim, rng)
    _evaluate_agents(pop, evaluate)
    # the lambda looks `step` up at each call, so a wrapper swapped in sees it
    return drive(params.max_iterations, pop,
                 lambda pop: step(pop, params, evaluate, rng),
                 lambda pop: (pop.global_best_fitness, pop.global_best_mask),
                 lambda pop: (len(pop.frogs()), len(pop.snakes()), pop.captured))
